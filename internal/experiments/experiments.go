// Package experiments regenerates every measured figure of the paper's
// evaluation (§5) on the virtual-time simulator with the calibrated KSR1
// cost model. Each FigNN function returns the figure's data series;
// cmd/dbs3-bench prints them, and the package tests assert the paper's shape
// claims (who wins, by how much, where the crossovers fall).
package experiments

import (
	"fmt"
	"strings"
)

// Point is one measurement.
type Point struct {
	X, Y float64
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Y returns the series value at x (exact match), or NaN-free ok=false.
func (s Series) Y(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Figure is one reproduced figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Find returns the named series.
func (f *Figure) Find(name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// Table renders the figure as an aligned text table, one row per X value,
// one column per series — the paper's rows/series in plain text.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	// Collect the union of X values in first-series order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	fmt.Fprintf(&b, "%16s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " | %22s", s.Name)
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "%16.3f", x)
		for _, s := range f.Series {
			if y, ok := s.Y(x); ok {
				fmt.Fprintf(&b, " | %22.4f", y)
			} else {
				fmt.Fprintf(&b, " | %22s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// All runs every figure driver, in paper order, followed by the extension
// experiments (the paper's §6 future work).
func All() []*Figure {
	return []*Figure{
		Fig8(), Fig9(), Fig12(), Fig13(), Fig14(), Fig15(), Fig16(), Fig17(), Fig18(), Fig19(),
		ExtGrain(),
	}
}

// ByID returns one figure driver by id ("8", "9", "12"..."19").
func ByID(id string) (*Figure, error) {
	switch id {
	case "8":
		return Fig8(), nil
	case "9":
		return Fig9(), nil
	case "12":
		return Fig12(), nil
	case "13":
		return Fig13(), nil
	case "14":
		return Fig14(), nil
	case "15":
		return Fig15(), nil
	case "16":
		return Fig16(), nil
	case "17":
		return Fig17(), nil
	case "18":
		return Fig18(), nil
	case "19":
		return Fig19(), nil
	case "grain", "ext-grain":
		return ExtGrain(), nil
	default:
		return nil, fmt.Errorf("experiments: no figure %q (have 8, 9, 12-19, grain)", id)
	}
}
