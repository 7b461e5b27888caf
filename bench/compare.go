package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is by how much of base the metric got worse; negative when it
// got better.
func worsening(d metricDef, base, next float64) float64 {
	if base == 0 {
		return 0
	}
	if d.better == "higher" {
		return (base - next) / base
	}
	return (next - base) / base
}

// verdict judges one metric of one workload. A shift is only called when the
// rounds it was measured from are steadier than the bound; otherwise the
// pair is unresolved, not unchanged.
func verdict(d metricDef, base, next value) string {
	switch {
	case d.demoted:
		return "demoted"
	case max(base.Spread, next.Spread) > d.bound:
		return "unresolved"
	case worsening(d, base.Value, next.Value) > d.bound:
		return "worse"
	}
	return "ok"
}

// compareFiles prints, per workload and end-to-end metric, base, new, their
// ratio, the bound and a verdict. It returns non-zero when any metric is
// worse or a workload's failed share rose.
func compareFiles(basePath, nextPath string) int {
	base, err := readReport(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	next, err := readReport(nextPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	bad := false
	fmt.Printf("%-13s %-19s %14s %14s %18s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, name := range workloadNames {
		b, n := base.Workloads[name], next.Workloads[name]
		if b == nil || n == nil {
			continue
		}
		for _, d := range endToEnd {
			bv, nv := b.EndToEnd[d.name], n.EndToEnd[d.name]
			v := verdict(d, bv, nv)
			ratio := 0.0
			if bv.Value != 0 {
				ratio = nv.Value / bv.Value
			}
			fmt.Printf("%-13s %-19s %14.4f %14.4f %7.3f of %-8.4g %6.2f  %s\n", name, d.name, bv.Value, nv.Value, ratio, bv.Value, d.bound, v)
			bad = bad || v == "worse"
		}
		bs, ns := float64(b.Failed)/float64(b.Attempted), float64(n.Failed)/float64(n.Attempted)
		fmt.Printf("%-13s %-19s %14.6f %14.6f\n", name, "failed_share", bs, ns)
		bad = bad || ns > bs
	}
	if bad {
		return 1
	}
	return 0
}

// runRepeat runs the untraced passes n times and prints each end-to-end
// metric's run-to-run range, the check that the benchmark agrees with itself.
func runRepeat(ctx context.Context, cfg runConfig, names []string, n int) int {
	code := 0
	for _, name := range names {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			c := cfg
			c.seed += int64(i)
			res := runUntraced(ctx, name, c)
			if !res.Correct || res.Failed > 0 {
				fmt.Fprintf(os.Stderr, "%s run %d: failed %d of %d: %s\n", name, i, res.Failed, res.Attempted, res.Error)
				code = 1
			}
			for k, v := range res.EndToEnd {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Printf("== %s over %d runs\n", name, n)
		for _, d := range endToEnd {
			xs := values[d.name]
			lo, hi, med := quantile(xs, 0), quantile(xs, 1), median(xs)
			fmt.Printf("   %-19s median %12.4f %-6s range %.4f..%.4f = %.3f of median, iqr %.3f (bound %.2f)\n",
				d.name, med, d.unit, lo, hi, (hi-lo)/med, iqrSpread(xs), d.bound)
		}
	}
	return code
}
