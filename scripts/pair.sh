#!/usr/bin/env bash
# Paired benchmark runs: <ref> against the checkout as it is on disk.
#
#   scripts/pair.sh <ref> [pairs]
#
# Copies <ref> (git archive) and the checkout (tracked and untracked files
# that are not ignored) into a scratch directory, then runs `bench/run.sh
# --trace 0 --seconds 18 --seed i` on each copy for i = 1..pairs (default
# 10), alternating which side goes first. It prints, for every workload and
# every end-to-end metric BENCHMARK.json gates, the median and quartiles of
# each side (a metric in seconds is printed in milliseconds, so a set-up of
# a few milliseconds keeps its spread), the ratio of the medians, how many
# of the pairs the checkout won, and the metric's bound. Nothing is written under the checkout: each
# copy builds and writes its results in the scratch directory, which is
# removed on exit (set KEEP=1 to keep it).
set -euo pipefail

ref=${1:?usage: scripts/pair.sh <ref> [pairs]}
pairs=${2:-10}
root=$(git rev-parse --show-toplevel)
scratch=$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")
cleanup() {
    if [ "${KEEP:-0}" = 1 ]; then
        echo "kept $scratch" >&2
    else
        rm -rf "$scratch"
    fi
}
trap cleanup EXIT

mkdir -p "$scratch/ref" "$scratch/change" "$scratch/out" "$scratch/summary"
git -C "$root" archive "$ref" | tar -xf - -C "$scratch/ref"
(
    cd "$root"
    git ls-files -z -co --exclude-standard |
        while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
        tar --null -T - -cf - | tar -xf - -C "$scratch/change"
)
echo "ref $(git -C "$root" rev-parse --short "$ref") against the checkout, $pairs pairs, scratch $scratch" >&2

run() { # side seed
    local log="$scratch/out/$1-$2.log"
    if ! bash "$scratch/$1/bench/run.sh" --trace 0 --seconds 18 --seed "$2" --out "$scratch/out/$1-$2" >"$log" 2>&1; then
        echo "$1 seed $2 failed; see its log:" >&2
        tail -5 "$log" >&2
    fi
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then
        run ref "$i"
        run change "$i"
    else
        run change "$i"
        run ref "$i"
    fi
    echo "pair $i of $pairs done" >&2
done

cat >"$scratch/summary/go.mod" <<'EOF'
module pairsummary

go 1.24
EOF
cat >"$scratch/summary/main.go" <<'EOF'
// Command pairsummary prints the paired table of scripts/pair.sh.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

type result struct {
	Workloads map[string]*struct {
		Correct  bool  `json:"correct"`
		Failed   int64 `json:"failed"`
		EndToEnd map[string]struct {
			Value float64 `json:"value"`
		} `json:"end_to_end"`
	} `json:"workloads"`
}

// quartiles returns the lower quartile, median and upper quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func main() {
	dir, specFile := os.Args[1], os.Args[2]
	pairs, _ := strconv.Atoi(os.Args[3])
	var sp spec
	buf, err := os.ReadFile(specFile)
	if err == nil {
		err = json.Unmarshal(buf, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	load := func(side string, i int) *result {
		var r result
		buf, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-%d", side, i), "result.json"))
		if err != nil || json.Unmarshal(buf, &r) != nil {
			return nil
		}
		return &r
	}
	fmt.Printf("%-13s %-14s %-4s %-27s %-27s %6s %6s %6s\n", "workload", "metric", "unit", "ref median [q1, q3]", "change median [q1, q3]", "ratio", "wins", "bound")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			unit, scale := m.Unit, 1.0
			if unit == "s" {
				unit, scale = "ms", 1000
			}
			var ref, change []float64
			wins, failed := 0, 0
			for i := 1; i <= pairs; i++ {
				a, b := load("ref", i), load("change", i)
				if a == nil || b == nil || a.Workloads[w.Name] == nil || b.Workloads[w.Name] == nil {
					failed++
					continue
				}
				ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
				if !ra.Correct || !rb.Correct || ra.Failed+rb.Failed > 0 {
					failed++
				}
				x, y := scale*ra.EndToEnd[m.Name].Value, scale*rb.EndToEnd[m.Name].Value
				ref, change = append(ref, x), append(change, y)
				if (m.Better == "lower" && y < x) || (m.Better == "higher" && y > x) {
					wins++
				}
			}
			if len(ref) == 0 {
				fmt.Printf("%-13s %-14s no complete pair\n", w.Name, m.Name)
				continue
			}
			a1, am, a3 := quartiles(ref)
			b1, bm, b3 := quartiles(change)
			note := ""
			if failed > 0 {
				note = fmt.Sprintf("  (%d pairs incomplete or failed)", failed)
			}
			fmt.Printf("%-13s %-14s %-4s %8.3f [%7.3f, %7.3f] %8.3f [%7.3f, %7.3f] %6.3f %3d/%-2d %6.2f%s\n",
				w.Name, m.Name, unit, am, a1, a3, bm, b1, b3, bm/am, wins, len(ref), m.Bound, note)
		}
	}
}
EOF
(cd "$scratch/summary" && GOTOOLCHAIN=local GOFLAGS= go run . "$scratch/out" "$root/BENCHMARK.json" "$pairs")
