package main

import (
	"context"
	"fmt"
	"os"
)

// runSweep drives cluster-open at multiples of the frozen rate and reports
// where it stops keeping up. It is outside the default run and its time cap,
// and no named metric depends on it.
func runSweep(ctx context.Context, cfg runConfig) int {
	const name = "cluster-open"
	limit := ms(latencyLimit[name])
	fmt.Printf("%-8s %10s %10s %14s %8s %10s %10s  %s\n", "rate/s", "p50 ms", "p95 ms", "within_limit", "dropped", "lag95 ms", "last/1st", "keeps up")
	best := 0.0
	for _, mult := range []float64{0.5, 1, 2, 4} {
		rate := clusterRate * mult
		var sec *section
		var backlog float64
		err := pass(ctx, name, cfg, 1, func(w workload, _ [][]float64, _, _ float64) error {
			w.(*clusterWorkload).arrivals = rate
			sec = measure(ctx, w, name, rounds, cfg.roundLen, cfg.seed, []int{0}, nil)
			// A backlog that grows shows as latency rising round over round.
			first, last := sec.rounds[0].P50ms, sec.rounds[len(sec.rounds)-1].P50ms
			backlog = last / first
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		var all, lag []float64
		within := 0
		for _, s := range sec.samples {
			if s.ok {
				all = append(all, s.ms)
				lag = append(lag, s.lagMS)
				if s.ms <= limit {
					within++
				}
			}
		}
		share := float64(within) / float64(len(sec.samples))
		// Keeping up: the limit is met at the percentile the benchmark reports,
		// nothing was dropped, and the last round is not far slower than the first.
		keeps := share >= 0.95 && sec.dropped == 0 && backlog < 2
		if keeps {
			best = rate
		}
		fmt.Printf("%-8.0f %10.3f %10.3f %14.4f %8d %10.3f %10.2f  %t\n", rate, median(all), quantile(all, 0.95), share, sec.dropped, quantile(lag, 0.95), backlog, keeps)
		if sec.failed > 0 {
			fmt.Fprintf(os.Stderr, "%d operations failed at %.0f/s: %v\n", sec.failed, rate, sec.firstErr)
			return 1
		}
	}
	fmt.Printf("highest rate that meets %.0f ms for 95%% of arrivals without a growing backlog: %.0f/s\n", limit, best)
	return 0
}
