package operator

import (
	"fmt"
	"testing"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/storage"
)

// TestGraceOneSidedPartitionsCountTheirBytes: a Grace join whose build side
// went to disk reports every page its partitions wrote, including those of
// partitions the probe side never reached, so the operator's spill counters
// agree with the query's accountant.
func TestGraceOneSidedPartitionsCountTheirBytes(t *testing.T) {
	build := relation.Wisconsin("w", 4000, 1).Tuples
	for _, probes := range []int{0, 1} {
		t.Run(fmt.Sprintf("probes=%d", probes), func(t *testing.T) {
			env, err := storage.NewSpillEnv(t.TempDir(), 16<<10, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			j := &Join{Algo: lera.HashJoin, BuildKey: []int{0}, ProbeKey: []int{0}, Spill: env}
			ctx := &Context{Build: build, Probe: build[:probes]}
			if err := j.Setup(ctx); err != nil {
				t.Fatal(err)
			}
			if _, ok := ctx.State.(*graceState); !ok {
				t.Fatal("the build side did not go to disk")
			}
			emit, out := collect()
			if err := j.OnTrigger(ctx, emit); err != nil {
				t.Fatal(err)
			}
			if err := j.OnClose(ctx, emit); err != nil {
				t.Fatal(err)
			}
			if len(*out) != probes {
				t.Errorf("%d rows joined, want %d", len(*out), probes)
			}
			opBytes, opPasses := j.SpillStats()
			envBytes, envPasses := env.Spilled()
			if envBytes == 0 || opBytes != envBytes || opPasses != envPasses {
				t.Errorf("operator spilled %d B over %d passes, accountant %d B over %d", opBytes, opPasses, envBytes, envPasses)
			}
		})
	}
}
