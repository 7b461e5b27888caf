package operator

import (
	"runtime"
	"strings"
	"testing"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
	"dbs3/internal/storage"
)

// TestInstanceLockIsTheOnlyLock: every operator with mutable instance state
// keeps it under its instance's Context.Mu and nothing wider. With instance
// 0's lock held, instance 1's OnBatch runs to completion while instance 0's
// stays parked on that lock; once it is released, instance 0's call finishes
// and both runs are in what the operator kept — in memory, in spill runs or
// in Grace probe partitions.
func TestInstanceLockIsTheOnlyLock(t *testing.T) {
	w := relation.Wisconsin("w", 4000, 1).Tuples
	runs := [2][]relation.Tuple{w[:200], w[200:400]}
	key := []int{relation.WisconsinSchema.MustIndex("unique1")}
	cases := []struct {
		name string
		// grant, when non-zero, gives the operator a spill env of that many
		// bytes.
		grant int64
		build func(env *storage.SpillEnv) Operator
		// spills says the rows must have gone to disk.
		spills bool
	}{
		{"store", 0, func(*storage.SpillEnv) Operator { return &Store{} }, false},
		{"store/spilling", storage.BlockSize, func(env *storage.SpillEnv) Operator { return &Store{Spill: env} }, true},
		{"join/grace", 16 << 10, func(env *storage.SpillEnv) Operator {
			return &Join{Algo: lera.HashJoin, BuildKey: key, ProbeKey: key, Spill: env}
		}, true},
		{"aggregate", 0, func(*storage.SpillEnv) Operator {
			return &Aggregate{GroupBy: key, Kind: lera.AggCount, AggCol: -1}
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var env *storage.SpillEnv
			if c.grant > 0 {
				var err error
				if env, err = storage.NewSpillEnv(t.TempDir(), c.grant, 0, nil); err != nil {
					t.Fatal(err)
				}
				defer env.Close()
			}
			op := c.build(env)
			ctxs := []*Context{{Instance: 0, Build: w}, {Instance: 1, Build: w}}
			for _, ctx := range ctxs {
				if err := op.Setup(ctx); err != nil {
					t.Fatal(err)
				}
			}
			emit := func(relation.Tuple) { t.Error("OnBatch emitted") }

			ctxs[0].Mu.Lock()
			done := make(chan error, 1)
			go func() { done <- op.OnBatch(ctxs[0], runs[0], emit) }()
			if err := op.OnBatch(ctxs[1], runs[1], emit); err != nil {
				t.Fatal(err)
			}
			for !parkedInOnBatch() {
				if len(done) > 0 {
					ctxs[0].Mu.Unlock()
					t.Fatal("instance 0's OnBatch returned while its instance lock was held")
				}
				runtime.Gosched()
			}
			ctxs[0].Mu.Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			var got [2]int
			if s, ok := op.(*Store); ok {
				frags, err := s.Results(ctxs)
				if err != nil {
					t.Fatal(err)
				}
				got = [2]int{len(frags[0]), len(frags[1])}
			} else {
				for i, ctx := range ctxs {
					err := op.OnClose(ctx, func(relation.Tuple) { got[i]++ })
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if got[0] != len(runs[0]) || got[1] != len(runs[1]) {
				t.Errorf("instances kept %v tuples, want %d and %d", got, len(runs[0]), len(runs[1]))
			}
			if _, passes := op.(interface{ SpillStats() (int64, int64) }).SpillStats(); c.spills != (passes > 0) {
				t.Errorf("%d spill passes, want spilling %v", passes, c.spills)
			}
		})
	}
}

// parkedInOnBatch reports whether some goroutine is parked on a mutex that an
// operator's OnBatch locked itself, read from the goroutine dump: a parked
// goroutine's header says [sync.Mutex.Lock], and its OnBatch frame is the one
// right under sync.(*Mutex).Lock (each frame is a function line and a file
// line).
func parkedInOnBatch() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "[sync.Mutex.Lock") {
			continue
		}
		lines := strings.Split(g, "\n")
		for i, l := range lines {
			if strings.HasPrefix(l, "sync.(*Mutex).Lock(") && i+2 < len(lines) &&
				strings.HasPrefix(lines[i+2], "dbs3/internal/operator.") && strings.Contains(lines[i+2], ").OnBatch(") {
				return true
			}
		}
	}
	return false
}
