package operator

import (
	"fmt"
	"reflect"
	"testing"

	"dbs3/internal/lera"
	"dbs3/internal/race"
	"dbs3/internal/relation"
)

// TestResultTuplesComeFromTheScratchSlab: whatever run a probe tuple comes
// in — the whole bound fragment at once, a run of one, a run of 64 — and
// whichever algorithm joins it, the result tuples are carved from the pooled
// scratch slab, so a run's allocations are the slab's chunks (one per 4096
// values) and do not grow with the tuples joined. The same for
// Map's projections and an aggregate's outputs.
func TestResultTuplesComeFromTheScratchSlab(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const build = 64
	probeOf := func(n int) (b, p []relation.Tuple) {
		var slab relation.Slab
		for i := 0; i < build; i++ {
			b = append(b, slab.Concat(kv(int64(i), "build"), nil))
		}
		for i := 0; i < n; i++ {
			p = append(p, slab.Concat(kv(int64(i%build), "probe"), nil))
		}
		return b, p
	}
	emitted := 0
	emit := func(relation.Tuple) { emitted++ }
	// chunks is the allocations n result tuples of width values may cost,
	// with room for a pool emptied by a collection in mid-run.
	chunks := func(n, width int) float64 { return float64(4 + 2*n*width/4096) }

	for _, algo := range []lera.JoinAlgo{lera.HashJoin, lera.TempIndex, lera.NestedLoop} {
		for _, n := range []int{500, 5_000} {
			b, p := probeOf(n)
			j := &Join{Algo: algo, BuildKey: []int{0}, ProbeKey: []int{0}}
			ctx := &Context{Build: b, Input: p}
			if err := j.Setup(ctx); err != nil {
				t.Fatal(err)
			}
			for name, run := range map[string]func(){
				"fragment": func() { j.OnBatch(ctx, ctx.Input, emit) },
				"batch": func() {
					for lo := 0; lo < n; lo += 64 {
						j.OnBatch(ctx, p[lo:min(lo+64, n)], emit)
					}
				},
				"tuple": func() {
					for i := range p {
						j.OnBatch(ctx, p[i:i+1], emit)
					}
				},
			} {
				emitted = 0
				got := race.AllocsPerRun(5, run)
				if emitted != 6*n {
					t.Fatalf("%v %s: %d results from %d probes", algo, name, emitted/6, n)
				}
				if limit := chunks(n, 4); got > limit {
					t.Errorf("%v join, %s of %d probes: %v allocations, want at most %v", algo, name, n, got, limit)
				}
			}
		}
	}

	for _, n := range []int{500, 5_000} {
		_, p := probeOf(n)
		m := &Map{Cols: []int{1, 0}}
		got := race.AllocsPerRun(5, func() {
			m.OnBatch(nil, p, emit)
			for i := range p[:100] {
				m.OnBatch(nil, p[i:i+1], emit)
			}
		})
		if limit := chunks(n+100, 2); got > limit {
			t.Errorf("map of %d tuples: %v allocations, want at most %v", n, got, limit)
		}
	}
}

// TestAggregateOwnsItsGroupKeys: the group table keeps no reference into the
// tuples that fed it — keys and MIN/MAX strings are re-homed into the
// instance's own slab — and the outputs it emits carry the right values.
func TestAggregateOwnsItsGroupKeys(t *testing.T) {
	for _, kind := range []lera.AggKind{lera.AggMin, lera.AggMax} {
		a := &Aggregate{GroupBy: []int{1}, Kind: kind, AggCol: 2}
		ctx := &Context{}
		if err := a.Setup(ctx); err != nil {
			t.Fatal(err)
		}
		var batch []relation.Tuple
		for i := 0; i < 40; i++ {
			batch = append(batch, relation.NewTuple(relation.Int(int64(i)), relation.Str(fmt.Sprintf("g%d", i%4)), relation.Str(fmt.Sprintf("v%02d", i))))
		}
		if err := a.OnBatch(ctx, batch[:20], nil); err != nil {
			t.Fatal(err)
		}
		for i := 20; i < len(batch); i++ {
			if err := a.OnBatch(ctx, batch[i:i+1], nil); err != nil {
				t.Fatal(err)
			}
		}
		inst := ctx.State.(*aggInst)
		for _, bucket := range inst.groups {
			for _, st := range bucket {
				for _, in := range batch {
					if sameBacking(st.group[0], in[1]) || sameBacking(st.min, in[2]) || sameBacking(st.max, in[2]) {
						t.Fatalf("%v: group %v still points into its input %v", kind, st.group, in)
					}
				}
			}
		}
		emit, out := collect()
		if err := a.OnClose(ctx, emit); err != nil {
			t.Fatal(err)
		}
		if len(*out) != 4 {
			t.Fatalf("%v: %d groups", kind, len(*out))
		}
		for g, tup := range *out {
			want := fmt.Sprintf("v%02d", g)
			if kind == lera.AggMax {
				want = fmt.Sprintf("v%02d", 36+g)
			}
			if tup[0].AsString() != fmt.Sprintf("g%d", g) || tup[1].AsString() != want {
				t.Errorf("%v: group %d = %v, want %s", kind, g, tup, want)
			}
		}
	}
}

// sameBacking reports whether two string values share their bytes. Values
// hide their pointers and only value.go may import unsafe, so the test reads
// the pointer word through reflect.
func sameBacking(a, b relation.Value) bool {
	if a.Kind() != relation.TString || b.Kind() != relation.TString || a.AsString() == "" {
		return false
	}
	ptr := func(v relation.Value) uintptr { return reflect.ValueOf(v).FieldByName("p").Pointer() }
	return ptr(a) == ptr(b)
}
