package operator

import (
	"testing"
	"testing/quick"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
)

var kvSchema = relation.MustSchema(
	relation.Column{Name: "k", Type: relation.TInt},
	relation.Column{Name: "v", Type: relation.TString},
)

func kv(k int64, v string) relation.Tuple {
	return relation.NewTuple(relation.Int(k), relation.Str(v))
}

func collect() (Emit, *[]relation.Tuple) {
	var out []relation.Tuple
	return func(t relation.Tuple) { out = append(out, t) }, &out
}

func TestFilterOnTrigger(t *testing.T) {
	pred, err := (lera.ColConst{Col: "k", Op: lera.GE, Val: relation.Int(2)}).Bind(kvSchema)
	if err != nil {
		t.Fatal(err)
	}
	f := &Filter{Pred: pred}
	ctx := &Context{Input: []relation.Tuple{kv(1, "a"), kv(2, "b"), kv(3, "c")}}
	emit, out := collect()
	if err := f.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.OnTrigger(ctx, emit); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 2 || (*out)[0][0].AsInt() != 2 || (*out)[1][0].AsInt() != 3 {
		t.Errorf("filter output = %v", *out)
	}
	if err := f.OnClose(ctx, emit); err != nil {
		t.Fatal(err)
	}
}

func TestFilterPipelined(t *testing.T) {
	pred, err := (lera.ColConst{Col: "k", Op: lera.LT, Val: relation.Int(2)}).Bind(kvSchema)
	if err != nil {
		t.Fatal(err)
	}
	f := &Filter{Pred: pred}
	emit, out := collect()
	f.OnBatch(&Context{}, []relation.Tuple{kv(1, "a"), kv(5, "b")}, emit)
	if len(*out) != 1 || (*out)[0][0].AsInt() != 1 {
		t.Errorf("pipelined filter output = %v", *out)
	}
}

func TestTransmitBothModes(t *testing.T) {
	tr := &Transmit{}
	ctx := &Context{Input: []relation.Tuple{kv(1, "a"), kv(2, "b")}}
	emit, out := collect()
	tr.OnTrigger(ctx, emit)
	if len(*out) != 2 {
		t.Errorf("triggered transmit emitted %d", len(*out))
	}
	tr.OnBatch(ctx, []relation.Tuple{kv(3, "c")}, emit)
	if len(*out) != 3 {
		t.Errorf("pipelined transmit emitted %d", len(*out))
	}
}

func TestMapProjects(t *testing.T) {
	m := &Map{Cols: []int{1}}
	emit, out := collect()
	m.OnBatch(&Context{}, []relation.Tuple{kv(5, "x")}, emit)
	if len(*out) != 1 || len((*out)[0]) != 1 || (*out)[0][0].AsString() != "x" {
		t.Errorf("map output = %v", *out)
	}
	defer func() {
		if recover() == nil {
			t.Error("map OnTrigger should panic")
		}
	}()
	m.OnTrigger(&Context{}, emit)
}

func TestStoreAccumulatesPerInstance(t *testing.T) {
	s := NewStore(3)
	emit := func(relation.Tuple) { t.Error("store must not emit") }
	s.OnBatch(&Context{Instance: 1}, []relation.Tuple{kv(1, "a"), kv(2, "b")}, emit)
	s.OnBatch(&Context{Instance: 2}, []relation.Tuple{kv(3, "c")}, emit)
	res, err := s.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 0 || len(res[1]) != 2 || len(res[2]) != 1 {
		t.Errorf("results = %v", res)
	}
	defer func() {
		if recover() == nil {
			t.Error("store OnTrigger should panic")
		}
	}()
	s.OnTrigger(&Context{}, emit)
}

func joinFixture() *Context {
	return &Context{
		Build: []relation.Tuple{kv(1, "b1"), kv(2, "b2"), kv(2, "b2x"), kv(3, "b3")},
		Probe: []relation.Tuple{kv(2, "p2"), kv(4, "p4"), kv(1, "p1")},
	}
}

func runJoin(t *testing.T, algo lera.JoinAlgo, pipelined bool) []relation.Tuple {
	t.Helper()
	j := &Join{Algo: algo, BuildKey: []int{0}, ProbeKey: []int{0}}
	ctx := joinFixture()
	if err := j.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	emit, out := collect()
	if pipelined {
		probes := ctx.Probe
		ctx.Probe = nil
		if err := j.OnBatch(ctx, probes, emit); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := j.OnTrigger(ctx, emit); err != nil {
			t.Fatal(err)
		}
	}
	return *out
}

func TestJoinAlgorithmsAgree(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		nl := relation.New("nl", nil)
		nl.Tuples = runJoin(t, lera.NestedLoop, pipelined)
		if len(nl.Tuples) != 3 { // k=2 matches two build tuples, k=1 one, k=4 none
			t.Fatalf("nested loop found %d matches", len(nl.Tuples))
		}
		for _, algo := range []lera.JoinAlgo{lera.HashJoin, lera.TempIndex} {
			other := relation.New("o", nil)
			other.Tuples = runJoin(t, algo, pipelined)
			if !nl.EqualMultiset(other) {
				t.Errorf("%v (pipelined=%v) disagrees with nested loop: %v vs %v", algo, pipelined, other.Tuples, nl.Tuples)
			}
		}
	}
}

func TestJoinOutputShape(t *testing.T) {
	out := runJoin(t, lera.HashJoin, false)
	for _, tup := range out {
		if len(tup) != 4 {
			t.Fatalf("join tuple arity = %d, want 4", len(tup))
		}
		if tup[0].AsInt() != tup[2].AsInt() {
			t.Errorf("join keys differ in %v", tup)
		}
	}
}

// Property: all three algorithms produce identical multisets on random data.
func TestJoinAlgorithmsAgreeProperty(t *testing.T) {
	f := func(buildKeys, probeKeys []uint8) bool {
		ctx := &Context{}
		for i, k := range buildKeys {
			if i >= 30 {
				break
			}
			ctx.Build = append(ctx.Build, kv(int64(k%16), "b"))
		}
		for i, k := range probeKeys {
			if i >= 30 {
				break
			}
			ctx.Probe = append(ctx.Probe, kv(int64(k%16), "p"))
		}
		var results []*relation.Relation
		for _, algo := range []lera.JoinAlgo{lera.NestedLoop, lera.HashJoin, lera.TempIndex} {
			j := &Join{Algo: algo, BuildKey: []int{0}, ProbeKey: []int{0}}
			c := &Context{Build: ctx.Build, Probe: ctx.Probe}
			if err := j.Setup(c); err != nil {
				return false
			}
			var out []relation.Tuple
			if err := j.OnTrigger(c, func(t relation.Tuple) { out = append(out, t) }); err != nil {
				return false
			}
			r := relation.New("r", nil)
			r.Tuples = out
			results = append(results, r)
		}
		return results[0].EqualMultiset(results[1]) && results[0].EqualMultiset(results[2])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAggregateCount(t *testing.T) {
	a := &Aggregate{GroupBy: []int{1}, Kind: lera.AggCount, AggCol: -1}
	ctx := &Context{}
	a.Setup(ctx)
	emit, out := collect()
	a.OnBatch(ctx, []relation.Tuple{kv(1, "x"), kv(2, "x"), kv(3, "y")}, emit)
	if len(*out) != 0 {
		t.Fatal("aggregate must not emit before close")
	}
	a.OnClose(ctx, emit)
	if len(*out) != 2 {
		t.Fatalf("groups = %v", *out)
	}
	// Sorted by group key: "x" before "y".
	if (*out)[0][0].AsString() != "x" || (*out)[0][1].AsInt() != 2 {
		t.Errorf("group x = %v", (*out)[0])
	}
	if (*out)[1][0].AsString() != "y" || (*out)[1][1].AsInt() != 1 {
		t.Errorf("group y = %v", (*out)[1])
	}
}

func TestAggregateSumMinMax(t *testing.T) {
	tuples := []relation.Tuple{kv(5, "g"), kv(2, "g"), kv(9, "g")}
	cases := []struct {
		kind lera.AggKind
		want int64
	}{{lera.AggSum, 16}, {lera.AggMin, 2}, {lera.AggMax, 9}}
	for _, c := range cases {
		a := &Aggregate{GroupBy: []int{1}, Kind: c.kind, AggCol: 0}
		ctx := &Context{}
		a.Setup(ctx)
		emit, out := collect()
		a.OnBatch(ctx, tuples, emit)
		a.OnClose(ctx, emit)
		if len(*out) != 1 || (*out)[0][1].AsInt() != c.want {
			t.Errorf("%v = %v, want %d", c.kind, *out, c.want)
		}
	}
}

func TestAggregateRejectsTrigger(t *testing.T) {
	a := &Aggregate{GroupBy: []int{0}, Kind: lera.AggCount, AggCol: -1}
	defer func() {
		if recover() == nil {
			t.Error("aggregate OnTrigger should panic")
		}
	}()
	a.OnTrigger(&Context{}, func(relation.Tuple) {})
}

func TestJoinCompositeKey(t *testing.T) {
	s := relation.MustSchema(
		relation.Column{Name: "a", Type: relation.TInt},
		relation.Column{Name: "b", Type: relation.TInt},
	)
	_ = s
	mk := func(a, b int64) relation.Tuple { return relation.NewTuple(relation.Int(a), relation.Int(b)) }
	ctx := &Context{
		Build: []relation.Tuple{mk(1, 1), mk(1, 2), mk(2, 1)},
		Probe: []relation.Tuple{mk(1, 1), mk(2, 2)},
	}
	j := &Join{Algo: lera.HashJoin, BuildKey: []int{0, 1}, ProbeKey: []int{0, 1}}
	j.Setup(ctx)
	emit, out := collect()
	j.OnTrigger(ctx, emit)
	if len(*out) != 1 {
		t.Errorf("composite key join = %v", *out)
	}
}
