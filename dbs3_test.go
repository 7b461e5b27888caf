package dbs3

import (
	"context"
	"math"
	"strings"
	"testing"
)

func facadeDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if err := db.CreateWisconsin("wisc", 2000, 8, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateJoinPair("", 1000, 100, 10, 0.5); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFacadeCatalog(t *testing.T) {
	db := facadeDB(t)
	names := db.Relations()
	if len(names) != 4 {
		t.Fatalf("relations = %v", names)
	}
	wisc, err := db.FragmentSizes("wisc")
	card := 0
	for _, n := range wisc {
		card += n
	}
	if err != nil || len(wisc) != 8 || card != 2000 {
		t.Errorf("wisc FragmentSizes = %v, %v; want 8 fragments of 2000 tuples", wisc, err)
	}
	sizes, err := db.FragmentSizes("A")
	if err != nil || len(sizes) != 10 {
		t.Errorf("FragmentSizes = %v, %v", sizes, err)
	}
	if sizes[0] <= sizes[9] {
		t.Error("Zipf 0.5 fragment sizes should be skewed")
	}
	if _, err := db.FragmentSizes("nope"); err == nil {
		t.Error("missing relation accepted")
	}
}

func TestFacadeDuplicateNames(t *testing.T) {
	db := facadeDB(t)
	if err := db.CreateWisconsin("wisc", 10, 2, "unique2", 1); err == nil {
		t.Error("duplicate relation accepted")
	}
	if err := db.CreateJoinPair("", 100, 20, 4, 0); err == nil {
		t.Error("duplicate join pair accepted")
	}
}

// TestCreateJoinPairRegistersAllOrNothing: a join pair whose second name is
// taken registers none of its three relations and leaves the catalog's epoch
// where it was, so no cached plan is invalidated for nothing.
func TestCreateJoinPairRegistersAllOrNothing(t *testing.T) {
	db := New()
	if err := db.LoadCSV("B", strings.NewReader(ordersCSV), "order", 2); err != nil {
		t.Fatal(err)
	}
	epoch := db.epoch.Load()
	if err := db.CreateJoinPair("", 100, 16, 4, 0); err == nil || !strings.Contains(err.Error(), `"B" already exists`) {
		t.Fatalf("CreateJoinPair over a taken B: %v", err)
	}
	if names := db.Relations(); len(names) != 1 || names[0] != "B" {
		t.Errorf("relations after the rejected join pair = %v, want [B]", names)
	}
	if got := db.epoch.Load(); got != epoch {
		t.Errorf("epoch moved %d -> %d on a rejected join pair", epoch, got)
	}
}

func TestFacadeCreateErrors(t *testing.T) {
	db := New()
	if err := db.CreateWisconsin("w", 100, 4, "nope", 1); err == nil {
		t.Error("bad partitioning key accepted")
	}
	if err := db.CreateJoinPair("x", 100, 15, 10, 0); err == nil {
		t.Error("BCard not multiple of degree accepted")
	}
	// The generators keep row numbers, keys and ids as int32s.
	if err := db.CreateWisconsin("v", math.MaxInt32+1, 4, "unique2", 1); err == nil {
		t.Error("Wisconsin cardinality past MaxInt32 accepted")
	}
	if err := db.CreateJoinPair("z", math.MaxInt32+1, 100, 10, 0); err == nil {
		t.Error("ACard past MaxInt32 accepted")
	}
	for _, theta := range []float64{-1, math.NaN()} {
		if err := db.CreateJoinPair("y", 1000, 100, 10, theta); err == nil {
			t.Errorf("skew factor %v accepted", theta)
		}
	}
	if names := db.Relations(); len(names) != 0 {
		t.Errorf("relations after rejected creates = %v", names)
	}
}

// TestFacadeCreateWisconsinRejectsEmpty: a cardinality of zero or less is an
// error, as it is for CreateJoinPair, not a panic, and registers nothing.
func TestFacadeCreateWisconsinRejectsEmpty(t *testing.T) {
	db := New()
	for _, card := range []int{0, -1} {
		if err := db.CreateWisconsin("w", card, 4, "unique2", 1); err == nil {
			t.Errorf("cardinality %d accepted", card)
		}
	}
	if names := db.Relations(); len(names) != 0 {
		t.Errorf("relations after rejected creates = %v", names)
	}
}

func TestFacadeSelection(t *testing.T) {
	db := facadeDB(t)
	rows, err := db.QueryAllContext(context.Background(), "SELECT unique2 FROM wisc WHERE unique1 < 100", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 100 {
		t.Errorf("rows = %d, want 100", len(rows.Data))
	}
	if len(rows.Columns) != 1 || rows.Columns[0] != "unique2" {
		t.Errorf("columns = %v", rows.Columns)
	}
	if _, ok := rows.Data[0][0].(int64); !ok {
		t.Errorf("value type %T, want int64", rows.Data[0][0])
	}
	if rows.Threads < 1 {
		t.Error("no threads reported")
	}
	if len(rows.Operators) == 0 {
		t.Error("no operator stats")
	}
}

func TestFacadeJoin(t *testing.T) {
	db := facadeDB(t)
	for _, opt := range []*Options{
		nil,
		{Threads: 4, Strategy: "random"},
		{Threads: 8, Strategy: "lpt", JoinAlgo: "nested-loop"},
		{JoinAlgo: "temp-index"},
	} {
		rows, err := db.QueryAllContext(context.Background(), "SELECT * FROM A JOIN B ON A.k = B.k", opt)
		if err != nil {
			t.Fatalf("opt=%+v: %v", opt, err)
		}
		if len(rows.Data) != 1000 {
			t.Errorf("opt=%+v: %d rows, want 1000", opt, len(rows.Data))
		}
	}
}

func TestFacadeRepartitionedJoin(t *testing.T) {
	db := facadeDB(t)
	rows, err := db.QueryAllContext(context.Background(), "SELECT A.id FROM A JOIN Br ON A.k = Br.k WHERE Br.id < 50", &Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) == 0 || len(rows.Data) >= 1000 {
		t.Errorf("rows = %d", len(rows.Data))
	}
	// The plan must include a transmit operator.
	found := false
	for _, op := range rows.Operators {
		if op.Name == "transmit" {
			found = true
		}
	}
	if !found {
		t.Errorf("operators = %+v; expected a transmit", rows.Operators)
	}
}

func TestFacadeGroupBy(t *testing.T) {
	db := facadeDB(t)
	rows, err := db.QueryAllContext(context.Background(), "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 10 {
		t.Fatalf("groups = %d, want 10", len(rows.Data))
	}
	var total int64
	for _, row := range rows.Data {
		total += row[1].(int64)
	}
	if total != 2000 {
		t.Errorf("counts sum to %d", total)
	}
}

func TestFacadeStrings(t *testing.T) {
	db := facadeDB(t)
	rows, err := db.QueryAllContext(context.Background(), "SELECT string4 FROM wisc WHERE string4 = 'AAAAxxxx'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 500 {
		t.Errorf("rows = %d, want 500 (every 4th)", len(rows.Data))
	}
	if s, ok := rows.Data[0][0].(string); !ok || s != "AAAAxxxx" {
		t.Errorf("value = %v", rows.Data[0][0])
	}
}

func TestFacadeOptionValidation(t *testing.T) {
	db := facadeDB(t)
	if _, err := db.QueryAllContext(context.Background(), "SELECT * FROM A", &Options{Strategy: "bogus"}); err == nil {
		t.Error("bad strategy accepted")
	}
	if _, err := db.QueryAllContext(context.Background(), "SELECT * FROM A", &Options{JoinAlgo: "bogus"}); err == nil {
		t.Error("bad join algorithm accepted")
	}
	if _, err := db.QueryAllContext(context.Background(), "SELEKT", nil); err == nil {
		t.Error("bad SQL accepted")
	}
}

func TestFacadeExplain(t *testing.T) {
	db := facadeDB(t)
	dot, err := db.ExplainContext(context.Background(), "SELECT * FROM A JOIN Br ON A.k = Br.k", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "transmit", "join", "hash(k)"} {
		if !strings.Contains(dot, want) {
			t.Errorf("explain output missing %q", want)
		}
	}
	if _, err := db.ExplainContext(context.Background(), "SELEKT", nil); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, err := db.ExplainContext(context.Background(), "SELECT * FROM A", &Options{JoinAlgo: "bogus"}); err == nil {
		t.Error("bad join algorithm accepted")
	}
}

// LPT vs Random equivalence of results on a skewed join — the strategies
// change scheduling, never answers.
func TestFacadeStrategiesAgree(t *testing.T) {
	db := New()
	if err := db.CreateJoinPair("s", 2000, 200, 20, 1); err != nil {
		t.Fatal(err)
	}
	random, err := db.QueryAllContext(context.Background(), "SELECT sA.id FROM sA JOIN sB ON sA.k = sB.k", &Options{Threads: 6, Strategy: "random"})
	if err != nil {
		t.Fatal(err)
	}
	lpt, err := db.QueryAllContext(context.Background(), "SELECT sA.id FROM sA JOIN sB ON sA.k = sB.k", &Options{Threads: 6, Strategy: "lpt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(random.Data) != len(lpt.Data) || len(random.Data) != 2000 {
		t.Errorf("row counts differ: %d vs %d", len(random.Data), len(lpt.Data))
	}
	seen := make(map[int64]bool)
	for _, row := range random.Data {
		seen[row[0].(int64)] = true
	}
	for _, row := range lpt.Data {
		if !seen[row[0].(int64)] {
			t.Fatal("LPT produced a row Random did not")
		}
	}
}

func TestFacadeGrainOption(t *testing.T) {
	db := facadeDB(t)
	whole, err := db.QueryAllContext(context.Background(), "SELECT * FROM A JOIN B ON A.k = B.k", &Options{Threads: 4, JoinAlgo: "nested-loop"})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := db.QueryAllContext(context.Background(), "SELECT * FROM A JOIN B ON A.k = B.k", &Options{Threads: 4, JoinAlgo: "nested-loop", Grain: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Data) != len(fine.Data) {
		t.Fatalf("grain changed the result: %d vs %d rows", len(whole.Data), len(fine.Data))
	}
	acts := func(r *Result) int64 {
		for _, op := range r.Operators {
			if op.Name == "join" {
				return op.Activations
			}
		}
		return 0
	}
	if acts(fine) <= acts(whole) {
		t.Errorf("finer grain should multiply activations: %d vs %d", acts(fine), acts(whole))
	}
}

func TestFacadeUtilizationOption(t *testing.T) {
	db := facadeDB(t)
	idle, err := db.QueryAllContext(context.Background(), "SELECT * FROM A JOIN B ON A.k = B.k", &Options{JoinAlgo: "nested-loop"})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := db.QueryAllContext(context.Background(), "SELECT * FROM A JOIN B ON A.k = B.k", &Options{JoinAlgo: "nested-loop", Utilization: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if busy.Threads > idle.Threads {
		t.Errorf("utilization raised the allocation: %d vs %d", busy.Threads, idle.Threads)
	}
	if len(busy.Data) != len(idle.Data) {
		t.Error("utilization changed the result")
	}
}
