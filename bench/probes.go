package main

// Layer probes: each times calls into one layer's public functions from
// outside, on inputs small enough to finish in a fraction of a second. They
// run in traced runs only, after the loaded section, so nothing contends.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"dbs3"
	"dbs3/internal/core"
	"dbs3/internal/esql"
	"dbs3/internal/lera"
	"dbs3/internal/partition"
	"dbs3/internal/relation"
	dbruntime "dbs3/internal/runtime"
	"dbs3/internal/server"
	"dbs3/internal/storage"
	joindb "dbs3/internal/workload"
)

// mixSQL is the bench-serve four-statement mix, in popularity order; the
// cluster-open classes name its entries.
var mixSQL = []string{
	"SELECT * FROM wisc WHERE unique1 < ?",
	"SELECT ten, COUNT(*) FROM wisc GROUP BY ten",
	"SELECT two, SUM(unique1) FROM wisc WHERE unique2 < ? GROUP BY two",
	"SELECT A.id FROM A JOIN B ON A.k = B.k WHERE B.id < ?",
}

const probeReps = 200 // repetitions of a microsecond-scale call

// medianTime runs f n times and returns the median duration.
func medianTime(n int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probePlanning times the statement front end: parse, compile, scatter
// planning, bind and cost estimation, and the facade's plan cache around
// them.
func probePlanning(m metrics) error {
	jdb, _, err := probeJoin()
	if err != nil {
		return err
	}
	resolver := jdb.Resolver()
	if _, resolver["wisc"], err = partitionWisconsin("wisc", shortCard, shortDegree, 1); err != nil {
		return err
	}

	each := func(f func(sql string) error) (float64, error) {
		d, err := medianTime(probeReps, func() error {
			for _, sql := range mixSQL {
				if err := f(sql); err != nil {
					return err
				}
			}
			return nil
		})
		return us(d) / float64(len(mixSQL)), err
	}
	if m["esql.parse_us"], err = each(func(sql string) error { _, err := esql.Parse(sql); return err }); err != nil {
		return err
	}
	compiler := &esql.Compiler{Resolver: resolver}
	if m["esql.compile_us"], err = each(func(sql string) error { _, _, err := compiler.Compile(sql); return err }); err != nil {
		return err
	}
	if m["esql.scatter_plan_us"], err = each(func(sql string) error { _, err := esql.ScatterPlan(sql); return err }); err != nil {
		return err
	}

	graph := joindb.AssocJoinGraph(lera.HashJoin)
	var plan *lera.Plan
	d, err := medianTime(probeReps, func() error { plan, err = lera.Bind(graph, resolver); return err })
	if err != nil {
		return err
	}
	m["lera.bind_us"] = us(d)
	d, _ = medianTime(probeReps, func() error { lera.Estimate(plan, lera.DefaultCostModel()); return nil })
	m["lera.estimate_us"] = us(d)

	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", shortCard, shortDegree, "unique2", 1); err != nil {
		return err
	}
	d, err = medianTime(probeReps, func() error { _, err := db.Prepare(mixSQL[0], nil); return err })
	if err != nil {
		return err
	}
	m["dbs3.prepare_hit_us"] = us(d)
	n := 0
	d, err = medianTime(probeReps, func() error {
		n++
		_, err := db.Prepare(fmt.Sprintf("SELECT * FROM wisc WHERE unique1 < %d", n), nil)
		return err
	})
	m["dbs3.prepare_miss_us"] = us(d)
	return err
}

// emptyRelations is a filter-into-store plan over a relation with no tuples.
func emptyRelations() (core.DB, *lera.Plan, error) {
	frags := make([][]relation.Tuple, shortDegree)
	rel, err := partition.FromFragments("E", joindb.JoinSchema, []string{"k"}, frags, 1)
	if err != nil {
		return nil, nil, err
	}
	mod, err := partition.NewMod(joindb.JoinSchema, "k", shortDegree)
	if err != nil {
		return nil, nil, err
	}
	g := lera.NewGraph()
	g.ConnectSame(g.Filter("filter", "E", nil), g.Store("store", "Res"))
	plan, err := lera.Bind(g, lera.MapResolver{"E": {Schema: joindb.JoinSchema, Degree: shortDegree, FragSizes: rel.FragmentSizes(), Part: mod}})
	return core.DB{"E": rel}, plan, err
}

// probeCoreFixed times the per-query costs that do not depend on the data:
// the Figure 5 allocation, and starting and stopping the operation pools
// (an execution over an empty relation).
func probeCoreFixed(ctx context.Context, m metrics) error {
	jdb, plan, err := probeJoin()
	if err != nil {
		return err
	}
	rels := core.DB(jdb.Relations())
	d, err := medianTime(probeReps, func() error { _, err := core.PlanAllocation(plan, rels, core.Options{}); return err })
	if err != nil {
		return err
	}
	m["core.plan_allocation_us"] = us(d)

	empty, emptyPlan, err := emptyRelations()
	if err != nil {
		return err
	}
	d, err = medianTime(probeReps, func() error { _, err := core.ExecuteContext(ctx, emptyPlan, empty, core.Options{}); return err })
	m["core.pool_startup_us"] = us(d)
	return err
}

// probeRuntime times an uncontended admission round trip.
func probeRuntime(ctx context.Context, m metrics) error {
	jdb, plan, err := probeJoin()
	if err != nil {
		return err
	}
	rels := core.DB(jdb.Relations())
	mgr := dbruntime.NewManager(dbruntime.Config{})
	defer mgr.Close()
	d, err := medianTime(probeReps, func() error {
		opts := core.Options{}
		adm, err := mgr.Admit(ctx, plan, rels, &opts, dbruntime.PriorityInteractive)
		if err != nil {
			return err
		}
		adm.Finish(nil)
		return nil
	})
	m["runtime.admit_finish_us"] = us(d)
	return err
}

// partitionWisconsin generates a Wisconsin relation hash-partitioned on
// unique2, with the metadata a plan binds against — what the facade's
// CreateWisconsin registers, for callers that go below the facade.
func partitionWisconsin(name string, card, degree int, seed int64) (*partition.Partitioned, lera.RelInfo, error) {
	rel := relation.Wisconsin(name, card, seed)
	h, err := partition.NewHash(rel.Schema, []string{"unique2"}, degree)
	if err != nil {
		return nil, lera.RelInfo{}, err
	}
	p, err := partition.Partition(rel, h, 1)
	if err != nil {
		return nil, lera.RelInfo{}, err
	}
	return p, lera.RelInfo{Schema: p.Schema, Degree: degree, FragSizes: p.FragmentSizes(), Part: h}, nil
}

// probeJoin is the small pipelined join the fixed-cost probes plan and admit.
func probeJoin() (*joindb.JoinDB, *lera.Plan, error) {
	jdb, err := joindb.NewJoinDB(shortCard, shortCard, shortDegree, clusterTheta)
	if err != nil {
		return nil, nil, err
	}
	plan, err := jdb.AssocJoinPlan(lera.HashJoin)
	return jdb, plan, err
}

// probePartition times hash-partitioning a generated relation, the bulk of
// every workload's set-up.
func probePartition(m metrics) error {
	rel := relation.Wisconsin("p", wideCard, 1)
	h, err := partition.NewHash(rel.Schema, []string{"unique2"}, wideDegree)
	if err != nil {
		return err
	}
	d, err := medianTime(5, func() error { _, err := partition.Partition(rel, h, 1); return err })
	m["partition.ns_per_tuple"] = float64(d) / wideCard
	return err
}

// probeOperators times the smallest plan that contains one operator, at one
// thread, and divides by the tuples the operator reads. Every such plan ends
// in a store, so operator.ns_per_tuple.store (a TRUE filter into a store) is
// the floor the others sit on.
func probeOperators(ctx context.Context, m metrics, which ...string) error {
	wisc, wiscInfo, err := partitionWisconsin("wisc", wideCard, wideDegree, 1)
	if err != nil {
		return err
	}
	jdb, err := joindb.NewJoinDB(wideCard, skewBCard, skewDegree, 0)
	if err != nil {
		return err
	}
	scan := func(build func(g *lera.Graph, head *lera.Node) *lera.Node, pred lera.Predicate) (*lera.Plan, core.DB, float64, error) {
		g := lera.NewGraph()
		head := g.Filter("filter", "wisc", pred)
		if build != nil {
			next := build(g, head)
			g.ConnectSame(head, next)
			head = next
		}
		g.ConnectSame(head, g.Store("store", "Res"))
		plan, err := lera.Bind(g, lera.MapResolver{"wisc": wiscInfo})
		return plan, core.DB{"wisc": wisc}, wideCard, err
	}
	join := func(algo lera.JoinAlgo) (*lera.Plan, core.DB, float64, error) {
		plan, err := jdb.IdealJoinPlan(algo)
		return plan, core.DB(jdb.Relations()), wideCard + skewBCard, err
	}
	builders := map[string]func() (*lera.Plan, core.DB, float64, error){
		"store": func() (*lera.Plan, core.DB, float64, error) { return scan(nil, nil) },
		"filter": func() (*lera.Plan, core.DB, float64, error) {
			return scan(nil, lera.ColConst{Col: "unique1", Op: lera.LT, Val: relation.Int(wideRows)})
		},
		"aggregate": func() (*lera.Plan, core.DB, float64, error) {
			return scan(func(g *lera.Graph, _ *lera.Node) *lera.Node {
				return g.Aggregate("agg", []string{"onePercent"}, lera.AggSum, "unique1")
			}, nil)
		},
		"hash_join":       func() (*lera.Plan, core.DB, float64, error) { return join(lera.HashJoin) },
		"temp_index_join": func() (*lera.Plan, core.DB, float64, error) { return join(lera.TempIndex) },
	}
	for _, name := range which {
		plan, rels, tuples, err := builders[name]()
		if err != nil {
			return err
		}
		d, err := medianTime(7, func() error { _, err := core.ExecuteContext(ctx, plan, rels, core.Options{Threads: 1}); return err })
		if err != nil {
			return fmt.Errorf("operator probe %s: %w", name, err)
		}
		m["operator.ns_per_tuple."+name] = float64(d) / tuples
	}
	return nil
}

// probeStorage drives the spill substrate directly: write one run of wide
// rows, read it back through the buffer pool.
func probeStorage(dir string, m metrics) error {
	rel := relation.Wisconsin("s", wideCard, 1)
	var write, read []float64
	for i := 0; i < 5; i++ {
		env, err := storage.NewSpillEnv(dir, spillMemory, storage.PoolPagesFor(spillMemory), nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		w := env.NewRun()
		for _, t := range rel.Tuples {
			if err := w.Add(t); err != nil {
				env.Close()
				return err
			}
		}
		run, err := w.Finish()
		if err != nil {
			env.Close()
			return err
		}
		wrote := time.Since(t0)
		t0 = time.Now()
		n := 0
		err = run.Each(func(relation.Tuple) error { n++; return nil })
		took := time.Since(t0)
		if cerr := env.Close(); err == nil {
			err = cerr
		}
		if err == nil && n != wideCard {
			err = fmt.Errorf("storage probe: read %d tuples back, wrote %d", n, wideCard)
		}
		if err != nil {
			return err
		}
		mb := float64(run.Bytes()) / 1e6
		write = append(write, mb/wrote.Seconds())
		read = append(read, mb/took.Seconds())
	}
	m["storage.run_write_mb_per_s"] = median(write)
	m["storage.run_read_mb_per_s"] = median(read)
	return nil
}

const ndjsonType = "application/x-ndjson"

// canned serves one pre-encoded result body to a server.Client, so decoding
// is timed without a server or a socket.
type canned struct {
	contentType string
	body        []byte
}

func (c canned) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {c.contentType}},
		Body: io.NopCloser(bytes.NewReader(c.body))}, nil
}

// probeWire times the two result encodings on serve-wide's rows: the server
// half into io.Discard, the client half from memory.
func probeWire(ctx context.Context, m metrics) error {
	db := dbs3.New()
	if err := db.CreateWisconsin("wide", wideCard, wideDegree, "unique2", 1); err != nil {
		return err
	}
	res, err := db.QueryAllContext(ctx, wideSQL, nil, wideRows)
	if err != nil {
		return err
	}
	stmt, err := db.Prepare(wideSQL, nil)
	if err != nil {
		return err
	}
	types := stmt.ColumnTypes()
	header := &server.Header{Columns: res.Columns, Types: types, Threads: res.Threads}
	encode := func(w io.Writer, contentType string) error {
		enc := server.NewStreamEncoder(w, contentType, types)
		if err := enc.Header(header); err != nil {
			return err
		}
		const chunk = 64 // the server's default chunk
		for i := 0; i < len(res.Data); i += chunk {
			if err := enc.Rows(res.Data[i:min(i+chunk, len(res.Data))]); err != nil {
				return err
			}
		}
		return enc.Done(&server.Footer{RowCount: int64(len(res.Data)), Threads: res.Threads})
	}
	for name, contentType := range map[string]string{"ndjson": ndjsonType, "columnar": server.ContentTypeColumnar} {
		d, err := medianTime(9, func() error { return encode(io.Discard, contentType) })
		if err != nil {
			return err
		}
		m["server.encode_ns_per_row."+name] = float64(d) / float64(len(res.Data))

		var body bytes.Buffer
		if err := encode(&body, contentType); err != nil {
			return err
		}
		client := &server.Client{Base: "http://canned", HTTP: &http.Client{Transport: canned{contentType, body.Bytes()}}}
		d, err = medianTime(9, func() error {
			stream, err := client.Query(ctx, wideSQL, []any{wideRows}, nil)
			if err != nil {
				return err
			}
			defer stream.Close()
			n := 0
			for stream.Next() {
				n++
			}
			if err := stream.Err(); err != nil {
				return err
			}
			if n != len(res.Data) {
				return fmt.Errorf("wire probe: decoded %d rows of %d", n, len(res.Data))
			}
			return nil
		})
		if err != nil {
			return err
		}
		m["server.decode_ns_per_row."+name] = float64(d) / float64(len(res.Data))
	}
	return nil
}
