package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"dbs3"
	"dbs3/internal/cluster"
	dbruntime "dbs3/internal/runtime"
	"dbs3/internal/zipf"
)

// clusterOp is one arrival of the open loop: a statement of the mix and its
// argument (unused by the statement without a placeholder).
type clusterOp struct {
	class int
	arg   int64
}

// stratify spreads n draws over weights with largest-remainder rounding, so
// every round of n arrivals carries the same multiset instead of a sample of
// it: Zipf popularity without the sampling noise that would make rows per
// second depend on the seed.
func stratify(n int, weights []float64) []int {
	counts := make([]int, len(weights))
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w
		counts[i] = int(exact)
		left -= counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].f > rems[b].f })
	for k := 0; k < left; k++ {
		counts[rems[k%len(rems)].i]++
	}
	return counts
}

// roundOps is the multiset of one round of n arrivals: statements by Zipf
// popularity, and within a statement's share the arguments at evenly spaced
// quantiles of the Zipf rank distribution.
func roundOps(n int) []clusterOp {
	var ops []clusterOp
	for class, count := range stratify(n, zipf.Weights(len(mixSQL), clusterTheta)) {
		ops = append(ops, classOps(class, count)...)
	}
	return ops
}

// classOps is count operations of one statement with arguments at evenly
// spaced quantiles of the Zipf rank distribution.
func classOps(class, count int) []clusterOp {
	cdf := make([]float64, clusterArgRanks)
	var acc float64
	for i, w := range zipf.Weights(clusterArgRanks, clusterTheta) {
		acc += w
		cdf[i] = acc
	}
	ops := make([]clusterOp, count)
	for j := range ops {
		rank := sort.SearchFloat64s(cdf, (float64(j)+0.5)/float64(count)) + 1
		ops[j] = clusterOp{class: class, arg: int64(min(rank, clusterArgRanks) * clusterArgStep)}
	}
	return ops
}

func (o clusterOp) args() []any {
	if o.class == 1 { // the plain GROUP BY has no placeholder
		return nil
	}
	return []any{o.arg}
}

func clusterData(db *dbs3.Database, seed int64, lap func()) error {
	if err := db.CreateWisconsin("wisc", clusterWisc, clusterDegree, "unique2", seed); err != nil {
		return err
	}
	lap()
	return db.CreateJoinPair("", clusterJoinCard, clusterJoinCard, clusterDegree, clusterTheta)
}

// clusterDist is each relation's distribution key; joined relations share
// theirs so matches stay on one shard.
var clusterDist = map[string]string{"wisc": "unique2", "A": "k", "B": "k", "Br": "k"}

// clusterWorkload is cluster-open: clusterNodes hash-sharded workers behind
// a coordinator, all on loopback listeners with bearer auth, columnar on
// both hops, driven by an open loop at a fixed arrival rate.
type clusterWorkload struct {
	env       runEnv
	arrivals  float64 // per second; the frozen rate unless a sweep overrides it
	workers   []*node
	links     *http.Transport // coordinator -> worker connections
	coord     *cluster.Coordinator
	coordSrv  *http.Server
	coordDone sync.WaitGroup
	front     *conn   // client -> coordinator
	direct    []*conn // client -> each worker, for the traced run's twins
	want      map[clusterOp]answer

	mu    sync.Mutex
	plans map[int][]clusterOp // arrivals per round -> that round's multiset
}

var clusterClasses = []string{"select", "agg", "filter_agg", "join"}

func (w *clusterWorkload) classes() []string { return clusterClasses }
func (w *clusterWorkload) clients() int      { return 0 }
func (w *clusterWorkload) rate() float64     { return w.arrivals }

// oracle answers every (statement, argument) pair of the mix on a single
// unsharded node.
func (w *clusterWorkload) oracle(ctx context.Context, env runEnv) error {
	if cached, ok := oracles[oracleKey{"cluster-open", env.seed}]; ok {
		w.want = cached.(map[clusterOp]answer)
		return nil
	}
	db := dbs3.New()
	if err := clusterData(db, env.seed, noLap); err != nil {
		return err
	}
	w.want = make(map[clusterOp]answer)
	for class, sql := range mixSQL {
		for rank := 1; rank <= clusterArgRanks; rank++ {
			op := clusterOp{class: class, arg: int64(rank * clusterArgStep)}
			res, err := db.QueryAllContext(ctx, sql, nil, op.args()...)
			if err != nil {
				return err
			}
			w.want[op] = answerOf(res)
		}
	}
	oracles[oracleKey{"cluster-open", env.seed}] = w.want
	return nil
}

func (w *clusterWorkload) setup(ctx context.Context, env runEnv, lap func()) error {
	w.env = env
	w.plans = make(map[int][]clusterOp)
	urls := make([]string, clusterNodes)
	for i := 0; i < clusterNodes; i++ {
		db := dbs3.New()
		if err := clusterData(db, env.seed, lap); err != nil {
			return err
		}
		lap()
		for rel, col := range clusterDist {
			if err := db.ShardRelation(rel, col, i, clusterNodes); err != nil {
				return err
			}
		}
		lap()
		// The admission queue holds as much as the client may have in flight,
		// so an arrival is dropped at the client's cap before a worker sheds it.
		n, err := startNode(db, env.nproc, clusterInFlight, clusterToken)
		if err != nil {
			return err
		}
		w.workers = append(w.workers, n)
		w.direct = append(w.direct, dial(n.url, clusterToken, true, 1))
		urls[i] = n.url
		lap()
	}
	w.links = &http.Transport{MaxIdleConns: clusterNodes * clusterInFlight, MaxIdleConnsPerHost: clusterInFlight}
	var err error
	w.coord, err = cluster.New(ctx, cluster.Config{Nodes: urls, Token: clusterToken, HTTP: &http.Client{Transport: w.links}})
	if err != nil {
		return err
	}
	lap()
	var url string
	if w.coordSrv, url, err = listen(w.coord.Handler(), &w.coordDone); err != nil {
		return err
	}
	w.front = dial(url, clusterToken, true, clusterInFlight)
	return nil
}

func (w *clusterWorkload) teardown() {
	if w.front != nil {
		w.front.close()
	}
	shutdown(w.coordSrv, &w.coordDone)
	if w.coord != nil {
		w.coord.Close()
	}
	if w.links != nil {
		w.links.CloseIdleConnections()
	}
	for _, c := range w.direct {
		c.close()
	}
	for _, n := range w.workers {
		n.stop()
	}
	*w = clusterWorkload{want: w.want, arrivals: w.arrivals}
}

func (w *clusterWorkload) managers() []*dbruntime.Manager {
	out := make([]*dbruntime.Manager, len(w.workers))
	for i, n := range w.workers {
		out[i] = n.manager
	}
	return out
}

func (w *clusterWorkload) load() managerLoad { return managerStats(w.managers()...) }
func (w *clusterWorkload) ledger() error     { return ledgerOf(w.managers()...) }

func (w *clusterWorkload) warm(ctx context.Context) error {
	for i := 0; i < 4*len(mixSQL); i++ {
		if res := w.op(ctx, 0, i, 4*len(mixSQL), nil); res.err != nil {
			return res.err
		}
	}
	return nil
}

// opAt is the i-th arrival of a pass with perRound arrivals per round: every
// round is the same multiset, in an order the seed and the round pick.
func (w *clusterWorkload) opAt(i, perRound int) clusterOp {
	w.mu.Lock()
	ops, ok := w.plans[perRound]
	if !ok {
		ops = roundOps(perRound)
		w.plans[perRound] = ops
	}
	w.mu.Unlock()
	round, k := i/perRound, i%perRound
	perm := rand.New(rand.NewSource(w.env.seed*1_000_003 + int64(round))).Perm(perRound)
	return ops[perm[k]]
}

func (w *clusterWorkload) op(ctx context.Context, _, i, perRound int, root *liveSpan) opResult {
	op := w.opAt(i, perRound)
	out := opResult{class: op.class}
	withSum := i%checksumEach == 0
	wire0 := w.front.transport.bytes.Load()
	sp := root.child("cluster.query")
	t0 := time.Now()
	stream, err := w.front.client.Query(ctx, mixSQL[op.class], op.args(), nil)
	out.header = time.Since(t0)
	if err != nil {
		sp.end()
		out.err = err
		return out
	}
	d, err := drain(stream, t0, withSum, -1, 0)
	sp.end()
	out.latency = time.Since(t0)
	out.rows, out.firstRow, out.threads = d.rows, d.first, d.threads
	// Concurrent operations share the front connection pool, so this is the
	// bytes that crossed it during the operation: exact only unloaded.
	out.wire = w.front.transport.bytes.Load() - wire0
	if err != nil {
		out.err = err
		return out
	}
	out.err = w.want[op].check(fmt.Sprintf("cluster-open %s(%d)", clusterClasses[op.class], op.arg), d.rows, d.sum, withSum)
	return out
}

// layers runs each operation through the coordinator and then, concurrently,
// straight against every shard with the same arguments: the coordinator's
// own cost is what it adds to the slowest shard.
func (w *clusterWorkload) layers(ctx context.Context, tr *tracer, m metrics) error {
	var ops []clusterOp
	for class := range mixSQL {
		ops = append(ops, classOps(class, 10)...)
	}
	var fanout, merge, imbalance, threads, util []float64
	for _, op := range ops {
		root := tr.op()
		sp := root.child("cluster.query")
		t0 := time.Now()
		rows, err := w.coord.Query(ctx, mixSQL[op.class], op.args(), nil)
		if err != nil {
			root.end()
			return err
		}
		var n int64
		for rows.Next() {
			n++
		}
		sp.end()
		viaCoord := time.Since(t0)
		if err := rows.Err(); err != nil {
			root.end()
			return err
		}
		if want := w.want[op].rows; n != want {
			root.end()
			return fmt.Errorf("cluster-open layers %s(%d): %d rows, want %d", clusterClasses[op.class], op.arg, n, want)
		}
		foot := rows.Footer()
		threads = append(threads, float64(foot.Threads))
		if op.class == 0 && n > 0 {
			var most int64
			for _, nf := range foot.Nodes {
				most = max(most, nf.Rows)
			}
			imbalance = append(imbalance, float64(most)*float64(len(foot.Nodes))/float64(n))
		}

		var wg sync.WaitGroup
		shard := make([]time.Duration, len(w.direct))
		errs := make([]error, len(w.direct))
		for s, c := range w.direct {
			wg.Add(1)
			go func(s int, c *conn) {
				defer wg.Done()
				sp := root.child("server.shard_query")
				defer sp.end()
				t0 := time.Now()
				stream, err := c.client.Query(ctx, mixSQL[op.class], op.args(), nil)
				if err != nil {
					errs[s] = err
					return
				}
				_, errs[s] = drain(stream, t0, false, -1, 0)
				shard[s] = time.Since(t0)
			}(s, c)
		}
		wg.Wait()
		root.end()
		var slowest time.Duration
		for s := range shard {
			if errs[s] != nil {
				return errs[s]
			}
			slowest = max(slowest, shard[s])
		}
		fanout = append(fanout, ms(viaCoord-slowest))
		if op.class == 1 || op.class == 2 {
			merge = append(merge, ms(viaCoord-slowest))
		}
		w.coord.Poll(ctx)
		util = append(util, w.coord.Stats().ClusterUtilization)
	}
	m["cluster.fanout_overhead_ms"] = median(fanout)
	m["cluster.merge_ms.aggregate"] = median(merge)
	m["cluster.shard_rows_imbalance"] = mean(imbalance)
	m["cluster.threads_per_query_mean"] = mean(threads)
	m["cluster.utilization_mean"] = mean(util)
	st := w.coord.Stats()
	m["cluster.failures"] = float64(st.Failures)
	m["cluster.failovers"] = float64(st.Failovers)
	m["cluster.repreparations"] = float64(st.Repreparations)

	var bytes, rowsOut int64
	for _, c := range w.direct {
		ws, err := c.client.Stats(ctx)
		if err != nil {
			return err
		}
		bytes += ws.BytesWritten
		rowsOut += ws.RowsStreamed
	}
	if rowsOut > 0 {
		m["server.bytes_per_row.columnar"] = float64(bytes) / float64(rowsOut)
	}
	if err := probePlanning(m); err != nil {
		return err
	}
	return probeRuntime(ctx, m)
}
