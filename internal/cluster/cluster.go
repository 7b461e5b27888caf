// Package cluster is the distributed scatter-gather tier over dbs3's serve
// nodes: a query coordinator that compiles a statement once, fans out
// shard-restricted subqueries to N worker shards over the existing wire
// protocol (`?` binding, binary columnar streams), streams the partial
// results back concurrently, and re-aggregates locally — union-merge for
// plain selections and joins, and for GROUP BY queries one
// operator.Aggregate instance that folds the shards' partial groups
// (partial aggregates are pushed down for free: each worker's aggregate
// runs over only its shard).
//
// The tier is shared-nothing in the sense of the paper's degree-of-
// partitioning model lifted one level: a relation's fragments live across
// shards (dbs3.ShardRelation places them by hashing a distribution column),
// each node keeps its own QueryManager, admission queue and thread budget,
// and the coordinator closes the [Rahm93] utilization feedback loop across
// machines — it polls every node's /stats for SmoothedUtilization and held
// threads, and folds the load of the *other* shards into each fan-out
// subquery's Options.Utilization so a worker's scheduler sees cluster load
// it cannot measure locally.
//
// Fault tolerance: each shard may hold R replicas serving the same shard of
// the catalog ("addr1|addr2" in Config.Nodes). The coordinator picks one
// replica per subquery — load-aware, skipping replicas whose circuit
// breaker is open — and a subquery that fails before its first row is
// merged is transparently re-issued on the next live replica. A failure
// after rows merged restarts the whole query once when Config.
// RetryWholeQuery is set and nothing was delivered to the consumer yet;
// otherwise it keeps first-error-wins: the coordinator surfaces one error,
// cancels the sibling streams (each worker sees its client disconnect,
// aborts the query, and returns the threads to its local budget), and
// releases every coordinator-side resource. The health poll feeds each
// replica's breaker, so dead replicas stop receiving scatter traffic and
// rejoin automatically once they answer probes again. See DESIGN.md
// "Fault tolerance in the cluster tier" for the full failure-semantics
// table.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbs3/internal/server"
)

const (
	// defaultTimeout bounds each coordinator→worker request's connect-and-
	// respond phase (streamed bodies are unbounded; see server.Client).
	defaultTimeout = 10 * time.Second
	// defaultRetries re-sends a fan-out request after transient connect
	// errors, covering workers that are still binding their listener.
	defaultRetries = 3
	// defaultPollInterval is the cadence of the health/utilization exchange.
	defaultPollInterval = 2 * time.Second
)

// Config assembles a Coordinator.
type Config struct {
	// Nodes are the worker base URLs, one entry per shard; an entry may be a
	// "|"-separated replica set serving the same shard, e.g.
	// "http://a:8080|http://b:8080". At least one shard is required; every
	// replica of shard i must serve the same catalog, sharded with
	// dbs3.ShardRelation (shard i of len(Nodes)).
	Nodes []string
	// Token is the bearer credential for coordinator→worker links; the
	// coordinator's own HTTP front end enforces the same token.
	Token string
	// HTTP overrides the transport used for worker links (default
	// http.DefaultClient-like per-node clients).
	HTTP *http.Client
	// Wire selects the worker-link result encoding: "" or "columnar"
	// (default — the cheaper encoding for wide fan-in), or "ndjson".
	Wire string
	// Timeout bounds each worker request's header phase (0 = 10s).
	Timeout time.Duration
	// Retries bounds connect retries per worker request (0 = 3; negative
	// disables).
	Retries int
	// PollInterval is the health/utilization exchange cadence (0 = 2s;
	// negative disables the background poller — Poll can still be called
	// explicitly).
	PollInterval time.Duration
	// MaxStatements caps the prepared-statement registry of the
	// coordinator's HTTP front end (0 = the serve default, 1024).
	MaxStatements int
	// RetryWholeQuery restarts a query once from the coordinator when a
	// replica fails after rows were already merged — provided nothing was
	// delivered to the consumer yet. Off, such failures keep
	// first-error-wins.
	RetryWholeQuery bool
}

// Coordinator fans queries out over a fixed registry of worker shards and
// merges their result streams. It is safe for concurrent use; create one
// per cluster and Close it to stop the background poller.
type Coordinator struct {
	shards     []*shard
	token      string // also guards Handler's front end
	maxStmt    int    // Handler's registry cap
	retryWhole bool

	// Lifetime counters, surfaced on Stats and the /stats endpoint.
	queries           atomic.Int64
	failures          atomic.Int64
	failovers         atomic.Int64
	wholeQueryRetries atomic.Int64

	stopPoll context.CancelFunc
	pollDone chan struct{}
}

// shard is one partition of the catalog and the replica set serving it.
type shard struct {
	index    int
	replicas []*replica
	// rr rotates the starting replica so equally-loaded siblings share
	// traffic instead of all queries landing on replica 0.
	rr atomic.Int64
}

// replica is one worker: its wire client, circuit breaker, and the last
// polled health/stats snapshot — the coordinator's input to both replica
// placement and the cluster utilization exchange.
type replica struct {
	shard  int
	name   string
	client *server.Client
	brk    *breaker

	mu       sync.Mutex
	polled   bool
	alive    bool
	lastErr  string
	stats    server.StatsResponse
	lastPoll time.Time
}

// New builds a Coordinator over cfg.Nodes and starts the health poller
// (unless cfg.PollInterval is negative). ctx is the coordinator's
// lifecycle: cancelling it — or calling Close — stops the poller and
// cancels its in-flight /stats requests.
func New(ctx context.Context, cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no worker nodes configured")
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = defaultTimeout
	}
	retries := cfg.Retries
	if retries == 0 {
		retries = defaultRetries
	} else if retries < 0 {
		retries = 0
	}
	columnar := true
	switch cfg.Wire {
	case "", "columnar":
	case "ndjson":
		columnar = false
	default:
		return nil, fmt.Errorf("cluster: unknown worker wire encoding %q (want columnar or ndjson)", cfg.Wire)
	}
	c := &Coordinator{
		token:      cfg.Token,
		maxStmt:    cfg.MaxStatements,
		retryWhole: cfg.RetryWholeQuery,
	}
	for si, group := range cfg.Nodes {
		sh := &shard{index: si}
		for _, base := range strings.Split(group, "|") {
			base = strings.TrimSpace(base)
			if base == "" {
				continue
			}
			sh.replicas = append(sh.replicas, &replica{
				shard: si,
				name:  base,
				brk:   newBreaker(),
				client: &server.Client{
					Base:     base,
					HTTP:     cfg.HTTP,
					Columnar: columnar,
					Token:    cfg.Token,
					Timeout:  timeout,
					Retries:  retries,
				},
			})
		}
		if len(sh.replicas) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas (entry %q)", si, group)
		}
		c.shards = append(c.shards, sh)
	}
	interval := cfg.PollInterval
	if interval == 0 {
		interval = defaultPollInterval
	}
	if interval > 0 {
		pollCtx, cancel := context.WithCancel(ctx)
		c.stopPoll = cancel
		c.pollDone = make(chan struct{})
		go c.pollLoop(pollCtx, interval)
	}
	return c, nil
}

// Close stops the background poller, cancelling any poll round still in
// flight. In-flight queries are unaffected.
func (c *Coordinator) Close() {
	if c.stopPoll != nil {
		c.stopPoll()
		<-c.pollDone
		c.stopPoll = nil
	}
}

// replicas walks every replica of every shard, in shard then replica order.
func (c *Coordinator) replicas(f func(r *replica)) {
	for _, sh := range c.shards {
		for _, r := range sh.replicas {
			f(r)
		}
	}
}

// pollLoop runs the utilization exchange until the lifecycle context is
// cancelled (Close, or the caller's ctx). Each round inherits that
// context, so shutdown aborts a poll blocked on a dead worker instead of
// waiting out its timeout.
func (c *Coordinator) pollLoop(ctx context.Context, interval time.Duration) {
	defer close(c.pollDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	// Prime immediately so the first queries already see remote load.
	c.Poll(ctx)
	for {
		select {
		case <-ticker.C:
			c.Poll(ctx)
		case <-ctx.Done():
			return
		}
	}
}

// Poll refreshes every replica's health and stats snapshot concurrently:
// one round of the cluster utilization exchange. Workers report their
// SmoothedUtilization and held threads on /stats; a replica whose /stats
// fails is marked down until a later round revives it. Each probe outcome
// also feeds the replica's circuit breaker — this is how a dead replica's
// breaker opens without query traffic, and how a revived one closes it.
func (c *Coordinator) Poll(ctx context.Context) {
	var wg sync.WaitGroup
	c.replicas(func(r *replica) {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			st, err := r.client.Stats(ctx)
			now := time.Now()
			if err != nil {
				// Cancellation is the poller shutting down, not replica
				// health evidence.
				if replicaFault(err) {
					r.brk.failure()
				}
			} else {
				r.brk.success()
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			r.polled = true
			r.lastPoll = now
			if err != nil {
				r.alive = false
				r.lastErr = err.Error()
				return
			}
			r.alive = true
			r.lastErr = ""
			r.stats = *st
		}(r)
	})
	wg.Wait()
}

// load is a replica's scalar load signal: the EWMA-smoothed utilization its
// manager measured from concurrent queries, or — whichever is higher — the
// instantaneous fraction of its thread budget currently held. The second
// term reacts within one poll round when a burst lands on a node whose EWMA
// has not caught up yet.
func (r *replica) load() (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.polled || !r.alive {
		return 0, false
	}
	l := r.stats.SmoothedUtilization
	if r.stats.Budget > 0 {
		if inst := float64(r.stats.ThreadsInFlight) / float64(r.stats.Budget); inst > l {
			l = inst
		}
	}
	return l, true
}

// knownDead reports a replica whose last poll failed — deprioritized in
// placement even while its breaker is still counting toward the threshold.
func (r *replica) knownDead() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.polled && !r.alive
}

// load is a shard's scalar load signal: the load of its least-loaded live
// replica — the one placement would pick for the next subquery.
func (sh *shard) load() (float64, bool) {
	var min float64
	found := false
	for _, r := range sh.replicas {
		if l, ok := r.load(); ok && (!found || l < min) {
			min, found = l, true
		}
	}
	return min, found
}

// candidates returns the shard's replicas in placement-preference order:
// breaker-admitted live replicas first (load ascending), then admitted
// replicas whose last poll failed, and breaker-open replicas last — still
// present so an all-replicas-down shard attempts *something* and produces a
// real error instead of refusing locally. Equal-preference replicas rotate
// round-robin across calls.
func (sh *shard) candidates() []*replica {
	n := len(sh.replicas)
	reps := make([]*replica, n)
	start := int(sh.rr.Add(1)-1) % n
	for i := range reps {
		reps[i] = sh.replicas[(start+i)%n]
	}
	rank := make(map[*replica]int, n)
	loads := make(map[*replica]float64, n)
	for _, r := range reps {
		switch {
		case !r.brk.allow():
			rank[r] = 2
		case r.knownDead():
			rank[r] = 1
		default:
			rank[r] = 0
			if l, ok := r.load(); ok {
				loads[r] = l
			}
		}
	}
	sort.SliceStable(reps, func(i, j int) bool {
		a, b := reps[i], reps[j]
		if rank[a] != rank[b] {
			return rank[a] < rank[b]
		}
		return rank[a] == 0 && loads[a] < loads[b]
	})
	return reps
}

// remoteLoad folds the cluster's load as seen from one shard: the maximum
// load among the *other* shards. A shard's own load is excluded — its local
// QueryManager already measures that and feeds it into the scheduler; the
// wire Utilization adds exactly what the worker cannot see. The maximum
// (not the mean) is the right fold for scatter-gather: the merge waits for
// the slowest sibling, so the busiest remote shard bounds the useful
// parallelism everywhere.
func (c *Coordinator) remoteLoad(exclude *shard) float64 {
	var max float64
	for _, sh := range c.shards {
		if sh == exclude {
			continue
		}
		if l, ok := sh.load(); ok && l > max {
			max = l
		}
	}
	return max
}

// shardOptions derives one fan-out subquery's options for a shard: the
// caller's options with the worker-link encoding reset (the caller's Wire
// choice governs the coordinator's own response, not worker links) and the
// remote cluster load folded into Utilization [Rahm93].
func (c *Coordinator) shardOptions(sh *shard, opt *server.Options) *server.Options {
	var o server.Options
	if opt != nil {
		o = *opt
	}
	o.Wire = ""
	if u := c.remoteLoad(sh); u > o.Utilization {
		o.Utilization = u
	}
	return &o
}

// NodeStatus is one replica's health snapshot in Stats.
type NodeStatus struct {
	// Shard is the partition this replica serves.
	Shard int    `json:"shard"`
	Node  string `json:"node"`
	// Alive reports the last poll's outcome; Error carries its failure.
	Alive bool   `json:"alive"`
	Error string `json:"error,omitempty"`
	// Breaker is the replica's circuit-breaker state: closed, open, or
	// half-open.
	Breaker string `json:"breaker"`
	// LastPoll is when the snapshot was taken (zero = never polled).
	LastPoll time.Time `json:"lastPoll,omitzero"`
	// Stats is the replica's last /stats response (valid when Alive).
	Stats server.StatsResponse `json:"stats"`
}

// Stats is the coordinator's cluster-wide snapshot.
type Stats struct {
	// Nodes holds one status per replica, in shard then replica order.
	Nodes []NodeStatus `json:"nodes"`
	// Healthy counts replicas whose last poll succeeded.
	Healthy int `json:"healthy"`
	// ClusterUtilization is the maximum per-shard load signal — what a
	// fan-out lands on top of.
	ClusterUtilization float64 `json:"clusterUtilization"`
	// Queries/Failures count scatter-gather executions.
	Queries  int64 `json:"queries"`
	Failures int64 `json:"failures"`
	// Repreparations is always 0: workers hold no half of a coordinator's
	// statement, so none is ever re-prepared. It stays because the
	// benchmark module reads it.
	Repreparations int64 `json:"repreparations"`
	// Failovers counts subqueries re-established on a sibling replica after
	// their first choice failed; WholeQueryRetries counts coordinator-level
	// query restarts under RetryWholeQuery.
	Failovers         int64 `json:"failovers"`
	WholeQueryRetries int64 `json:"wholeQueryRetries"`
	// Statements is the number of open prepared statements in the HTTP
	// front end's registry; zero on a snapshot taken through Stats, which
	// has no registry behind it.
	Statements int `json:"statements"`
}

// Stats snapshots the cluster from the last poll round (it does not touch
// the network; call Poll first for freshness).
func (c *Coordinator) Stats() Stats {
	st := Stats{}
	c.replicas(func(r *replica) {
		r.mu.Lock()
		ns := NodeStatus{Shard: r.shard, Node: r.name, Alive: r.alive, Error: r.lastErr, LastPoll: r.lastPoll}
		if r.polled && r.alive {
			ns.Stats = r.stats
		}
		r.mu.Unlock()
		ns.Breaker = r.brk.current().String()
		if ns.Alive {
			st.Healthy++
		}
		st.Nodes = append(st.Nodes, ns)
	})
	if u := c.remoteLoad(nil); u > st.ClusterUtilization {
		st.ClusterUtilization = u
	}
	st.Queries = c.queries.Load()
	st.Failures = c.failures.Load()
	st.Failovers = c.failovers.Load()
	st.WholeQueryRetries = c.wholeQueryRetries.Load()
	return st
}

// NodeHealth is one replica's probe result in Health.
type NodeHealth struct {
	Shard int    `json:"shard"`
	Node  string `json:"node"`
	// Healthy is this probe's outcome; Error carries the failure.
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
	// Breaker is the replica's circuit-breaker state after the probe.
	Breaker string `json:"breaker"`
}

// Health probes every replica's /healthz concurrently and returns the
// per-replica outcomes — breaker state included — plus one aggregate error
// joining every dead replica's failure (nil when all respond). Probe
// outcomes feed the breakers, so an explicit health check doubles as the
// half-open recovery probe.
func (c *Coordinator) Health(ctx context.Context) ([]NodeHealth, error) {
	var reps []*replica
	c.replicas(func(r *replica) { reps = append(reps, r) })
	report := make([]NodeHealth, len(reps))
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i, r := range reps {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			err := r.client.Health(ctx)
			if err != nil {
				if replicaFault(err) {
					r.brk.failure()
				}
				errs[i] = &NodeError{Node: r.name, Err: err}
			} else {
				r.brk.success()
			}
			report[i] = NodeHealth{
				Shard:   r.shard,
				Node:    r.name,
				Healthy: err == nil,
				Breaker: r.brk.current().String(),
			}
			if err != nil {
				report[i].Error = err.Error()
			}
		}(i, r)
	}
	wg.Wait()
	return report, errors.Join(errs...)
}
