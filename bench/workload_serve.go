package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dbs3"
	dbruntime "dbs3/internal/runtime"
	"dbs3/internal/server"
)

// node is one serving process's worth of state inside the benchmark: a
// catalog, its query manager and the HTTP front end on a loopback listener.
type node struct {
	db      *dbs3.Database
	manager *dbruntime.Manager
	srv     *http.Server
	url     string
	served  sync.WaitGroup
}

// listen serves handler on a fresh loopback port and returns its base URL;
// done is released when the serve loop has exited.
func listen(handler http.Handler, done *sync.WaitGroup) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: handler}
	done.Add(1)
	go func() {
		defer done.Done()
		srv.Serve(ln) // returns ErrServerClosed on Shutdown; nothing to report
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

func shutdown(srv *http.Server, done *sync.WaitGroup) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	done.Wait()
}

// startNode serves db with a thread budget. maxQueued bounds the admission
// queue (0 = the manager's default of four times the budget).
func startNode(db *dbs3.Database, budget, maxQueued int, token string) (*node, error) {
	n := &node{db: db}
	n.manager = db.Manager(dbs3.ManagerConfig{Budget: budget, MaxQueued: maxQueued})
	var err error
	n.srv, n.url, err = listen(server.New(db, n.manager, server.Config{AuthToken: token}), &n.served)
	return n, err
}

func (n *node) stop() {
	if n == nil {
		return
	}
	shutdown(n.srv, &n.served)
	if n.manager != nil {
		n.manager.Close()
	}
}

// countingTransport counts response body bytes, the client's view of what a
// result costs on the wire.
type countingTransport struct {
	base  *http.Transport
	bytes atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &t.bytes}
	}
	return resp, err
}

// conn is one keep-alive client connection.
type conn struct {
	client    *server.Client
	transport *countingTransport
}

func dial(url, token string, columnar bool, idle int) *conn {
	t := &countingTransport{base: &http.Transport{MaxIdleConns: idle, MaxIdleConnsPerHost: idle}}
	return &conn{transport: t, client: &server.Client{Base: url, HTTP: &http.Client{Transport: t}, Columnar: columnar, Token: token}}
}

func (c *conn) close() { c.transport.base.CloseIdleConnections() }

// drained is what consuming one result stream observed.
type drained struct {
	rows, sum int64
	first     time.Duration // open -> first row
	threads   int
	keyOK     bool // every row's column `keyCol` equals `key` (point queries)
}

// drain consumes a stream to its footer. With keyCol >= 0 it checks every
// row's key column against key; withSum adds up all integer values.
func drain(s *server.RowStream, opened time.Time, withSum bool, keyCol int, key int64) (drained, error) {
	d := drained{keyOK: true, threads: s.Header().Threads}
	defer s.Close()
	for s.Next() {
		if d.rows == 0 {
			d.first = time.Since(opened)
		}
		d.rows++
		row := s.Row()
		if withSum {
			d.sum += rowSum(row)
		}
		if keyCol >= 0 {
			if v, ok := row[keyCol].(int64); !ok || v != key {
				d.keyOK = false
			}
		}
	}
	if err := s.Err(); err != nil {
		return d, err
	}
	if s.Footer() == nil {
		return d, errors.New("stream ended without a footer")
	}
	return d, nil
}

const (
	shortPreparedSQL = "SELECT * FROM short WHERE unique1 = ?"
	shortCachedSQL   = "SELECT * FROM short WHERE unique2 = ?"
	wideSQL          = "SELECT * FROM wide WHERE unique1 < ?"
)

// serveData loads the catalog both serve workloads use. serve-short never
// queries `wide` and serve-wide never queries `short`; holding both keeps the
// two set-ups the same size.
func serveData(db *dbs3.Database, seed int64, lap func()) error {
	if err := db.CreateWisconsin("short", shortCard, shortDegree, "unique2", seed); err != nil {
		return err
	}
	lap()
	return db.CreateWisconsin("wide", wideCard, wideDegree, "unique2", seed+1)
}

// serveWorkload is serve-short or serve-wide: one node, serveConns keep-alive
// closed-loop clients.
type serveWorkload struct {
	wide   bool
	env    runEnv
	node   *node
	conns  []*conn
	stmtID string     // the server-side prepared statement
	stmt   *dbs3.Stmt // the same statement in process, the traced run's twin
	want   answer     // serve-wide's reference answer
}

var (
	shortClasses = []string{"prepared", "cached", "unseen"}
	wideClasses  = []string{"ndjson", "columnar"}
)

func (w *serveWorkload) name() string {
	if w.wide {
		return "serve-wide"
	}
	return "serve-short"
}

func (w *serveWorkload) classes() []string {
	if w.wide {
		return wideClasses
	}
	return shortClasses
}
func (w *serveWorkload) clients() int  { return serveConns }
func (w *serveWorkload) rate() float64 { return 0 }

// oracle: a serve-short point query must return the one row whose key is the
// argument, which each operation checks on its own. serve-wide's answer comes
// from a throwaway database that is never served.
func (w *serveWorkload) oracle(ctx context.Context, env runEnv) error {
	if !w.wide {
		return nil
	}
	if cached, ok := oracles[oracleKey{w.name(), env.seed}]; ok {
		w.want = cached.(answer)
		return nil
	}
	db := dbs3.New()
	if err := serveData(db, env.seed, noLap); err != nil {
		return err
	}
	res, err := db.QueryAllContext(ctx, wideSQL, nil, wideRows)
	if err != nil {
		return err
	}
	w.want = answerOf(res)
	if w.want.rows != wideRows {
		return fmt.Errorf("serve-wide oracle: %d rows, want %d", w.want.rows, wideRows)
	}
	oracles[oracleKey{w.name(), env.seed}] = w.want
	return nil
}

func (w *serveWorkload) load() managerLoad {
	if w.node == nil {
		return managerLoad{}
	}
	return managerStats(w.node.manager)
}
func (w *serveWorkload) ledger() error { return ledgerOf(w.node.manager) }

func (w *serveWorkload) setup(ctx context.Context, env runEnv, lap func()) error {
	w.env = env
	db := dbs3.New()
	if err := serveData(db, env.seed, lap); err != nil {
		return err
	}
	lap()
	var err error
	if w.node, err = startNode(db, env.nproc, 0, ""); err != nil {
		return err
	}
	lap()
	for c := 0; c < serveConns; c++ {
		w.conns = append(w.conns, dial(w.node.url, "", false, 1))
	}
	sql := shortPreparedSQL
	if w.wide {
		sql = wideSQL
	}
	prep, err := w.conns[0].client.Prepare(ctx, sql, nil)
	if err != nil {
		return err
	}
	w.stmtID = prep.ID
	w.stmt, err = db.Prepare(sql, nil)
	return err
}

func (w *serveWorkload) teardown() {
	for _, c := range w.conns {
		c.close()
	}
	w.node.stop()
	*w = serveWorkload{wide: w.wide, want: w.want}
}

func (w *serveWorkload) warm(ctx context.Context) error {
	for c := range w.conns {
		for i := 0; i < 4*len(w.classes()); i++ {
			if res := w.op(ctx, c, -1-i, 0, nil); res.err != nil {
				return res.err
			}
		}
	}
	return nil
}

// key is the point-query argument of a client's i-th operation: the same on
// every run with the same seed.
func (w *serveWorkload) key(client, i int) int64 {
	return rand.New(rand.NewSource(w.env.seed<<20 ^ int64(client)<<40 ^ int64(i))).Int63n(shortCard)
}

func classOf(client, i, classes int) int {
	return ((i+client)%classes + classes) % classes
}

// op runs one operation over the client's connection. The trace splits it at
// the response header: server.ttfb is request -> header, server.stream is
// header -> footer.
func (w *serveWorkload) op(ctx context.Context, client, i, _ int, root *liveSpan) opResult {
	c := w.conns[client]
	class := classOf(client, i, len(w.classes()))
	out := opResult{class: class}
	withSum := i%checksumEach == 0
	wire0 := c.transport.bytes.Load()

	var (
		stream *server.RowStream
		err    error
		keyCol = -1
		key    int64
	)
	ttfb := root.child("server.ttfb")
	t0 := time.Now()
	switch {
	case w.wide:
		stream, err = c.client.Exec(ctx, w.stmtID, []any{wideRows}, &server.Options{Wire: wideClasses[class]})
	case class == 0:
		keyCol, key = 0, w.key(client, i)
		stream, err = c.client.Exec(ctx, w.stmtID, []any{key}, nil)
	case class == 1:
		keyCol, key = 1, w.key(client, i)
		stream, err = c.client.Query(ctx, shortCachedSQL, []any{key}, nil)
	default:
		// A literal no earlier operation of this process used: the second
		// conjunct is always true and different every time.
		keyCol, key = 0, w.key(client, i)
		never := int64(shortCard) + int64(client)<<32 + int64(uint32(i))
		stream, err = c.client.Query(ctx, fmt.Sprintf("SELECT * FROM short WHERE unique1 = %d AND unique2 < %d", key, never), nil, nil)
	}
	ttfb.end()
	out.header = time.Since(t0)
	if err != nil {
		out.err = err
		return out
	}
	body := root.child("server.stream")
	d, err := drain(stream, t0, withSum, keyCol, key)
	body.end()
	out.latency = time.Since(t0)
	out.rows, out.firstRow, out.threads = d.rows, d.first, d.threads
	out.wire = c.transport.bytes.Load() - wire0
	switch {
	case err != nil:
		out.err = err
	case w.wide:
		// unique1 is a permutation of 0..card-1, so `unique1 < n` returns n
		// rows; the checksum is compared with the in-process answer.
		out.err = w.want.check("serve-wide "+wideClasses[class], d.rows, d.sum, withSum)
	case d.rows != 1 || !d.keyOK:
		out.err = fmt.Errorf("serve-short %s: %d rows for key %d (key matches: %t)", shortClasses[class], d.rows, key, d.keyOK)
	}
	return out
}
