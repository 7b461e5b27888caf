package server_test

// One request script, two backends. The front end in internal/server is the
// only HTTP layer there is; these tests drive it over a local database and
// over a 3-shard cluster coordinator and demand the same protocol from both:
// the same statuses, Content-Types and error bodies for every malformed or
// unauthorized request, the same statement lifecycle (cap, close, idle
// expiry), the same rows in both encodings, the same stream behaviour.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dbs3"
	"dbs3/internal/cluster"
	"dbs3/internal/server"
)

const (
	confToken  = "conformance-secret"
	confShards = 3
	confBudget = 4
	// confMaxStmt is both front ends' registry cap.
	confMaxStmt = 3
)

// frontEnd is one front end under test plus the handles the script needs
// on whatever is behind it.
type frontEnd struct {
	name string
	srv  *server.Server
	url  string
	// client presents the token; every request of the script that is not
	// about auth goes through it.
	client *server.Client
	// advance moves the clock of the front end's statement registry.
	advance func(time.Duration)
	// activeThreads sums the thread ledgers of the engines behind the front
	// end; workerStatements the statements their own registries hold.
	activeThreads    func(t *testing.T) int
	workerStatements func(t *testing.T) int
	// failBackend makes an in-flight query fail inside the backend while
	// the client's connection to the front end stays up.
	failBackend func()
}

// abortable serves h with every request's context cancellable from outside:
// abort fails whatever is in flight, server-side, while the clients'
// connections stay up.
type abortable struct {
	h http.Handler

	mu       sync.Mutex
	next     int
	inflight map[int]context.CancelFunc
}

func (a *abortable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	a.mu.Lock()
	a.next++
	id := a.next
	a.inflight[id] = cancel
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.inflight, id)
		a.mu.Unlock()
	}()
	a.h.ServeHTTP(w, r.WithContext(ctx))
}

func (a *abortable) abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, cancel := range a.inflight {
		cancel()
	}
}

// serveNode starts a serve node over a Wisconsin relation — the whole of it,
// or one hash shard — and returns the abort of its in-flight requests.
func serveNode(t *testing.T, card, shard, shards int, cfg server.Config) (*server.Server, string, func()) {
	t.Helper()
	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", card, 4, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	if shards > 1 {
		if err := db.ShardRelation("wisc", "unique2", shard, shards); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(db, db.Manager(dbs3.ManagerConfig{Budget: confBudget}), cfg)
	url, abort := listen(t, srv)
	return srv, url, abort
}

// socketBuffer is the kernel buffer every connection of the fixture gets on
// its sending and on its receiving side. The stream tests need a query to be
// still running once its first row arrived; with the default (auto-tuned,
// megabytes) buffers a whole shard's result can sit in flight and the query
// be long done.
const socketBuffer = 64 << 10

// tightListener shrinks the send buffer of every accepted connection.
type tightListener struct{ net.Listener }

func (l tightListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(socketBuffer)
	}
	return c, err
}

// tightClient shrinks the receive buffer of every connection it dials; it
// carries all of the fixture's traffic, the coordinator's worker links
// included.
var tightClient = &http.Client{Transport: &http.Transport{
	DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetReadBuffer(socketBuffer)
		}
		return c, err
	},
}}

func listen(t *testing.T, h http.Handler) (string, func()) {
	t.Helper()
	a := &abortable{h: h, inflight: make(map[int]context.CancelFunc)}
	ts := httptest.NewUnstartedServer(a)
	ts.Listener = tightListener{ts.Listener}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts.URL, a.abort
}

func stats(t *testing.T, url string) *server.StatsResponse {
	t.Helper()
	st, err := (&server.Client{Base: url, HTTP: tightClient, Token: confToken}).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newFrontEnds builds the two front ends over the same card-row relation.
func newFrontEnds(t *testing.T, card int) []*frontEnd {
	t.Helper()
	cfg := server.Config{AuthToken: confToken, MaxStatements: confMaxStmt}

	localSrv, localURL, localAbort := serveNode(t, card, 0, 1, cfg)
	local := &frontEnd{
		name: "local", srv: localSrv, url: localURL, failBackend: localAbort,
		activeThreads:    func(t *testing.T) int { return stats(t, localURL).ThreadsInFlight },
		workerStatements: func(*testing.T) int { return 0 },
	}

	var urls []string
	var aborts []func()
	for i := 0; i < confShards; i++ {
		_, url, abort := serveNode(t, card, i, confShards, server.Config{AuthToken: confToken})
		urls = append(urls, url)
		aborts = append(aborts, abort)
	}
	coord, err := cluster.New(context.Background(), cluster.Config{
		Nodes: urls, Token: confToken, HTTP: tightClient, MaxStatements: confMaxStmt, PollInterval: -1, Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coordSrv := coord.Handler().(*server.Server)
	coordURL, _ := listen(t, coordSrv)
	overWorkers := func(f func(*server.StatsResponse) int) func(*testing.T) int {
		return func(t *testing.T) (n int) {
			for _, url := range urls {
				n += f(stats(t, url))
			}
			return n
		}
	}
	coordinator := &frontEnd{
		name: "coordinator", srv: coordSrv, url: coordURL, failBackend: aborts[0],
		activeThreads:    overWorkers(func(st *server.StatsResponse) int { return st.ThreadsInFlight }),
		workerStatements: overWorkers(func(st *server.StatsResponse) int { return st.Statements }),
	}

	fes := []*frontEnd{local, coordinator}
	for _, fe := range fes {
		fe.client = &server.Client{Base: fe.url, HTTP: tightClient, Token: confToken}
		fe.advance = fe.srv.FakeClock()
	}
	t.Cleanup(tightClient.CloseIdleConnections)
	return fes
}

// reply is what the script compares across front ends.
type reply struct {
	Status      int
	ContentType string
	Body        string
}

// call sends one raw request. hdr entries are "Name: value"; the token is
// presented unless hdr carries its own Authorization (possibly empty).
func (fe *frontEnd) call(t *testing.T, method, path, body string, hdr ...string) reply {
	t.Helper()
	req, err := http.NewRequest(method, fe.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+confToken)
	for _, h := range hdr {
		name, value, _ := strings.Cut(h, ": ")
		if value == "" {
			req.Header.Del(name)
		} else {
			req.Header.Set(name, value)
		}
	}
	resp, err := tightClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{resp.StatusCode, resp.Header.Get("Content-Type"), strings.TrimSpace(string(raw))}
}

// prepare registers sql and returns its id.
func (fe *frontEnd) prepare(t *testing.T, sql string) string {
	t.Helper()
	pr, err := fe.client.Prepare(context.Background(), sql, nil)
	if err != nil {
		t.Fatalf("%s: prepare: %v", fe.name, err)
	}
	return pr.ID
}

// rows drains a stream into a canonical sorted multiset.
func rows(t *testing.T, s *server.RowStream, err error) []string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out []string
	for s.Next() {
		out = append(out, fmt.Sprintf("%#v", s.Row()))
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if f := s.Footer(); f == nil || f.RowCount != int64(len(out)) {
		t.Fatalf("footer %+v after %d rows", f, len(out))
	}
	sort.Strings(out)
	return out
}

const (
	plainText = "text/plain; charset=utf-8"
	ndjson    = "application/x-ndjson"
	oneParam  = `SELECT unique1 FROM wisc WHERE unique2 < ?`
	// oneParamInfo is oneParam's prepare response with the id masked.
	oneParamInfo = `{"id":"?","sql":"SELECT unique1 FROM wisc WHERE unique2 \u003c ?","columns":["unique1"],"types":["INT"],"params":1}`
)

// TestFrontEndConformance runs the request script. Each case reports one
// reply per front end; the replies must equal each other — body included
// unless the case says the text is the backend's — and the case's wanted
// status and Content-Type.
func TestFrontEndConformance(t *testing.T) {
	fes := newFrontEnds(t, 1200)
	q := func(body string, hdr ...string) func(*testing.T, *frontEnd) reply {
		return func(t *testing.T, fe *frontEnd) reply { return fe.call(t, "POST", "/query", body, hdr...) }
	}
	cases := []struct {
		name        string
		run         func(t *testing.T, fe *frontEnd) reply
		status      int
		contentType string
		// body, when set, must appear in both replies; backendText marks
		// error text the backend wrote, which may differ between the two.
		body        string
		backendText bool
	}{
		{"healthz", func(t *testing.T, fe *frontEnd) reply { return fe.call(t, "GET", "/healthz", "") },
			200, plainText, "ok", false},
		{"empty sql", q(`{"sql":"  "}`), 400, plainText, "server: empty sql", false},
		{"empty sql on prepare", func(t *testing.T, fe *frontEnd) reply { return fe.call(t, "POST", "/prepare", `{"sql":""}`) },
			400, plainText, "server: empty sql", false},
		{"unknown field", q(`{"sql":"SELECT * FROM wisc","limit":5}`), 400, plainText, `unknown field "limit"`, false},
		{"unknown option", q(`{"sql":"SELECT * FROM wisc","options":{"batchGrain":1}}`), 400, plainText, `unknown field "batchGrain"`, false},
		{"stream buffer option", q(`{"sql":"SELECT * FROM wisc","options":{"streamBuffer":8}}`), 400, plainText, `unknown field "streamBuffer"`, false},
		{"spill directory option", q(`{"sql":"SELECT * FROM wisc","options":{"spillDir":"/tmp"}}`), 400, plainText, `unknown field "spillDir"`, false},
		{"body is not JSON", q(`SELECT 1`), 400, plainText, "server: bad request body", false},
		{"float argument", q(`{"sql":"` + oneParam + `","args":[1.5]}`), 400, plainText, "is not a 64-bit integer", false},
		{"boolean argument", q(`{"sql":"` + oneParam + `","args":[true]}`), 400, plainText, "unsupported type bool", false},
		{"missing argument", q(`{"sql":"` + oneParam + `"}`), 400, plainText, "", true},
		{"surplus argument", q(`{"sql":"SELECT unique1 FROM wisc","args":[1]}`), 400, plainText, "", true},
		{"unknown column", q(`{"sql":"SELECT nope FROM wisc"}`), 400, plainText, "nope", true},
		{"unknown strategy", q(`{"sql":"SELECT * FROM wisc","options":{"strategy":"bogus"}}`), 400, plainText, "unknown strategy", true},
		{"unknown priority", q(`{"sql":"SELECT * FROM wisc","options":{"priority":"bogus"}}`), 400, plainText, "unknown priority", true},
		{"unknown wire name", q(`{"sql":"SELECT * FROM wisc","options":{"wire":"protobuf"}}`),
			400, plainText, `server: unknown wire encoding "protobuf"`, false},
		{"unknown route", func(t *testing.T, fe *frontEnd) reply { return fe.call(t, "GET", "/tables", "") },
			404, plainText, "404 page not found", false},

		{"no token", q(`{"sql":"SELECT * FROM wisc"}`, "Authorization: "), 401, plainText, "server: missing or wrong bearer token", false},
		{"wrong token", q(`{"sql":"SELECT * FROM wisc"}`, "Authorization: Bearer nope"), 401, plainText, "server: missing or wrong bearer token", false},
		{"no token on healthz", func(t *testing.T, fe *frontEnd) reply { return fe.call(t, "GET", "/healthz", "", "Authorization: ") },
			401, plainText, "", false},
		{"no token on stats", func(t *testing.T, fe *frontEnd) reply { return fe.call(t, "GET", "/stats", "", "Authorization: ") },
			401, plainText, "", false},
		{"no token on prepare", func(t *testing.T, fe *frontEnd) reply {
			return fe.call(t, "POST", "/prepare", `{"sql":"SELECT * FROM wisc"}`, "Authorization: ")
		}, 401, plainText, "", false},

		// The priority header reaches the backend's admission (a bogus class
		// is refused there) and yields to the body's own priority.
		{"priority by header", q(`{"sql":"SELECT unique1 FROM wisc WHERE unique2 < 3"}`, "X-DBS3-Priority: bogus"),
			400, plainText, "unknown priority", true},
		{"priority by body beats header", func(t *testing.T, fe *frontEnd) reply {
			r := fe.call(t, "POST", "/query", `{"sql":"SELECT unique1 FROM wisc WHERE unique2 < 3","options":{"priority":"batch"}}`, "X-DBS3-Priority: bogus")
			r.Body = "" // rows: compared as multisets below
			return r
		}, 200, ndjson, "", false},

		{"exec of an unknown id", func(t *testing.T, fe *frontEnd) reply { return fe.call(t, "POST", "/stmt/s999/exec", `{}`) },
			404, plainText, `server: no prepared statement "s999"`, false},
		{"info of an unknown id", func(t *testing.T, fe *frontEnd) reply { return fe.call(t, "GET", "/stmt/s999", "") },
			404, plainText, `server: no prepared statement "s999"`, false},
		{"close of an unknown id", func(t *testing.T, fe *frontEnd) reply { return fe.call(t, "DELETE", "/stmt/s999", "") },
			404, plainText, `server: no prepared statement "s999"`, false},
		{"prepared info", func(t *testing.T, fe *frontEnd) reply {
			id := fe.prepare(t, oneParam)
			defer fe.client.CloseStmt(context.Background(), id)
			r := fe.call(t, "GET", "/stmt/"+id, "")
			r.Body = strings.Replace(r.Body, `"id":"`+id+`"`, `"id":"?"`, 1)
			return r
		}, 200, "application/json", oneParamInfo, false},
		{"exec body with sql", func(t *testing.T, fe *frontEnd) reply {
			id := fe.prepare(t, oneParam)
			defer fe.client.CloseStmt(context.Background(), id)
			return fe.call(t, "POST", "/stmt/"+id+"/exec", `{"sql":"SELECT 1","args":[5]}`)
		}, 400, plainText, `unknown field "sql"`, false},
		{"exec with a bad argument", func(t *testing.T, fe *frontEnd) reply {
			id := fe.prepare(t, oneParam)
			defer fe.client.CloseStmt(context.Background(), id)
			return fe.call(t, "POST", "/stmt/"+id+"/exec", `{"args":[null]}`)
		}, 400, plainText, "unsupported type <nil>", false},
		{"exec of a closed id", func(t *testing.T, fe *frontEnd) reply {
			id := fe.prepare(t, oneParam)
			if r := fe.call(t, "DELETE", "/stmt/"+id, ""); r.Status != 204 {
				t.Errorf("%s: close: %+v", fe.name, r)
			}
			if n := fe.workerStatements(t); n != 0 {
				t.Errorf("%s: workers hold %d statements after close", fe.name, n)
			}
			r := fe.call(t, "POST", "/stmt/"+id+"/exec", `{"args":[5]}`)
			r.Body = strings.Replace(r.Body, id, "?", 1)
			return r
		}, 404, plainText, `server: no prepared statement "?"`, false},
		{"exec of an expired id", func(t *testing.T, fe *frontEnd) reply {
			id := fe.prepare(t, oneParam)
			before := fe.srv.Counters(context.Background()).Expired
			fe.advance(time.Hour)
			r := fe.call(t, "POST", "/stmt/"+id+"/exec", `{"args":[5]}`)
			c := fe.srv.Counters(context.Background())
			if c.Expired != before+1 || c.Statements != 0 {
				t.Errorf("%s: after expiry %d expired (was %d), %d open", fe.name, c.Expired, before, c.Statements)
			}
			// The expiry closed the backend's handle: a coordinator's
			// replicas hold no half of it any more.
			if n := fe.workerStatements(t); n != 0 {
				t.Errorf("%s: workers hold %d statements after expiry", fe.name, n)
			}
			r.Body = strings.Replace(r.Body, id, "?", 1)
			return r
		}, 404, plainText, `server: no prepared statement "?"`, false},
		{"close of an expired id", func(t *testing.T, fe *frontEnd) reply {
			id := fe.prepare(t, oneParam)
			before := fe.srv.Counters(context.Background()).Expired
			fe.advance(time.Hour)
			r := fe.call(t, "DELETE", "/stmt/"+id, "")
			c := fe.srv.Counters(context.Background())
			if c.Expired != before+1 || c.Statements != 0 {
				t.Errorf("%s: after expiry %d expired (was %d), %d open", fe.name, c.Expired, before, c.Statements)
			}
			if n := fe.workerStatements(t); n != 0 {
				t.Errorf("%s: workers hold %d statements after expiry", fe.name, n)
			}
			r.Body = strings.Replace(r.Body, id, "?", 1)
			return r
		}, 404, plainText, `server: no prepared statement "?"`, false},
		{"prepare at the cap", func(t *testing.T, fe *frontEnd) reply {
			for i := 0; i < confMaxStmt; i++ {
				defer fe.client.CloseStmt(context.Background(), fe.prepare(t, oneParam))
			}
			r := fe.call(t, "POST", "/prepare", `{"sql":"`+oneParam+`"}`)
			// The statement turned away was closed on the backend too.
			if n := fe.workerStatements(t); n > confMaxStmt*confShards {
				t.Errorf("%s: workers hold %d statements with %d registered", fe.name, n, confMaxStmt)
			}
			return r
		}, 429, plainText, fmt.Sprintf("server: %d prepared statements open; close some", confMaxStmt), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var replies []reply
			for _, fe := range fes {
				r := tc.run(t, fe)
				if r.Status != tc.status || r.ContentType != tc.contentType || !strings.Contains(r.Body, tc.body) {
					t.Errorf("%s: got %d %q %q, want %d %q containing %q",
						fe.name, r.Status, r.ContentType, r.Body, tc.status, tc.contentType, tc.body)
				}
				if tc.backendText {
					r.Body = ""
				}
				replies = append(replies, r)
			}
			if replies[0] != replies[1] {
				t.Errorf("front ends disagree:\n%s: %+v\n%s: %+v", fes[0].name, replies[0], fes[1].name, replies[1])
			}
		})
	}

	// Both encodings, ad hoc and prepared, deliver the same multiset through
	// both front ends, under the Content-Type that was negotiated.
	t.Run("rows in both encodings", func(t *testing.T) {
		ctx := context.Background()
		const agg = "SELECT two, SUM(unique1) FROM wisc WHERE unique1 < ? GROUP BY two"
		var want []string
		for _, fe := range fes {
			for _, columnar := range []bool{false, true} {
				c := *fe.client
				c.Columnar = columnar
				s, err := c.Query(ctx, oneParam, []any{50}, nil)
				got := rows(t, s, err)
				if len(got) != 50 {
					t.Fatalf("%s columnar=%v: %d rows, want 50", fe.name, columnar, len(got))
				}
				if want == nil {
					want = got
				}
				if strings.Join(got, ";") != strings.Join(want, ";") {
					t.Errorf("%s columnar=%v: rows differ from %s's", fe.name, columnar, fes[0].name)
				}
				id := fe.prepare(t, agg)
				s, err = c.Exec(ctx, id, []any{800}, nil)
				if groups := rows(t, s, err); len(groups) != 2 {
					t.Errorf("%s columnar=%v: prepared aggregate returned %v", fe.name, columnar, groups)
				}
				if err := c.CloseStmt(ctx, id); err != nil {
					t.Error(err)
				}
			}
			byAccept := fe.call(t, "POST", "/query", `{"sql":"SELECT unique1 FROM wisc WHERE unique2 < 3"}`, "Accept: "+server.ContentTypeColumnar+", */*")
			byOption := fe.call(t, "POST", "/query", `{"sql":"SELECT unique1 FROM wisc WHERE unique2 < 3","options":{"wire":"ndjson"}}`, "Accept: "+server.ContentTypeColumnar)
			if byAccept.ContentType != server.ContentTypeColumnar || byOption.ContentType != ndjson {
				t.Errorf("%s: Accept negotiated %q, options.wire over Accept %q", fe.name, byAccept.ContentType, byOption.ContentType)
			}
		}
	})

	// A coordinator's own payloads keep exactly the keys they had before it
	// moved behind the shared front end, except that its footer nests each
	// shard's record under "nodes"; each of those records carries the same
	// per-operator and admission fields a node's own footer does.
	t.Run("coordinator payload keys", func(t *testing.T) {
		fe := fes[1]
		keys := func(raw json.RawMessage) string {
			var m map[string]json.RawMessage
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatalf("%v in %s", err, raw)
			}
			var ks []string
			for k := range m {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			return strings.Join(ks, " ")
		}
		st := fe.call(t, "GET", "/stats", "")
		if got, want := keys(json.RawMessage(st.Body)), "clusterUtilization failovers failures healthy nodes queries repreparations statements wholeQueryRetries"; got != want || st.ContentType != "application/json" {
			t.Errorf("/stats keys %q (%s), want %q", got, st.ContentType, want)
		}
		var parsed struct {
			Nodes            []json.RawMessage
			Healthy, Queries int
		}
		json.Unmarshal([]byte(st.Body), &parsed)
		if len(parsed.Nodes) != confShards || parsed.Healthy != confShards || parsed.Queries == 0 {
			t.Fatalf("/stats lists %d nodes, %d healthy, %d queries", len(parsed.Nodes), parsed.Healthy, parsed.Queries)
		}
		if got, want := keys(parsed.Nodes[0]), "alive breaker lastPoll node shard stats"; got != want {
			t.Errorf("/stats node keys %q, want %q", got, want)
		}
		// stream returns the first and the last line of a query's NDJSON stream.
		stream := func(fe *frontEnd, sql string) (first, last map[string]json.RawMessage) {
			lines := strings.Split(fe.call(t, "POST", "/query", `{"sql":"`+sql+`"}`).Body, "\n")
			json.Unmarshal([]byte(lines[0]), &first)
			json.Unmarshal([]byte(lines[len(lines)-1]), &last)
			return first, last
		}
		// opKeys lists the distinct key sets of a footer's operators.
		opKeys := func(ops []json.RawMessage) string {
			set := map[string]bool{}
			for _, op := range ops {
				set[keys(op)] = true
			}
			var ks []string
			for k := range set {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			return strings.Join(ks, " | ")
		}
		for _, sql := range []string{"SELECT unique1 FROM wisc WHERE unique2 < 5", "SELECT ten, COUNT(*) FROM wisc GROUP BY ten"} {
			first, last := stream(fe, sql)
			if got, want := keys(first["header"]), "columns threads types"; got != want {
				t.Errorf("header keys %q, want %q", got, want)
			}
			if got, want := keys(last["done"]), "nodes rowCount threads"; got != want {
				t.Errorf("footer keys %q, want %q", got, want)
			}
			type footer struct {
				Operators []json.RawMessage
				Admission json.RawMessage
			}
			var coord struct{ Nodes []footer }
			json.Unmarshal(last["done"], &coord)
			_, localLast := stream(fes[0], sql)
			var local footer
			json.Unmarshal(localLast["done"], &local)
			want, wantAdm := opKeys(local.Operators), keys(local.Admission)
			if len(coord.Nodes) != confShards || want == "" || wantAdm == "" {
				t.Fatalf("%s: coordinator footer has %d nodes, local operator keys %q, admission keys %q", sql, len(coord.Nodes), want, wantAdm)
			}
			for i, n := range coord.Nodes {
				if got := opKeys(n.Operators); got != want {
					t.Errorf("%s: node %d operator keys %q, a local footer's %q", sql, i, got, want)
				}
				if n.Admission == nil {
					t.Errorf("%s: node %d footer carries no admission", sql, i)
				} else if got := keys(n.Admission); got != wantAdm {
					t.Errorf("%s: node %d admission keys %q, a local footer's %q", sql, i, got, wantAdm)
				}
			}
		}
	})
}

// TestFrontEndStreams: what the one stream does, it does for every backend.
func TestFrontEndStreams(t *testing.T) {
	fes := newFrontEnds(t, 30_000)
	ctx := context.Background()
	for _, fe := range fes {
		// The lifetime counters see every stream's rows and bytes, and the
		// columnar encoding spends fewer bytes per row than NDJSON.
		t.Run(fe.name+"/stream counters", func(t *testing.T) {
			drain := func(columnar bool) int64 {
				c := *fe.client
				c.Columnar = columnar
				s, err := c.Query(ctx, "SELECT * FROM wisc WHERE unique1 < ?", []any{1000}, nil)
				return int64(len(rows(t, s, err)))
			}
			c0 := fe.srv.Counters(ctx)
			n := drain(false)
			c1 := fe.srv.Counters(ctx)
			if got := c1.RowsStreamed - c0.RowsStreamed; got != n || n != 1000 {
				t.Errorf("ndjson stream of %d rows added %d to rowsStreamed", n, got)
			}
			drain(true)
			c2 := fe.srv.Counters(ctx)
			if got := c2.RowsStreamed - c1.RowsStreamed; got != n {
				t.Errorf("columnar stream of %d rows added %d to rowsStreamed", n, got)
			}
			nd, col := c1.BytesWritten-c0.BytesWritten, c2.BytesWritten-c1.BytesWritten
			if col <= 0 || col >= nd {
				t.Errorf("columnar stream wrote %d bytes, ndjson %d — columnar should be smaller", col, nd)
			}
			if fe.name == "local" { // whose /stats is where the counters surface
				if st := stats(t, fe.url); st.RowsStreamed != c2.RowsStreamed || st.BytesWritten < c2.BytesWritten {
					t.Errorf("/stats reports %d rows %d bytes, the front end counted %d and %d",
						st.RowsStreamed, st.BytesWritten, c2.RowsStreamed, c2.BytesWritten)
				}
			}
		})

		// The first rows of a large result arrive while the query is
		// demonstrably still executing: the backend's engines hold threads.
		// The bounded sinks and write buffers cannot hold the relation, so
		// a first row with the query still active proves streaming.
		t.Run(fe.name+"/streams before completion", func(t *testing.T) {
			stream, err := fe.client.Query(ctx, "SELECT * FROM wisc", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Close()
			if !stream.Next() {
				t.Fatalf("no first row: %v", stream.Err())
			}
			if n := fe.activeThreads(t); n < 1 {
				t.Errorf("no engine thread active after the first row")
			}
			if h := stream.Header(); len(h.Columns) == 0 || len(h.Types) != len(h.Columns) {
				t.Errorf("bad header %+v", h)
			}
		})
	}
	// A failure inside the backend after the header left travels in-band as
	// an error frame, and no done frame follows it.
	for _, fe := range fes {
		for _, columnar := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mid-stream error columnar=%v", fe.name, columnar), func(t *testing.T) {
				c := *fe.client
				c.Columnar = columnar
				stream, err := c.Query(ctx, "SELECT * FROM wisc", nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer stream.Close()
				if !stream.Next() {
					t.Fatalf("no first row: %v", stream.Err())
				}
				fe.failBackend()
				for stream.Next() {
				}
				err = stream.Err()
				if err == nil || stream.Footer() != nil {
					t.Fatalf("stream ended with err %v and footer %+v, want an error and no footer", err, stream.Footer())
				}
				if strings.Contains(err.Error(), "truncated") {
					t.Errorf("the stream was cut, not closed by an error frame: %v", err)
				}
			})
		}
	}
}
