// Package server exposes a dbs3.Database — and the concurrent runtime
// behind it — over HTTP, so independent network clients drive the
// QueryManager the way the paper's multi-user experiments do: many
// concurrent statements sharing one thread budget, with per-query adaptive
// parallelism. The front end is written against a Backend, of which the
// database is one and the cluster coordinator the other (see backend.go).
//
// The wire protocol is JSON. Query results stream as NDJSON (one JSON
// message per line) so rows reach the client as the engine produces them:
//
//	POST /query            {"sql": ..., "args": [...], "options": {...}}
//	POST /prepare          {"sql": ..., "options": {...}} -> {"id": "s1", ...}
//	POST /stmt/{id}/exec   {"args": [...]}
//	DELETE /stmt/{id}      close a prepared statement
//	GET  /stmt/{id}        prepared-statement metadata
//	GET  /stats            manager + plan-cache counters
//	GET  /healthz          liveness probe
//
// A streamed response is a header message, any number of row-chunk
// messages, and exactly one terminal message (done or error):
//
//	{"header":{"columns":["a"],"types":["INT"],"threads":3,"utilization":0.5}}
//	{"rows":[[1],[2],[3]]}
//	{"done":{"rowCount":3,"threads":3}}
//
// A client that asks for it (Accept header or options.wire: "columnar")
// gets the same stream shape as length-prefixed binary frames with
// column-major row chunks instead — a several-fold bytes-per-row saving on
// wide results, and lossless for the full int64 range. See colwire.go.
//
// Cancellation is free: each query executes under its HTTP request's
// context, so a client that disconnects mid-stream aborts the query and
// returns its threads to the shared budget.
package server

import (
	"fmt"
	"strconv"

	"encoding/json"

	"dbs3"
)

// Options is the wire form of dbs3.Options: the per-request execution knobs
// a client may set. Field semantics match the facade; zero values defer to
// the server's defaults.
type Options struct {
	// Threads fixes the query's degree of parallelism (0 = scheduler picks).
	Threads int `json:"threads,omitempty"`
	// Strategy is the queue consumption strategy: auto, random, lpt.
	Strategy string `json:"strategy,omitempty"`
	// JoinAlgo selects the join implementation: hash, nested-loop, temp-index.
	JoinAlgo string `json:"join,omitempty"`
	// Grain splits triggered work into partial triggers of this many tuples.
	Grain int `json:"grain,omitempty"`
	// Priority is the admission class: interactive or batch. The
	// X-DBS3-Priority request header sets a per-connection default; this
	// field overrides it per request.
	Priority string `json:"priority,omitempty"`
	// StreamBuffer is the bounded row-sink capacity between engine and wire.
	StreamBuffer int `json:"streamBuffer,omitempty"`
	// Materialize splits the plan at a materialization point before
	// aggregation/projection, letting the manager renegotiate the query's
	// thread reservation between the two chains (see dbs3.Options).
	Materialize bool `json:"materialize,omitempty"`
	// Utilization in [0, 1) tells this server's scheduler how busy the rest
	// of the system already is, shrinking auto-chosen parallelism [Rahm93].
	// A cluster coordinator sets it from the other nodes' measured load
	// (GET /stats smoothedUtilization), extending the paper's feedback loop
	// across machines.
	Utilization float64 `json:"utilization,omitempty"`
	// MemoryBudget caps the query's blocking-operator working memory in
	// bytes; operators spill to disk beyond it. Under a manager with a
	// machine-wide memory budget this is a ceiling on the admission grant.
	// 0 defers to the server default.
	MemoryBudget int64 `json:"memoryBudget,omitempty"`
	// Wire selects the result-stream encoding: "ndjson" (default) or
	// "columnar" (length-prefixed binary frames; see colwire.go). It
	// overrides the Accept header; anything else is a 400.
	Wire string `json:"wire,omitempty"`
}

// QueryRequest is the body of POST /query and POST /prepare (args are
// ignored by /prepare — they bind per execution).
type QueryRequest struct {
	SQL     string   `json:"sql"`
	Args    []any    `json:"args,omitempty"`
	Options *Options `json:"options,omitempty"`
}

// ExecRequest is the body of POST /stmt/{id}/exec. Options (and the
// priority header) override the statement's prepare-time options for this
// execution only.
type ExecRequest struct {
	Args    []any    `json:"args,omitempty"`
	Options *Options `json:"options,omitempty"`
}

// PrepareResponse describes a server-side prepared statement.
type PrepareResponse struct {
	ID      string   `json:"id"`
	SQL     string   `json:"sql"`
	Columns []string `json:"columns"`
	Types   []string `json:"types"`
	// Params is the number of `?` placeholder arguments each execution
	// must supply.
	Params int `json:"params"`
}

// Header opens every streamed result: the static result shape plus what the
// scheduler decided for this execution.
type Header struct {
	Columns []string `json:"columns"`
	// Types aligns with Columns ("INT" or "STRING"); clients need it to
	// decode row values losslessly (JSON numbers are not int64).
	Types       []string `json:"types"`
	Threads     int      `json:"threads"`
	Utilization float64  `json:"utilization"`
}

// Footer closes a successfully streamed result.
type Footer struct {
	RowCount int64 `json:"rowCount"`
	Threads  int   `json:"threads"`
	// ChainThreads is the per-chain renegotiated thread trace of a managed
	// multi-chain query (one grant per chain, in order); absent for
	// single-chain statements.
	ChainThreads []int                `json:"chainThreads,omitempty"`
	Operators    []dbs3.OperatorStats `json:"operators,omitempty"`
	// SpilledBytes and SpillPasses total the query's larger-than-memory
	// activity under a memory budget; absent when nothing spilled.
	SpilledBytes int64 `json:"spilledBytes,omitempty"`
	SpillPasses  int64 `json:"spillPasses,omitempty"`
}

// Message is one NDJSON line of a streamed result: exactly one field is set.
type Message struct {
	Header *Header `json:"header,omitempty"`
	Rows   [][]any `json:"rows,omitempty"`
	Done   *Footer `json:"done,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	// Budget is the manager's machine-wide thread budget.
	Budget int `json:"budget"`
	// ActiveThreads is the thread count currently allocated across running
	// queries (never exceeds Budget); Active is the running query count.
	ActiveThreads int `json:"activeThreads"`
	PeakThreads   int `json:"peakThreads"`
	Active        int `json:"active"`
	Queued        int `json:"queued"`
	// Lifetime query counters.
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Rejected  int64 `json:"rejected"`
	// Mid-flight adaptivity counters: chain-boundary renegotiations, the
	// threads they returned to the budget before query completion, and the
	// threads they grew into freed budget.
	Readmissions          int64 `json:"readmissions"`
	ThreadsReturnedEarly  int64 `json:"threadsReturnedEarly"`
	ThreadsGrownMidFlight int64 `json:"threadsGrownMidFlight"`
	// SmoothedUtilization is the admission feedback EWMA.
	SmoothedUtilization float64 `json:"smoothedUtilization"`
	// Memory admission counters: the machine-wide working-memory budget (0
	// = memory admission off), the bytes reserved by running queries, the
	// lifetime reservation high-water mark, and the lifetime spill totals
	// (bytes written to spill runs, partition/merge passes) across queries.
	MemBudget    int64 `json:"memBudget,omitempty"`
	MemInFlight  int64 `json:"memInFlight,omitempty"`
	PeakMem      int64 `json:"peakMem,omitempty"`
	SpilledBytes int64 `json:"spilledBytes,omitempty"`
	SpillPasses  int64 `json:"spillPasses,omitempty"`
	// Spill buffer-pool counters aggregated across queries: read-back page
	// hits, misses that went to disk, and pages currently resident.
	BufferPoolHits     int64 `json:"bufferPoolHits,omitempty"`
	BufferPoolMisses   int64 `json:"bufferPoolMisses,omitempty"`
	BufferPoolResident int64 `json:"bufferPoolResident,omitempty"`
	// Plan-cache amortization counters.
	PlanCacheHits   int64 `json:"planCacheHits"`
	PlanCacheMisses int64 `json:"planCacheMisses"`
	// Statements is the number of open server-side prepared statements;
	// StatementsExpired counts the ones the idle-TTL sweep has reclaimed
	// from abandoned clients over the server's lifetime.
	Statements        int   `json:"statements"`
	StatementsExpired int64 `json:"statementsExpired"`
	// BytesWritten and RowsStreamed are lifetime result-stream counters:
	// encoded bytes put on the wire (across every encoding) and rows
	// streamed. Their ratio is the observed bytes-per-row cost of the
	// server's result encodings.
	BytesWritten int64 `json:"bytesWritten"`
	RowsStreamed int64 `json:"rowsStreamed"`
	// Relations lists the served catalog.
	Relations []string `json:"relations"`
}

// decodeArgs converts JSON-decoded placeholder arguments (from a decoder
// with UseNumber set) into the Go kinds the facade binds: json.Number to
// int64, strings as-is. Anything else — floats, booleans, null, nesting —
// has no engine type.
func decodeArgs(args []any) ([]any, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]any, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case json.Number:
			n, err := strconv.ParseInt(v.String(), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("server: argument %d: %q is not a 64-bit integer", i+1, v.String())
			}
			out[i] = n
		case string:
			out[i] = v
		default:
			return nil, fmt.Errorf("server: argument %d has unsupported type %T (want integer or string)", i+1, a)
		}
	}
	return out, nil
}

// DecodeRow converts one wire row (decoded with UseNumber) back into engine
// values using the header's column types: INT columns become int64, STRING
// columns become string. This is the client half of the round-trip contract:
// a row encoded by the server decodes to exactly the values the engine
// produced, for every column type the engine has.
func DecodeRow(types []string, raw []any) ([]any, error) {
	if len(raw) != len(types) {
		return nil, fmt.Errorf("server: row has %d values for %d columns", len(raw), len(types))
	}
	out := make([]any, len(raw))
	for i, v := range raw {
		switch types[i] {
		case "INT":
			num, ok := v.(json.Number)
			if !ok {
				return nil, fmt.Errorf("server: column %d is %T, want a JSON number (decode with UseNumber)", i, v)
			}
			n, err := strconv.ParseInt(num.String(), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("server: column %d: %q is not a 64-bit integer", i, num.String())
			}
			out[i] = n
		case "STRING":
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("server: column %d is %T, want string", i, v)
			}
			out[i] = s
		default:
			return nil, fmt.Errorf("server: unknown column type %q", types[i])
		}
	}
	return out, nil
}
