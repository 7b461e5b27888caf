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
//	{"header":{"columns":["a"],"types":["INT"],"threads":3}}
//	{"rows":[[1],[2],[3]]}
//	{"done":{"rowCount":3,"threads":3,"admission":{"utilization":0.5,...}}}
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
	dbruntime "dbs3/internal/runtime"
)

// Options is one request's options: the execution knobs of dbs3.Options
// under their own JSON names (zero values defer to the server's defaults;
// the priority field overrides the X-DBS3-Priority request header) plus
// the result-stream encoding. A coordinator sets Utilization from the other
// nodes' measured load (GET /stats smoothedUtilization), extending the
// paper's feedback loop [Rahm93] across machines.
type Options struct {
	dbs3.Options
	// Wire selects the result-stream encoding: "ndjson" (default) or
	// "columnar" (length-prefixed binary frames; see colwire.go). It
	// overrides the Accept header; anything else is a 400.
	Wire string `json:"wire,omitempty"`
}

// Overlay returns base with every execution option that wire sets
// replacing base's: the one way a request's options, or an execution's,
// override a baseline. Zero values defer; SpillDir never comes off the wire
// and is kept.
func Overlay(base dbs3.Options, wire *Options) dbs3.Options {
	if wire == nil {
		return base
	}
	o := &wire.Options
	if o.Threads != 0 {
		base.Threads = o.Threads
	}
	if o.Strategy != "" {
		base.Strategy = o.Strategy
	}
	if o.JoinAlgo != "" {
		base.JoinAlgo = o.JoinAlgo
	}
	if o.Grain != 0 {
		base.Grain = o.Grain
	}
	if o.Priority != "" {
		base.Priority = o.Priority
	}
	if o.Materialize {
		base.Materialize = true
	}
	if o.Utilization != 0 {
		base.Utilization = o.Utilization
	}
	if o.MemoryBudget != 0 {
		base.MemoryBudget = o.MemoryBudget
	}
	return base
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

// Header opens every streamed result: the static result shape plus the
// thread count the scheduler allocated; the footer's admission record says
// why.
type Header struct {
	Columns []string `json:"columns"`
	// Types aligns with Columns ("INT" or "STRING"); clients need it to
	// decode row values losslessly (JSON numbers are not int64).
	Types   []string `json:"types"`
	Threads int      `json:"threads"`
}

// Footer closes a successfully streamed result: the query's execution
// record, which a coordinator's footer nests per shard.
type Footer = dbs3.Footer

// Message is one NDJSON line of a streamed result: exactly one field is set.
type Message struct {
	Header *Header `json:"header,omitempty"`
	Rows   [][]any `json:"rows,omitempty"`
	Done   *Footer `json:"done,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// StatsResponse is the body of GET /stats: the manager's counters under
// their own JSON keys, plus what the front end and the database add.
type StatsResponse struct {
	dbruntime.Stats
	// Budget is the manager's machine-wide thread budget.
	Budget int `json:"budget"`
	// Plan-cache amortization counters: the database's, which count every
	// resolution, not only those while the manager was installed.
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
