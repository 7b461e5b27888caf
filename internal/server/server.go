package server

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"dbs3"
	dbruntime "dbs3/internal/runtime"
)

// Config tunes a Server.
type Config struct {
	// DefaultOptions seeds every request's execution options on the local
	// backend (New); request bodies and the X-DBS3-Priority header override
	// per field.
	DefaultOptions dbs3.Options
	// MaxStatements bounds the server-side prepared-statement registry
	// (0 = 1024); beyond it /prepare rejects with 429 so a client leak
	// cannot grow server memory unboundedly.
	MaxStatements int
	// StmtTTL is the idle lifetime of a server-side prepared statement:
	// one that is neither executed nor inspected for this long is expired
	// and its id returns 404, so abandoned clients cannot hold the capped
	// registry at its limit (0 = 15 minutes; negative disables expiry).
	// Expired statements count on /stats as statementsExpired.
	StmtTTL time.Duration
	// AuthToken, when non-empty, locks every endpoint behind bearer-token
	// auth: requests must carry "Authorization: Bearer <token>" or they are
	// rejected with 401 before any handler runs. Serve nodes joined into a
	// cluster set it so coordinator→worker links are not open to the
	// network.
	AuthToken string
}

// Server is the HTTP front end over a Backend. It is an http.Handler; wire
// it to a listener with http.Server or httptest.
type Server struct {
	backend Backend
	stmts   *registry
	token   string

	// bytesWritten and rowsStreamed are lifetime result-stream counters
	// (bytes on the wire after encoding, rows across all streams): together
	// they put a number on what an encoding costs per row, which is how the
	// NDJSON-vs-columnar tradeoff is observed on a live server.
	bytesWritten atomic.Int64
	rowsStreamed atomic.Int64

	mux *http.ServeMux
}

// New builds a Server over db. The manager must be the one installed on db
// (Database.Manager's return value); it feeds /stats and is how the serve
// front end shares one thread budget across all clients.
func New(db *dbs3.Database, manager *dbruntime.Manager, cfg Config) *Server {
	if manager == nil {
		panic("server: nil manager (install one with Database.Manager)")
	}
	return NewFrontEnd(&local{db: db, manager: manager, opts: cfg.DefaultOptions}, cfg)
}

// NewFrontEnd builds a Server over any Backend; cfg.DefaultOptions is the
// local backend's and ignored here.
func NewFrontEnd(b Backend, cfg Config) *Server {
	s := &Server{
		backend: b,
		stmts:   newRegistry(cfg.MaxStatements, cfg.StmtTTL),
		token:   cfg.AuthToken,
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /prepare", s.handlePrepare)
	s.mux.HandleFunc("GET /stmt/{id}", s.handleStmtInfo)
	s.mux.HandleFunc("POST /stmt/{id}/exec", s.handleExec)
	s.mux.HandleFunc("DELETE /stmt/{id}", s.handleStmtClose)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return s
}

// ServeHTTP implements http.Handler. With an AuthToken configured, every
// request — including /healthz, so an unauthenticated prober learns nothing —
// must present it as a bearer credential.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !authorized(r, s.token) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="dbs3"`)
		http.Error(w, "server: missing or wrong bearer token", http.StatusUnauthorized)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// authorized reports whether r carries the bearer token (an empty token
// disables auth). Comparison is constant-time so the check does not leak
// prefix lengths.
func authorized(r *http.Request, token string) bool {
	if token == "" {
		return true
	}
	auth := r.Header.Get("Authorization")
	const scheme = "Bearer "
	if len(auth) < len(scheme) || !strings.EqualFold(auth[:len(scheme)], scheme) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(scheme):]), []byte(token)) == 1
}

// fail answers a request that produced no stream: ErrNoStatement is a 404,
// anything else is the backend's to classify.
func (s *Server) fail(w http.ResponseWriter, err error) {
	status := http.StatusNotFound
	if !errors.Is(err, ErrNoStatement) {
		status = s.backend.ErrorStatus(err)
	}
	http.Error(w, err.Error(), status)
}

// decodeBody parses a JSON request body with UseNumber so integer arguments
// survive undamaged.
func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

// decodeStatement parses the body of /query and /prepare; an error is the
// client's (400).
func decodeStatement(r *http.Request) (*QueryRequest, error) {
	var req QueryRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if strings.TrimSpace(req.SQL) == "" {
		return nil, errors.New("server: empty sql")
	}
	return &req, nil
}

// withPriority folds the per-connection X-DBS3-Priority header into a
// request's options: it overrides the backend's default and yields to the
// body's own priority field.
func withPriority(r *http.Request, wire *Options) *Options {
	h := r.Header.Get("X-DBS3-Priority")
	if h == "" || (wire != nil && wire.Priority != "") {
		return wire
	}
	var o Options
	if wire != nil {
		o = *wire
	}
	o.Priority = h
	return &o
}

// negotiateWire picks the result-stream encoding for one request: the wire
// Options field wins, then the Accept header, then the NDJSON default. The
// returned string is the Content-Type to declare (and to hand to
// NewStreamEncoder). An unknown wire name is the client's error.
func negotiateWire(r *http.Request, wire *Options) (string, error) {
	if wire != nil && wire.Wire != "" {
		switch wire.Wire {
		case "ndjson":
			return contentTypeNDJSON, nil
		case "columnar":
			return ContentTypeColumnar, nil
		default:
			return "", fmt.Errorf("server: unknown wire encoding %q (want ndjson or columnar)", wire.Wire)
		}
	}
	if strings.Contains(r.Header.Get("Accept"), ContentTypeColumnar) {
		return ContentTypeColumnar, nil
	}
	return contentTypeNDJSON, nil
}

// execute is the shared tail of /query and /stmt/{id}/exec: decode the
// placeholder arguments, negotiate the encoding, run, stream. Nothing
// reaches the backend unless the whole request is well-formed.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, rawArgs []any, wire *Options,
	run func(args []any, opt *Options) (Result, error)) {
	args, err := decodeArgs(rawArgs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	contentType, err := negotiateWire(r, wire)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := run(args, withPriority(r, wire))
	if err != nil {
		s.fail(w, err)
		return
	}
	s.stream(w, res, contentType)
}

// handleQuery runs one ad-hoc statement and streams its result; `?`
// placeholders bind from args. The request context is the cancellation
// path: a client that disconnects mid-stream cancels the query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := decodeStatement(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.execute(w, r, req.Args, req.Options, func(args []any, opt *Options) (Result, error) {
		return s.backend.Query(r.Context(), req.SQL, args, opt)
	})
}

// handlePrepare compiles a statement on the backend and registers it under
// an id for compile-once / execute-many clients.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	req, err := decodeStatement(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	stmt, err := s.backend.Prepare(r.Context(), req.SQL, withPriority(r, req.Options))
	if err != nil {
		s.fail(w, err)
		return
	}
	info, err := s.stmts.add(r.Context(), stmt)
	if err != nil {
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	writeJSON(w, info)
}

// handleStmtInfo returns a prepared statement's metadata.
func (s *Server) handleStmtInfo(w http.ResponseWriter, r *http.Request) {
	entry, err := s.stmts.get(r.Context(), r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, entry.info)
}

// handleExec executes a prepared statement with per-execution arguments.
// The statement's prepare-time options are the baseline; the priority
// header and the request's options override per execution.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	entry, err := s.stmts.get(r.Context(), r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	var req ExecRequest
	if err := decodeBody(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.execute(w, r, req.Args, req.Options, func(args []any, opt *Options) (Result, error) {
		return entry.stmt.Exec(r.Context(), args, opt)
	})
}

// handleStmtClose discards a prepared statement.
func (s *Server) handleStmtClose(w http.ResponseWriter, r *http.Request) {
	if err := s.stmts.remove(r.Context(), r.PathValue("id")); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStats returns the backend's counters joined with the front end's.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	open, expired := s.stmts.counts(r.Context())
	writeJSON(w, s.backend.Stats(r.Context(), FrontEndStats{
		Statements:   open,
		Expired:      expired,
		BytesWritten: s.bytesWritten.Load(),
		RowsStreamed: s.rowsStreamed.Load(),
	}))
}

// writeJSON writes one 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
