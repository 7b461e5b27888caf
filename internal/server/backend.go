package server

import (
	"context"
	"errors"
)

// Backend is what the HTTP front end serves: something that runs statements
// and streams results. Routing, auth, body and argument decoding, wire
// negotiation, the priority header, the statement registry and the result
// stream are the front end's, so a backend never sees HTTP. Two exist: the
// local database (New) and the cluster coordinator
// (cluster.Coordinator.Handler) — whose workers, since Client speaks what
// the front end serves, may themselves be coordinators.
//
// opt is the request's wire options with the X-DBS3-Priority header folded
// in (nil when the request set none); Options.Wire is not a backend's
// business.
type Backend interface {
	Query(ctx context.Context, sql string, args []any, opt *Options) (Result, error)
	// Prepare compiles a statement for repeated execution; the front end
	// registers the handle under an id and Closes it on DELETE, idle expiry
	// or a full registry.
	Prepare(ctx context.Context, sql string, opt *Options) (Prepared, error)
	// Stats returns the GET /stats payload (marshalled as JSON); front holds
	// the counters only the front end has.
	Stats(ctx context.Context, front FrontEndStats) any
	// ErrorStatus classifies an error of Query, Prepare or Exec as an HTTP
	// status. ErrNoStatement never reaches it: that is always a 404.
	ErrorStatus(err error) int
}

// Prepared is a backend's compile-once handle.
type Prepared interface {
	// Info describes the statement; the front end fills in ID.
	Info() PrepareResponse
	// Exec runs it; opt overrides the prepare-time options for this
	// execution only.
	Exec(ctx context.Context, args []any, opt *Options) (Result, error)
	// Close releases what the backend holds for the statement, best effort.
	Close(ctx context.Context)
}

// Result is the cursor the front end streams from (*RowStream is one).
// Header is known before the first row. Row is the current row — one int64
// or string per column — in a slice the result never reuses: the front end
// keeps a chunk of them across Next calls. Once Next returned false, Err
// tells failure from completion and, on completion, Footer is set, its
// RowCount the rows this result delivered. Close aborts a result that was
// not drained; it is safe after either ending.
type Result interface {
	Header() *Header
	Next() bool
	Row() []any
	Err() error
	Footer() *Footer
	Close() error
}

// FrontEndStats is the front end's share of a /stats payload: the open and
// the lifetime idle-expired prepared statements, and the lifetime
// result-stream counters.
type FrontEndStats struct {
	Statements   int
	Expired      int64
	BytesWritten int64
	RowsStreamed int64
}

// ErrNoStatement reports a prepared-statement id that is unknown, closed or
// expired: a 404 on the wire, which a *StatusError carrying that code
// matches under errors.Is — so a client tells a statement that is gone
// from other failures without matching message text.
var ErrNoStatement = errors.New("server: no prepared statement")
