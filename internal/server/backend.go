package server

import (
	"context"
	"errors"

	"dbs3"
)

// Backend is what the HTTP front end serves: something that runs statements
// and returns the facade's cursor over each result, which the front end
// streams as it is. Routing, auth, body and argument decoding, wire
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
	Query(ctx context.Context, sql string, args []any, opt *Options) (*dbs3.Rows, error)
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
	// execution only. The cursor counts its own rows, so its Footer is the
	// one the stream ends with.
	Exec(ctx context.Context, args []any, opt *Options) (*dbs3.Rows, error)
	// Close releases what the backend holds for the statement, best effort.
	Close(ctx context.Context)
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
