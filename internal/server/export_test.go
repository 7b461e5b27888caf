package server

import (
	"context"
	"time"
)

// Seams for the external conformance suite (package server_test), which
// drives front ends it did not build — a coordinator's Handler() included.

// FakeClock puts the statement registry on a settable clock (the GC tests'
// fakeClock) and returns its advance.
func (s *Server) FakeClock() (advance func(time.Duration)) {
	c := &fakeClock{t: time.Unix(1_000_000, 0)}
	s.stmts.now = c.now
	return c.advance
}

// Counters snapshots the front end's own counters, sweeping as /stats does.
func (s *Server) Counters(ctx context.Context) FrontEndStats {
	open, expired := s.stmts.counts(ctx)
	return FrontEndStats{
		Statements:   open,
		Expired:      expired,
		BytesWritten: s.bytesWritten.Load(),
		RowsStreamed: s.rowsStreamed.Load(),
	}
}
