package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. All spans of one
// operation share Op; Parent is 0 for the operation's bench.op root.
type span struct {
	Name    string `json:"name"`
	Op      int64  `json:"op"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds run the same code without the bookkeeping.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	nextOp atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// liveSpan is an open span; end records it.
type liveSpan struct {
	t    *tracer
	span span
}

// op opens the bench.op root of a new operation.
func (t *tracer) op() *liveSpan {
	if t == nil {
		return nil
	}
	return t.open("bench.op", t.nextOp.Add(1), 0)
}

func (t *tracer) open(name string, op, parent int64) *liveSpan {
	return &liveSpan{t: t, span: span{Name: name, Op: op, ID: t.nextID.Add(1), Parent: parent,
		StartUS: time.Since(t.t0).Microseconds()}}
}

// child opens a span under s.
func (s *liveSpan) child(name string) *liveSpan {
	if s == nil {
		return nil
	}
	return s.t.open(name, s.span.Op, s.span.ID)
}

func (s *liveSpan) end() {
	if s == nil {
		return
	}
	s.span.EndUS = time.Since(s.t.t0).Microseconds()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.span)
	s.t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in microseconds, keyed by span id:
// its duration minus the part of its interval that its children cover
// (overlapping children are not subtracted twice).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		var covered int64
		reach := s.StartUS // everything before reach is already accounted for
		for _, k := range kids {
			from, to := max(k.StartUS, reach), min(k.EndUS, s.EndUS)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.ID] = s.EndUS - s.StartUS - covered
	}
	return self
}

func writeTrace(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
