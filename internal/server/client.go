package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dbs3/internal/relation"
)

// Client is a minimal Go client for the wire protocol — the reference
// consumer the end-to-end tests, the cluster coordinator and the serve
// smoke script drive. Any HTTP client can speak the protocol; this one
// exists so the tests exercise exactly what we document. Every request is
// sent once and a failure is returned as is: routing around a dead server
// (a sibling replica, the circuit breaker) is the caller's concern.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
	// Columnar asks the server (via the Accept header) for the binary
	// columnar result encoding on every query; a per-request Options.Wire
	// still overrides it. RowStream decodes whichever encoding the
	// response declares, so flipping this changes bytes on the wire, not
	// the rows the caller sees.
	Columnar bool
	// Token is the bearer credential sent as "Authorization: Bearer" on
	// every request, for servers running with Config.AuthToken.
	Token string
	// Timeout bounds each request's connect-and-respond phase: dialing,
	// writing the request, and receiving the response header. Streamed
	// result bodies are not covered — a long query streams for as long as
	// it runs — so the timeout catches unreachable or wedged servers
	// without capping result size. 0 means no timeout.
	Timeout time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do sends one request with auth and the header-phase timeout. The timeout
// runs a timer that cancels the request context; on success the timer is
// disarmed and the context stays alive for the body. The returned cancel
// releases the request's context and MUST be called once the response is
// consumed (RowStream.finish does it for streamed bodies).
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, context.CancelFunc, error) {
	reqCtx, cancel := context.WithCancel(ctx)
	var timer *time.Timer
	if c.Timeout > 0 {
		timer = time.AfterFunc(c.Timeout, cancel)
	}
	fail := func(err error) (*http.Response, context.CancelFunc, error) {
		cancel()
		if timer != nil && !timer.Stop() && ctx.Err() == nil {
			err = &TimeoutError{Limit: c.Timeout, Err: err}
		}
		return nil, nil, err
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(reqCtx, method, c.Base+path, rd)
	if err != nil {
		return fail(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Columnar {
		req.Header.Set("Accept", ContentTypeColumnar)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fail(err)
	}
	if timer != nil && !timer.Stop() {
		// The timer fired between response arrival and here; the body is
		// already doomed, so surface the timeout instead of a mid-read error.
		resp.Body.Close()
		return fail(errors.New("response header raced the timeout"))
	}
	return resp, cancel, nil
}

// TimeoutError reports a request whose connect-and-respond phase overran
// Client.Timeout: the server was reachable enough to dial (or the dial
// itself stalled past the limit) but no response header arrived in time. It
// is a distinct type from dial-phase connect errors and from *StatusError
// so callers — the cluster coordinator's per-node circuit breaker in
// particular — can classify wedged workers without string matching.
type TimeoutError struct {
	// Limit is the Client.Timeout that expired.
	Limit time.Duration
	// Err is the transport error observed when the timeout cancelled the
	// request.
	Err error
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("server: no response header within %v: %v", e.Limit, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *TimeoutError) Unwrap() error { return e.Err }

// Timeout marks the error as a timeout for net.Error-style checks.
func (e *TimeoutError) Timeout() bool { return true }

// post sends a JSON body and returns the raw response plus its context
// release.
func (c *Client) post(ctx context.Context, path string, body any) (*http.Response, context.CancelFunc, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	return c.do(ctx, http.MethodPost, path, buf)
}

// StatusError is a non-200 response surfaced as an error. Callers can branch
// on the code; a 404 matches ErrNoStatement under errors.Is.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

// Is matches the one status the protocol gives a typed meaning: every 404
// the front end's routes produce is a statement id it does not hold.
func (e *StatusError) Is(target error) bool {
	return target == ErrNoStatement && e.Code == http.StatusNotFound
}

// errorFrom drains a non-200 response into a *StatusError.
func errorFrom(resp *http.Response) error {
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return &StatusError{Code: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
}

// Query runs one ad-hoc statement and returns the result stream.
func (c *Client) Query(ctx context.Context, sql string, args []any, opts *Options) (*RowStream, error) {
	resp, cancel, err := c.post(ctx, "/query", QueryRequest{SQL: sql, Args: args, Options: opts})
	if err != nil {
		return nil, err
	}
	return newRowStream(resp, cancel)
}

// Prepare compiles a statement server-side.
func (c *Client) Prepare(ctx context.Context, sql string, opts *Options) (*PrepareResponse, error) {
	resp, cancel, err := c.post(ctx, "/prepare", QueryRequest{SQL: sql, Options: opts})
	if err != nil {
		return nil, err
	}
	defer cancel()
	if resp.StatusCode != http.StatusOK {
		return nil, errorFrom(resp)
	}
	defer resp.Body.Close()
	var out PrepareResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Exec executes a prepared statement with per-execution arguments. opts
// (nil for none) override the statement's prepare-time options for this
// execution.
func (c *Client) Exec(ctx context.Context, id string, args []any, opts *Options) (*RowStream, error) {
	resp, cancel, err := c.post(ctx, "/stmt/"+id+"/exec", ExecRequest{Args: args, Options: opts})
	if err != nil {
		return nil, err
	}
	return newRowStream(resp, cancel)
}

// CloseStmt discards a server-side prepared statement.
func (c *Client) CloseStmt(ctx context.Context, id string) error {
	resp, cancel, err := c.do(ctx, http.MethodDelete, "/stmt/"+id, nil)
	if err != nil {
		return err
	}
	defer cancel()
	if resp.StatusCode != http.StatusNoContent {
		return errorFrom(resp)
	}
	resp.Body.Close()
	return nil
}

// Stats fetches the server's manager and plan-cache counters.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	resp, cancel, err := c.do(ctx, http.MethodGet, "/stats", nil)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if resp.StatusCode != http.StatusOK {
		return nil, errorFrom(resp)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RowStream iterates a streamed result, cursor-style:
//
//	stream, err := client.Query(ctx, sql, nil, nil)
//	defer stream.Close()
//	for stream.Next() {
//		row := stream.Row() // []any of int64 / string per Header.Types
//	}
//	if err := stream.Err(); err != nil { ... }
//
// The stream decodes whichever encoding the response's Content-Type
// declares — NDJSON or binary columnar — into identical rows. Rows arrive
// as the server flushes chunks, so Next can return the first row while the
// query is still executing server-side. Closing mid-stream closes the HTTP
// body, which disconnects the request and cancels the query on the server.
type RowStream struct {
	resp   *http.Response
	cancel context.CancelFunc // releases the request context; nil-safe via finish
	dec    *json.Decoder      // NDJSON decode state (nil for columnar streams)
	col    *colFrameReader    // columnar decode state (nil for NDJSON streams)
	header *Header
	buf    [][]any
	cur    []any
	footer *Footer
	err    error
	done   bool
}

// newRowStream validates the response, dispatches on its declared encoding
// and reads the header message. cancel releases the request's context; the
// stream owns it from here and fires it when the stream finishes.
func newRowStream(resp *http.Response, cancel context.CancelFunc) (*RowStream, error) {
	abort := func(err error) (*RowStream, error) {
		resp.Body.Close()
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		err := errorFrom(resp)
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), ContentTypeColumnar) {
		fr := newColFrameReader(resp.Body)
		kind, payload, err := fr.readFrame()
		if err != nil {
			return abort(fmt.Errorf("server: reading stream header: %w", err))
		}
		switch kind {
		case frameError:
			return abort(fmt.Errorf("server: %s", payload))
		case frameHeader:
			var h Header
			if err := json.Unmarshal(payload, &h); err != nil {
				return abort(fmt.Errorf("server: decoding stream header: %w", err))
			}
			return &RowStream{resp: resp, cancel: cancel, col: fr, header: &h}, nil
		default:
			return abort(fmt.Errorf("server: stream did not open with a header"))
		}
	}
	dec := json.NewDecoder(&relation.LineLimit{R: resp.Body})
	dec.UseNumber()
	var msg Message
	if err := dec.Decode(&msg); err != nil {
		return abort(fmt.Errorf("server: reading stream header: %w", err))
	}
	if msg.Error != "" {
		return abort(fmt.Errorf("server: %s", msg.Error))
	}
	if msg.Header == nil {
		return abort(fmt.Errorf("server: stream did not open with a header"))
	}
	return &RowStream{resp: resp, cancel: cancel, dec: dec, header: msg.Header}, nil
}

// Header returns the stream's opening message.
func (s *RowStream) Header() *Header { return s.header }

// Next advances to the next row, fetching the next chunk off the wire when
// the buffered one is drained. It returns false at the end of the stream;
// Err distinguishes completion from failure, and Footer is set only after a
// complete stream.
func (s *RowStream) Next() bool {
	if s.done {
		return false
	}
	for len(s.buf) == 0 {
		fetch := s.fetchNDJSON
		if s.col != nil {
			fetch = s.fetchColumnar
		}
		if !fetch() {
			return false
		}
	}
	raw := s.buf[0]
	s.buf = s.buf[1:]
	if s.col != nil {
		// Columnar chunks decode straight to typed values.
		s.cur = raw
		return true
	}
	row, err := DecodeRow(s.header.Types, raw)
	if err != nil {
		s.fail(err)
		return false
	}
	s.cur = row
	return true
}

// fetchNDJSON reads the next NDJSON message into the row buffer. It returns
// false when the stream terminated (done, error, or truncation — the
// terminal state is already recorded on s by then).
func (s *RowStream) fetchNDJSON() bool {
	var msg Message
	if err := s.dec.Decode(&msg); err != nil {
		// Includes io.EOF before a done message: a truncated stream is
		// an error, never silent completion.
		s.fail(fmt.Errorf("server: stream truncated: %w", err))
		return false
	}
	switch {
	case msg.Error != "":
		s.fail(fmt.Errorf("server: %s", msg.Error))
		return false
	case msg.Done != nil:
		s.footer = msg.Done
		s.finish()
		return false
	default:
		s.buf = msg.Rows
		return true
	}
}

// fetchColumnar reads the next binary frame into the row buffer, with the
// same terminal contract as fetchNDJSON.
func (s *RowStream) fetchColumnar() bool {
	kind, payload, err := s.col.readFrame()
	if err != nil {
		s.fail(fmt.Errorf("server: stream truncated: %w", err))
		return false
	}
	switch kind {
	case frameError:
		s.fail(fmt.Errorf("server: %s", payload))
		return false
	case frameDone:
		var f Footer
		if err := json.Unmarshal(payload, &f); err != nil {
			s.fail(fmt.Errorf("server: decoding stream footer: %w", err))
			return false
		}
		s.footer = &f
		s.finish()
		return false
	case frameRows:
		rows, err := decodeColChunk(s.header.Types, payload)
		if err != nil {
			s.fail(err)
			return false
		}
		s.buf = rows
		return true
	default:
		s.fail(fmt.Errorf("server: unexpected frame kind %q", kind))
		return false
	}
}

// Row returns the current row: one int64 or string per column.
func (s *RowStream) Row() []any { return s.cur }

// Err returns the error that terminated the stream, if any.
func (s *RowStream) Err() error { return s.err }

// Footer returns the terminal statistics message, or nil if the stream did
// not complete.
func (s *RowStream) Footer() *Footer { return s.footer }

func (s *RowStream) fail(err error) {
	s.err = err
	s.finish()
}

func (s *RowStream) finish() {
	if !s.done {
		s.done = true
		s.cur = nil
		s.resp.Body.Close()
		if s.cancel != nil {
			s.cancel()
		}
	}
}

// Close releases the stream. Closing before the done message disconnects
// the HTTP request, which cancels the query server-side and returns its
// threads to the budget.
func (s *RowStream) Close() error {
	s.finish()
	return nil
}
