package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: the server both front ends run bounds how long a
// client may take to send a request's headers and how long a keep-alive
// connection may sit idle — longer than net/http's client keeps its own, so
// a coordinator never sends on a connection its worker is closing — and sets
// no write timeout, which would cut off a long result stream.
func TestHTTPServerTimeouts(t *testing.T) {
	s := httpServer(http.NotFoundHandler())
	clientIdle := http.DefaultTransport.(*http.Transport).IdleConnTimeout
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= clientIdle {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: want both set, the idle one past the client's %v", s.ReadHeaderTimeout, s.IdleTimeout, clientIdle)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v: want none, results stream", s.WriteTimeout)
	}
}
