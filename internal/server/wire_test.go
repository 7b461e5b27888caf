package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dbs3"
)

// TestWireRowRoundTrip audits the JSON encoding of every column type the
// engine produces — rows carry int64 and string values (relation.TInt and
// TString; there are no NULLs in the model). The trap is integers: JSON
// numbers decoded into `any` become float64 and silently lose precision
// past 2^53. The protocol's answer is typed headers plus UseNumber decoding
// (DecodeRow), which this test proves lossless at the integer extremes and
// for adversarial strings. (Strings must be valid UTF-8 — encoding/json
// replaces invalid bytes — which holds for everything the engine produces.)
func TestWireRowRoundTrip(t *testing.T) {
	types := []string{"INT", "INT", "STRING"}
	rows := [][]any{
		{int64(0), int64(-1), ""},
		{int64(math.MaxInt64), int64(math.MinInt64), "plain"},
		{int64(1<<53 + 1), int64(-(1<<53 + 1)), `quotes " and \ backslash`},
		{int64(42), int64(1e15 + 7), "newline\nand\ttab"},
		{int64(7), int64(-7), "unicode: héllo wörld 日本語 🚀"},
		{int64(1), int64(2), "<script>&amp;</script>"},
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(Message{Rows: rows}); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	var msg Message
	if err := dec.Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if len(msg.Rows) != len(rows) {
		t.Fatalf("%d rows decoded, want %d", len(msg.Rows), len(rows))
	}
	for i, raw := range msg.Rows {
		got, err := DecodeRow(types, raw)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		for j, v := range got {
			if v != rows[i][j] {
				t.Errorf("row %d col %d: %v (%T) != %v (%T)", i, j, v, v, rows[i][j], rows[i][j])
			}
		}
	}
}

// TestWireRoundTripEndToEnd pushes adversarial values through the whole
// stack — CSV load, partitioned storage, parallel scan, NDJSON streaming,
// client decode — and requires exact equality, including an int64 beyond
// float64's exact range.
func TestWireRoundTripEndToEnd(t *testing.T) {
	const big = int64(1<<53 + 1) // loses precision as float64
	csv := `id:INT,v:INT,s:STRING
1,9007199254740993,"quotes "" and, commas"
2,-9223372036854775808,"line
break"
3,9223372036854775807,héllo 🚀
`
	db := dbs3.New()
	if err := db.LoadCSV("vals", strings.NewReader(csv), "id", 2); err != nil {
		t.Fatal(err)
	}
	m := db.Manager(dbs3.ManagerConfig{Budget: 2})
	srv := newHTTPServer(t, db, m)

	want := map[int64][]any{
		1: {int64(1), big, `quotes " and, commas`},
		2: {int64(2), int64(math.MinInt64), "line\nbreak"},
		3: {int64(3), int64(math.MaxInt64), "héllo 🚀"},
	}
	stream, err := srv.Query(context.Background(), "SELECT * FROM vals", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if got := stream.Header().Types; len(got) != 3 || got[0] != "INT" || got[1] != "INT" || got[2] != "STRING" {
		t.Fatalf("header types %v", got)
	}
	n := 0
	for stream.Next() {
		row := stream.Row()
		id, ok := row[0].(int64)
		if !ok {
			t.Fatalf("id column is %T", row[0])
		}
		exp, seen := want[id]
		if !seen {
			t.Fatalf("unexpected id %d", id)
		}
		for j := range exp {
			if row[j] != exp[j] {
				t.Errorf("id %d col %d: %#v != %#v", id, j, row[j], exp[j])
			}
		}
		n++
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Errorf("%d rows, want %d", n, len(want))
	}
}

// TestFooterGolden pins the terminal message of a single-node stream byte
// for byte, in both encodings: the NDJSON done line and the columnar 'D'
// payload. Every pool runs one worker (Threads: 1), so the per-operator
// counters are deterministic. The spilling join also pins the spill totals,
// and the materialized aggregate a two-chain plan.
func TestFooterGolden(t *testing.T) {
	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", 2000, 4, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateJoinPair("", 2000, 400, 8, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db, db.Manager(dbs3.ManagerConfig{Budget: 4}), Config{}))
	t.Cleanup(ts.Close)
	t.Cleanup(ts.Client().CloseIdleConnections)

	cases := []struct{ body, want string }{
		{`{"sql":"SELECT * FROM wisc WHERE unique1 < 100","options":{"threads":1}}`,
			`{"rowCount":100,"threads":1,"operators":[{"name":"filter","threads":1,"strategy":"random","instances":4,"activations":4,"emitted":100,"secondaryPicks":0},{"name":"store","threads":0,"strategy":"random","instances":4,"activations":0,"emitted":100,"secondaryPicks":0}]}`},
		{`{"sql":"SELECT * FROM A JOIN B ON A.k = B.k","options":{"threads":1,"memoryBudget":16384}}`,
			`{"rowCount":2000,"threads":1,"operators":[{"name":"join","threads":1,"strategy":"random","instances":8,"activations":8,"emitted":2000,"secondaryPicks":0,"spilledBytes":524288,"spillPasses":8},{"name":"store","threads":0,"strategy":"random","instances":8,"activations":0,"emitted":2000,"secondaryPicks":0}],"spilledBytes":524288,"spillPasses":8}`},
		{`{"sql":"SELECT ten, COUNT(*) FROM wisc GROUP BY ten","options":{"threads":1,"materialize":true}}`,
			`{"rowCount":10,"threads":2,"operators":[{"name":"filter","threads":1,"strategy":"random","instances":4,"activations":4,"emitted":2000,"secondaryPicks":0},{"name":"scan","threads":1,"strategy":"random","instances":4,"activations":4,"emitted":2000,"secondaryPicks":0},{"name":"stage","threads":0,"strategy":"random","instances":4,"activations":0,"emitted":2000,"secondaryPicks":0},{"name":"aggregate","threads":1,"strategy":"random","instances":4,"activations":2000,"emitted":10,"secondaryPicks":0},{"name":"store","threads":0,"strategy":"random","instances":4,"activations":0,"emitted":10,"secondaryPicks":0}]}`},
	}
	for _, tc := range cases {
		for _, contentType := range []string{"application/x-ndjson", ContentTypeColumnar} {
			req, err := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Accept", contentType)
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			done, want := "", tc.want
			if contentType == ContentTypeColumnar {
				fr := newColFrameReader(bytes.NewReader(raw))
				for {
					kind, payload, err := fr.readFrame()
					if err != nil {
						t.Fatalf("%s: no done frame: %v", tc.body, err)
					}
					if kind == frameDone {
						done = string(payload)
						break
					}
				}
			} else {
				lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
				done = lines[len(lines)-1]
				want = `{"done":` + tc.want + `}`
			}
			if done != want {
				t.Errorf("%s as %s: footer\n%s\nwant\n%s", tc.body, contentType, done, want)
			}
		}
	}
}
