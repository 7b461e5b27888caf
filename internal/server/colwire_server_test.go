package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestServeColumnarEndToEnd streams the same mixed INT/STRING query once
// over NDJSON and once over the binary columnar encoding, both negotiation
// paths (Accept header via Client.Columnar, and the wire option), and
// requires identical rows and footers. The encodings must be observationally
// equivalent — only bytes on the wire differ.
func TestServeColumnarEndToEnd(t *testing.T) {
	client, _ := newTestServer(t, 5_000)
	const sql = "SELECT unique1, stringu1, unique2 FROM wisc WHERE unique1 < ?"
	args := []any{300}

	fetch := func(columnar bool, opts *Options) ([][]any, *Footer) {
		t.Helper()
		c := *client
		c.Columnar = columnar
		stream, err := c.Query(context.Background(), sql, args, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		if got := stream.Header().Types; !reflect.DeepEqual(got, []string{"INT", "STRING", "INT"}) {
			t.Fatalf("header types = %v", got)
		}
		var rows [][]any
		for stream.Next() {
			rows = append(rows, stream.Row())
		}
		if err := stream.Err(); err != nil {
			t.Fatal(err)
		}
		// Parallel execution may reorder rows between runs; unique1 is a key.
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].(int64) < rows[j][0].(int64) })
		return rows, stream.Footer()
	}

	ndRows, ndFoot := fetch(false, nil)
	colRows, colFoot := fetch(true, nil)
	optRows, optFoot := fetch(false, &Options{Wire: "columnar"})

	if len(ndRows) != 300 {
		t.Fatalf("ndjson returned %d rows, want 300", len(ndRows))
	}
	if !reflect.DeepEqual(colRows, ndRows) {
		t.Fatalf("columnar rows differ from ndjson rows")
	}
	if !reflect.DeepEqual(optRows, ndRows) {
		t.Fatalf("wire-option columnar rows differ from ndjson rows")
	}
	for _, f := range []*Footer{ndFoot, colFoot, optFoot} {
		if f == nil || f.RowCount != 300 {
			t.Fatalf("footer %+v, want rowCount 300", f)
		}
	}
}

// TestServeColumnarContentType: the response declares the negotiated
// encoding, and the wire option beats the Accept header in both directions.
func TestServeColumnarContentType(t *testing.T) {
	client, _ := newTestServer(t, 100)
	cases := []struct {
		name   string
		accept string
		wire   string
		want   string
	}{
		{"default", "", "", contentTypeNDJSON},
		{"accept", ContentTypeColumnar, "", ContentTypeColumnar},
		{"option", "", "columnar", ContentTypeColumnar},
		{"option-overrides-accept", ContentTypeColumnar, "ndjson", contentTypeNDJSON},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := `{"sql":"SELECT unique2 FROM wisc WHERE unique1 < 1"`
			if tc.wire != "" {
				body += `,"options":{"wire":"` + tc.wire + `"}`
			}
			body += `}`
			req, err := http.NewRequest(http.MethodPost, client.Base+"/query", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := client.HTTP.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %s", resp.Status)
			}
			if got := resp.Header.Get("Content-Type"); got != tc.want {
				t.Fatalf("Content-Type = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestServeColumnarPreparedExec: the encoding negotiates per execution on
// the prepared-statement path too.
func TestServeColumnarPreparedExec(t *testing.T) {
	client, _ := newTestServer(t, 1_000)
	prep, err := client.Prepare(context.Background(),
		"SELECT unique2 FROM wisc WHERE unique1 < ?", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.CloseStmt(context.Background(), prep.ID)

	stream, err := client.Exec(context.Background(), prep.ID, []any{25}, &Options{Wire: "columnar"})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	n := 0
	for stream.Next() {
		if _, ok := stream.Row()[0].(int64); !ok {
			t.Fatalf("row value %T, want int64", stream.Row()[0])
		}
		n++
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Fatalf("exec returned %d rows, want 25", n)
	}
}

// TestNegotiateWire pins the precedence table at the unit level.
func TestNegotiateWire(t *testing.T) {
	req := func(accept string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/query", nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		return r
	}
	if ct, err := negotiateWire(req(""), nil); err != nil || ct != contentTypeNDJSON {
		t.Errorf("default: %q, %v", ct, err)
	}
	if ct, err := negotiateWire(req("application/json, "+ContentTypeColumnar), nil); err != nil || ct != ContentTypeColumnar {
		t.Errorf("accept list: %q, %v", ct, err)
	}
	if ct, err := negotiateWire(req(""), &Options{Wire: "columnar"}); err != nil || ct != ContentTypeColumnar {
		t.Errorf("option: %q, %v", ct, err)
	}
	if ct, err := negotiateWire(req(ContentTypeColumnar), &Options{Wire: "ndjson"}); err != nil || ct != contentTypeNDJSON {
		t.Errorf("option beats accept: %q, %v", ct, err)
	}
	if _, err := negotiateWire(req(""), &Options{Wire: "csv"}); err == nil {
		t.Error("unknown wire name accepted")
	}
}
