package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dbs3"
	"dbs3/internal/relation"
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
// counters are deterministic; the queries run one at a time, so each
// admission record is an idle manager's. The spilling join also pins the
// spill totals, and the materialized aggregate a two-chain plan.
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
			`{"rowCount":100,"threads":1,"admission":{"utilization":0,"measured":0,"smoothed":0,"available":4,"priority":"interactive"},"operators":[{"name":"filter","threads":1,"strategy":"random","instances":4,"activations":4,"emitted":100,"secondaryPicks":0},{"name":"store","threads":0,"strategy":"random","instances":4,"activations":0,"emitted":100,"secondaryPicks":0}]}`},
		{`{"sql":"SELECT * FROM A JOIN B ON A.k = B.k","options":{"threads":1,"memoryBudget":16384}}`,
			`{"rowCount":2000,"threads":1,"admission":{"utilization":0,"measured":0,"smoothed":0,"available":4,"priority":"interactive"},"operators":[{"name":"join","threads":1,"strategy":"random","instances":8,"activations":8,"emitted":2000,"secondaryPicks":0,"spilledBytes":62400,"spillPasses":8},{"name":"store","threads":0,"strategy":"random","instances":8,"activations":0,"emitted":2000,"secondaryPicks":0}],"spilledBytes":62400,"spillPasses":8}`},
		{`{"sql":"SELECT ten, COUNT(*) FROM wisc GROUP BY ten","options":{"threads":1,"materialize":true}}`,
			`{"rowCount":10,"threads":2,"admission":{"utilization":0,"measured":0,"smoothed":0,"available":4,"priority":"interactive"},"operators":[{"name":"filter","threads":1,"strategy":"random","instances":4,"activations":4,"emitted":2000,"secondaryPicks":0},{"name":"scan","threads":1,"strategy":"random","instances":4,"activations":4,"emitted":2000,"secondaryPicks":0},{"name":"stage","threads":0,"strategy":"random","instances":4,"activations":0,"emitted":2000,"secondaryPicks":0},{"name":"aggregate","threads":1,"strategy":"random","instances":4,"activations":2000,"emitted":10,"secondaryPicks":0},{"name":"store","threads":0,"strategy":"random","instances":4,"activations":0,"emitted":10,"secondaryPicks":0}]}`},
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

// TestFooterAdmission: the footer's admission record is what the manager
// measured when it admitted the query. A neighbour holding 2 of 4 threads
// through Reserve is seen as utilization 0.5 with 2 threads free, in both
// encodings; the same query admitted idle sees 0 and 4. An unmanaged
// database's footer has no record.
func TestFooterAdmission(t *testing.T) {
	db := dbs3.New()
	if err := db.CreateWisconsin("wisc", 2000, 4, "unique2", 42); err != nil {
		t.Fatal(err)
	}
	unmanaged, err := db.QueryAllContext(context.Background(), "SELECT unique1 FROM wisc WHERE unique2 < 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if unmanaged.Admission != nil {
		t.Errorf("unmanaged footer carries admission %+v", *unmanaged.Admission)
	}
	m := db.Manager(dbs3.ManagerConfig{Budget: 4})
	ts := httptest.NewServer(New(db, m, Config{}))
	t.Cleanup(ts.Close)
	t.Cleanup(ts.Client().CloseIdleConnections)

	check := func(measured float64, available int) {
		t.Helper()
		for _, columnar := range []bool{false, true} {
			c := &Client{Base: ts.URL, HTTP: ts.Client(), Columnar: columnar}
			s, err := c.Query(context.Background(), "SELECT * FROM wisc WHERE unique1 < 100", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for s.Next() {
			}
			s.Close()
			f := s.Footer()
			if f == nil || f.Admission == nil {
				t.Fatalf("columnar=%v: footer %+v carries no admission (err %v)", columnar, f, s.Err())
			}
			if a := f.Admission; a.Measured != measured || a.Utilization < measured || a.Available != available || a.Priority != "interactive" {
				t.Errorf("columnar=%v: admission %+v, want measured %v and %d threads available", columnar, *a, measured, available)
			}
		}
	}
	check(0, 4)
	release, err := m.Reserve(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	check(0.5, 2)
	release()
}

// TestOptionsOverlayCarriesEveryWireField walks dbs3.Options: every field
// with a JSON name travels on the wire under the key clients send, and
// Overlay carries it from a request onto a baseline; a field without one
// (SpillDir) stays the baseline's.
func TestOptionsOverlayCarriesEveryWireField(t *testing.T) {
	typ := reflect.TypeOf(dbs3.Options{})
	var wire Options
	base := dbs3.Options{SpillDir: "/base"}
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		v := reflect.ValueOf(&wire.Options).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Float64:
			v.SetFloat(0.5)
		case reflect.String:
			v.SetString("set")
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("field %s has kind %s, which this walk does not set", f.Name, v.Kind())
		}
		got := reflect.ValueOf(Overlay(base, &wire)).Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" {
			if !reflect.DeepEqual(got.Interface(), reflect.ValueOf(base).Field(i).Interface()) {
				t.Errorf("Overlay carried %s, which has no wire name", f.Name)
			}
			continue
		}
		if name == "" {
			t.Errorf("field %s has no JSON name: name it, or tag it \"-\"", f.Name)
			continue
		}
		keys = append(keys, name)
		if !reflect.DeepEqual(got.Interface(), v.Interface()) {
			t.Errorf("Overlay dropped %s (%q): got %v, want %v", f.Name, name, got, v)
		}
	}
	wire.Wire = "columnar"
	keys = append(keys, "wire")
	raw, err := json.Marshal(&wire)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	var onWire []string
	for k := range decoded {
		onWire = append(onWire, k)
	}
	sort.Strings(keys)
	sort.Strings(onWire)
	want := []string{"grain", "join", "materialize", "memoryBudget", "priority", "strategy", "threads", "utilization", "wire"}
	if !reflect.DeepEqual(onWire, want) || !reflect.DeepEqual(keys, want) {
		t.Errorf("option keys on the wire %v, named %v, want %v", onWire, keys, want)
	}
}

// TestDecodersAllocateWhatTheyRead: a length or a body that claims more
// than the sender sends, or a line that never ends, costs the receiver in
// proportion to what arrived, and the error names the limit that applies.
func TestDecodersAllocateWhatTheyRead(t *testing.T) {
	client, _ := newTestServer(t, 100)
	frame := binary.AppendUvarint([]byte{frameRows}, maxFramePayload)
	body := []byte(`{"sql":"SELECT unique1 FROM wisc WHERE stringu1 = '` +
		strings.Repeat("x", maxRequestBody) + `'"}`)
	// An honest header line, then a row whose string runs on past the line
	// limit, generated as it is read.
	lines := `{"header":{"columns":["s"],"types":["STRING"]}}` + "\n" + `{"rows":[["`
	// A CSV header, then a row that never ends.
	csvHeader := "s:STRING\n"
	cases := []struct {
		name string
		// input is what the sender sends, size bytes of it; decode feeds it
		// to the decoder.
		input  io.Reader
		size   int
		decode func(input io.Reader) error
		want   []string
		// perByte is what decoding may allocate per byte sent; 0 is 4.
		perByte int
	}{
		{
			name:  "R frame claiming 64 MiB",
			input: bytes.NewReader(frame),
			size:  len(frame),
			decode: func(input io.Reader) error {
				_, _, err := newColFrameReader(input).readFrame()
				return err
			},
			want: []string{strconv.Itoa(maxFramePayload)},
		},
		{
			name:  "body longer than the limit",
			input: bytes.NewReader(body),
			size:  len(body),
			decode: func(input io.Reader) error {
				resp, err := client.HTTP.Post(client.Base+"/query", "application/json", input)
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				msg, _ := io.ReadAll(resp.Body)
				return fmt.Errorf("%d %s", resp.StatusCode, msg)
			},
			want: []string{strconv.Itoa(http.StatusRequestEntityTooLarge), strconv.Itoa(maxRequestBody)},
		},
		{
			name:  "NDJSON line longer than the limit",
			input: io.MultiReader(strings.NewReader(lines), io.LimitReader(endlessX{}, maxFramePayload)),
			size:  len(lines) + maxFramePayload,
			decode: func(input io.Reader) error {
				stream, err := newRowStream(&http.Response{
					StatusCode: http.StatusOK,
					Header:     http.Header{"Content-Type": {contentTypeNDJSON}},
					Body:       io.NopCloser(input),
				}, nil)
				if err != nil {
					return err
				}
				defer stream.Close()
				for stream.Next() {
				}
				return stream.Err()
			},
			want: []string{strconv.Itoa(maxFramePayload)},
		},
		{
			name:  "CSV line longer than the limit",
			input: io.MultiReader(strings.NewReader(csvHeader), io.LimitReader(endlessX{}, maxFramePayload+1)),
			size:  len(csvHeader) + maxFramePayload + 1,
			decode: func(input io.Reader) error {
				_, err := relation.ReadCSV("s", input)
				return err
			},
			want: []string{strconv.Itoa(maxFramePayload)},
			// encoding/csv copies a line three times: into its line buffer,
			// grown a quarter at a time (about five bytes per byte read),
			// into its field buffer and into the field's string.
			perByte: 8,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.decode(c.input)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("decoded without an error")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %s", err, w)
				}
			}
			perByte := c.perByte
			if perByte == 0 {
				perByte = 4
			}
			grown, bound := after.TotalAlloc-before.TotalAlloc, uint64(perByte*c.size+1<<20)
			if grown > bound {
				t.Errorf("decoding %d bytes allocated %d, want at most %d", c.size, grown, bound)
			}
		})
	}
}

// endlessX reads as an endless run of 'x'.
type endlessX struct{}

func (endlessX) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// cannedNDJSON is a finished NDJSON stream of n rows of (unique2 INT,
// stringu1 STRING), in chunkRows-row messages as the server sends them.
func cannedNDJSON(n int) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.Encode(Message{Header: &Header{Columns: []string{"unique2", "stringu1"}, Types: []string{"INT", "STRING"}}})
	for lo := 0; lo < n; lo += chunkRows {
		chunk := make([][]any, 0, chunkRows)
		for i := lo; i < min(lo+chunkRows, n); i++ {
			chunk = append(chunk, []any{int64(i), fmt.Sprintf("%07d%s", i, strings.Repeat("x", 45))})
		}
		enc.Encode(Message{Rows: chunk})
	}
	enc.Encode(Message{Done: &Footer{RowCount: int64(n), Threads: 1}})
	return b.Bytes()
}

// BenchmarkRowStreamNDJSON is the client's decode of a canned NDJSON stream
// of one row and of 4 000: B/op and allocs/op are what a stream costs the
// reader, its line bound included.
func BenchmarkRowStreamNDJSON(b *testing.B) {
	for _, n := range []int{1, 4_000} {
		stream := cannedNDJSON(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := newRowStream(&http.Response{
					StatusCode: http.StatusOK,
					Header:     http.Header{"Content-Type": {contentTypeNDJSON}},
					Body:       io.NopCloser(bytes.NewReader(stream)),
				}, nil)
				if err != nil {
					b.Fatal(err)
				}
				rows := 0
				for rs.Next() {
					rows++
				}
				if err := rs.Err(); err != nil || rows != n {
					b.Fatalf("%d rows, %v", rows, err)
				}
				rs.Close()
			}
		})
	}
}
