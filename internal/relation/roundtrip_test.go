package relation_test

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dbs3/internal/relation"
	"dbs3/internal/server"
	"dbs3/internal/storage"
)

// randomRelation draws a schema of 1-6 INT/STRING columns and n tuples over
// it from rng: integers from the edges and the whole int64 range, strings
// empty, short, multi-byte and with characters both encoders must escape.
func randomRelation(rng *rand.Rand, n int) ([]string, []relation.Tuple) {
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 53, -(1 << 53) - 1}
	alphabet := []rune("ab \"\\\n\t,xé世 ")
	types := make([]string, 1+rng.Intn(6))
	for c := range types {
		types[c] = []string{"INT", "STRING"}[rng.Intn(2)]
	}
	var slab relation.Slab
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		t := slab.New(len(types))
		for c, typ := range types {
			switch {
			case typ == "STRING":
				s := make([]rune, rng.Intn(9))
				for k := range s {
					s[k] = alphabet[rng.Intn(len(alphabet))]
				}
				t[c] = relation.Str(string(s))
			case rng.Intn(3) == 0:
				t[c] = relation.Int(ints[rng.Intn(len(ints))])
			default:
				t[c] = relation.Int(int64(rng.Uint64()))
			}
		}
		tuples[i] = t
	}
	return types, tuples
}

// TestValuesSurviveEveryEncoding is the layout's end-to-end property: what
// goes into a Value comes back value-for-value out of the spill codec and
// out of both wire encodings as server.Client decodes them.
func TestValuesSurviveEveryEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 20; round++ {
		types, tuples := randomRelation(rng, 1+rng.Intn(200))

		for _, tup := range tuples {
			buf := storage.EncodeTuple(nil, tup)
			got, n, err := storage.DecodeTuple(buf)
			if err != nil || n != len(buf) || n != storage.EncodedSize(tup) {
				t.Fatalf("storage codec: %d of %d bytes (sized %d), err %v", n, len(buf), storage.EncodedSize(tup), err)
			}
			if !got.Equal(tup) {
				t.Fatalf("storage codec: %v came back as %v", tup, got)
			}
		}

		rows := make([][]any, len(tuples))
		for i, tup := range tuples {
			rows[i] = make([]any, len(tup))
			for c, v := range tup {
				if v.Kind() == relation.TInt {
					rows[i][c] = v.AsInt()
				} else {
					rows[i][c] = v.AsString()
				}
			}
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ct := "application/x-ndjson"
			if r.Header.Get("Accept") == server.ContentTypeColumnar {
				ct = server.ContentTypeColumnar
			}
			w.Header().Set("Content-Type", ct)
			enc := server.NewStreamEncoder(w, ct, types)
			for _, err := range []error{
				enc.Header(&server.Header{Columns: types, Types: types}),
				enc.Rows(rows),
				enc.Done(&server.Footer{RowCount: int64(len(rows))}),
			} {
				if err != nil {
					t.Errorf("encoding as %s: %v", ct, err)
				}
			}
		}))
		for _, columnar := range []bool{false, true} {
			client := &server.Client{Base: srv.URL, HTTP: srv.Client(), Columnar: columnar}
			stream, err := client.Query(context.Background(), "any", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for ; stream.Next(); i++ {
				for c, got := range stream.Row() {
					var back relation.Value
					switch got := got.(type) {
					case int64:
						back = relation.Int(got)
					case string:
						back = relation.Str(got)
					}
					if want := tuples[i][c]; back.Kind() != want.Kind() || !back.Equal(want) {
						t.Fatalf("columnar=%v row %d col %d: %q came back as %#v", columnar, i, c, want, got)
					}
				}
			}
			if err := stream.Err(); err != nil || i != len(tuples) {
				t.Fatalf("columnar=%v: %d of %d rows, err %v", columnar, i, len(tuples), err)
			}
			stream.Close()
		}
		srv.Close()
	}
}

// TestDecodeTupleIntoRoundTrip is the same property for the slab form of the
// spill decoder, which is what reads pages back: random tuples, plus the
// empty string, a string longer than an arena chunk and two backings of one
// text, encoded back to back and decoded into one slab, come back value for
// value, consume exactly their encoded size, and keep nothing of the buffer
// they were decoded from.
func TestDecodeTupleIntoRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	long := strings.Repeat("longer than a chunk ", 5000)
	text := "one text"
	special := []relation.Tuple{
		{relation.Str("")},
		{relation.Str(long), relation.Int(-1), relation.Str("")},
		{relation.Str(text), relation.Str(string([]byte(text)))},
	}
	for round := 0; round < 20; round++ {
		_, tuples := randomRelation(rng, 1+rng.Intn(200))
		tuples = append(tuples, special...)
		var buf []byte
		for _, tup := range tuples {
			buf = storage.EncodeTuple(buf, tup)
		}
		var slab relation.Slab
		got := make([]relation.Tuple, len(tuples))
		off := 0
		for i, tup := range tuples {
			back, n, err := storage.DecodeTupleInto(&slab, buf[off:])
			if err != nil || n != storage.EncodedSize(tup) {
				t.Fatalf("tuple %d: consumed %d bytes of %d, err %v", i, n, storage.EncodedSize(tup), err)
			}
			got[i] = back
			off += n
		}
		if off != len(buf) {
			t.Fatalf("decoded %d of %d bytes", off, len(buf))
		}
		for i := range buf {
			buf[i] = 0xff
		}
		for i, tup := range tuples {
			if !got[i].Equal(tup) {
				t.Fatalf("tuple %d: %v came back as %v", i, tup, got[i])
			}
		}
	}
}
