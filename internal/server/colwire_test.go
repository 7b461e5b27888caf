package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// chunkCase is one round-trip fixture: a column-type vector and rows obeying
// it. The INT values deliberately include magnitudes JSON cannot carry
// losslessly (beyond 2^53) and both int64 extremes — the columnar encoding
// exists partly so those survive the wire.
type chunkCase struct {
	name  string
	types []string
	rows  [][]any
}

func chunkCases() []chunkCase {
	return []chunkCase{
		{"empty", []string{"INT", "STRING"}, nil},
		{"int-extremes", []string{"INT"}, [][]any{
			{int64(0)}, {int64(-1)}, {int64(1)},
			{int64(1) << 53}, {int64(1)<<53 + 1}, {-(int64(1)<<53 + 1)},
			{int64(math.MaxInt64)}, {int64(math.MinInt64)},
		}},
		{"strings", []string{"STRING"}, [][]any{
			{""}, {"a"}, {"héllo wörld"}, {strings.Repeat("x", 1000)},
			{"embedded\x00nul"}, {"newline\nand\ttab"},
		}},
		{"mixed", []string{"INT", "STRING", "INT", "STRING"}, [][]any{
			{int64(42), "alpha", int64(-7), ""},
			{int64(1) << 62, "", int64(math.MinInt64), "β"},
			{int64(-1), "z", int64(0), "trailing"},
		}},
	}
}

// TestColChunkRoundTrip is the codec's core property: decode(encode(rows))
// is identity for every engine column type, at full int64 range.
func TestColChunkRoundTrip(t *testing.T) {
	for _, tc := range chunkCases() {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := appendColChunk(nil, tc.types, tc.rows)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := decodeColChunk(tc.types, payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != len(tc.rows) {
				t.Fatalf("round trip returned %d rows, want %d", len(got), len(tc.rows))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], tc.rows[i]) {
					t.Fatalf("row %d: got %v, want %v", i, got[i], tc.rows[i])
				}
			}
		})
	}
}

// TestColChunkTruncationIsError cuts every valid prefix of an encoded chunk:
// none may decode successfully (the full payload is the only valid form) and
// none may panic.
func TestColChunkTruncationIsError(t *testing.T) {
	for _, tc := range chunkCases() {
		if len(tc.rows) == 0 {
			continue
		}
		payload, err := appendColChunk(nil, tc.types, tc.rows)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := decodeColChunk(tc.types, payload[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d decoded without error", tc.name, cut, len(payload))
			}
		}
		// Trailing garbage is corruption too, not ignorable padding.
		if _, err := decodeColChunk(tc.types, append(payload[:len(payload):len(payload)], 0xff)); err == nil {
			t.Fatalf("%s: trailing byte decoded without error", tc.name)
		}
	}
}

// TestColChunkRejectsHostileRowCount: a row count far beyond the payload
// must fail fast instead of allocating rows for it.
func TestColChunkRejectsHostileRowCount(t *testing.T) {
	// Uvarint for 2^40 rows followed by a one-byte "payload".
	payload := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00}
	if _, err := decodeColChunk([]string{"INT"}, payload); err == nil {
		t.Fatal("absurd row count decoded without error")
	}
}

// TestColChunkBoundsValueCount: the decoder allocates a slot per value
// before it reads a column, so the row count is bounded against the header's
// width, not alone. A 3-byte payload claiming 2^20 rows under a 16-column
// header must fail naming the limit without allocating for those rows, and
// a chunk of exactly maxChunkValues values must still round-trip.
func TestColChunkBoundsValueCount(t *testing.T) {
	types := slices.Repeat([]string{"INT"}, 16)
	payload := binary.AppendUvarint(nil, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeColChunk(types, payload)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("the %d-value limit", maxChunkValues)) {
		t.Fatalf("2^20 rows of 16 columns: got %v, want an error naming the %d-value limit", err, maxChunkValues)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting the chunk allocated %d bytes", grew)
	}

	// 64 rows, the servers' chunk, at the widest header the bound allows.
	const nRows = 64
	wide := slices.Repeat([]string{"INT"}, maxChunkValues/nRows)
	rows := make([][]any, nRows)
	for r := range rows {
		rows[r] = make([]any, len(wide))
		for c := range rows[r] {
			rows[r][c] = int64(r ^ c)
		}
	}
	payload, err = appendColChunk(nil, wide, rows)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeColChunk(wide, payload)
	if err != nil {
		t.Fatalf("chunk of exactly %d values: %v", maxChunkValues, err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("chunk at the bound did not round-trip")
	}
	if _, err := decodeColChunk(append(wide, "INT"), payload); err == nil {
		t.Fatal("a chunk one column past the bound decoded without error")
	}
}

// TestColFrameRoundTrip exercises the frame layer: a written sequence reads
// back kind-for-kind, and a stream cut mid-frame surfaces an error from
// readFrame rather than a silent end (a cut on a frame boundary is io.EOF —
// the protocol layer's job to reject as a missing terminal frame).
func TestColFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		kind    byte
		payload []byte
	}{
		{frameHeader, []byte(`{"columns":["a"]}`)},
		{frameRows, []byte{1, 2}},
		{frameRows, nil},
		{frameDone, []byte(`{"rowCount":1}`)},
	}
	boundaries := map[int]bool{0: true}
	for _, f := range frames {
		if err := writeFrame(&buf, f.kind, f.payload); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		boundaries[buf.Len()] = true
	}
	encoded := buf.Bytes()

	fr := newColFrameReader(bytes.NewReader(encoded))
	for i, f := range frames {
		kind, payload, err := fr.readFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != f.kind || !bytes.Equal(payload, f.payload) {
			t.Fatalf("frame %d: got (%c, %v), want (%c, %v)", i, kind, payload, f.kind, f.payload)
		}
	}
	if _, _, err := fr.readFrame(); err != io.EOF {
		t.Fatalf("read past end: got %v, want io.EOF", err)
	}

	for cut := 1; cut < len(encoded); cut++ {
		fr := newColFrameReader(bytes.NewReader(encoded[:cut]))
		var err error
		for err == nil {
			_, _, err = fr.readFrame()
		}
		if (err == io.EOF) != boundaries[cut] {
			t.Fatalf("cut at %d: got %v, boundary=%v", cut, err, boundaries[cut])
		}
	}
}

// TestColFrameRejectsOversizedLength: a hostile length prefix beyond the
// frame bound errors out instead of allocating it.
func TestColFrameRejectsOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(frameRows)
	// Uvarint for 2^40 bytes.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	fr := newColFrameReader(&buf)
	if _, _, err := fr.readFrame(); err == nil {
		t.Fatal("oversized frame length read without error")
	}
}

// FuzzColumnarChunk drives arbitrary bytes through the chunk decoder for
// every engine column-type shape the result header can declare: the decoder
// must never panic, and whatever decodes successfully must survive a
// re-encode/re-decode round trip unchanged. (Byte-identity of the re-encode
// is deliberately not asserted: varints admit non-minimal encodings, so two
// payloads can decode to the same chunk.)
func FuzzColumnarChunk(f *testing.F) {
	shapes := [][]string{
		{"INT"},
		{"STRING"},
		{"INT", "STRING"},
		{"STRING", "INT", "INT", "STRING", "INT"},
		slices.Repeat([]string{"INT"}, 64),
	}
	for _, tc := range chunkCases() {
		payload, err := appendColChunk(nil, tc.types, tc.rows)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x80}) // one row, truncated varint
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, types := range shapes {
			rows, err := decodeColChunk(types, data)
			if err != nil {
				continue
			}
			re, err := appendColChunk(nil, types, rows)
			if err != nil {
				t.Fatalf("decoded chunk failed to re-encode: %v", err)
			}
			again, err := decodeColChunk(types, re)
			if err != nil {
				t.Fatalf("re-encoded chunk failed to decode: %v", err)
			}
			if !reflect.DeepEqual(again, rows) {
				t.Fatalf("round trip changed rows for %v:\n got %v\nwant %v", types, again, rows)
			}
		}
	})
}

// FuzzColumnarFrame drives arbitrary bytes through the frame reader: no
// input may panic it, and every frame it does return must be bounded by the
// input it was read from.
func FuzzColumnarFrame(f *testing.F) {
	var buf bytes.Buffer
	writeFrame(&buf, frameHeader, []byte(`{"columns":["a"],"types":["INT"]}`))
	writeFrame(&buf, frameRows, []byte{0x01, 0x02})
	writeFrame(&buf, frameDone, []byte(`{"rowCount":1}`))
	f.Add(buf.Bytes())
	f.Add([]byte{'R'})
	f.Add([]byte{'R', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newColFrameReader(bytes.NewReader(data))
		total := 0
		for {
			_, payload, err := fr.readFrame()
			if err != nil {
				return
			}
			total += len(payload)
			if total > len(data) {
				t.Fatalf("frames yielded %d payload bytes from %d input bytes", total, len(data))
			}
		}
	})
}
