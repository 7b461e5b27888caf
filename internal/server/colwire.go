package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
)

// Binary columnar result encoding. NDJSON (the default) spends most of a
// wide result's bytes on JSON syntax — brackets, commas, base-10 digits —
// and most of the server's encode time in reflection. The columnar encoding
// keeps the same stream shape (header, row chunks, one terminal message) but
// carries each row chunk column-major in a compact binary form, so a
// Wisconsin-width integer row costs a handful of varint bytes instead of a
// hundred JSON characters.
//
// A stream is a sequence of length-prefixed frames:
//
//	frame   := kind(1 byte) uvarint(payload length) payload
//	'H'     := JSON-encoded Header        (opens every stream)
//	'R'     := binary columnar row chunk  (zero or more)
//	'D'     := JSON-encoded Footer        (terminal: success)
//	'E'     := UTF-8 error text           (terminal: failure)
//
// An 'R' payload is column-major over the header's column order (column
// payloads are omitted entirely when nRows is 0):
//
//	chunk   := uvarint(nRows) column*
//	column  := INT:    intcol
//	           STRING: nRows × (uvarint(len) bytes)
//	intcol  := 0x00 nRows signed varints (zigzag, lossless for all int64)
//	         | 0x01 varint(min) width(1 byte, ≤64)
//	                ceil(nRows×width/8) bytes of bit-packed (v-min) offsets
//
// The second INT form is frame-of-reference bit-packing: the column stores
// its minimum once and each value as an offset at the column's worst-case
// bit width, LSB-first. Column-major layout is what makes it pay — a
// low-cardinality attribute sitting next to a unique key still packs at its
// own few bits per value. The encoder computes both forms' exact costs and
// keeps the smaller, so adversarially-spread columns (full int64 range in
// one chunk) degrade to plain varints, never worse.
//
// Metadata frames stay JSON: they are rare (two per stream), and keeping
// them self-describing means the header/footer evolve with the NDJSON
// protocol for free. Only the row payload — the part that scales with the
// result — is binary. Both INT forms are lossless for the full int64 range,
// which NDJSON-to-JavaScript consumers cannot say (JSON numbers lose
// precision past 2^53); Header.Types remains the decode contract exactly as
// for NDJSON rows.
//
// Decoders must be safe on hostile input: every length is bounds-checked
// against what was actually read, and a truncated or oversized frame is an
// error, never a panic or an unbounded allocation.

// ContentTypeColumnar is the negotiated media type of the binary columnar
// stream. Clients opt in per request via the Accept header or the wire
// Options; responses declare it in Content-Type.
const ContentTypeColumnar = "application/x-dbs3-colchunk"

// contentTypeNDJSON is the default stream encoding.
const contentTypeNDJSON = "application/x-ndjson"

// Frame kinds. Values are printable so a hexdump of a stream reads.
const (
	frameHeader byte = 'H'
	frameRows   byte = 'R'
	frameDone   byte = 'D'
	frameError  byte = 'E'
)

// maxFramePayload bounds a decoded frame's payload (64 MiB). Real frames
// are a few KiB (one row chunk); the bound exists so a corrupt or hostile
// length prefix cannot make the decoder allocate unboundedly.
const maxFramePayload = 64 << 20

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = kind
	n := binary.PutUvarint(hdr[1:], uint64(len(payload)))
	if _, err := w.Write(hdr[:1+n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// INT column encodings (the intcol mode byte).
const (
	intColVarint byte = 0x00
	intColPacked byte = 0x01
)

// appendColChunk appends one encoded row chunk to dst. Values must match
// types ("INT" → int64, "STRING" → string), the engine's row contract.
func appendColChunk(dst []byte, types []string, rows [][]any) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	if len(rows) == 0 {
		return dst, nil
	}
	for c, typ := range types {
		switch typ {
		case "INT":
			var err error
			if dst, err = appendIntCol(dst, c, rows); err != nil {
				return nil, err
			}
		case "STRING":
			for _, row := range rows {
				s, ok := row[c].(string)
				if !ok {
					return nil, fmt.Errorf("server: column %d is %T, want string", c, row[c])
				}
				dst = binary.AppendUvarint(dst, uint64(len(s)))
				dst = append(dst, s...)
			}
		default:
			return nil, fmt.Errorf("server: unknown column type %q", typ)
		}
	}
	return dst, nil
}

// appendIntCol encodes one INT column in whichever of the two forms costs
// fewer bytes: plain varints, or frame-of-reference bit-packing (min value
// once, then fixed-width offsets). Both costs are exact, computed in one
// pass over the column.
func appendIntCol(dst []byte, c int, rows [][]any) ([]byte, error) {
	min, max := int64(0), int64(0)
	varintCost := 0
	for i, row := range rows {
		v, ok := row[c].(int64)
		if !ok {
			return nil, fmt.Errorf("server: column %d is %T, want int64", c, row[c])
		}
		if i == 0 {
			min, max = v, v
		} else if v < min {
			min = v
		} else if v > max {
			max = v
		}
		// Zigzag varint length: 1 byte per started 7-bit group.
		zz := uint64(v)<<1 ^ uint64(v>>63)
		varintCost += (bits.Len64(zz|1) + 6) / 7
	}
	// Offsets span the column's range; uint64 subtraction is exact even
	// when the int64 difference would overflow.
	width := bits.Len64(uint64(max) - uint64(min))
	zzMin := uint64(min)<<1 ^ uint64(min>>63)
	packedCost := (bits.Len64(zzMin|1)+6)/7 + 1 + (len(rows)*width+7)/8
	if varintCost <= packedCost {
		dst = append(dst, intColVarint)
		for _, row := range rows {
			dst = binary.AppendVarint(dst, row[c].(int64))
		}
		return dst, nil
	}
	dst = append(dst, intColPacked)
	dst = binary.AppendVarint(dst, min)
	dst = append(dst, byte(width))
	base := len(dst)
	dst = append(dst, make([]byte, (len(rows)*width+7)/8)...)
	for i, row := range rows {
		putBits(dst[base:], i*width, width, uint64(row[c].(int64))-uint64(min))
	}
	return dst, nil
}

// putBits writes the low `width` bits of v into b at bit position pos,
// LSB-first. b must already be zeroed over the target range.
func putBits(b []byte, pos, width int, v uint64) {
	for got := 0; got < width; {
		sh := (pos + got) % 8
		take := 8 - sh
		if take > width-got {
			take = width - got
		}
		b[(pos+got)/8] |= byte(((v >> got) & (1<<take - 1)) << sh)
		got += take
	}
}

// getBits reads `width` bits from b at bit position pos, LSB-first. The
// caller guarantees the range is in bounds.
func getBits(b []byte, pos, width int) uint64 {
	var v uint64
	for got := 0; got < width; {
		sh := (pos + got) % 8
		take := 8 - sh
		if take > width-got {
			take = width - got
		}
		v |= uint64(b[(pos+got)/8]>>sh&(1<<take-1)) << got
		got += take
	}
	return v
}

// maxChunkValues bounds one chunk's value count, rows × columns (2^20): the
// decoder allocates a slot per value before it reads a column, and a
// bit-packed constant column costs a few bytes no matter how many rows it
// spans, so payload size cannot bound the count. This protocol-level cap is
// what keeps a hostile row count — or a wide header — from driving an
// enormous allocation. Far above any real chunk: servers send 64 rows, which
// it allows up to 16 384 columns wide.
const maxChunkValues = 1 << 20

// decodeColChunk decodes one 'R' payload into rows of int64/string values.
// It is total over arbitrary input: malformed payloads return an error.
func decodeColChunk(types []string, payload []byte) ([][]any, error) {
	nRows64, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("server: columnar chunk: bad row count")
	}
	payload = payload[n:]
	if len(types) == 0 && nRows64 > 0 {
		return nil, fmt.Errorf("server: columnar chunk: rows without columns")
	}
	if len(types) > 0 && nRows64 > maxChunkValues/uint64(len(types)) {
		return nil, fmt.Errorf("server: columnar chunk: %d rows of %d columns exceed the %d-value limit", nRows64, len(types), maxChunkValues)
	}
	nRows := int(nRows64)
	rows := make([][]any, nRows)
	vals := make([]any, nRows*len(types))
	for i := range rows {
		rows[i], vals = vals[:len(types):len(types)], vals[len(types):]
	}
	if nRows == 0 {
		if len(payload) != 0 {
			return nil, fmt.Errorf("server: columnar chunk: %d trailing bytes", len(payload))
		}
		return rows, nil
	}
	for c, typ := range types {
		switch typ {
		case "INT":
			var err error
			if payload, err = decodeIntCol(payload, c, rows); err != nil {
				return nil, err
			}
		case "STRING":
			for r := 0; r < nRows; r++ {
				size, n := binary.Uvarint(payload)
				if n <= 0 || size > uint64(len(payload)-n) {
					return nil, fmt.Errorf("server: columnar chunk: truncated STRING column %d", c)
				}
				payload = payload[n:]
				rows[r][c] = string(payload[:size])
				payload = payload[size:]
			}
		default:
			return nil, fmt.Errorf("server: unknown column type %q", typ)
		}
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("server: columnar chunk: %d trailing bytes", len(payload))
	}
	return rows, nil
}

// decodeIntCol decodes one INT column (either intcol form) into rows,
// returning the remaining payload.
func decodeIntCol(payload []byte, c int, rows [][]any) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("server: columnar chunk: truncated INT column %d", c)
	}
	mode := payload[0]
	payload = payload[1:]
	switch mode {
	case intColVarint:
		for r := range rows {
			v, n := binary.Varint(payload)
			if n <= 0 {
				return nil, fmt.Errorf("server: columnar chunk: truncated INT column %d", c)
			}
			payload = payload[n:]
			rows[r][c] = v
		}
		return payload, nil
	case intColPacked:
		min, n := binary.Varint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("server: columnar chunk: truncated INT column %d", c)
		}
		payload = payload[n:]
		if len(payload) == 0 {
			return nil, fmt.Errorf("server: columnar chunk: truncated INT column %d", c)
		}
		width := int(payload[0])
		payload = payload[1:]
		if width > 64 {
			return nil, fmt.Errorf("server: columnar chunk: INT column %d has bit width %d", c, width)
		}
		packedLen := (len(rows)*width + 7) / 8
		if len(payload) < packedLen {
			return nil, fmt.Errorf("server: columnar chunk: truncated INT column %d", c)
		}
		packed := payload[:packedLen]
		for r := range rows {
			// Wrapping add: offsets were computed with uint64 subtraction,
			// so this is exact across the whole int64 range.
			rows[r][c] = int64(uint64(min) + getBits(packed, r*width, width))
		}
		return payload[packedLen:], nil
	default:
		return nil, fmt.Errorf("server: columnar chunk: INT column %d has unknown mode %#x", c, mode)
	}
}

// colFrameReader reads length-prefixed frames off a stream. The payload
// buffer is reused across frames; callers must consume (or copy) a payload
// before reading the next frame.
type colFrameReader struct {
	r   *bufio.Reader
	lim io.LimitedReader
	buf bytes.Buffer
}

func newColFrameReader(r io.Reader) *colFrameReader {
	return &colFrameReader{r: bufio.NewReader(r)}
}

// readFrame returns the next frame's kind and payload. Any truncation —
// mid-prefix or mid-payload — surfaces as an error (io.EOF only ever means
// a clean boundary before the kind byte; stream completeness is the
// caller's protocol-level check).
func (fr *colFrameReader) readFrame() (byte, []byte, error) {
	kind, err := fr.r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	size, err := binary.ReadUvarint(fr.r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("server: columnar frame: %w", err)
	}
	if size > maxFramePayload {
		return 0, nil, fmt.Errorf("server: columnar frame of %d bytes exceeds the %d limit", size, maxFramePayload)
	}
	// The buffer grows as payload bytes arrive, not to what the prefix
	// claims: a lying prefix costs what was actually sent.
	fr.buf.Reset()
	fr.lim = io.LimitedReader{R: fr.r, N: int64(size)}
	if _, err := fr.buf.ReadFrom(&fr.lim); err != nil {
		return 0, nil, fmt.Errorf("server: columnar frame: %w", err)
	}
	if n := fr.buf.Len(); uint64(n) < size {
		return 0, nil, fmt.Errorf("server: columnar frame: %w after %d of %d bytes (the limit is %d)",
			io.ErrUnexpectedEOF, n, size, maxFramePayload)
	}
	return kind, fr.buf.Bytes(), nil
}

// StreamEncoder is the byte encoding of one streamed result — one Header,
// any number of row chunks, one terminal Done or Fail. The front end's
// stream writes every response through one (buffering, flush cadence and
// cancellation are the stream's; only the bytes differ), and tests and
// benchmarks use one to produce wire bytes without a server. Calls must be
// serialized by the caller.
type StreamEncoder interface {
	Header(h *Header) error
	Rows(chunk [][]any) error
	Done(f *Footer) error
	// Fail writes the terminal error message. Encoders must always get it
	// on the wire if at all possible — it is the client's only signal that
	// the stream is truncated deliberately rather than cut.
	Fail(msg string) error
}

// NewStreamEncoder builds the encoder for a negotiated Content-Type: the
// NDJSON message stream or the binary columnar frame stream. types aligns
// with the result columns and is required for columnar encoding.
func NewStreamEncoder(w io.Writer, contentType string, types []string) StreamEncoder {
	if contentType == ContentTypeColumnar {
		return &columnarEncoder{w: w, types: types}
	}
	return &ndjsonEncoder{enc: json.NewEncoder(w)}
}

// ndjsonEncoder is the default JSON-lines encoding (see Message).
type ndjsonEncoder struct {
	enc *json.Encoder
}

func (e *ndjsonEncoder) Header(h *Header) error   { return e.enc.Encode(Message{Header: h}) }
func (e *ndjsonEncoder) Rows(chunk [][]any) error { return e.enc.Encode(Message{Rows: chunk}) }
func (e *ndjsonEncoder) Done(f *Footer) error     { return e.enc.Encode(Message{Done: f}) }
func (e *ndjsonEncoder) Fail(msg string) error    { return e.enc.Encode(Message{Error: msg}) }

// columnarEncoder writes the length-prefixed binary frame stream.
type columnarEncoder struct {
	w     io.Writer
	types []string
	buf   []byte // payload scratch, reused across chunks
}

func (e *columnarEncoder) Header(h *Header) error {
	payload, err := json.Marshal(h)
	if err != nil {
		return err
	}
	return writeFrame(e.w, frameHeader, payload)
}

func (e *columnarEncoder) Rows(chunk [][]any) error {
	payload, err := appendColChunk(e.buf[:0], e.types, chunk)
	if err != nil {
		return err
	}
	e.buf = payload[:0]
	return writeFrame(e.w, frameRows, payload)
}

func (e *columnarEncoder) Done(f *Footer) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return writeFrame(e.w, frameDone, payload)
}

func (e *columnarEncoder) Fail(msg string) error {
	return writeFrame(e.w, frameError, []byte(msg))
}
