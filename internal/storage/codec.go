// Package storage is the disk substrate of larger-than-memory execution: a
// tuple codec, slotted pages, spill runs written to temp files and read back
// once, in order, straight from them, and the memory accountant that decides
// when an operator spills. Base relations stay memory-resident, as in the
// paper's experiments (its KSR1 had one disk).
package storage

import (
	"encoding/binary"
	"fmt"

	"dbs3/internal/relation"
)

// Value wire format: 1 tag byte (0 = int, 1 = string), then either an 8-byte
// little-endian integer or a 4-byte length followed by the string bytes.
const (
	tagInt    byte = 0
	tagString byte = 1
)

// EncodedSize returns the number of bytes EncodeTuple will produce.
func EncodedSize(t relation.Tuple) int {
	n := 2 // uint16 column count
	for _, v := range t {
		if v.Kind() == relation.TInt {
			n += 1 + 8
		} else {
			n += 1 + 4 + len(v.AsString())
		}
	}
	return n
}

// EncodeTuple appends the wire form of t to dst and returns the result.
func EncodeTuple(dst []byte, t relation.Tuple) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(t)))
	for _, v := range t {
		if v.Kind() == relation.TInt {
			dst = append(dst, tagInt)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.AsInt()))
		} else {
			s := v.AsString()
			dst = append(dst, tagString)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// encodedLen walks the wire form of one tuple at the start of buf and
// returns how many bytes it occupies, without decoding or allocating
// anything. It is the codec's one validator: every bound DecodeTupleInto
// relies on is checked here.
func encodedLen(buf []byte) (int, error) {
	if len(buf) < 2 {
		return 0, fmt.Errorf("storage: truncated tuple header")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	off := 2
	for i := 0; i < n; i++ {
		if off >= len(buf) {
			return 0, fmt.Errorf("storage: truncated tuple at column %d", i)
		}
		tag := buf[off]
		off++
		switch tag {
		case tagInt:
			if off+8 > len(buf) {
				return 0, fmt.Errorf("storage: truncated int at column %d", i)
			}
			off += 8
		case tagString:
			if off+4 > len(buf) {
				return 0, fmt.Errorf("storage: truncated string length at column %d", i)
			}
			l := int(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			if l > len(buf)-off {
				return 0, fmt.Errorf("storage: truncated string at column %d", i)
			}
			off += l
		default:
			return 0, fmt.Errorf("storage: unknown value tag %d at column %d", tag, i)
		}
	}
	return off, nil
}

// DecodeTupleInto parses one tuple from the start of buf into slab — its
// values carved from the slab's chunk, its string bytes copied into the
// slab's arena, so nothing of buf is retained — and returns the tuple and
// the number of bytes consumed.
func DecodeTupleInto(slab *relation.Slab, buf []byte) (relation.Tuple, int, error) {
	end, err := encodedLen(buf)
	if err != nil {
		return nil, 0, err
	}
	t := slab.New(int(binary.LittleEndian.Uint16(buf)))
	off := 2
	for i := range t {
		tag := buf[off]
		off++
		if tag == tagInt {
			t[i] = relation.Int(int64(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		} else {
			l := int(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			t[i] = slab.StrBytes(buf[off : off+l])
			off += l
		}
	}
	return t, end, nil
}
