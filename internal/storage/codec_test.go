package storage

import (
	"testing"
	"testing/quick"

	"dbs3/internal/relation"
)

// decodeTuple decodes one tuple into a slab of its own.
func decodeTuple(buf []byte) (relation.Tuple, int, error) {
	var slab relation.Slab
	return DecodeTupleInto(&slab, buf)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []relation.Tuple{
		{},
		relation.NewTuple(relation.Int(0)),
		relation.NewTuple(relation.Int(-1), relation.Int(1<<62)),
		relation.NewTuple(relation.Str("")),
		relation.NewTuple(relation.Str("hello"), relation.Int(42), relation.Str("world")),
	}
	for _, in := range cases {
		buf := EncodeTuple(nil, in)
		if len(buf) != EncodedSize(in) {
			t.Errorf("EncodedSize(%v) = %d, encoded %d bytes", in, EncodedSize(in), len(buf))
		}
		out, n, err := decodeTuple(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		if n != len(buf) {
			t.Errorf("decode consumed %d of %d bytes", n, len(buf))
		}
		if !in.Equal(out) {
			t.Errorf("round trip: %v -> %v", in, out)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	// Truncated header.
	if _, _, err := decodeTuple([]byte{1}); err == nil {
		t.Error("truncated header accepted")
	}
	// Claims one column, no payload.
	if _, _, err := decodeTuple([]byte{1, 0}); err == nil {
		t.Error("missing column accepted")
	}
	// Unknown tag.
	if _, _, err := decodeTuple([]byte{1, 0, 99}); err == nil {
		t.Error("unknown tag accepted")
	}
	// Truncated int payload.
	if _, _, err := decodeTuple([]byte{1, 0, tagInt, 1, 2}); err == nil {
		t.Error("truncated int accepted")
	}
	// Truncated string length.
	if _, _, err := decodeTuple([]byte{1, 0, tagString, 5}); err == nil {
		t.Error("truncated string length accepted")
	}
	// String length exceeding buffer.
	buf := EncodeTuple(nil, relation.NewTuple(relation.Str("abcdef")))
	if _, _, err := decodeTuple(buf[:len(buf)-2]); err == nil {
		t.Error("truncated string body accepted")
	}
}

// Property: any int/string tuple round-trips through the codec.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(a int64, s string, b int64) bool {
		in := relation.NewTuple(relation.Int(a), relation.Str(s), relation.Int(b))
		out, n, err := decodeTuple(EncodeTuple(nil, in))
		return err == nil && n == EncodedSize(in) && in.Equal(out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: encoding appends to dst without disturbing existing bytes.
func TestEncodeAppendsProperty(t *testing.T) {
	f := func(prefix []byte, a int64) bool {
		in := relation.NewTuple(relation.Int(a))
		out := EncodeTuple(append([]byte(nil), prefix...), in)
		if len(out) != len(prefix)+EncodedSize(in) {
			return false
		}
		for i := range prefix {
			if out[i] != prefix[i] {
				return false
			}
		}
		dec, _, err := decodeTuple(out[len(prefix):])
		return err == nil && dec.Equal(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
