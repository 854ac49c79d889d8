package dataset

import (
	"encoding/binary"
	"math"
	"testing"
)

// byteOrderValues are the float64s a byte-order conversion must carry
// bit for bit: NaNs with payloads, signed zeros, infinities,
// subnormals and the extremes.
var byteOrderValues = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8dead0000beef), // negative NaN with a payload
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64, 1, -2.5e-300,
	math.Float64frombits(0x0102030405060708), // every byte distinct
}

// encodeInto writes want into the bytes of a fresh value slice in the
// given byte order and returns the slice.
func encodeInto(order binary.ByteOrder, want []float64) []float64 {
	vals := make([]float64, len(want))
	b := Bytes(vals)
	for i, v := range want {
		order.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return vals
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s: value %d = %#016x, want %#016x", what, i, g, w)
		}
	}
}

// TestFromLittleEndian decodes little-endian bytes written through
// Bytes on whatever host runs it.
func TestFromLittleEndian(t *testing.T) {
	if got := len(Bytes(make([]float64, 5))); got != 40 {
		t.Fatalf("Bytes of 5 values has %d bytes", got)
	}
	if got := len(Bytes(nil)); got != 0 {
		t.Fatalf("Bytes(nil) has %d bytes", got)
	}
	vals := encodeInto(binary.LittleEndian, byteOrderValues)
	FromLittleEndian(vals)
	sameBits(t, "FromLittleEndian", vals, byteOrderValues)
}

// TestReverseBytesDecodesForeignOrder checks the conversion a
// big-endian host runs, on any host: values encoded in the order
// opposite to the host's (binary.BigEndian on a little-endian host)
// come out exact after reverseBytes.
func TestReverseBytesDecodesForeignOrder(t *testing.T) {
	var foreign binary.ByteOrder = binary.BigEndian
	if !hostLittleEndian {
		foreign = binary.LittleEndian
	}
	vals := encodeInto(foreign, byteOrderValues)
	reverseBytes(vals)
	sameBits(t, "reverseBytes", vals, byteOrderValues)
	if got := binary.NativeEndian.Uint16([]byte{1, 0}) == 1; got != hostLittleEndian {
		t.Fatalf("hostLittleEndian = %v, binary.NativeEndian says %v", hostLittleEndian, got)
	}
}
