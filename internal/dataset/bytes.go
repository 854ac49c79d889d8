package dataset

import (
	"math/bits"
	"unsafe"
)

// Record files (.pmaf data sections) and framed assign requests store
// row-major float64 values little-endian. Bytes and FromLittleEndian
// let their readers decode in place: read straight into Bytes(vals),
// then convert vals, with no staging buffer and no per-value copy on a
// little-endian host.

// hostLittleEndian reports whether this host stores the least
// significant byte of a word first.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Bytes returns the memory of vals as its 8·len(vals) bytes. Writes
// through the view change vals; the view is valid as long as vals is.
func Bytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// FromLittleEndian converts vals in place from values whose bytes were
// filled, through Bytes, with a little-endian encoding. On a
// little-endian host it does nothing; elsewhere it reverses the bytes
// of every value. The conversion moves bits only, so NaN payloads,
// signed zeros and subnormals survive it.
func FromLittleEndian(vals []float64) {
	if !hostLittleEndian {
		reverseBytes(vals)
	}
}

// reverseBytes reverses the byte order of every value of vals as a
// 64-bit word, never loading one as a float.
func reverseBytes(vals []float64) {
	words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals))
	for i, w := range words {
		words[i] = bits.ReverseBytes64(w)
	}
}
