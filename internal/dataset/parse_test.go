package dataset

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// matchStrconv reports whether parseFloat and strconv.ParseFloat agree
// on s: the same bits (so signed zeros and NaN payloads count) and the
// same verdict on whether s is a number.
func matchStrconv(s string) bool {
	v, ok := parseFloat([]byte(s))
	want, err := strconv.ParseFloat(s, 64)
	return math.Float64bits(v) == math.Float64bits(want) && ok == (err == nil)
}

// parseBoundaries are fields at the edges of parseDecimal's form and of
// its two rounding paths: signs and lone points, 2^53±1 mantissas and
// ties to even at every scale, 19- and 20-digit values, and the forms
// only strconv takes.
var parseBoundaries = []string{
	"", "-", "+", ".", "-.", "+.5", "5.", "-0", "+0", "-0.0", "0", "00", ".0",
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994",
	"9007199254740995", "-9007199254740993", "900719925474099.3", "0.9007199254740993",
	"9007199254740993.0", "90071992547409930", "18014398509481983", "18014398509481985",
	"4503599627370496.5", "4503599627370497.5", "2251799813685248.25", "2251799813685248.75",
	"9999999999999999999", "999999999999999999.9", ".9999999999999999999", "0000000000000000001",
	"1000000000000000000", "1.000000000000000000", "9223372036854775807", "9223372036854775808",
	"12345678901234567890", "99999999999999999999", "18446744073709551615", "18446744073709551616",
	"00000000000000000001", "1.0000000000000000000", "0.10000000000000000555",
	"1_0", "0x1p-2", "0X10", "Inf", "-Inf", "+inf", "infinity", "NaN", "nan",
	"1e5", "1E5", "1e", "1e+", "1.5e-3", "1e400", "-1e400", "1e-400",
	"1..2", "1.2.3", "+-1", "--1", " 1", "1 ", "1,", "1\r", "0.1", "23.456789012345678",
	"1.7976931348623157e308", "5e-324", "2.2250738585072014e-308",
}

// TestParseFloatMatchesStrconv holds parseFloat to strconv.ParseFloat,
// bit for bit and error for error, on formatted floats of every kind,
// random digit strings and parseBoundaries.
func TestParseFloatMatchesStrconv(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(1))
	var fails int
	check := func(s string) {
		if !matchStrconv(s) && fails < 20 {
			fails++
			v, ok := parseFloat([]byte(s))
			want, err := strconv.ParseFloat(s, 64)
			t.Errorf("%q: %v (%#x, ok %v), strconv %v (%#x, %v)", s, v, math.Float64bits(v), ok, want, math.Float64bits(want), err)
		}
	}
	for _, s := range parseBoundaries {
		check(s)
	}
	var buf []byte
	for i := 0; i < n; i++ {
		// Uniform [0,100) as the benchmark streams it, any bit pattern,
		// and magnitudes from 1e-25 to 1e25.
		for src, v := range []float64{
			100 * rng.Float64(),
			math.Float64frombits(rng.Uint64()),
			(rng.Float64() + 0.5) * math.Pow(10, float64(rng.Intn(51)-25)),
		} {
			if rng.Intn(2) == 0 {
				v = -v
			}
			for _, format := range []byte{'g', 'f', 'e'} {
				prec := rng.Intn(22) - 1
				if src == 1 && format == 'f' {
					// Hundreds of digits at a set precision take
					// strconv's slow printer; shortest form is quick.
					prec = -1
				}
				buf = strconv.AppendFloat(buf[:0], v, format, prec, 64)
				check(string(buf))
			}
		}
		// 1 to 22 digits with the point anywhere, or nowhere, and an
		// optional sign.
		buf = buf[:0]
		switch rng.Intn(3) {
		case 0:
			buf = append(buf, '-')
		case 1:
			buf = append(buf, '+')
		}
		digits := 1 + rng.Intn(22)
		point := rng.Intn(digits + 2)
		for j := 0; j < digits; j++ {
			if j == point {
				buf = append(buf, '.')
			}
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
		if point == digits {
			buf = append(buf, '.')
		}
		check(string(buf))
	}
}

// FuzzParseFloat holds parseFloat to strconv.ParseFloat on any string.
func FuzzParseFloat(f *testing.F) {
	for _, s := range parseBoundaries {
		f.Add(s)
	}
	f.Add(strings.Repeat("9", 19) + ".5")
	f.Fuzz(func(t *testing.T, s string) {
		if !matchStrconv(s) {
			v, ok := parseFloat([]byte(s))
			want, err := strconv.ParseFloat(s, 64)
			t.Fatalf("%q: %v (ok %v), strconv %v (%v)", s, v, ok, want, err)
		}
	})
}
