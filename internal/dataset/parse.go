package dataset

import (
	"math"
	"math/bits"
	"strconv"
)

// maxDecimalDigits is the most digits a decimal may have for
// parseDecimal: every 19-digit integer, and 10^19, fit in a uint64.
const maxDecimalDigits = 19

// float64Pow10 and uint64Pow10 hold 10^k for k <= maxDecimalDigits;
// every one of them is exact in both types.
var (
	float64Pow10 [maxDecimalDigits + 1]float64
	uint64Pow10  [maxDecimalDigits + 1]uint64
)

func init() {
	p := uint64(1)
	for k := range uint64Pow10 {
		uint64Pow10[k], float64Pow10[k] = p, float64(p)
		p *= 10
	}
}

// parseFloat returns what strconv.ParseFloat(string(b), 64) returns, bit
// for bit, and whether it returned no error. Plain decimals take
// parseDecimal; every other field goes to strconv.
func parseFloat(b []byte) (float64, bool) {
	if v, ok := parseDecimal(b); ok {
		return v, true
	}
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil
}

// parseDecimal parses b when it has the form [+-]?digits[.digits] (the
// digits on either side of the point may be absent, not both) with at
// most maxDecimalDigits digits; otherwise it returns false. The result
// is m/10^k correctly rounded, m being the digits read as an integer
// and k the number after the point, so it equals strconv's.
func parseDecimal(b []byte) (float64, bool) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg, i = b[0] == '-', 1
	}
	var m uint64 // wraps only past maxDecimalDigits digits, rejected below
	start := i
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	digits, k := i-start, 0
	if i < len(b) && b[i] == '.' {
		i++
		start = i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		k = i - start
	}
	if digits += k; i < len(b) || digits == 0 || digits > maxDecimalDigits {
		return 0, false
	}
	var v float64
	if m <= 1<<53 {
		// Both operands are exact, so the quotient rounds once.
		v = float64(m) / float64Pow10[k]
	} else {
		v = divPow10(m, k)
	}
	if neg {
		v = -v
	}
	return v, true
}

// divPow10 returns m/10^k rounded to the nearest float64, ties to even,
// for 2^53 < m < 2^64 and k <= maxDecimalDigits. It divides m·2^s by
// 10^k for the s that leaves a 63- or 64-bit quotient, keeps its top 53
// bits, and rounds on the bits below them and the remainder.
func divPow10(m uint64, k int) float64 {
	p := uint64Pow10[k]
	// With m in [2^(lm-1), 2^lm) and p in [2^(lp-1), 2^lp), this s puts
	// m·2^s/p in (2^62, 2^64): the quotient fits Div64, and m·2^s < 2^127.
	s := 63 - bits.Len64(m) + bits.Len64(p)
	var hi, lo uint64
	if s < 64 {
		hi, lo = m>>(64-s), m<<s
	} else {
		hi = m << (s - 64)
	}
	q, r := bits.Div64(hi, lo, p)
	drop := bits.Len64(q) - 53
	mant, rest, half := q>>drop, q&(1<<drop-1), uint64(1)<<(drop-1)
	if rest > half || rest == half && (r != 0 || mant&1 == 1) {
		mant++
		if mant == 1<<53 {
			mant >>= 1
			drop++
		}
	}
	// The value is mant·2^(drop-s), with mant in [2^52, 2^53): a normal
	// float64 whose exponent is drop-s+52, since s <= 73.
	exp := uint64(drop - s + 52 + 1023)
	return math.Float64frombits(exp<<52 | mant&(1<<52-1))
}
