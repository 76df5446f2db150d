// Package numparse is the shared decimal number parser of the hot
// parsing paths (GeoJSON gaps, WKT coordinates, OSM XML attributes).
// It is the point-parser SLT of the paper (§4.4): structural parsing is
// separated from floating-point handling, and the float handling itself
// is the hand-optimised counterpart of the "compiled" pipelines in §4.3.
//
// The fast path accumulates an integer mantissa and applies a power of
// ten, which is exactly rounded whenever the mantissa fits in 2^53 and
// the scaling exponent is within ±22 (Clinger's safe range). Shortest
// round-trip coordinate output usually carries 16–17 significant digits,
// which misses Clinger's window, so the next tier is the Eisel–Lemire
// algorithm ("Number Parsing at a Gigabyte per Second", Lemire 2021):
// a 128-bit truncated multiply against a precomputed power-of-ten table
// that produces the correctly-rounded double or reports ambiguity.
// Only genuinely ambiguous or out-of-range inputs fall back to strconv.
package numparse

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// isDigits8 reports whether all 8 bytes of the little-endian word v are
// ASCII digits ('0'..'9').
func isDigits8(v uint64) bool {
	return v&0xF0F0F0F0F0F0F0F0 == 0x3030303030303030 &&
		(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0 == 0x3030303030303030
}

// parse8 converts 8 ASCII digits (first byte most significant) to their
// value using three multiplies — the SWAR reduction of fast_float /
// simdjson, which the digit loops use to consume coordinates in one or
// two steps instead of byte-at-a-time.
func parse8(v uint64) uint64 {
	const (
		mask = 0x000000FF000000FF
		mul1 = 0x000F424000000064 // 100 + (1000000 << 32)
		mul2 = 0x0000271000000001 // 1 + (10000 << 32)
	)
	v -= 0x3030303030303030
	v = v*10 + v>>8 // adjacent digit pairs
	return (v&mask*mul1 + (v>>16)&mask*mul2) >> 32
}

// pow10 holds the exactly-representable powers of ten.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// Prefix parses the longest decimal number at the start of b (sign,
// integral, fraction, exponent), returning the value, the number of
// bytes consumed, and whether at least one digit was found.
//
//atgis:hotpath
func Prefix(b []byte) (float64, int, bool) {
	i := 0
	neg := false
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg = b[i] == '-'
		i++
	}
	var mant uint64
	digits := 0
	sawDigits := 0
	exp := 0
	exact := true
	for digits <= 11 && i+8 <= len(b) {
		v := binary.LittleEndian.Uint64(b[i:])
		if !isDigits8(v) {
			break
		}
		mant = mant*100000000 + parse8(v)
		if mant != 0 {
			digits += 8 // may overcount leading zeros: pessimistic, safe
		}
		sawDigits += 8
		i += 8
	}
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		if digits < 19 {
			mant = mant*10 + uint64(b[i]-'0')
			if mant != 0 {
				digits++
			}
		} else {
			exp++
			exact = false
		}
		sawDigits++
		i++
	}
	if i < len(b) && b[i] == '.' {
		i++
		for digits <= 11 && i+8 <= len(b) {
			v := binary.LittleEndian.Uint64(b[i:])
			if !isDigits8(v) {
				break
			}
			mant = mant*100000000 + parse8(v)
			if mant != 0 {
				digits += 8
			}
			exp -= 8
			sawDigits += 8
			i += 8
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			if digits < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				if mant != 0 {
					digits++
				}
				exp--
			} else {
				exact = false
			}
			sawDigits++
			i++
		}
	}
	if sawDigits == 0 {
		return 0, 0, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		// Only consume the exponent if digits follow.
		j := i + 1
		eneg := false
		if j < len(b) && (b[j] == '-' || b[j] == '+') {
			eneg = b[j] == '-'
			j++
		}
		e := 0
		eDigits := 0
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			if e < 10000 {
				e = e*10 + int(b[j]-'0')
			}
			eDigits++
			j++
		}
		if eDigits > 0 {
			if eneg {
				exp -= e
			} else {
				exp += e
			}
			i = j
		}
	}
	// Clinger's fast path: float64(mant) is exact for mant < 2^53 and
	// multiplying/dividing by an exact power of ten rounds once.
	if exact && mant < 1<<53 && exp >= -22 && exp <= 22 {
		v := float64(mant)
		if exp < 0 {
			v /= pow10[-exp]
		} else {
			v *= pow10[exp]
		}
		if neg {
			v = -v
		}
		return v, i, true
	}
	if v, ok := eiselLemire(mant, exp, neg); ok {
		if exact {
			return v, i, true
		}
		// Truncated mantissa (>19 significant digits): the true value
		// lies in [mant, mant+1)·10^exp. If both endpoints round to the
		// same double, that double is correct.
		if hi, ok2 := eiselLemire(mant+1, exp, neg); ok2 && hi == v {
			return v, i, true
		}
	}
	v, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		// Range errors still carry the clamped value (±Inf on overflow,
		// 0/denormal on underflow); returning it preserves the token's
		// arity for callers pairing parsed values (coordinate pairs must
		// not silently lose an element). Only syntax errors reject.
		if numErr, ok := err.(*strconv.NumError); ok && numErr.Err == strconv.ErrRange {
			return v, i, true
		}
		return 0, 0, false
	}
	return v, i, true
}

// eiselLemire computes the correctly-rounded float64 nearest mant·10^exp10
// (negated when neg), or ok = false when the 128-bit approximation cannot
// certify the rounding (ambiguous half-way cases, exponents outside
// pow10tab, overflow, subnormals) and the caller must fall back.
//
//atgis:hotpath
func eiselLemire(mant uint64, exp10 int, neg bool) (float64, bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}

	// Normalize the mantissa and estimate the binary exponent:
	// 217706/2^16 approximates log2(10) tightly enough that
	// (217706*q)>>16 equals floor(q·log2(10)) over the table's range.
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	retExp2 := uint64((217706*exp10)>>16+64+1023) - uint64(clz)

	// 128-bit truncated product of the normalized mantissas.
	pow := &pow10tab[exp10-pow10Min]
	xHi, xLo := bits.Mul64(mant, pow[0])
	if xHi&0x1FF == 0x1FF && xLo+mant < xLo {
		// The truncated product's rounding bits are all ones and the
		// low half could carry into them: refine with the next 64 bits
		// of the power of ten.
		yHi, yLo := bits.Mul64(mant, pow[1])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+mant < yLo {
			return 0, false // still ambiguous at 192 bits
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// The product has 1 or 2 integer bits; shift down to 54 bits
	// (53-bit mantissa plus a rounding bit).
	msb := xHi >> 63
	retMant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// A product of exactly .…1000…0 sits half-way between doubles.
	if xLo == 0 && xHi&0x1FF == 0 && retMant&3 == 1 {
		return 0, false
	}

	// Round to nearest even and renormalize a mantissa overflow.
	retMant += retMant & 1
	retMant >>= 1
	if retMant>>53 > 0 {
		retMant >>= 1
		retExp2++
	}
	// Subnormal or overflowing exponents fall back (retExp2 is biased;
	// valid finite doubles need 1 ≤ retExp2 ≤ 2046).
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMant&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// Float parses b as a decimal number, ignoring anything after the
// numeric prefix (the prefix-tolerant form the gap parser needs).
func Float(b []byte) (float64, bool) {
	v, _, ok := Prefix(b)
	return v, ok
}

// IntExact parses b as a decimal integer consuming the entire input:
// trailing bytes and overflow are rejected, matching strconv.ParseInt
// semantics for attribute-style values.
func IntExact(b []byte) (int64, bool) {
	v, n, ok := intPrefix(b)
	return v, ok && n == len(b) && n > 0
}

// FloatExact parses b as a decimal number consuming the entire input,
// rejecting trailing garbage, overflow, and underflow-to-zero (the
// strict attribute-value form, matching strconv.ParseFloat's ErrRange
// rejections: a coordinate attribute must be a finite in-range number).
func FloatExact(b []byte) (float64, bool) {
	v, n, ok := Prefix(b)
	if !ok || n != len(b) || math.IsInf(v, 0) {
		return 0, false
	}
	if v == 0 && hasNonzeroMantissaDigit(b) {
		return 0, false // nonzero input underflowed to zero
	}
	return v, true
}

// hasNonzeroMantissaDigit reports whether the mantissa (digits before
// any exponent marker) contains a nonzero digit.
func hasNonzeroMantissaDigit(b []byte) bool {
	for _, c := range b {
		if c == 'e' || c == 'E' {
			return false
		}
		if c >= '1' && c <= '9' {
			return true
		}
	}
	return false
}

//atgis:hotpath
func intPrefix(b []byte) (int64, int, bool) {
	i := 0
	neg := false
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg = b[i] == '-'
		i++
	}
	start := i
	var v uint64
	limit := uint64(math.MaxInt64)
	if neg {
		limit++ // |MinInt64|
	}
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		d := uint64(b[i] - '0')
		if v > (limit-d)/10 {
			return 0, 0, false // overflow: reject rather than wrap
		}
		v = v*10 + d
		i++
	}
	if i == start {
		return 0, 0, false
	}
	if neg {
		return -int64(v), i, true
	}
	return int64(v), i, true
}

// Bracket reads the decimal number at the start of b only as far as its
// sign and integer digits and skips its fraction digits: it returns lo
// such that the value Prefix returns for the same bytes lies in
// [lo, lo+1], and the byte count Prefix consumes. For an integer part I
// of at most 15 digits lo is I, or -(I+1) after a '-': both ends are
// exact doubles and rounding is monotone, so the correctly rounded value
// cannot leave the interval. ok is false, and the caller must use
// Prefix, on what it cannot bracket that way: no integer digit (a
// leading '+' or '.'), more than 15 integer digits, or an exponent.
//
// A coordinate's digits usually fit in the 24 bytes after the sign: the
// fast path classifies those three words at once, so finding the end
// costs no chain of loads, each waiting for the last.
//
//atgis:hotpath
func Bracket(b []byte) (lo float64, n int, ok bool) {
	s := 0
	if len(b) > 0 && b[0] == '-' {
		s = 1
	}
	if s+24 > len(b) {
		return bracketShort(b, s)
	}
	a := binary.LittleEndian.Uint64(b[s:])
	na := nonDigits(a)
	nb := nonDigits(binary.LittleEndian.Uint64(b[s+8:]))
	nc := nonDigits(binary.LittleEndian.Uint64(b[s+16:]))
	k := bits.TrailingZeros64(na) >> 3 // integer digits in a
	if k == 0 || k == 8 {
		return bracketShort(b, s)
	}
	i := s + k
	if byte(a>>(8*k)) == '.' {
		// The fraction ends at the first non-digit after the point.
		switch frac := na &^ (uint64(1)<<(8*k+8) - 1); {
		case frac != 0:
			i = s + bits.TrailingZeros64(frac)>>3
		case nb != 0:
			i = s + 8 + bits.TrailingZeros64(nb)>>3
		case nc != 0:
			i = s + 16 + bits.TrailingZeros64(nc)>>3
		default:
			i = skipDigits(b, s+24)
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		return 0, 0, false
	}
	return bracketLo(leadDigits(a, k), s == 1), i, true
}

// bracketShort is Bracket byte by byte, from the first byte after the
// sign at s: for the tail of b and for integer parts of 8 digits or more.
func bracketShort(b []byte, s int) (lo float64, n int, ok bool) {
	i, end := s, min(len(b), s+16)
	var ip uint64
	for i < end && b[i]-'0' < 10 {
		ip = ip*10 + uint64(b[i]-'0')
		i++
	}
	if i == s || i-s > 15 {
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i = skipDigits(b, i+1)
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		return 0, 0, false
	}
	return bracketLo(ip, s == 1), i, true
}

// bracketLo is the low end of the interval of a number whose integer
// part is ip: ip, or -(ip+1) when neg.
func bracketLo(ip uint64, neg bool) float64 {
	l := int64(ip)
	if neg {
		l = -l - 1
	}
	return float64(l)
}

// skipDigits returns the offset of the first byte at or after i in b that
// is not an ASCII digit.
func skipDigits(b []byte, i int) int {
	for i+8 <= len(b) {
		if nd := nonDigits(binary.LittleEndian.Uint64(b[i:])); nd != 0 {
			return i + bits.TrailingZeros64(nd)>>3
		}
		i += 8
	}
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	return i
}

// nonDigits sets the top bit of each byte of the little-endian word v
// that is not an ASCII digit, and clears every other bit.
func nonDigits(v uint64) uint64 {
	const (
		hiNib = 0xF0F0F0F0F0F0F0F0
		loNib = 0x0F0F0F0F0F0F0F0F
		low7  = 0x7F7F7F7F7F7F7F7F
	)
	// A byte is not a digit when its high nibble is not 3 or its low
	// nibble is above 9 (adding 6 carries out of it); no sum here carries
	// from one byte into the next.
	nd := v&hiNib ^ 0x3030303030303030 | (v&loNib+0x0606060606060606)&hiNib
	// Set the top bit of every nonzero byte, and keep only those bits.
	return (nd&low7 + low7 | nd) &^ low7
}

// leadDigits returns the value of the first k (1 ≤ k ≤ 7) bytes of the
// little-endian word v, which are ASCII digits: they move to the top of
// the word behind zero digits, and parse8's reduction reads all eight.
func leadDigits(v uint64, k int) uint64 {
	const (
		mask = 0x000000FF000000FF
		mul1 = 0x000F424000000064 // 100 + (1000000 << 32)
		mul2 = 0x0000271000000001 // 1 + (10000 << 32)
	)
	// No byte below a digit borrows, so the first k bytes subtract exactly.
	d := (v - 0x3030303030303030) & (1<<(8*k) - 1) << (64 - 8*k)
	d = d*10 + d>>8
	return (d&mask*mul1 + (d>>16)&mask*mul2) >> 32
}
