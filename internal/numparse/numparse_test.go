package numparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"
)

func TestPrefixExactAgainstStrconv(t *testing.T) {
	cases := []string{
		"0", "1", "-1", "3.25", "-0.5", "1e3", "1.5e2", "2E-2", "-1.25e+1",
		"123456.789", "179.99999999", "-89.123456789012345",
		"0.000001", "1e22", "1e-22", "9007199254740991", "9007199254740993",
		"1.7976931348623157e308", "5e-324", "+4.5",
	}
	for _, c := range cases {
		want, err := strconv.ParseFloat(c, 64)
		if err != nil {
			t.Fatalf("bad case %q: %v", c, err)
		}
		got, n, ok := Prefix([]byte(c))
		if !ok || n != len(c) {
			t.Fatalf("Prefix(%q) = (%v, %d, %v)", c, got, n, ok)
		}
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("Prefix(%q) = %v, want %v", c, got, want)
		}
	}
}

func TestPrefixRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		v := (rng.Float64() - 0.5) * 360
		s := strconv.FormatFloat(v, 'g', -1, 64)
		got, n, ok := Prefix([]byte(s))
		if !ok || n != len(s) || got != v {
			t.Fatalf("Prefix(%q) = (%v, %d, %v), want %v", s, got, n, ok, v)
		}
	}
}

// TestEiselLemireDifferential hammers the Eisel–Lemire tier against
// strconv across the regimes the spatial hot paths produce: shortest
// round-trip doubles (16–17 digits, past Clinger's window), fixed-point
// coordinates, large exponents, and >19-digit truncated mantissas.
func TestEiselLemireDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	check := func(s string) {
		t.Helper()
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			// Range errors carry strconv's clamped value (±Inf / 0),
			// which Prefix must preserve so callers keep token arity;
			// syntax errors must be rejected.
			if numErr, isNum := err.(*strconv.NumError); isNum && numErr.Err == strconv.ErrRange {
				got, n, ok := Prefix([]byte(s))
				if !ok || n != len(s) || got != want {
					t.Fatalf("Prefix(%q) = (%v, %d, %v), want clamped %v", s, got, n, ok, want)
				}
				return
			}
			if _, _, ok := Prefix([]byte(s)); ok {
				t.Fatalf("Prefix accepted %q, strconv rejects it: %v", s, err)
			}
			return
		}
		got, n, ok := Prefix([]byte(s))
		if !ok || n != len(s) || got != want {
			t.Fatalf("Prefix(%q) = (%v, %d, %v), want %v", s, got, n, ok, want)
		}
	}
	for i := 0; i < 200000; i++ {
		switch i % 4 {
		case 0: // shortest round-trip of a random bit pattern (finite)
			v := math.Float64frombits(rng.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			check(strconv.FormatFloat(v, 'g', -1, 64))
		case 1: // coordinate-shaped decimals
			check(strconv.FormatFloat((rng.Float64()-0.5)*360, 'g', -1, 64))
		case 2: // explicit exponent forms
			check(fmt.Sprintf("%de%d", rng.Uint64(), rng.Intn(600)-300))
		case 3: // >19 significant digits (truncated-mantissa path)
			check(fmt.Sprintf("%d%d.%d", rng.Uint64(), rng.Uint64(), rng.Uint64()))
		}
	}
	// Directed edges: half-way points, subnormals, overflow boundaries.
	for _, s := range []string{
		"9007199254740993", "9007199254740995", "4503599627370497",
		"1.7976931348623157e308", "1.7976931348623159e308", "2.2250738585072014e-308",
		"4.9406564584124654e-324", "2.4703282292062327e-324", "1e309", "1e-325",
		"0.000000000000000000000000000000000000000000000001",
		"-0", "0e999", "18446744073709551615", "18446744073709551616",
		"99999999999999999999999999999999999999",
	} {
		check(s)
	}
}

func TestPrefixStopsAtGarbage(t *testing.T) {
	got, n, ok := Prefix([]byte("12.5, 7"))
	if !ok || got != 12.5 || n != 4 {
		t.Fatalf("got (%v, %d, %v)", got, n, ok)
	}
	if _, _, ok := Prefix([]byte("abc")); ok {
		t.Error("garbage should fail")
	}
	if _, _, ok := Prefix([]byte("")); ok {
		t.Error("empty should fail")
	}
	if _, _, ok := Prefix([]byte("-")); ok {
		t.Error("bare sign should fail")
	}
	// An exponent marker with no digits is not consumed.
	got, n, ok = Prefix([]byte("2e"))
	if !ok || got != 2 || n != 1 {
		t.Fatalf("Prefix(2e) = (%v, %d, %v)", got, n, ok)
	}
}

func TestIntOverflowAndExact(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true}, {"42", 42, true}, {"-7", -7, true}, {"+5", 5, true},
		{"", 0, false}, {"x", 0, false}, {"-", 0, false},
	} {
		got, ok := IntExact([]byte(tc.in))
		if ok != tc.ok || got != tc.want {
			t.Errorf("IntExact(%q) = (%d, %v), want (%d, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := IntExact([]byte("99999999999999999999")); ok {
		t.Error("overflowing IntExact should be rejected, not wrapped")
	}
	if v, ok := IntExact([]byte("9223372036854775807")); !ok || v != 9223372036854775807 {
		t.Errorf("MaxInt64 = (%d, %v)", v, ok)
	}
	if v, ok := IntExact([]byte("-9223372036854775808")); !ok || v != -9223372036854775808 {
		t.Errorf("MinInt64 = (%d, %v)", v, ok)
	}
	if _, ok := IntExact([]byte("9223372036854775808")); ok {
		t.Error("MaxInt64+1 should overflow")
	}
	if v, ok := IntExact([]byte("42")); !ok || v != 42 {
		t.Errorf("IntExact(42) = (%d, %v)", v, ok)
	}
	for _, s := range []string{"12abc", "12 ", "", "-", "1.5"} {
		if _, ok := IntExact([]byte(s)); ok {
			t.Errorf("IntExact(%q) should reject trailing garbage", s)
		}
	}
	if v, ok := FloatExact([]byte("12.5")); !ok || v != 12.5 {
		t.Errorf("FloatExact(12.5) = (%v, %v)", v, ok)
	}
	for _, s := range []string{"12.5abc", "12.5 ", ""} {
		if _, ok := FloatExact([]byte(s)); ok {
			t.Errorf("FloatExact(%q) should reject trailing garbage", s)
		}
	}
}

func BenchmarkPrefix(b *testing.B) {
	var bufs [][]byte
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		bufs = append(bufs, []byte(fmt.Sprintf("%.9f", (rng.Float64()-0.5)*360)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := Prefix(bufs[i%64]); !ok {
			b.Fatal("parse failed")
		}
	}
}

func TestFloatExactRange(t *testing.T) {
	for _, s := range []string{"1e400", "-1e400", "1e-400", "0.0000000001e-350"} {
		if v, ok := FloatExact([]byte(s)); ok {
			t.Errorf("FloatExact(%q) = (%v, true), want range rejection", s, v)
		}
	}
	for _, s := range []string{"0", "-0.0", "0e999", "5e-324", "1.5"} {
		if _, ok := FloatExact([]byte(s)); !ok {
			t.Errorf("FloatExact(%q) rejected, want accept", s)
		}
	}
}

// checkBracket holds Bracket to its contract on b: where it answers, Prefix
// accepts the same bytes and its value lies in [lo, lo+1].
func checkBracket(t *testing.T, b []byte) (ok bool) {
	t.Helper()
	lo, n, ok := Bracket(b)
	if !ok {
		return false
	}
	v, pn, pok := Prefix(b)
	if !pok || pn != n || !(lo <= v && v <= lo+1) {
		t.Fatalf("Bracket(%q) = [%v, %v] n=%d; Prefix = %v n=%d ok=%v", b, lo, lo+1, n, v, pn, pok)
	}
	return true
}

func TestBracket(t *testing.T) {
	for _, tc := range []struct {
		in     string
		lo, hi float64
		n      int
	}{
		{"0", 0, 1, 1}, {"-0", -1, 0, 2}, {"12.5,7", 12, 13, 4}, {"-179.99999999999997]", -180, -179, 19},
		{"1.", 1, 2, 2}, {"007.25 ", 7, 8, 6}, {"999999999999999.9", 999999999999999, 1e15, 17},
		{"59.44483515847949", 59, 60, 17}, {"3.1234567890123456789x", 3, 4, 21},
		{"-10.58858817821337], [59.36401375194371", -11, -10, 18}, {"1234567.5, 0.25, 0.125, 0.5", 1234567, 1234568, 9},
		{"12345678.5, 0.25, 0.125, 0.5", 12345678, 12345679, 10}, {"7, 0.25, 0.125, 0.5, 0.75]", 7, 8, 1},
		{"7.000000000000000000000000001]", 7, 8, 29}, {"-0.5, 1.5, 2.5, 3.5, 4.5, 5.5", -1, 0, 4},
	} {
		lo, n, ok := Bracket([]byte(tc.in))
		if !ok || lo != tc.lo || lo+1 != tc.hi || n != tc.n {
			t.Errorf("Bracket(%q) = (%v, %d, %v), want (%v, %d, true) with %v above", tc.in, lo, n, ok, tc.lo, tc.n, tc.hi)
		}
		checkBracket(t, []byte(tc.in))
	}
	// What it cannot bracket, the caller parses exactly.
	for _, s := range []string{"", "-", "+1", ".5", "-.5", "1e2", "1.5E-3", "2e", "1234567890123456", "x", "-x",
		"1.5e3, 0.25, 0.125, 0.5, 0.75", "+1.5, 0.25, 0.125, 0.5", ".5, 0.25, 0.125, 0.5, 0.75", "1234567890123456.5, 0.25, 0.125"} {
		if _, _, ok := Bracket([]byte(s)); ok {
			t.Errorf("Bracket(%q) answered, want a give-up", s)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		s := strconv.FormatFloat((rng.Float64()-0.5)*360, 'f', rng.Intn(20)-1, 64)
		if !checkBracket(t, []byte(s+",")) || !checkBracket(t, []byte(s+"], [1.5, -2.25]]]")) {
			t.Fatalf("Bracket(%q) gave up on a plain coordinate", s)
		}
	}
}

func TestNonDigits(t *testing.T) {
	for _, s := range []string{"12345678", "1234567x", "x2345678", "0000.000", "9/:09999", "\x00\xff01234"} {
		want := 0
		for want < 8 && s[want] >= '0' && s[want] <= '9' {
			want++
		}
		var w [8]byte
		copy(w[:], s)
		if got := bits.TrailingZeros64(nonDigits(binary.LittleEndian.Uint64(w[:]))) >> 3; got != want {
			t.Errorf("nonDigits(%q) finds %d leading digits, want %d", s, got, want)
		}
	}
}

// FuzzBracket is differential: on any bytes where Bracket answers, Prefix
// must accept the same byte count and return a value inside the bracket.
func FuzzBracket(f *testing.F) {
	for _, s := range []string{"12.5,7", "-0.000", "179.99999999999997", "1e5", "+1", ".5", "0001234.5678901234567890", "1234567890.12345678]"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkBracket(t, b)
	})
}

func BenchmarkBracket(b *testing.B) {
	var bufs [][]byte
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		bufs = append(bufs, []byte(strconv.FormatFloat((rng.Float64()-0.5)*360, 'g', -1, 64)+", "))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := Bracket(bufs[i%64]); !ok {
			b.Fatal("bracket failed")
		}
	}
}

// numericPrefix is the length of the longest decimal number at the start
// of b, by the grammar Prefix documents and shares no code with:
// [+-]? digits* ('.' digits*)? with a digit before or after the point,
// then [eE][+-]?digits+ only when a digit follows the marker. 0: none.
func numericPrefix(b []byte) int {
	digit := func(i int) bool { return i < len(b) && b[i] >= '0' && b[i] <= '9' }
	i := 0
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		i++
	}
	start, digits := i, 0
	for digit(i) {
		i++
	}
	digits += i - start
	if i < len(b) && b[i] == '.' {
		i++
		start = i
		for digit(i) {
			i++
		}
		digits += i - start
	}
	if digits == 0 {
		return 0
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if digit(j) {
			for digit(j) {
				j++
			}
			i = j
		}
	}
	return i
}

// FuzzPrefix holds Prefix, which every format's exact path rests on, to
// strconv: on any bytes it consumes the longest numeric prefix, or
// refuses when there is none, and its value is strconv.ParseFloat's of
// that prefix bit for bit — on a range error too, where both clamp (±Inf
// on overflow, a zero or subnormal on underflow).
func FuzzPrefix(f *testing.F) {
	for _, s := range []string{"12.5,7", "-0", "+.5", "1.", ".", "-", "1e", "1e+", "2E-2x", "9007199254740993",
		"-89.123456789012345", "1e999", "-1e-999", "5e-324", "0.000000000000000000000000000001234", "00000000000000000000001.5",
		"99999999999999999999999999999999999999", "1.7976931348623157e308", "4.9406564584124654e-324", "1e99999999999"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, ok := Prefix(b)
		want := numericPrefix(b)
		if !ok {
			if want != 0 {
				t.Fatalf("Prefix(%q) refused; the numeric prefix is %q", b, b[:want])
			}
			return
		}
		if n != want {
			t.Fatalf("Prefix(%q) consumed %d bytes, the numeric prefix is %d", b, n, want)
		}
		ref, err := strconv.ParseFloat(string(b[:n]), 64)
		if numErr, isNum := err.(*strconv.NumError); err != nil && !(isNum && numErr.Err == strconv.ErrRange) {
			t.Fatalf("strconv.ParseFloat(%q): %v", b[:n], err)
		}
		if math.Float64bits(v) != math.Float64bits(ref) {
			t.Fatalf("Prefix(%q) = %v (%#x), strconv = %v (%#x)", b[:n], v, math.Float64bits(v), ref, math.Float64bits(ref))
		}
	})
}
