package interp

import (
	"math"
	"testing"
)

// evalConstDiv runs a compiled constant division on dividend x through
// the same kernels the dispatch loop calls.
func evalConstDiv(t testing.TB, in bcInstr, x int64) int64 {
	switch in.op {
	case bcDivPow2:
		return divPow2(x, in.size, in.aux, in.addr)
	case bcRemPow2:
		return remPow2(x, in.size)
	case bcDivMagic:
		return divByMagic(x, uint64(in.size), in.aux, in.addr)
	case bcRemMagic:
		return remByMagic(x, uint64(in.size), in.aux, in.addr)
	}
	t.Fatalf("constDivInstr compiled opcode %d", in.op)
	return 0
}

// checkConstDivRem compares the compiled x / d and x % d with Go's
// operators.
func checkConstDivRem(t testing.TB, x, d int64) {
	if got, want := evalConstDiv(t, constDivInstr(false, 0, 0, d), x), x/d; got != want {
		t.Errorf("%d / %d = %d, want %d", x, d, got, want)
	}
	if got, want := evalConstDiv(t, constDivInstr(true, 0, 0, d), x), x%d; got != want {
		t.Errorf("%d %% %d = %d, want %d", x, d, got, want)
	}
}

// TestConstDivRem holds constant division and remainder to Go's
// truncated semantics on the edges of the int64 range and around each
// divisor, for power-of-two, reciprocal and ±1 divisors alike.
func TestConstDivRem(t *testing.T) {
	divisors := []int64{1, -1, 2, -2, 1 << 62, math.MinInt64, 7, -7, 1000, 65537, 2147483647, math.MaxInt64}
	for _, d := range divisors {
		// ±d±1 wraps for d = MinInt64, which only adds edge values.
		dividends := []int64{math.MinInt64, math.MaxInt64, -1, 0,
			d + 1, d - 1, -d + 1, -d - 1, d, -d}
		for _, x := range dividends {
			checkConstDivRem(t, x, d)
		}
	}
	// The compiled form follows the divisor's shape.
	for _, tc := range []struct {
		d    int64
		want bcOp
	}{{1, bcDivPow2}, {-1, bcDivPow2}, {-2, bcDivPow2}, {math.MinInt64, bcDivPow2}, {7, bcDivMagic}, {math.MaxInt64, bcDivMagic}} {
		if got := constDivInstr(false, 0, 0, tc.d).op; got != tc.want {
			t.Errorf("divisor %d compiles to opcode %d, want %d", tc.d, got, tc.want)
		}
	}
}

// FuzzConstDivRem compares the compiled constant division and
// remainder with Go's operators on arbitrary pairs.
func FuzzConstDivRem(f *testing.F) {
	for _, seed := range [][2]int64{
		{math.MinInt64, -1}, {math.MinInt64, 3}, {math.MaxInt64, 7}, {-1, math.MinInt64},
		{-9, 4}, {12345, -1000}, {-2147483648, 2147483647}, {math.MinInt64, math.MaxInt64},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, x, d int64) {
		if d == 0 {
			return // compiles to the checked bcDiv/bcRem
		}
		checkConstDivRem(t, x, d)
	})
}
