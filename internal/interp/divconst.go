// Division and remainder by a nonzero constant divisor, decided at
// compile time. A power-of-two magnitude divides with a shift (or
// remainders with a mask) after the sign fix-up that turns an
// arithmetic shift's floor into Go's truncation; any other magnitude
// divides by a multiply-high reciprocal (Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994;
// Hacker's Delight, ch. 10). Both reproduce Go's `/` and `%` on every
// int64 pair, including x / -1 (which wraps at MinInt64) and
// x % -1 == 0; a zero divisor never reaches this file, because it
// compiles to the checked bcDiv/bcRem and keeps their fault.
package interp

import "math/bits"

// constDivInstr compiles dst = frame[a] / d (rem false) or
// dst = frame[a] % d (rem true) for a constant d != 0. The operand
// fields carry the precomputed divisor data:
//
//	bcDivPow2:  size = |d|-1 (mask), aux = log2|d|, addr = sign of d (0 or -1)
//	bcRemPow2:  size = |d|-1 (mask)
//	bcDivMagic: size = reciprocal of |d|, aux = post-shift, addr = sign of d
//	bcRemMagic: size = reciprocal of |d|, aux = post-shift, addr = |d|
func constDivInstr(rem bool, dst, a int32, d int64) bcInstr {
	ad := uint64(d)
	if d < 0 {
		ad = -ad // |MinInt64| = 2^63 fits in uint64
	}
	sgn := d >> 63
	if ad&(ad-1) == 0 {
		mask := int64(ad - 1)
		if rem {
			return bcInstr{op: bcRemPow2, dst: dst, a: a, size: mask}
		}
		return bcInstr{op: bcDivPow2, dst: dst, a: a, size: mask,
			aux: int32(bits.TrailingZeros64(ad)), addr: sgn}
	}
	m, s := divMagic(ad)
	if rem {
		return bcInstr{op: bcRemMagic, dst: dst, a: a, size: int64(m), aux: int32(s), addr: int64(ad)}
	}
	return bcInstr{op: bcDivMagic, dst: dst, a: a, size: int64(m), aux: int32(s), addr: sgn}
}

// divMagic returns the reciprocal m and post-shift s for signed
// division by ad, for 3 <= ad < 2^63 not a power of two (Hacker's
// Delight, Figure 10-1, widened to 64 bits): for every int64 x,
// trunc(x / ad) = floor(m*x / 2^(64+s)) + [x < 0], where m is read as
// an unsigned value (it may exceed MaxInt64).
func divMagic(ad uint64) (m uint64, s uint) {
	const two63 = uint64(1) << 63
	anc := two63 - 1 - two63%ad // |nc|, the largest dividend ≡ -1 mod ad
	p := uint(63)
	q1, r1 := two63/anc, two63%anc
	q2, r2 := two63/ad, two63%ad
	for {
		p++
		q1, r1 = 2*q1, 2*r1
		if r1 >= anc {
			q1++
			r1 -= anc
		}
		q2, r2 = 2*q2, 2*r2
		if r2 >= ad {
			q2++
			r2 -= ad
		}
		delta := ad - r2
		if q1 > delta || (q1 == delta && r1 != 0) {
			break
		}
	}
	return q2 + 1, p - 64
}

// divPow2 returns x / d for |d| = mask+1 = 2^k and sgn = d>>63: the
// arithmetic shift floors, so a negative x is first biased by mask to
// round toward zero, and a negative d negates the quotient (which
// wraps x / -1 at MinInt64, as Go does).
func divPow2(x, mask int64, k int32, sgn int64) int64 {
	q := (x + (x>>63)&mask) >> (uint(k) & 63)
	return (q ^ sgn) - sgn
}

// remPow2 returns x % d for |d| = mask+1 a power of two; the result
// takes x's sign, as Go's truncated remainder does, and is 0 for d = ±1.
func remPow2(x, mask int64) int64 {
	bias := (x >> 63) & mask
	return ((x + bias) & mask) - bias
}

// truncMagic returns trunc(x / ad) for the reciprocal m and post-shift
// s of ad (divMagic). The high word of the unsigned product, less m
// when x is negative, is the high word of m*x with m unsigned and x
// signed; the arithmetic shift floors, and adding 1 for a negative x
// truncates instead.
func truncMagic(x int64, m uint64, s int32) int64 {
	hi, _ := bits.Mul64(m, uint64(x))
	hi -= m & uint64(x>>63)
	return int64(hi)>>(uint(s)&63) - x>>63
}

// divByMagic returns x / d for the reciprocal m and post-shift s of
// |d| and sgn = d>>63.
func divByMagic(x int64, m uint64, s int32, sgn int64) int64 {
	q := truncMagic(x, m, s)
	return (q ^ sgn) - sgn
}

// remByMagic returns x % d for the reciprocal m and post-shift s of
// ad = |d|: Go's remainder has x's sign, so x % d = x % |d|.
func remByMagic(x int64, m uint64, s int32, ad int64) int64 {
	return x - truncMagic(x, m, s)*ad
}
