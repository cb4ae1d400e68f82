// Package gf provides the small finite-field toolkit behind Linial's
// cover-free-family color reduction: primality testing, next-prime search,
// base-q digit decomposition of color values, and polynomial evaluation over
// GF(q) for prime q.
//
// Linial's construction identifies a color c < q^(d+1) with the polynomial
// whose coefficients are the base-q digits of c; two distinct colors map to
// polynomials that agree on at most d points of GF(q), which is the
// cover-free property the reduction step needs.
package gf

import "strconv"

// IsPrime reports whether x is prime. Trial division: every q used by the
// reduction is O(Δ·log n), far below any range where this matters.
func IsPrime(x int) bool {
	if x < 2 {
		return false
	}
	if x%2 == 0 {
		return x == 2
	}
	for f := 3; f*f <= x; f += 2 {
		if x%f == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime ≥ x (and 2 for x ≤ 2).
func NextPrime(x int) int {
	if x <= 2 {
		return 2
	}
	if x%2 == 0 {
		x++
	}
	for !IsPrime(x) {
		x += 2
	}
	return x
}

// Digits appends the exactly width base-q digits of value to dst, least
// significant first, and returns the extended slice. It panics if value is
// negative or does not fit, which is always a parameter bug in the caller.
// The panic messages are built with strconv rather than fmt: Linial's
// per-round step calls Digits and is held to the hotpath analyzer.
func Digits(dst []int, value, q, width int) []int {
	if value < 0 {
		panic("gf: negative value " + strconv.Itoa(value))
	}
	for i := 0; i < width; i++ {
		dst = append(dst, value%q)
		value /= q
	}
	if value != 0 {
		panic("gf: value does not fit in " + strconv.Itoa(width) + " base-" + strconv.Itoa(q) + " digits")
	}
	return dst
}

// Eval evaluates the polynomial with the given coefficients (least
// significant first) at point a over GF(q): Σ coeffs[i]·a^i mod q.
// Coefficients and the point must already be reduced mod q.
func Eval(coeffs []int, a, q int) int {
	// Horner's rule, highest coefficient first.
	acc := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*a + coeffs[i]) % q
	}
	return acc
}
