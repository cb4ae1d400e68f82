// Package gf provides the small finite-field toolkit behind Linial's
// cover-free-family color reduction: primality testing, next-prime search,
// base-q digit decomposition of color values, and polynomial evaluation over
// GF(q) for prime q from a table of powers.
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

// Powers appends the table of a^i mod q for the points a < points and
// the exponents i < width, one row of width entries per point (a's row
// starts at a·width), and returns the extended slice. A row is what Eval
// takes: built once, it turns every later evaluation at a into one
// reduction mod q.
func Powers(dst []int, q, points, width int) []int {
	for a := 0; a < points; a++ {
		p := 1 % q
		for i := 0; i < width; i++ {
			dst = append(dst, p)
			p = p * a % q
		}
	}
	return dst
}

// Eval evaluates the polynomial with the given coefficients (least
// significant first) over GF(q) at the point a whose powers row is pows
// (pows[i] = a^i mod q, from Powers): Σ coeffs[i]·pows[i] mod q, reduced
// once. Coefficients must already be reduced mod q, and len(coeffs)·(q−1)²
// must fit in an int, which holds whenever the coefficients fit 63 bits
// together.
func Eval(coeffs, pows []int, q int) int {
	acc := 0
	for i, c := range coeffs {
		acc += c * pows[i]
	}
	return acc % q
}
