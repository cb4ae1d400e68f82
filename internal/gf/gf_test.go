package gf

import (
	"testing"
	"testing/quick"
)

func TestIsPrime(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13, 97, 101, 7919}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	composites := []int{-7, 0, 1, 4, 9, 15, 91, 7917, 7921}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true", c)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {90, 97}, {7908, 7919},
	}
	for _, tc := range cases {
		if got := NextPrime(tc.in); got != tc.want {
			t.Errorf("NextPrime(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestDigitsRoundTrip(t *testing.T) {
	f := func(v uint16, qRaw uint8) bool {
		q := int(qRaw%29) + 2
		width := 1
		for p := q; p <= int(v); p *= q {
			width++
		}
		prefix := []int{-1}
		d := Digits(prefix, int(v), q, width)
		if len(d) != 1+width || d[0] != -1 {
			return false
		}
		back, mult := 0, 1
		for _, x := range d[1:] {
			if x < 0 || x >= q {
				return false
			}
			back += x * mult
			mult *= q
		}
		return back == int(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDigitsOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Digits(nil, 100, 10, 1) did not panic")
		}
	}()
	Digits(nil, 100, 10, 1)
}

func TestEvalMatchesNaive(t *testing.T) {
	f := func(c0, c1, c2 uint8, aRaw uint8) bool {
		q := 101
		coeffs := []int{int(c0) % q, int(c1) % q, int(c2) % q}
		a := int(aRaw) % q
		naive := (coeffs[0] + coeffs[1]*a + coeffs[2]*a*a) % q
		return Eval(coeffs, Powers(nil, q, q, 3)[3*a:], q) == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Two distinct degree-d polynomials over GF(q) agree on at most d points:
// the cover-free property Linial's reduction depends on.
func TestPolynomialAgreementBound(t *testing.T) {
	q := 13
	d := 2
	width := d + 1
	pows := Powers(nil, q, q, width)
	for x := 0; x < q*q*q; x += 7 {
		for y := x + 1; y < q*q*q; y += 97 {
			cx := Digits(nil, x, q, width)
			cy := Digits(nil, y, q, width)
			agree := 0
			for a := 0; a < q; a++ {
				if Eval(cx, pows[a*width:], q) == Eval(cy, pows[a*width:], q) {
					agree++
				}
			}
			if agree > d {
				t.Fatalf("colors %d and %d agree on %d > d=%d points", x, y, agree, d)
			}
		}
	}
}
