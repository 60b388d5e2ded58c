package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Vector helpers operate on plain []float64 slices. They are free functions
// rather than methods on a named type so that the rest of the codebase can
// pass ordinary slices around without conversions.

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AxpyTo computes dst = a*x + y element-wise. All slices must share length;
// dst may alias x or y.
func AxpyTo(dst []float64, a float64, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("mat: axpy length mismatch")
	}
	for i := range dst {
		dst[i] = a*x[i] + y[i]
	}
}

// AddTo computes dst = a + b element-wise; dst may alias a or b.
func AddTo(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("mat: add length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// SubTo computes dst = a - b element-wise; dst may alias a or b.
func SubTo(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("mat: sub length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// ScaleTo computes dst = s*a element-wise; dst may alias a.
func ScaleTo(dst []float64, s float64, a []float64) {
	if len(dst) != len(a) {
		panic("mat: scale length mismatch")
	}
	for i := range dst {
		dst[i] = s * a[i]
	}
}

// HadamardTo computes dst = a ⊙ b element-wise; dst may alias a or b.
func HadamardTo(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("mat: hadamard length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dist length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the entries of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Stddev returns the population standard deviation of v, or 0 when
// len(v) < 2.
func Stddev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

// Min returns the smallest entry of v and its index; it panics on an empty
// slice.
func Min(v []float64) (float64, int) {
	if len(v) == 0 {
		panic("mat: Min of empty slice")
	}
	best, idx := v[0], 0
	for i, x := range v[1:] {
		if x < best {
			best, idx = x, i+1
		}
	}
	return best, idx
}

// Max returns the largest entry of v and its index; it panics on an empty
// slice.
func Max(v []float64) (float64, int) {
	if len(v) == 0 {
		panic("mat: Max of empty slice")
	}
	best, idx := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, idx = x, i+1
		}
	}
	return best, idx
}

// Clip returns v clamped into [lo, hi].
func Clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClipSlice clamps every entry of v into [lo, hi] in place.
func ClipSlice(v []float64, lo, hi float64) {
	for i, x := range v {
		v[i] = Clip(x, lo, hi)
	}
}

// CloneSlice returns a copy of v.
func CloneSlice(v []float64) []float64 {
	c := make([]float64, len(v))
	copy(c, v)
	return c
}

// RandVec returns a length-n vector with entries drawn from U(lo, hi).
func RandVec(rng *rand.Rand, n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + rng.Float64()*(hi-lo)
	}
	return v
}

// RandNormalVec returns a length-n vector with entries drawn from
// N(mean, sigma²).
func RandNormalVec(rng *rand.Rand, n int, mean, sigma float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = mean + sigma*rng.NormFloat64()
	}
	return v
}

// Finite reports whether x is a finite number: neither NaN nor ±Inf.
func Finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// AllFinite reports whether every entry of v is a finite number.
func AllFinite(v []float64) bool {
	for _, x := range v {
		if !Finite(x) {
			return false
		}
	}
	return true
}
