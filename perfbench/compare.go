package main

import (
	"fmt"
	"math"

	"oclgemm/internal/matrix"
)

// mismatch describes the first element where an output differs from its
// reference.
type mismatch struct {
	Index     int
	Got, Want float64
}

func (m *mismatch) Error() string {
	return fmt.Sprintf("element %d: got %v (bits %#x), want %v (bits %#x)",
		m.Index, m.Got, math.Float64bits(m.Got), m.Want, math.Float64bits(m.Want))
}

// compareExact checks float64 outputs bit for bit: NaN against a number,
// -0 against +0 and Inf of the wrong sign are all mismatches.
func compareExact(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return &mismatch{i, got[i], want[i]}
		}
	}
	return nil
}

// compareTol checks float32 outputs against a float64-accumulated
// reference: finite values may differ by tol relative to max(|want|, 1),
// while NaN must meet NaN and an infinity must meet an infinity of the
// same sign.
func compareTol(got, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := float64(got[i]), float64(want[i])
		gNaN, wNaN := math.IsNaN(g), math.IsNaN(w)
		gInf, wInf := math.IsInf(g, 0), math.IsInf(w, 0)
		var ok bool
		switch {
		case gNaN || wNaN:
			ok = gNaN && wNaN
		case gInf || wInf:
			ok = g == w
		default:
			ok = math.Abs(g-w) <= tol*math.Max(math.Abs(w), 1)
		}
		if !ok {
			return &mismatch{i, g, w}
		}
	}
	return nil
}

// compareSlices dispatches on the element type: exact for float64,
// within tol for float32.
func compareSlices[T matrix.Scalar](got, want []T, tol float64) error {
	switch g := any(got).(type) {
	case []float64:
		return compareExact(g, any(want).([]float64))
	case []float32:
		return compareTol(g, any(want).([]float32), tol)
	}
	return fmt.Errorf("unsupported element type %T", got)
}
