// Package matrix provides the dense-matrix substrate used throughout the
// GEMM auto-tuning system: row/column-major matrices in single and double
// precision, the block-major data layouts from the paper (CBL and RBL),
// and the copy / transpose / re-layout / zero-padding transforms the full
// GEMM routines perform before kernel execution.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Scalar is the element-type constraint for all matrix containers.
type Scalar interface {
	~float32 | ~float64
}

// Precision identifies the floating-point width of a GEMM problem.
type Precision int

const (
	// Single is 32-bit IEEE-754 (SGEMM).
	Single Precision = iota
	// Double is 64-bit IEEE-754 (DGEMM).
	Double
)

// Size returns the element size in bytes.
func (p Precision) Size() int {
	if p == Double {
		return 8
	}
	return 4
}

// String returns "single" or "double".
func (p Precision) String() string {
	if p == Double {
		return "double"
	}
	return "single"
}

// GEMMName returns the BLAS routine name for the precision.
func (p Precision) GEMMName() string {
	if p == Double {
		return "DGEMM"
	}
	return "SGEMM"
}

// Order enumerates storage orders for plain (non-blocked) matrices.
type Order int

const (
	// RowMajor stores rows contiguously.
	RowMajor Order = iota
	// ColMajor stores columns contiguously (Fortran/BLAS convention).
	ColMajor
)

// String returns a short order name.
func (o Order) String() string {
	if o == ColMajor {
		return "col-major"
	}
	return "row-major"
}

// Matrix is a dense rows×cols matrix of T with an explicit leading
// dimension. For RowMajor order, Stride is the distance between rows and
// must satisfy Stride >= Cols; for ColMajor it is the distance between
// columns and must satisfy Stride >= Rows.
type Matrix[T Scalar] struct {
	Rows, Cols int
	Stride     int
	Order      Order
	Data       []T
}

// New allocates a zeroed rows×cols matrix in the given order with the
// minimal stride.
func New[T Scalar](rows, cols int, order Order) *Matrix[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	stride := cols
	if order == ColMajor {
		stride = rows
	}
	return &Matrix[T]{
		Rows:   rows,
		Cols:   cols,
		Stride: stride,
		Order:  order,
		Data:   make([]T, rows*cols),
	}
}

// FromSlice wraps data as a rows×cols matrix with minimal stride. The
// slice is used directly (not copied) and must have length rows*cols.
func FromSlice[T Scalar](rows, cols int, order Order, data []T) *Matrix[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	stride := cols
	if order == ColMajor {
		stride = rows
	}
	return &Matrix[T]{Rows: rows, Cols: cols, Stride: stride, Order: order, Data: data}
}

// Index returns the flat offset of element (r, c).
func (m *Matrix[T]) Index(r, c int) int {
	if m.Order == RowMajor {
		return r*m.Stride + c
	}
	return c*m.Stride + r
}

// At returns element (r, c).
func (m *Matrix[T]) At(r, c int) T { return m.Data[m.Index(r, c)] }

// Set assigns element (r, c).
func (m *Matrix[T]) Set(r, c int, v T) { m.Data[m.Index(r, c)] = v }

// View returns a rows×cols submatrix starting at (r, c) that shares
// storage with m (writes through). The view keeps m's order and stride.
func (m *Matrix[T]) View(r, c, rows, cols int) *Matrix[T] {
	if r < 0 || c < 0 || rows < 0 || cols < 0 || r+rows > m.Rows || c+cols > m.Cols {
		panic(fmt.Sprintf("matrix: view (%d,%d)+%dx%d exceeds %dx%d", r, c, rows, cols, m.Rows, m.Cols))
	}
	if rows == 0 || cols == 0 {
		return &Matrix[T]{Rows: rows, Cols: cols, Stride: m.Stride, Order: m.Order}
	}
	return &Matrix[T]{
		Rows:   rows,
		Cols:   cols,
		Stride: m.Stride,
		Order:  m.Order,
		Data:   m.Data[m.Index(r, c):],
	}
}

// Clone returns a deep copy of m.
func (m *Matrix[T]) Clone() *Matrix[T] {
	out := &Matrix[T]{Rows: m.Rows, Cols: m.Cols, Stride: m.Stride, Order: m.Order}
	out.Data = make([]T, len(m.Data))
	copy(out.Data, m.Data)
	return out
}

// Fill sets every element to v.
func (m *Matrix[T]) Fill(v T) {
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			m.Set(r, c, v)
		}
	}
}

// FillRandom fills the matrix with uniform values in [-1, 1) from rng.
func (m *Matrix[T]) FillRandom(rng *rand.Rand) {
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			m.Set(r, c, T(2*rng.Float64()-1))
		}
	}
}

// FillSequential fills element (r, c) with a small deterministic value
// derived from its coordinates; useful for layout round-trip tests where
// every element must be distinguishable.
func (m *Matrix[T]) FillSequential() {
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			m.Set(r, c, T(r*m.Cols+c+1))
		}
	}
}

// Transpose returns a newly allocated transpose of m in the same order.
func (m *Matrix[T]) Transpose() *Matrix[T] {
	out := New[T](m.Cols, m.Rows, m.Order)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Set(c, r, m.At(r, c))
		}
	}
	return out
}

// EqualApprox reports whether a and b have identical shape and all
// elements within tol relative tolerance (absolute for tiny magnitudes).
func EqualApprox[T Scalar](a, b *Matrix[T], tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return MaxRelDiff(a, b) <= tol
}

// MaxRelDiff returns the maximum elementwise relative difference between
// a and b, where the denominator is max(1, |a|, |b|). Equal elements
// and NaN/NaN pairs count as 0; any other pair involving a NaN or an
// infinity (NaN against a number, Inf against a finite value or the
// opposite Inf) makes the result +Inf, so no tolerance can pass it.
// Panics on shape mismatch.
func MaxRelDiff[T Scalar](a, b *Matrix[T]) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var worst float64
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			x := float64(a.At(r, c))
			y := float64(b.At(r, c))
			if x == y || math.IsNaN(x) && math.IsNaN(y) {
				continue
			}
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				return math.Inf(1)
			}
			den := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
			if d := math.Abs(x-y) / den; d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Tolerance returns a sensible verification tolerance for an accumulation
// of depth k in the given precision: eps * sqrt(k) * safety.
func Tolerance(p Precision, k int) float64 {
	eps := 1.1920929e-07 // 2^-23
	if p == Double {
		eps = 2.220446049250313e-16 // 2^-52
	}
	if k < 1 {
		k = 1
	}
	return eps * math.Sqrt(float64(k)) * 32
}
