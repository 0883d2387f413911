package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPrecisionSize(t *testing.T) {
	if Single.Size() != 4 {
		t.Errorf("Single.Size() = %d, want 4", Single.Size())
	}
	if Double.Size() != 8 {
		t.Errorf("Double.Size() = %d, want 8", Double.Size())
	}
	if Single.GEMMName() != "SGEMM" || Double.GEMMName() != "DGEMM" {
		t.Errorf("GEMMName wrong: %s %s", Single.GEMMName(), Double.GEMMName())
	}
	if Single.String() != "single" || Double.String() != "double" {
		t.Errorf("String wrong: %s %s", Single, Double)
	}
}

func TestNewShapes(t *testing.T) {
	m := New[float64](3, 5, RowMajor)
	if m.Stride != 5 {
		t.Errorf("row-major stride = %d, want 5", m.Stride)
	}
	c := New[float64](3, 5, ColMajor)
	if c.Stride != 3 {
		t.Errorf("col-major stride = %d, want 3", c.Stride)
	}
	if len(m.Data) != 15 || len(c.Data) != 15 {
		t.Errorf("data lengths %d %d, want 15", len(m.Data), len(c.Data))
	}
}

func TestIndexingOrders(t *testing.T) {
	rm := New[float32](4, 3, RowMajor)
	cm := New[float32](4, 3, ColMajor)
	v := float32(1)
	for r := 0; r < 4; r++ {
		for c := 0; c < 3; c++ {
			rm.Set(r, c, v)
			cm.Set(r, c, v)
			v++
		}
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 3; c++ {
			if rm.At(r, c) != cm.At(r, c) {
				t.Fatalf("order mismatch at (%d,%d): %v vs %v", r, c, rm.At(r, c), cm.At(r, c))
			}
		}
	}
	// Row-major flat layout: element (1,2) is at 1*3+2.
	if rm.Data[5] != rm.At(1, 2) {
		t.Errorf("row-major flat mismatch")
	}
	// Col-major flat layout: element (1,2) is at 2*4+1.
	if cm.Data[9] != cm.At(1, 2) {
		t.Errorf("col-major flat mismatch")
	}
}

func TestTranspose(t *testing.T) {
	m := New[float64](3, 4, RowMajor)
	m.FillSequential()
	tr := m.Transpose()
	if tr.Rows != 4 || tr.Cols != 3 {
		t.Fatalf("transpose shape %dx%d, want 4x3", tr.Rows, tr.Cols)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if m.At(r, c) != tr.At(c, r) {
				t.Fatalf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
	back := tr.Transpose()
	if MaxRelDiff(m, back) != 0 {
		t.Errorf("double transpose differs")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New[float64](2, 2, RowMajor)
	m.Fill(3)
	cl := m.Clone()
	cl.Set(0, 0, 99)
	if m.At(0, 0) != 3 {
		t.Errorf("clone aliases original")
	}
}

func TestFillRandomRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New[float32](16, 16, RowMajor)
	m.FillRandom(rng)
	for _, v := range m.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("random value %v out of [-1,1)", v)
		}
	}
}

func TestMaxRelDiff(t *testing.T) {
	a := New[float64](2, 2, RowMajor)
	b := New[float64](2, 2, RowMajor)
	a.Fill(1)
	b.Fill(1)
	b.Set(1, 1, 1+1e-7)
	d := MaxRelDiff(a, b)
	if d < 9e-8 || d > 2e-7 {
		t.Errorf("MaxRelDiff = %g, want ~1e-7", d)
	}
	if !EqualApprox(a, b, 1e-6) {
		t.Errorf("EqualApprox should pass at 1e-6")
	}
	if EqualApprox(a, b, 1e-9) {
		t.Errorf("EqualApprox should fail at 1e-9")
	}
}

// Non-finite values: equal values and NaN/NaN pairs are no difference,
// any other NaN or infinity mismatch is an infinite one, so no
// tolerance passes it — wherever it sits among matching elements.
func TestMaxRelDiffNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		x, y float64
		want float64
	}{
		{"equal", 0.5, 0.5, 0},
		{"+Inf/+Inf", inf, inf, 0},
		{"-Inf/-Inf", -inf, -inf, 0},
		{"NaN/NaN", nan, nan, 0},
		{"NaN/number", nan, 1, inf},
		{"number/NaN", 1, nan, inf},
		{"NaN/Inf", nan, inf, inf},
		{"Inf/finite", inf, 1e300, inf},
		{"finite/-Inf", 2, -inf, inf},
		{"+Inf/-Inf", inf, -inf, inf},
		{"finite", 4, 5, 0.2},
	}
	for _, tc := range cases {
		for _, pos := range [][2]int{{0, 0}, {1, 2}} {
			a := New[float64](2, 3, RowMajor)
			b := New[float64](2, 3, RowMajor)
			a.Fill(1)
			b.Fill(1)
			a.Set(pos[0], pos[1], tc.x)
			b.Set(pos[0], pos[1], tc.y)
			if got := MaxRelDiff(a, b); got != tc.want {
				t.Errorf("%s at %v: MaxRelDiff = %g, want %g", tc.name, pos, got, tc.want)
			}
			if ok := EqualApprox(a, b, 1e300); ok != !math.IsInf(tc.want, 1) {
				t.Errorf("%s at %v: EqualApprox(tol 1e300) = %v", tc.name, pos, ok)
			}
		}
	}
	// float32 NaN against a number.
	a := New[float32](1, 2, RowMajor)
	b := New[float32](1, 2, RowMajor)
	a.Set(0, 1, float32(math.NaN()))
	if got := MaxRelDiff(a, b); !math.IsInf(got, 1) {
		t.Errorf("float32 NaN/0: MaxRelDiff = %g, want +Inf", got)
	}
}

func TestMaxRelDiffShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on shape mismatch")
		}
	}()
	MaxRelDiff(New[float64](2, 2, RowMajor), New[float64](2, 3, RowMajor))
}

func TestTolerance(t *testing.T) {
	if Tolerance(Single, 1024) <= Tolerance(Single, 16) {
		t.Errorf("tolerance should grow with depth")
	}
	if Tolerance(Double, 1024) >= Tolerance(Single, 1024) {
		t.Errorf("double tolerance should be below single")
	}
	if Tolerance(Single, 0) <= 0 {
		t.Errorf("tolerance must be positive for k=0")
	}
}

func TestFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, RowMajor, data)
	if m.At(1, 2) != 6 {
		t.Errorf("FromSlice At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 42)
	if data[0] != 42 {
		t.Errorf("FromSlice must alias the input slice")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on bad length")
		}
	}()
	FromSlice(2, 2, RowMajor, data)
}

func TestView(t *testing.T) {
	m := New[float64](6, 8, RowMajor)
	m.FillSequential()
	v := m.View(2, 3, 3, 4)
	if v.Rows != 3 || v.Cols != 4 || v.Stride != 8 {
		t.Fatalf("view shape wrong: %dx%d stride %d", v.Rows, v.Cols, v.Stride)
	}
	if v.At(0, 0) != m.At(2, 3) || v.At(2, 3) != m.At(4, 6) {
		t.Error("view indexing wrong")
	}
	v.Set(1, 1, -99)
	if m.At(3, 4) != -99 {
		t.Error("view must write through")
	}
	// Column-major views.
	cm := New[float64](6, 8, ColMajor)
	cm.FillSequential()
	vc := cm.View(1, 2, 4, 3)
	if vc.At(3, 2) != cm.At(4, 4) {
		t.Error("col-major view indexing wrong")
	}
	// Corner and empty views.
	last := m.View(5, 7, 1, 1)
	if last.At(0, 0) != m.At(5, 7) {
		t.Error("corner view wrong")
	}
	empty := m.View(6, 8, 0, 0)
	if empty.Rows != 0 || empty.Cols != 0 {
		t.Error("empty view wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range view must panic")
		}
	}()
	m.View(4, 4, 3, 4)
}

// Property: transpose is an involution for arbitrary small shapes.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r := int(rows%16) + 1
		c := int(cols%16) + 1
		m := New[float64](r, c, RowMajor)
		m.FillRandom(rand.New(rand.NewSource(seed)))
		return MaxRelDiff(m, m.Transpose().Transpose()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
