package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

func runPack(t *testing.T, pp codegen.PackParams, src *matrix.Matrix[float64], r, c int) ([]float64, clsim.QueueStats) {
	t.Helper()
	dst := make([]float64, r*c)
	pk, err := NewPack(pp, src.Rows, src.Cols, src.Stride, r, c, src.Data, dst)
	if err != nil {
		t.Fatalf("NewPack: %v", err)
	}
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
	if err := q.RunLockstep(pk, pk.NDRange()); err != nil {
		t.Fatalf("pack run: %v", err)
	}
	return dst, q.Stats()
}

func TestPackMatchesHostPack(t *testing.T) {
	for _, layout := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
		for _, transpose := range []bool{false, true} {
			src := matrix.New[float64](13, 9, matrix.RowMajor)
			src.FillRandom(rand.New(rand.NewSource(1)))
			dr, dc := 13, 9
			if transpose {
				dr, dc = 9, 13
			}
			r := matrix.PadDim(dr, 4)
			c := matrix.PadDim(dc, 8)
			pp := codegen.PackParams{
				Precision: matrix.Double, Layout: layout,
				Rb: 4, Cb: 8, Transpose: transpose,
			}
			got, _ := runPack(t, pp, src, r, c)
			want := matrix.Pack(src, transpose, r, c, 4, 8, layout)
			for i, v := range want.Data {
				if got[i] != v {
					t.Fatalf("layout=%v transpose=%v: element %d differs: %v vs %v",
						layout, transpose, i, got[i], v)
				}
			}
		}
	}
}

// The row-run copy must equal the host pack for every layout,
// transpose flag and partial-tile geometry (source smaller than the
// padded destination in either or both dimensions), with one barrier
// per work-group like the source kernel's single phase.
func TestPackFastMatchesGeneric(t *testing.T) {
	for _, layout := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
		for _, transpose := range []bool{false, true} {
			for _, dims := range [][2]int{{13, 9}, {16, 8}, {3, 17}} {
				src := matrix.New[float64](dims[0], dims[1], matrix.RowMajor)
				src.FillRandom(rand.New(rand.NewSource(27)))
				dr, dc := dims[0], dims[1]
				if transpose {
					dr, dc = dc, dr
				}
				r := matrix.PadDim(dr, 4)
				c := matrix.PadDim(dc, 8)
				pp := codegen.PackParams{
					Precision: matrix.Double, Layout: layout,
					Rb: 4, Cb: 8, Transpose: transpose,
				}
				got, stats := runPack(t, pp, src, r, c)
				want := matrix.Pack(src, transpose, r, c, 4, 8, layout)
				for i, v := range want.Data {
					if got[i] != v {
						t.Fatalf("layout=%v transpose=%v %dx%d: element %d differs: %v vs %v",
							layout, transpose, dims[0], dims[1], i, got[i], v)
					}
				}
				if stats.BarriersHit != stats.WorkGroupsRun {
					t.Errorf("layout=%v transpose=%v %dx%d: %d barriers over %d work-groups, want one each",
						layout, transpose, dims[0], dims[1], stats.BarriersHit, stats.WorkGroupsRun)
				}
			}
		}
	}
}

func TestPackStridedSource(t *testing.T) {
	// A view with stride > cols must pack correctly.
	parent := matrix.New[float64](16, 16, matrix.RowMajor)
	parent.FillSequential()
	v := parent.View(3, 2, 7, 6)
	pp := codegen.PackParams{Precision: matrix.Double, Layout: matrix.LayoutCBL, Rb: 4, Cb: 4}
	got, _ := runPack(t, pp, v, 8, 8)
	want := matrix.Pack(v, false, 8, 8, 4, 4, matrix.LayoutCBL)
	for i := range want.Data {
		if got[i] != want.Data[i] {
			t.Fatalf("strided pack differs at %d", i)
		}
	}
}

// Pack with a strided source view into a row-block-major destination.
func TestPackFastStridedSource(t *testing.T) {
	parent := matrix.New[float64](16, 16, matrix.RowMajor)
	parent.FillSequential()
	v := parent.View(3, 2, 7, 6)
	pp := codegen.PackParams{Precision: matrix.Double, Layout: matrix.LayoutRBL, Rb: 4, Cb: 4}
	got, _ := runPack(t, pp, v, 8, 8)
	want := matrix.Pack(v, false, 8, 8, 4, 4, matrix.LayoutRBL)
	for i := range want.Data {
		if got[i] != want.Data[i] {
			t.Fatalf("strided fast pack differs at %d", i)
		}
	}
}

func TestPackErrors(t *testing.T) {
	pp := codegen.PackParams{Precision: matrix.Double, Layout: matrix.LayoutCBL, Rb: 4, Cb: 4}
	s := make([]float64, 16)
	d := make([]float64, 64)
	if _, err := NewPack(pp, 4, 4, 4, 7, 8, s, d); err == nil {
		t.Error("unpadded destination must fail")
	}
	if _, err := NewPack(pp, 4, 4, 2, 8, 8, s, d); err == nil {
		t.Error("LD below SC must fail")
	}
	if _, err := NewPack(pp, 4, 4, 4, 8, 8, s[:3], d); err == nil {
		t.Error("short source must fail")
	}
	if _, err := NewPack(pp, 4, 4, 4, 8, 8, s, d[:3]); err == nil {
		t.Error("short destination must fail")
	}
	bad := pp
	bad.Rb = 0
	if _, err := NewPack(bad, 4, 4, 4, 8, 8, s, d); err == nil {
		t.Error("invalid params must fail")
	}
}

// Property: device pack agrees with host pack over random shapes.
func TestPackProperty(t *testing.T) {
	f := func(rs, cs, rbS, cbS, layS uint8, transpose bool, seed int64) bool {
		rows := int(rs%12) + 1
		cols := int(cs%12) + 1
		rb := int(rbS%4) + 1
		cb := int(cbS%4) + 1
		layout := []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layS%3]
		src := matrix.New[float64](rows, cols, matrix.RowMajor)
		src.FillRandom(rand.New(rand.NewSource(seed)))
		dr, dc := rows, cols
		if transpose {
			dr, dc = cols, rows
		}
		r := matrix.PadDim(dr, rb)
		c := matrix.PadDim(dc, cb)
		pp := codegen.PackParams{Precision: matrix.Double, Layout: layout, Rb: rb, Cb: cb, Transpose: transpose}
		dst := make([]float64, r*c)
		pk, err := NewPack(pp, src.Rows, src.Cols, src.Stride, r, c, src.Data, dst)
		if err != nil {
			return false
		}
		q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
		if err := q.RunLockstep(pk, pk.NDRange()); err != nil {
			return false
		}
		want := matrix.Pack(src, transpose, r, c, rb, cb, layout)
		for i := range want.Data {
			if dst[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
