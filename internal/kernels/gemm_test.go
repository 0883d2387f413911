package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oclgemm/internal/blas"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

// runKernel packs row-major A (M×K) and B (K×N) into the kernel's
// layouts, runs the kernel on the simulator, and returns the result
// matrix and the launch statistics.
func runKernel[T matrix.Scalar](t *testing.T, p codegen.Params, m, n, k int, alpha T,
	a, b, c *matrix.Matrix[T], beta T) (*matrix.Matrix[T], clsim.QueueStats) {
	t.Helper()
	at := matrix.Pack(a, true, k, m, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, false, k, n, p.Kwg, p.Nwg, p.LayoutB)
	cc := c.Clone()

	kern, err := NewGEMM(p, m, n, k, alpha, at.Data, bp.Data, beta, cc.Data)
	if err != nil {
		t.Fatalf("NewGEMM: %v", err)
	}
	ctx := clsim.NewContext(&clsim.Device{Spec: device.Tahiti()})
	q := clsim.NewQueue(ctx)
	if err := q.RunLockstep(kern, kern.NDRange()); err != nil {
		t.Fatalf("RunLockstep: %v", err)
	}
	return cc, q.Stats()
}

func refGEMM(alpha float64, a, b, c *matrix.Matrix[float64], beta float64) *matrix.Matrix[float64] {
	want := c.Clone()
	blas.GEMM(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, want)
	return want
}

func randMats(m, n, k int, seed int64) (a, b, c *matrix.Matrix[float64]) {
	rng := rand.New(rand.NewSource(seed))
	a = matrix.New[float64](m, k, matrix.RowMajor)
	b = matrix.New[float64](k, n, matrix.RowMajor)
	c = matrix.New[float64](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	return
}

// base returns a small valid parameter set to mutate in tests.
func base() codegen.Params {
	return codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 8, Nwg: 8, Kwg: 4,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
}

// firstBitDiff returns the first index where got and want differ in
// their float64 bit patterns, or -1.
func firstBitDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// exactVsReference runs p once and demands C bit-identical to
// blas.GEMM: both sum each element's terms in ascending k in float64
// and apply α·acc + β·C last, so there is no rounding to forgive. It
// returns the launch statistics.
func exactVsReference(t *testing.T, p codegen.Params, m, n, k int, alpha, beta float64, seed int64) clsim.QueueStats {
	t.Helper()
	a, b, c := randMats(m, n, k, seed)
	got, st := runKernel(t, p, m, n, k, alpha, a, b, c, beta)
	want := refGEMM(alpha, a, b, c, beta)
	if i := firstBitDiff(got.Data, want.Data); i >= 0 {
		t.Errorf("%s α=%v β=%v: C[%d] = %v, reference %v (want bit-identical)",
			p.Name(), alpha, beta, i, got.Data[i], want.Data[i])
	}
	return st
}

// checkKernel validates p and checks it against the reference with
// β ≠ 0 and with β = 0 (the merge branch that never reads C).
func checkKernel(t *testing.T, p codegen.Params, m, n, k int, seed int64) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid test params: %v", err)
	}
	exactVsReference(t, p, m, n, k, 1.25, -0.5, seed)
	exactVsReference(t, p, m, n, k, 2.0, 0.0, seed)
}

func TestBAAllLayoutCombos(t *testing.T) {
	for _, la := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
		for _, lb := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
			p := base()
			p.LayoutA, p.LayoutB = la, lb
			checkKernel(t, p, 16, 16, 16, 1)
		}
	}
}

func TestBASharedModes(t *testing.T) {
	for _, sh := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		p := base()
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkKernel(t, p, 16, 24, 20, 2)
	}
}

func TestBAStrideModes(t *testing.T) {
	for _, st := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		p := base()
		p.StrideM, p.StrideN = st[0], st[1]
		checkKernel(t, p, 16, 16, 12, 3)
	}
}

func TestBAVectorWidths(t *testing.T) {
	for _, vw := range []int{1, 2, 4} {
		p := base()
		p.Nwg = 16 // Nwi = 4
		p.VectorWidth = vw
		p.StrideN = true // vw scales the strided mapping's pitch
		checkKernel(t, p, 16, 32, 12, 4)
	}
}

func TestBAReshapedLoads(t *testing.T) {
	// MdimA=8 (KdimA=2), NdimB=2 (KdimB=8): reshaped cooperative loads.
	p := base()
	p.Mwg, p.Nwg, p.Kwg = 16, 16, 8
	p.MdimA, p.NdimB = 8, 2
	p.Kwi = 2
	checkKernel(t, p, 32, 32, 16, 5)
}

func TestPLMatchesReference(t *testing.T) {
	for _, sh := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
		p := base()
		p.Algorithm = codegen.PL
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkKernel(t, p, 16, 16, 16, 6) // K = 4·Kwg: prologue, 2 pipelined, epilogue
	}
}

func TestPLMinimumK(t *testing.T) {
	p := base()
	p.Algorithm = codegen.PL
	checkKernel(t, p, 8, 8, 8, 7) // K = 2·Kwg: one pipelined iteration
}

func TestDBMatchesReference(t *testing.T) {
	for _, sh := range [][2]bool{{true, true}, {true, false}, {false, true}} {
		p := base()
		p.Algorithm = codegen.DB
		p.Kwg = 8 // KwiA = KwiB = 2 (even halves for the double buffers)
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkKernel(t, p, 16, 16, 32, 8)
	}
}

func TestDBMinimumK(t *testing.T) {
	p := base()
	p.Algorithm = codegen.DB
	p.Kwg = 8
	checkKernel(t, p, 8, 8, 16, 9)
}

// The barrier schedule of each algorithm × local-memory mode, pinned
// as exact counts for a 16×24×32 problem (6 work-groups of 16
// work-items): every staged load, compute and merge phase ends in one
// barrier, as in the generated source. The counts do not depend on the
// stride modes, which only reassign C elements among work-items.
func TestScheduleBarrierCounts(t *testing.T) {
	type shared struct{ a, b bool }
	want := map[codegen.Algorithm]map[shared]int{
		codegen.BA: {{false, false}: 54, {true, false}: 102, {false, true}: 102, {true, true}: 150},
		codegen.PL: {{false, false}: 54, {true, false}: 144, {false, true}: 144, {true, true}: 234},
		codegen.DB: {{true, false}: 102, {false, true}: 102, {true, true}: 150},
	}
	for alg, modes := range want {
		for sh, barriers := range modes {
			for _, st := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				p := base()
				p.Algorithm = alg
				p.SharedA, p.SharedB = sh.a, sh.b
				p.StrideM, p.StrideN = st[0], st[1]
				if alg == codegen.DB {
					p.Kwg = 8 // even halves
				}
				if err := p.Validate(); err != nil {
					t.Fatalf("invalid test params %s: %v", p.Name(), err)
				}
				stats := exactVsReference(t, p, 16, 24, 32, 1.25, -0.5, 21)
				if stats.BarriersHit != int64(barriers) {
					t.Errorf("%s: %d barriers, want %d", p.Name(), stats.BarriersHit, barriers)
				}
				if stats.KernelLaunches != 1 || stats.WorkGroupsRun != 6 || stats.WorkItemsRun != 96 {
					t.Errorf("%s: launch stats %+v, want 1 launch, 6 groups, 96 items", p.Name(), stats)
				}
			}
		}
	}
}

func TestPaperTahitiConfigsFunctional(t *testing.T) {
	// The paper's Tahiti SGEMM config (scaled problem), double precision
	// for a tight tolerance.
	p := codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 96, Nwg: 96, Kwg: 16,
		MdimC: 16, NdimC: 16, MdimA: 16, NdimB: 16,
		Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	checkKernel(t, p, 96, 96, 32, 10)
}

func TestRectangularProblem(t *testing.T) {
	p := base()
	checkKernel(t, p, 24, 40, 28, 11)
}

// Float32 is checked against the float64-accumulating reference within
// tolerance here; its bit-exactness is pinned against the generated
// source in the codegen integration tests.
func TestFloat32Kernel(t *testing.T) {
	p := base()
	p.Precision = matrix.Single
	m, n, k := 16, 16, 12
	rng := rand.New(rand.NewSource(12))
	a := matrix.New[float32](m, k, matrix.RowMajor)
	b := matrix.New[float32](k, n, matrix.RowMajor)
	c := matrix.New[float32](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)

	got, _ := runKernel(t, p, m, n, k, float32(2), a, b, c, float32(0.5))
	want := c.Clone()
	blas.GEMM(blas.NoTrans, blas.NoTrans, float32(2), a, b, float32(0.5), want)
	if d := matrix.MaxRelDiff(got, want); d > float64(matrix.Tolerance(matrix.Single, k)) {
		t.Errorf("float32 kernel diff %g", d)
	}
}

func TestNewGEMMErrors(t *testing.T) {
	p := base()
	a := make([]float64, 16*16)
	c := make([]float64, 16*16)
	if _, err := NewGEMM(p, 15, 16, 16, 1.0, a, a, 0.0, c); err == nil {
		t.Error("unpadded M must fail")
	}
	if _, err := NewGEMM(p, 16, 16, 16, 1.0, a[:10], a, 0.0, c); err == nil {
		t.Error("short buffer must fail")
	}
	bad := p
	bad.Kwi = 3
	if _, err := NewGEMM(bad, 16, 16, 16, 1.0, a, a, 0.0, c); err == nil {
		t.Error("invalid params must fail")
	}
	pl := p
	pl.Algorithm = codegen.PL
	if _, err := NewGEMM(pl, 16, 16, 4, 1.0, a, a, 0.0, c); err == nil {
		t.Error("K below PL minimum must fail")
	}
}

// Property: random valid small configurations across all three
// algorithms, shared modes, stride modes, layouts and vector widths
// agree with the reference bit for bit.
func TestKernelPropertyRandomConfigs(t *testing.T) {
	f := func(algSel, mdim, ndim, mwiS, nwiS, kwgS, kwiS, vwS, shSel, stSel, layA, layB uint8, seed int64) bool {
		p := codegen.Params{
			Precision: matrix.Double,
			Algorithm: codegen.Algorithms[algSel%3],
			MdimC:     []int{2, 4}[mdim%2],
			NdimC:     []int{2, 4}[ndim%2],
			Kwi:       []int{1, 2}[kwiS%2],
			SharedA:   shSel&1 != 0,
			SharedB:   shSel&2 != 0,
			StrideM:   stSel&1 != 0,
			StrideN:   stSel&2 != 0,
			LayoutA:   []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layA%3],
			LayoutB:   []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layB%3],
		}
		p.Mwg = p.MdimC * (int(mwiS%3) + 1)
		p.Nwg = p.NdimC * []int{2, 4}[nwiS%2] // keep Nwi even for vw=2
		p.Kwg = 4 * (int(kwgS%2) + 1)
		p.VectorWidth = []int{1, 2}[vwS%2]
		p.MdimA = p.MdimC
		p.NdimB = p.NdimC
		if p.Algorithm == codegen.DB && !p.UsesLocalMemory() {
			p.SharedB = true
		}
		if err := p.Validate(); err != nil {
			return true // not a valid draw; skip
		}
		m := p.Mwg * 2
		n := p.Nwg
		k := p.Kwg * 2
		a, b, c := randMats(m, n, k, seed)
		got, _ := runKernel(t, p, m, n, k, 1.25, a, b, c, -0.5)
		want := refGEMM(1.25, a, b, c, -0.5)
		return firstBitDiff(got.Data, want.Data) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
