package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oclgemm/internal/blas"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

// strideModes lists the four (StrideM, StrideN) work-item mappings.
var strideModes = [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}}

// compareStrideModes runs p under every valid stride mode on the same
// operands and demands C bit-identical to the unit-stride run, with
// identical barrier and launch statistics: the stride modes only
// reassign C elements among work-items, never an element's k-order or
// the phase schedule. It returns the unit-stride C and its statistics.
func compareStrideModes[T matrix.Scalar](t *testing.T, p codegen.Params, m, n, k int, alpha, beta T, seed int64) (*matrix.Matrix[T], clsim.QueueStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New[T](m, k, matrix.RowMajor)
	b := matrix.New[T](k, n, matrix.RowMajor)
	c := matrix.New[T](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)

	p.StrideM, p.StrideN = false, false
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid test params %s: %v", p.Name(), err)
	}
	want, wantStats := runKernel(t, p, m, n, k, alpha, a, b, c, beta)
	for _, st := range strideModes[1:] {
		ps := p
		ps.StrideM, ps.StrideN = st[0], st[1]
		if ps.Validate() != nil {
			continue
		}
		got, stats := runKernel(t, ps, m, n, k, alpha, a, b, c, beta)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: element %d not bit-identical: %v, unit stride %v",
					ps.Name(), i, got.Data[i], want.Data[i])
			}
		}
		if stats != wantStats {
			t.Errorf("%s: launch stats %+v, unit stride %+v", ps.Name(), stats, wantStats)
		}
	}
	return want, wantStats
}

// checkStrideModes is compareStrideModes in float64 plus exact
// agreement of the unit-stride C with blas.GEMM.
func checkStrideModes(t *testing.T, p codegen.Params, m, n, k int, alpha, beta float64, seed int64) {
	t.Helper()
	got, _ := compareStrideModes(t, p, m, n, k, alpha, beta, seed)
	a, b, c := randMats(m, n, k, seed)
	want := refGEMM(alpha, a, b, c, beta)
	if i := firstBitDiff(got.Data, want.Data); i >= 0 {
		t.Errorf("%s: C[%d] = %v, reference %v (want bit-identical)", p.Name(), i, got.Data[i], want.Data[i])
	}
}

// Every layout pair with B read directly from global memory (through
// panelGeom) matches the reference exactly in every stride mode.
func TestFastMatchesGenericLayouts(t *testing.T) {
	for _, la := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
		for _, lb := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
			p := base()
			p.LayoutA, p.LayoutB = la, lb
			p.SharedB = false
			checkStrideModes(t, p, 24, 16, 12, 1.0, 1.0, 23)
		}
	}
}

// Vector widths scale the strided mapping's pitch; every width matches
// the reference exactly in every stride mode.
func TestFastMatchesGenericVectorWidths(t *testing.T) {
	for _, vw := range []int{1, 2, 4} {
		p := base()
		p.Nwg = 16 // Nwi = 4
		p.VectorWidth = vw
		checkStrideModes(t, p, 16, 32, 12, -1.5, 0.75, 24)
	}
}

// float32 kernels: every stride mode is bit-identical to the
// unit-stride run, and that run agrees with the float32 reference
// within tolerance.
func TestFastMatchesGenericFloat32(t *testing.T) {
	const m, n, k = 16, 16, 16
	for _, alg := range []codegen.Algorithm{codegen.BA, codegen.PL} {
		p := base()
		p.Precision = matrix.Single
		p.Algorithm = alg
		got, _ := compareStrideModes[float32](t, p, m, n, k, 1.5, -0.25, 25)

		rng := rand.New(rand.NewSource(25))
		a := matrix.New[float32](m, k, matrix.RowMajor)
		b := matrix.New[float32](k, n, matrix.RowMajor)
		want := matrix.New[float32](m, n, matrix.RowMajor)
		a.FillRandom(rng)
		b.FillRandom(rng)
		want.FillRandom(rng)
		blas.GEMM(blas.NoTrans, blas.NoTrans, float32(1.5), a, b, float32(-0.25), want)
		if d := matrix.MaxRelDiff(got, want); d > matrix.Tolerance(matrix.Single, k) {
			t.Errorf("%s: diff %g vs reference", p.Name(), d)
		}
	}
}

// The fully strided point runs the same native kernel as unit stride:
// exact against the reference, with the unit-stride launch statistics.
func TestStridedDispatchStaysGeneric(t *testing.T) {
	p := base()
	a, b, c := randMats(16, 16, 12, 26)
	_, unit := runKernel(t, p, 16, 16, 12, 1.25, a, b, c, -0.5)
	p.StrideM, p.StrideN = true, true
	got, stats := runKernel(t, p, 16, 16, 12, 1.25, a, b, c, -0.5)
	want := refGEMM(1.25, a, b, c, -0.5)
	if i := firstBitDiff(got.Data, want.Data); i >= 0 {
		t.Errorf("strided config C[%d] = %v, reference %v", i, got.Data[i], want.Data[i])
	}
	if stats != unit {
		t.Errorf("strided launch stats %+v, unit stride %+v", stats, unit)
	}
}

// Property: a random walk over the valid parameter grid (all three
// algorithms, layouts, shared modes, vector widths) never separates
// the stride modes by a single bit or a single barrier, and the
// unit-stride run matches the reference exactly.
func TestFastGenericPropertyBitIdentical(t *testing.T) {
	f := func(algSel, mdim, ndim, mwiS, nwiS, kwgS, kwiS, vwS, shSel, layA, layB uint8, seed int64) bool {
		p := codegen.Params{
			Precision: matrix.Double,
			Algorithm: codegen.Algorithms[algSel%3],
			MdimC:     []int{2, 4}[mdim%2],
			NdimC:     []int{2, 4}[ndim%2],
			Kwi:       []int{1, 2}[kwiS%2],
			SharedA:   shSel&1 != 0,
			SharedB:   shSel&2 != 0,
			LayoutA:   []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layA%3],
			LayoutB:   []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layB%3],
		}
		p.Mwg = p.MdimC * (int(mwiS%3) + 1)
		p.Nwg = p.NdimC * []int{2, 4}[nwiS%2]
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
		m, n, k := p.Mwg*2, p.Nwg, p.Kwg*2
		a, b, c := randMats(m, n, k, seed)
		want, wantStats := runKernel(t, p, m, n, k, 1.25, a, b, c, -0.5)
		if firstBitDiff(want.Data, refGEMM(1.25, a, b, c, -0.5).Data) >= 0 {
			return false
		}
		for _, st := range strideModes[1:] {
			ps := p
			ps.StrideM, ps.StrideN = st[0], st[1]
			if ps.Validate() != nil {
				continue
			}
			got, stats := runKernel(t, ps, m, n, k, 1.25, a, b, c, -0.5)
			if stats.BarriersHit != wantStats.BarriersHit || firstBitDiff(got.Data, want.Data) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Every executed work-group is counted once in clsim.workgroups.run,
// whatever the stride mode of the kernel that ran it.
func TestMicroSelectionCounters(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := clsim.NewContext(&clsim.Device{Spec: device.Tahiti()})
	ctx.SetObserver(reg)
	a, b, c := randMats(16, 16, 12, 28)
	var barriers int64
	run := func(p codegen.Params) {
		at := matrix.Pack(a, true, 12, 16, p.Kwg, p.Mwg, p.LayoutA)
		bp := matrix.Pack(b, false, 12, 16, p.Kwg, p.Nwg, p.LayoutB)
		cc := c.Clone()
		kern, err := NewGEMM(p, 16, 16, 12, 1.0, at.Data, bp.Data, 0.0, cc.Data)
		if err != nil {
			t.Fatal(err)
		}
		q := clsim.NewQueue(ctx)
		if err := q.RunLockstep(kern, kern.NDRange()); err != nil {
			t.Fatal(err)
		}
		barriers += q.Stats().BarriersHit
	}
	run(base()) // 2×2 groups, unit stride
	strided := base()
	strided.StrideM = true
	run(strided) // 2×2 groups, strided M

	s := reg.Snapshot()
	if got := s.Counters["clsim.workgroups.run"]; got != 8 {
		t.Errorf("clsim.workgroups.run = %d, want 8", got)
	}
	if got := s.Counters["clsim.kernel.launches"]; got != 2 {
		t.Errorf("clsim.kernel.launches = %d, want 2", got)
	}
	if got := s.Counters["clsim.barriers.hit"]; got != barriers {
		t.Errorf("clsim.barriers.hit = %d, queues reported %d", got, barriers)
	}
}
