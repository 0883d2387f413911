// Package kernels provides executable Go implementations of the GEMM
// kernels the code generator produces: the BA, PL and DB schedules of
// §III-E, parameterized by the full codegen.Params space (blocking,
// work-group shape, stride modes, local-memory staging with reshaped
// cooperative loads, and block-major layouts).
//
// These kernels run on the clsim lockstep executor and compute real
// results; they are the functional counterpart of the performance
// model, and they cross-check the OpenCL C sources emitted by the
// generator (interpreted by the clc package) against the reference
// BLAS.
//
// Every parameter point runs one native path. Panel geometry is
// resolved at build time into closure-free row offsets (panelGeom), so
// panel loads are whole-row copies, the inner product register-tiles
// each work-item's C block over resliced panel rows, and per-group
// state is recycled so a warm launch allocates nothing. The stride
// modes of §III-B (Fig. 2) only change which C elements a work-item
// owns — how it touches device memory, which the performance model
// prices — never any element's k-order, so the native kernels assign C
// elements with the unit-stride mapping for every StrideM/StrideN
// setting and produce the same C bit for bit as the generated source.
package kernels

import (
	"fmt"
	"sync"

	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/matrix"
)

// GEMM is one launchable C ← α·Aᵀ·B + β·C kernel instance. A is the
// K×M transposed operand in layout P.LayoutA with (Kwg, Mwg) blocking,
// B the K×N operand in layout P.LayoutB with (Kwg, Nwg) blocking, and
// C the M×N row-major output. M, N, K must be multiples of the
// blocking factors (the planner pads first).
type GEMM[T matrix.Scalar] struct {
	P           codegen.Params
	M, N, K     int
	Alpha, Beta T
	A, B, C     []T

	geoA, geoB panelGeom
	esize      int
	pool       statePool[T]
}

// NewGEMM validates shapes and builds the kernel.
func NewGEMM[T matrix.Scalar](p codegen.Params, m, n, k int, alpha T, a []T, b []T, beta T, c []T) (*GEMM[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if m%p.Mwg != 0 || n%p.Nwg != 0 || k%p.Kwg != 0 {
		return nil, fmt.Errorf("kernels: %dx%dx%d not padded to blocking %dx%dx%d", m, n, k, p.Mwg, p.Nwg, p.Kwg)
	}
	if k < p.MinK() {
		return nil, fmt.Errorf("kernels: K=%d below algorithm minimum %d", k, p.MinK())
	}
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		return nil, fmt.Errorf("kernels: buffer sizes %d/%d/%d too small for %dx%dx%d", len(a), len(b), len(c), m, n, k)
	}
	return &GEMM[T]{
		P: p, M: m, N: n, K: k,
		Alpha: alpha, Beta: beta,
		A: a, B: b, C: c,
		geoA:  panelGeom{layout: p.LayoutA, rows: k, cols: m, rb: p.Kwg, cb: p.Mwg},
		geoB:  panelGeom{layout: p.LayoutB, rows: k, cols: n, rb: p.Kwg, cb: p.Nwg},
		esize: elemBytes[T](),
	}, nil
}

// Name implements clsim.GroupKernel.
func (g *GEMM[T]) Name() string { return g.P.Name() }

// SetScalars updates α and β for the next launch, letting a prebuilt
// kernel instance be relaunched with different scalars (the execution
// engine reuses one instance across repeated calls).
func (g *GEMM[T]) SetScalars(alpha, beta T) {
	g.Alpha, g.Beta = alpha, beta
}

// NDRange returns the launch geometry: one work-item per (MdimC, NdimC)
// cell of each (M/Mwg)×(N/Nwg) work-group grid.
func (g *GEMM[T]) NDRange() clsim.NDRange {
	return clsim.NDRange{
		Global: [2]int{g.M / g.P.Mwg * g.P.MdimC, g.N / g.P.Nwg * g.P.NdimC},
		Local:  [2]int{g.P.MdimC, g.P.NdimC},
	}
}

// panelGeom resolves flat offsets of one packed operand a whole row-run
// at a time instead of one element. The enabling invariant is that the
// planner packs with blocking equal to the kernel's work-group tiling
// (A: Kwg×Mwg, B: Kwg×Nwg), so the cb columns of block-column blk in
// row r are contiguous under all three layouts.
type panelGeom struct {
	layout     matrix.Layout
	rows, cols int
	rb, cb     int
}

// rowStart returns the flat offset of element (r, blk*cb): the start of
// the contiguous cb-wide run of row r inside block-column blk.
func (pg *panelGeom) rowStart(r, blk int) int {
	switch pg.layout {
	case matrix.LayoutCBL:
		return blk*(pg.rows*pg.cb) + r*pg.cb
	case matrix.LayoutRBL:
		return (r/pg.rb)*(pg.rb*pg.cols) + blk*(pg.rb*pg.cb) + (r%pg.rb)*pg.cb
	default:
		return r*pg.cols + blk*pg.cb
	}
}

// state is the per-work-group execution state shared by the three
// schedules: local memory panels and per-work-item private memory.
// Instances are recycled through the kernel's statePool, so a warm
// launch allocates nothing.
type state[T matrix.Scalar] struct {
	alm, blm []T // local panels (Kwg×Mwg / Kwg×Nwg), nil if not shared
	acc      []T // per-WI accumulators, wi*Mwi*Nwi
	mwi, nwi int
}

// statePool recycles per-work-group state across groups and launches.
// It is a mutex-guarded stack rather than a sync.Pool: the GC may drop
// sync.Pool items at any point, which would break the warm-launch
// zero-allocation guarantee the execution engine tests enforce.
type statePool[T matrix.Scalar] struct {
	mu   sync.Mutex
	free []*state[T]
	// allocs counts states built fresh (free list empty); a warm launch
	// must not move it — the batched zero-alloc tests assert on it.
	allocs int64
}

// StateAllocs returns how many work-group states the kernel has
// allocated across its lifetime. Warm launches recycle states through
// the free list, so the count stays flat once the kernel has run at
// its steady-state parallelism — the observable half of the
// zero-allocation warm-path guarantee.
func (g *GEMM[T]) StateAllocs() int64 {
	g.pool.mu.Lock()
	defer g.pool.mu.Unlock()
	return g.pool.allocs
}

// getState returns a ready work-group state: local-memory capacity is
// charged against the device budget exactly as an allocation would be
// (so ErrLocalMemExceeded fires identically), the accumulator is
// zeroed, and backing slabs are reused when the pool has them.
func (g *GEMM[T]) getState(run *clsim.GroupRun) *state[T] {
	p := &g.P
	if p.SharedA {
		run.TakeLocal(g.esize * p.Kwg * p.Mwg)
	}
	if p.SharedB {
		run.TakeLocal(g.esize * p.Kwg * p.Nwg)
	}
	g.pool.mu.Lock()
	var s *state[T]
	if n := len(g.pool.free); n > 0 {
		s = g.pool.free[n-1]
		g.pool.free = g.pool.free[:n-1]
	} else {
		g.pool.allocs++
	}
	g.pool.mu.Unlock()
	if s == nil {
		s = &state[T]{mwi: p.Mwi(), nwi: p.Nwi()}
		s.acc = make([]T, run.Size()*s.mwi*s.nwi)
		if p.SharedA {
			s.alm = make([]T, p.Kwg*p.Mwg)
		}
		if p.SharedB {
			s.blm = make([]T, p.Kwg*p.Nwg)
		}
		return s
	}
	// The local panels need no clearing: every schedule stages a panel
	// row range before any compute phase reads it.
	clear(s.acc)
	return s
}

func (g *GEMM[T]) putState(s *state[T]) {
	g.pool.mu.Lock()
	g.pool.free = append(g.pool.free, s)
	g.pool.mu.Unlock()
}

// elemBytes returns the element size of T for local-memory accounting.
func elemBytes[T matrix.Scalar]() int {
	var zero T
	if _, ok := any(zero).(float64); ok {
		return 8
	}
	return 4
}

// loadPanelA stages rows [pwg+k0, pwg+k0+kLen) of the A panel into alm
// (local layout: row-major Kwg×Mwg with row origin k0) with one copy
// per row. The cooperative (MdimA × KdimA) loads of §III-C write
// exactly these elements, so one PhaseBarrier stands for the load
// phase's barrier.
func (g *GEMM[T]) loadPanelA(s *state[T], run *clsim.GroupRun, gx, pwg, k0, kLen int) {
	mwg := g.P.Mwg
	for k := k0; k < k0+kLen; k++ {
		src := g.geoA.rowStart(pwg+k, gx)
		copy(s.alm[k*mwg:(k+1)*mwg], g.A[src:src+mwg])
	}
	run.PhaseBarrier()
}

// loadPanelB is the B counterpart of loadPanelA (NdimB × KdimB grid).
func (g *GEMM[T]) loadPanelB(s *state[T], run *clsim.GroupRun, gy, pwg, k0, kLen int) {
	nwg := g.P.Nwg
	for k := k0; k < k0+kLen; k++ {
		src := g.geoB.rowStart(pwg+k, gy)
		copy(s.blm[k*nwg:(k+1)*nwg], g.B[src:src+nwg])
	}
	run.PhaseBarrier()
}

// compute performs the inner multiply-accumulate for local k range
// [k0, k0+kLen) of the panel at pwg. For each panel row kk it reslices
// the Mwg-wide A run and Nwg-wide B run once (from local memory when
// staged, straight out of the packed global operand otherwise — the
// pack blocking makes both contiguous), then walks the work-items
// register-tiling C into each one's Mwi×Nwi accumulator block. Each
// accumulator element sums its terms in ascending k, skipping a == 0
// terms.
func (g *GEMM[T]) compute(s *state[T], run *clsim.GroupRun, gx, gy, pwg, k0, kLen int) {
	p := &g.P
	mwi, nwi := s.mwi, s.nwi
	per := mwi * nwi
	for kk := k0; kk < k0+kLen; kk++ {
		var arow, brow []T
		if p.SharedA {
			arow = s.alm[kk*p.Mwg : (kk+1)*p.Mwg]
		} else {
			base := g.geoA.rowStart(pwg+kk, gx)
			arow = g.A[base : base+p.Mwg]
		}
		if p.SharedB {
			brow = s.blm[kk*p.Nwg : (kk+1)*p.Nwg]
		} else {
			base := g.geoB.rowStart(pwg+kk, gy)
			brow = g.B[base : base+p.Nwg]
		}
		// Work-item (lx, ly) owns tile ly·MdimC+lx, built from B
		// segment ly and A segment lx, so walking the B segments outside
		// the A segments visits the tiles in order.
		tiles := s.acc
		for b := brow; len(b) > 0; b = b[nwi:] {
			bseg := b[:nwi]
			for a := arow; len(a) > 0; a = a[mwi:] {
				aseg, acc := a[:mwi], tiles[:per]
				tiles = tiles[per:]
				for i, av := range aseg {
					if av == 0 {
						continue
					}
					ai := acc[i*nwi : i*nwi+nwi]
					for j, bv := range bseg {
						ai[j] += av * bv
					}
				}
			}
		}
	}
	run.PhaseBarrier()
}

// merge writes α·acc + β·C back to global C (line 13 of Fig. 4) row-run
// by row-run: each work-item's j-run of Nwi elements is contiguous in
// row-major C. Per BLAS semantics C is not read when β == 0, so
// NaN/Inf-poisoned or uninitialized output buffers cannot corrupt the
// result (0·NaN = NaN would otherwise leak through).
func (g *GEMM[T]) merge(s *state[T], run *clsim.GroupRun, gx, gy int) {
	p := &g.P
	mwi, nwi := s.mwi, s.nwi
	per := mwi * nwi
	alpha, beta := g.Alpha, g.Beta
	for ly := 0; ly < p.NdimC; ly++ {
		n0 := gy*p.Nwg + ly*nwi
		for lx := 0; lx < p.MdimC; lx++ {
			wi := ly*p.MdimC + lx
			acc := s.acc[wi*per : (wi+1)*per]
			m0 := gx*p.Mwg + lx*mwi
			for i := 0; i < mwi; i++ {
				crow := g.C[(m0+i)*g.N+n0 : (m0+i)*g.N+n0+nwi]
				ai := acc[i*nwi : i*nwi+nwi]
				if beta == 0 {
					for j, av := range ai {
						crow[j] = alpha * av
					}
				} else {
					for j, av := range ai {
						crow[j] = alpha*av + beta*crow[j]
					}
				}
			}
		}
	}
	run.PhaseBarrier()
}

// RunGroup implements clsim.GroupKernel, dispatching on the schedule.
// Work-group state comes from the kernel's free list and goes back when
// the group finishes, so warm launches allocate nothing.
func (g *GEMM[T]) RunGroup(run *clsim.GroupRun) {
	s := g.getState(run)
	defer g.putState(s)
	switch g.P.Algorithm {
	case codegen.PL:
		g.runPL(s, run)
	case codegen.DB:
		g.runDB(s, run)
	default:
		g.runBA(s, run)
	}
}

// runBA is the basic algorithm (Fig. 4): stage panel, barrier, compute,
// barrier, next panel.
func (g *GEMM[T]) runBA(s *state[T], run *clsim.GroupRun) {
	p := &g.P
	gx, gy := run.ID(0), run.ID(1)
	for pwg := 0; pwg < g.K; pwg += p.Kwg {
		if p.SharedA {
			g.loadPanelA(s, run, gx, pwg, 0, p.Kwg)
		}
		if p.SharedB {
			g.loadPanelB(s, run, gy, pwg, 0, p.Kwg)
		}
		// Each phase ends with a barrier (Fig. 4 lines 5 and 11).
		g.compute(s, run, gx, gy, pwg, 0, p.Kwg)
	}
	g.merge(s, run, gx, gy)
}

// runPL is the software-pipelined algorithm (Fig. 5): the panel for
// iteration i+1 is fetched into private registers while iteration i
// computes from local memory, then stored to local memory behind a
// barrier. The private staging has no observable effect until the store
// lands its contents in local memory, so the fetch phase only records
// its barrier and the store phase loads local memory directly; the
// barrier structure (prologue, pipelined body, epilogue) matches the
// generated source. Operands not staged through local memory are read
// directly, as in BA.
func (g *GEMM[T]) runPL(s *state[T], run *clsim.GroupRun) {
	p := &g.P
	gx, gy := run.ID(0), run.ID(1)
	// Prologue (Fig. 5 lines 2-4): first panel into local memory.
	if p.SharedA {
		g.loadPanelA(s, run, gx, 0, 0, p.Kwg)
	}
	if p.SharedB {
		g.loadPanelB(s, run, gy, 0, 0, p.Kwg)
	}
	pwg := 0
	for ; pwg <= g.K-2*p.Kwg; pwg += p.Kwg {
		next := pwg + p.Kwg
		// Lines 6-7: fetch the next panel into private staging.
		if p.SharedA {
			run.PhaseBarrier()
		}
		if p.SharedB {
			run.PhaseBarrier()
		}
		// Lines 9-13: compute the current panel from local memory.
		g.compute(s, run, gx, gy, pwg, 0, p.Kwg)
		// Lines 14-17: store staging into local memory behind barriers.
		if p.SharedA {
			g.loadPanelA(s, run, gx, next, 0, p.Kwg)
		}
		if p.SharedB {
			g.loadPanelB(s, run, gy, next, 0, p.Kwg)
		}
	}
	// Epilogue (lines 19-23): last panel.
	g.compute(s, run, gx, gy, pwg, 0, p.Kwg)
	g.merge(s, run, gx, gy)
}

// runDB is the double-buffered algorithm (Fig. 6): the Kwg panel is
// split into two half-panels staged in alternating local-memory
// buffers, so loads of one half overlap compute on the other. The two
// halves live in the same local allocation (first and second Kwg/2
// rows), matching the total local-memory budget of BA. Direct
// (non-staged) operands read global memory at the true k offset.
func (g *GEMM[T]) runDB(s *state[T], run *clsim.GroupRun) {
	p := &g.P
	gx, gy := run.ID(0), run.ID(1)
	half := p.Kwg / 2

	// Lines 2-3: first half of the first panel into buffer 0.
	if p.SharedA {
		g.loadPanelA(s, run, gx, 0, 0, half)
	}
	if p.SharedB {
		g.loadPanelB(s, run, gy, 0, 0, half)
	}

	pwg := 0
	for ; pwg <= g.K-2*p.Kwg; pwg += p.Kwg {
		// Lines 6-7: second half into buffer 1.
		if p.SharedA {
			g.loadPanelA(s, run, gx, pwg, half, half)
		}
		if p.SharedB {
			g.loadPanelB(s, run, gy, pwg, half, half)
		}
		// Lines 8-12: compute on buffer 0.
		g.compute(s, run, gx, gy, pwg, 0, half)
		// Lines 14-15: next panel's first half into buffer 0.
		if p.SharedA {
			g.loadPanelA(s, run, gx, pwg+p.Kwg, 0, half)
		}
		if p.SharedB {
			g.loadPanelB(s, run, gy, pwg+p.Kwg, 0, half)
		}
		// Lines 16-20: compute on buffer 1 (previous panel's k range).
		g.compute(s, run, gx, gy, pwg, half, half)
	}
	// Epilogue (lines 22-35): finish the last panel.
	if p.SharedA {
		g.loadPanelA(s, run, gx, pwg, half, half)
	}
	if p.SharedB {
		g.loadPanelB(s, run, gy, pwg, half, half)
	}
	g.compute(s, run, gx, gy, pwg, 0, half)
	g.compute(s, run, gx, gy, pwg, half, half)
	g.merge(s, run, gx, gy)
}
