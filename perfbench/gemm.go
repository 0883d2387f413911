package main

import (
	"fmt"
	"math"
	"math/rand"

	"oclgemm"
	"oclgemm/internal/blas"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/matrix"
)

// engines is the pair of Table II tahiti routines a GEMM workload calls.
// A traced pair carries a registry and an obs trace.
type engines struct {
	d, s *oclgemm.GEMM
	reg  *oclgemm.Metrics
	tr   *oclgemm.Trace
}

// progTraceCap bounds the program's span ring. It holds several ops'
// spans; each traced op's spans are read right after the op.
const progTraceCap = 1 << 13

func newEngines(traced bool) (*engines, error) {
	e := &engines{}
	if traced {
		e.reg, e.tr = oclgemm.NewMetrics(), oclgemm.NewTrace(progTraceCap)
	}
	dev, err := oclgemm.DeviceByID("tahiti")
	if err != nil {
		return nil, err
	}
	for _, prec := range []oclgemm.Precision{oclgemm.Double, oclgemm.Single} {
		p, err := tahitiParams(prec)
		if err != nil {
			return nil, err
		}
		g, err := oclgemm.NewGEMM(dev, p)
		if err != nil {
			return nil, err
		}
		g.SetWorkers(1)
		if traced {
			g.Observe(e.reg, e.tr)
		}
		if prec == oclgemm.Double {
			e.d = g
		} else {
			e.s = g
		}
	}
	return e, nil
}

func tahitiParams(prec oclgemm.Precision) (oclgemm.Params, error) {
	p, ok, err := oclgemm.ParamsFor(oclgemm.PaperKernels(), "tahiti", prec)
	if err == nil && !ok {
		err = fmt.Errorf("no Table II kernel for tahiti %v", prec)
	}
	return p, err
}

func (e *engines) close() {
	e.d.Close()
	e.s.Close()
}

func routine[T matrix.Scalar](e *engines) *oclgemm.GEMM {
	if _, ok := any(T(0)).(float32); ok {
		return e.s
	}
	return e.d
}

// problem is a strided batch of count same-shape GEMMs with random
// operands and its reference result, computed once with the serial
// internal/blas GEMM. A single GEMM is a batch of one.
type problem[T matrix.Scalar] struct {
	sb    *oclgemm.StridedBatch[T]
	items []oclgemm.GEMMCall[T]
	c0    []T // input C slab (β ≠ 0)
	want  []T
	tol   float64
	// flops and padded are the useful and executed flops of one pass
	// over every item.
	flops, padded float64
}

func newProblem[T matrix.Scalar](rng *rand.Rand, im *gemmimpl.Impl, ta, tb blas.Transpose, m, n, k, count int, broadcastB bool, alpha, beta T) (*problem[T], error) {
	na, nb, nc := m*k, k*n, m*n
	sb := &oclgemm.StridedBatch[T]{
		TransA: ta, TransB: tb, Alpha: alpha, Beta: beta, M: m, N: n, K: k,
		Order: oclgemm.ColMajor, Count: count,
		A: randSlice[T](rng, na*count), StrideA: na,
		B: randSlice[T](rng, nb*count), StrideB: nb,
		C: make([]T, nc*count), StrideC: nc,
	}
	if broadcastB {
		sb.B, sb.StrideB = sb.B[:nb], 0
	}
	pr := &problem[T]{sb: sb, want: make([]T, nc*count)}
	if beta != 0 {
		pr.c0 = randSlice[T](rng, nc*count)
		copy(pr.want, pr.c0)
	}
	items, err := sb.Items()
	if err != nil {
		return nil, err
	}
	for i, it := range items {
		want := matrix.FromSlice(m, n, sb.Order, pr.want[i*nc:(i+1)*nc])
		blas.GEMM(ta, tb, alpha, it.A, it.B, beta, want)
		pr.items = append(pr.items, oclgemm.GEMMCall[T]{TransA: ta, TransB: tb, Alpha: alpha, A: it.A, B: it.B, Beta: beta, C: it.C})
	}
	if _, ok := any(T(0)).(float32); ok {
		pr.tol = matrix.Tolerance(matrix.Single, k)
	}
	mp, np, kp := im.PaddedDims(m, n, k)
	pr.flops = blas.FlopCount(m, n, k) * float64(count)
	pr.padded = blas.FlopCount(mp, np, kp) * float64(count)
	return pr, nil
}

func randSlice[T matrix.Scalar](rng *rand.Rand, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = T(2*rng.Float64() - 1)
	}
	return out
}

// prep readies C for the next op: the input C when β ≠ 0, NaN otherwise,
// so an op that reads C despite β = 0, or skips an element, shows.
func (pr *problem[T]) prep() {
	if pr.c0 != nil {
		copy(pr.sb.C, pr.c0)
		return
	}
	nan := T(math.NaN())
	for i := range pr.sb.C {
		pr.sb.C[i] = nan
	}
}

func (pr *problem[T]) check() error { return compareSlices(pr.sb.C, pr.want, pr.tol) }

// gemmOp is one op of a GEMM workload: a timed call and the untimed
// preparation and check of its output.
type gemmOp struct {
	kind          string
	items         int
	batched       bool
	flops, padded float64
	prep          func()
	call          func(e *engines, sp *span) error
	check         func() error
}

// loopOp runs every item of pr as its own GEMM call.
func loopOp[T matrix.Scalar](kind string, pr *problem[T]) gemmOp {
	return gemmOp{
		kind: kind, items: len(pr.items), flops: pr.flops, padded: pr.padded,
		prep: pr.prep, check: pr.check,
		call: func(e *engines, sp *span) error {
			g := routine[T](e)
			for i := range pr.items {
				c := &pr.items[i]
				cs := sp.child("oclgemm.Run")
				err := oclgemm.Run(g, c.TransA, c.TransB, c.Alpha, c.A, c.B, c.Beta, c.C)
				cs.end()
				if err != nil {
					return fmt.Errorf("item %d: %w", i, err)
				}
			}
			return nil
		},
	}
}

// batchedOp runs pr as one strided-batched call.
func batchedOp[T matrix.Scalar](kind string, pr *problem[T]) gemmOp {
	return gemmOp{
		kind: kind, items: len(pr.items), batched: true, flops: pr.flops, padded: pr.padded,
		prep: pr.prep, check: pr.check,
		call: func(e *engines, sp *span) error {
			cs := sp.child("oclgemm.GEMMStridedBatched")
			err := oclgemm.GEMMStridedBatched(routine[T](e), pr.sb)
			cs.end()
			return err
		},
	}
}

// gemmRun is the state of one GEMM workload run.
type gemmRun struct {
	cfg    config
	sets   [][]gemmOp // op list of one pass, per operand set
	plain  *engines
	traced *engines
	tr     *tracer
	// per-kind untraced time, for the batch layer
	kindMS    map[string]float64
	kindItems map[string]int
}

// runGEMMWorkload sets the engines up setupRepeats times (each set-up
// ends with one cold op per kind, which builds the plans), then runs
// passes over the operand sets, rotating sets so consecutive calls on a
// plan never see the operands it packed last.
func runGEMMWorkload(cfg config, sets [][]gemmOp) (*report, error) {
	r := &gemmRun{cfg: cfg, sets: sets, kindMS: map[string]float64{}, kindItems: map[string]int{}}
	rep := &report{layers: map[string]float64{}}
	setup := func(traced bool) func() (*engines, error) {
		return func() (*engines, error) {
			e, err := newEngines(traced)
			if err != nil {
				return nil, err
			}
			// The cold ops use the last operand set, so the first pass
			// (set 0) packs fresh operands like every later one.
			for _, o := range sets[len(sets)-1] {
				o.prep()
				if err := o.call(e, nil); err != nil {
					e.close()
					return nil, fmt.Errorf("cold %s: %w", o.kind, err)
				}
			}
			return e, nil
		}
	}
	var err error
	if r.plain, rep.setups, err = timeSetups(setup(false), (*engines).close); err != nil {
		return nil, err
	}
	defer r.plain.close()
	var before map[string]int64
	if cfg.trace {
		if r.traced, err = setup(true)(); err != nil {
			return nil, err
		}
		defer r.traced.close()
		r.tr = newTracer()
		before = readCounters(r.traced.reg)
	}
	if err := closedLoop(cfg, rep, 1, r.pass); err != nil {
		return nil, err
	}
	if cfg.trace {
		r.layers(rep, before)
		writeTrace(cfg, r.tr)
	}
	return rep, nil
}

func (r *gemmRun) pass(i int, m *meter, traced bool) error {
	e, tr := r.plain, (*tracer)(nil)
	if traced {
		e, tr = r.traced, r.tr
	}
	for _, o := range r.sets[i%len(r.sets)] {
		o.prep()
		var root *span
		d, err := m.measure(func() error {
			root = tr.op(o.kind)
			err := o.call(e, root)
			root.end()
			return err
		})
		if err == nil {
			err = o.check()
		}
		m.count(d, o.flops, err)
		if traced {
			tr.adopt(e.tr.Snapshot(), root.rec.TraceID)
		} else if r.cfg.trace {
			r.kindMS[o.kind] += float64(d.Nanoseconds()) / 1e6
			r.kindItems[o.kind] += o.items
		}
	}
	return nil
}

// layers derives the gemmimpl, kernels, clsim and batch rows from the
// traced ops' spans and the counter deltas over the window.
func (r *gemmRun) layers(rep *report, before map[string]int64) {
	kinds := map[string]gemmOp{}
	for _, set := range r.sets {
		for _, o := range set {
			kinds[o.kind] = o
		}
	}
	var s engineSums
	r.tr.each(func(spans []spanRec) {
		for i := range spans {
			sp := &spans[i]
			switch {
			case sp.ParentID == 0:
				s.useful += kinds[sp.Name].flops
				s.padded += kinds[sp.Name].padded
			case sp.isCall():
				s.call += float64(sp.DurNS) / 1e6
			default:
				s.addPhase(sp)
			}
		}
	})
	L := rep.layers
	engineLayers(L, s, since(r.traced.reg, before), float64(rep.traced.attempted))
	var bMS, lMS float64
	var bItems, lItems int
	for kind, ms := range r.kindMS {
		if kinds[kind].batched {
			bMS, bItems = bMS+ms, bItems+r.kindItems[kind]
		} else if kinds[kind].items > 1 {
			lMS, lItems = lMS+ms, lItems+r.kindItems[kind]
		}
	}
	if bItems > 0 && lItems > 0 {
		L["batch.item_us"] = bMS * 1e3 / float64(bItems)
		L["batch.loop_item_us"] = lMS * 1e3 / float64(lItems)
		L["batch.speedup_vs_loop"] = L["batch.loop_item_us"] / L["batch.item_us"]
	}
}

// tahitiImpl is the kernel implementation behind a tahiti routine, used
// for its padded dimensions.
func tahitiImpl(prec oclgemm.Precision) (*gemmimpl.Impl, error) {
	p, err := tahitiParams(prec)
	if err != nil {
		return nil, err
	}
	dev, err := oclgemm.DeviceByID("tahiti")
	if err != nil {
		return nil, err
	}
	return gemmimpl.New(dev, p)
}

// nsets is the number of operand sets a GEMM workload rotates through.
const nsets = 2

// runGemmLarge is one caller in a closed loop on warm engines, cycling
// DGEMM 256³ NN, SGEMM 256³ NN and DGEMM 192×160×128 TN (β ≠ 0).
func runGemmLarge(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	imD, err := tahitiImpl(oclgemm.Double)
	if err != nil {
		return nil, err
	}
	imS, err := tahitiImpl(oclgemm.Single)
	if err != nil {
		return nil, err
	}
	var sets [][]gemmOp
	for s := 0; s < nsets; s++ {
		d256, err := newProblem[float64](rng, imD, blas.NoTrans, blas.NoTrans, 256, 256, 256, 1, false, 1.25, 0)
		if err != nil {
			return nil, err
		}
		s256, err := newProblem[float32](rng, imS, blas.NoTrans, blas.NoTrans, 256, 256, 256, 1, false, 1.25, 0)
		if err != nil {
			return nil, err
		}
		dtn, err := newProblem[float64](rng, imD, blas.Trans, blas.NoTrans, 192, 160, 128, 1, false, 1.25, -0.5)
		if err != nil {
			return nil, err
		}
		sets = append(sets, []gemmOp{
			loopOp("dgemm-256-nn", d256), loopOp("sgemm-256-nn", s256), loopOp("dgemm-192x160x128-tn", dtn),
		})
	}
	return runGEMMWorkload(cfg, sets)
}

// smallCount is the number of DGEMMs in one gemm-small op. An SGEMM
// op holds twice as many, which makes it about as long, so the ops'
// median is not pinned to the edge between two op lengths.
const smallCount = 96

// runGemmSmall is one caller in a closed loop over groups of small
// GEMMs, each group run once as a GEMMStridedBatched call and once as a
// loop of Run calls: 96 DGEMM 16×16×8 with distinct and with broadcast
// (stride-0) B, and 192 SGEMM 8×24×4 with β ≠ 0.
func runGemmSmall(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	imD, err := tahitiImpl(oclgemm.Double)
	if err != nil {
		return nil, err
	}
	imS, err := tahitiImpl(oclgemm.Single)
	if err != nil {
		return nil, err
	}
	var sets [][]gemmOp
	for s := 0; s < nsets; s++ {
		dist, err := newProblem[float64](rng, imD, blas.NoTrans, blas.NoTrans, 16, 16, 8, smallCount, false, 1.25, 0)
		if err != nil {
			return nil, err
		}
		bcast, err := newProblem[float64](rng, imD, blas.NoTrans, blas.NoTrans, 16, 16, 8, smallCount, true, 1.25, 0)
		if err != nil {
			return nil, err
		}
		sb, err := newProblem[float32](rng, imS, blas.NoTrans, blas.NoTrans, 8, 24, 4, 2*smallCount, false, 1.25, 0.5)
		if err != nil {
			return nil, err
		}
		sets = append(sets, []gemmOp{
			batchedOp("dgemm-16x16x8-batched", dist), loopOp("dgemm-16x16x8-loop", dist),
			batchedOp("dgemm-16x16x8-bcastB-batched", bcast), loopOp("dgemm-16x16x8-bcastB-loop", bcast),
			batchedOp("sgemm-8x24x4-beta-batched", sb), loopOp("sgemm-8x24x4-beta-loop", sb),
		})
	}
	return runGEMMWorkload(cfg, sets)
}
