package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"oclgemm/internal/blas"
	"oclgemm/internal/clc"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/core"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

// tuneCand is one candidate kernel of the tune-verify list.
type tuneCand struct {
	dev *device.Spec
	p   codegen.Params
}

// candsPerSlot is how many candidates the sampler draws per device,
// precision and algorithm.
const candsPerSlot = 3

// candidateList draws the seeded candidate list with core.NewSampler for
// tahiti, kepler and sandybridge in both precisions. Each slot fixes the
// structure that sets a verdict's cost (32×32×16 work-group tile, 8×8
// work-items, Kwi 2, vector width 2, both operands in local memory, one
// algorithm) and lets the seed draw the rest (layouts, strides, load
// reshapes), so every seed gives a list of the same cost profile.
func candidateList(seed int64) ([]tuneCand, error) {
	var out []tuneCand
	slot := int64(0)
	for _, id := range []string{"tahiti", "kepler", "sandybridge"} {
		dev, err := device.ByID(id)
		if err != nil {
			return nil, err
		}
		for _, prec := range []matrix.Precision{matrix.Single, matrix.Double} {
			for _, alg := range []codegen.Algorithm{codegen.BA, codegen.PL, codegen.DB} {
				sp := core.DefaultSpace(dev)
				sp.Mwg, sp.Nwg, sp.Kwg = []int{32}, []int{32}, []int{16}
				sp.MdimC, sp.NdimC = []int{8}, []int{8}
				sp.Kwi, sp.VectorWidths = []int{2}, []int{2}
				sp.Algorithms = []codegen.Algorithm{alg}
				sp.Shared = []core.SharedMode{{A: true, B: true}}
				slot++
				s := core.NewSampler(&sp, dev, prec, seed*64+slot)
				for j := 0; j < candsPerSlot; j++ {
					p, ok := s.Draw()
					if !ok {
						return nil, fmt.Errorf("no %v %v candidate for %s", prec, alg, id)
					}
					out = append(out, tuneCand{dev, p})
				}
			}
		}
	}
	return out, nil
}

// verifyGrids are the work-group grids VerifySource runs the generated
// source on.
var verifyGrids = [][3]int{{2, 2, 2}, {3, 2, 3}}

// verdictFlops is the useful arithmetic one verdict checks: the native
// 7×9×5 padding check plus the generated source on both grids.
func verdictFlops(p *codegen.Params) float64 {
	f := blas.FlopCount(7, 9, 5)
	for _, g := range verifyGrids {
		f += blas.FlopCount(g[0]*p.Mwg, g[1]*p.Nwg, g[2]*p.Kwg)
	}
	return f
}

// runTuneVerify is one caller in a closed loop; each op is one
// core.VerifyParams verdict, and every verdict must pass, since every
// sampled candidate is valid. VerifyParams has no worker knob: its
// simulated queues run GOMAXPROCS workers, so the workload pins
// GOMAXPROCS to 1.
func runTuneVerify(cfg config) (*report, error) {
	runtime.GOMAXPROCS(1)
	rep := &report{layers: map[string]float64{}}
	// The set-up's cold verdict is on a candidate of a fixed seed, so
	// set-up cost does not depend on which candidates the seed draws.
	cold, err := candidateList(0)
	if err != nil {
		return nil, err
	}
	cands, setups, err := timeSetups(func() ([]tuneCand, error) {
		cands, err := candidateList(cfg.seed)
		if err == nil {
			err = core.VerifyParams(cold[0].dev, &cold[0].p)
		}
		return cands, err
	}, func([]tuneCand) {})
	if err != nil {
		return nil, err
	}
	rep.setups = setups
	var tr *tracer
	var d decomposition
	if cfg.trace {
		tr = newTracer()
		d.reg = obs.NewRegistry()
		d.rng = rand.New(rand.NewSource(cfg.seed))
	}
	// A pass is one slot's candidates, so in trace mode the untraced and
	// traced halves verify the same candidates back to back.
	slots := len(cands) / candsPerSlot
	err = closedLoop(cfg, rep, slots, func(i int, m *meter, traced bool) error {
		slot := cands[i%slots*candsPerSlot:][:candsPerSlot]
		for j, c := range slot {
			var root *span
			if traced {
				root = tr.op("verdict")
			}
			m.op(verdictFlops(&c.p), func() error {
				cs := root.child("core.VerifyParams")
				err := core.VerifyParams(c.dev, &c.p)
				cs.end()
				root.end()
				return err
			}, func() error { return nil })
			// Decomposing every third traced verdict keeps the traced
			// run close to the untraced one in length.
			if traced && (i*candsPerSlot+j)%3 == 0 {
				if err := d.run(root, c); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		d.layers(rep, tr)
		writeTrace(cfg, tr)
	}
	return rep, nil
}

// decomposition re-runs a verdict's stages one public call at a time,
// after the timed op, so the traced run can time each layer: the whole
// VerifySource, source generation, clc compilation, the VM run on each
// grid and the BLAS reference.
type decomposition struct {
	reg      *obs.Registry
	rng      *rand.Rand
	instrs   []float64
	vmFlops  float64
	verdicts int
}

func (d *decomposition) run(root *span, c tuneCand) error {
	d.verdicts++
	s := root.child("core.VerifySource")
	err := core.VerifySource(c.dev, &c.p)
	s.end()
	if err != nil {
		return fmt.Errorf("VerifySource %s: %w", c.p.Name(), err)
	}
	s = root.child("codegen.GenerateSource")
	src, err := c.p.GenerateSource()
	s.end()
	if err != nil {
		return err
	}
	for _, g := range verifyGrids {
		s = root.child("clc.Compile")
		prog, err := clc.Compile(src)
		var kern *clc.KernelDecl
		if err == nil {
			kern, err = prog.Kernel(codegen.KernelName)
		}
		if err == nil {
			err = kern.CompileBytecode()
		}
		s.end()
		if err != nil {
			return fmt.Errorf("compile %s: %w", c.p.Name(), err)
		}
		if c.p.Precision == matrix.Double {
			err = vmRun[float64](d, root, c, kern, g)
		} else {
			err = vmRun[float32](d, root, c, kern, g)
		}
		if err != nil {
			return err
		}
		if g == verifyGrids[0] {
			dis, err := kern.Disassemble(true)
			if err != nil {
				return err
			}
			var n int
			if _, err := fmt.Sscanf(dis, "; %d instrs", &n); err != nil {
				return fmt.Errorf("disassembly header: %w", err)
			}
			d.instrs = append(d.instrs, float64(n))
		}
	}
	return nil
}

// vmRun executes the compiled source on one grid, as VerifySource does,
// with the reference GEMM and the VM run in their own spans.
func vmRun[T matrix.Scalar](d *decomposition, root *span, c tuneCand, kern *clc.KernelDecl, g [3]int) error {
	p := &c.p
	m, n, k := g[0]*p.Mwg, g[1]*p.Nwg, g[2]*p.Kwg
	a := matrix.New[T](m, k, matrix.RowMajor)
	b := matrix.New[T](k, n, matrix.RowMajor)
	cm := matrix.New[T](m, n, matrix.RowMajor)
	a.FillRandom(d.rng)
	b.FillRandom(d.rng)
	cm.FillRandom(d.rng)
	want := cm.Clone()
	s := root.child("blas.GEMM")
	blas.GEMM(blas.NoTrans, blas.NoTrans, T(1.5), a, b, T(-0.25), want)
	s.end()
	at := matrix.Pack(a, true, k, m, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, false, k, n, p.Kwg, p.Nwg, p.LayoutB)
	ctx := clsim.NewContext(&clsim.Device{Spec: c.dev})
	ctx.SetObserver(d.reg)
	q := clsim.NewQueue(ctx)
	q.Workers = 1
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	s = root.child("clc.vm")
	bound, err := kern.Bind(m, n, k, T(1.5), T(-0.25), at.Data, bp.Data, cm.Data)
	if err == nil {
		bound.SetFuel(1 << 26)
		err = q.Run(bound, nd)
	}
	s.end()
	if err != nil {
		return fmt.Errorf("VM run %s on %v: %w", p.Name(), g, err)
	}
	d.vmFlops += blas.FlopCount(m, n, k)
	return nil
}

// layers derives the core, codegen, clc, blas and clsim rows.
func (d *decomposition) layers(rep *report, tr *tracer) {
	sum := map[string]float64{}
	var native []float64
	tr.each(func(spans []spanRec) {
		var vp, vs float64
		for _, s := range spans {
			ms := float64(s.DurNS) / 1e6
			sum[s.Name] += ms
			switch s.Name {
			case "core.VerifyParams":
				vp = ms
			case "core.VerifySource":
				vs = ms
			}
		}
		if vs > 0 {
			native = append(native, vp-vs)
		}
	})
	ops := float64(d.verdicts)
	L := rep.layers
	L["core.native_check_ms"] = mean(native)
	L["codegen.gen_us"] = sum["codegen.GenerateSource"] * 1e3 / ops
	L["clc.compile_ms"] = sum["clc.Compile"] / ops
	L["clc.vm_ms"] = sum["clc.vm"] / ops
	L["clc.vm_mflops"] = d.vmFlops / (sum["clc.vm"] / 1e3) / 1e6
	L["clc.static_instrs"] = mean(d.instrs)
	L["blas.reference_ms"] = sum["blas.GEMM"] / ops
	c := readCounters(d.reg)
	L["clsim.launches_per_op"] = float64(c["clsim.kernel.launches"]) / ops
	L["clsim.workgroups_per_op"] = float64(c["clsim.workgroups.run"]) / ops
	L["clsim.bytes_per_op"] = float64(c["clsim.bytes.written"]+c["clsim.bytes.read"]) / ops
	L["clsim.buffers_created_per_op"] = float64(c["clsim.buffer.created"]) / ops
}
