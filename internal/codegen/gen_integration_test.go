package codegen_test

// Integration of the full code-generation pipeline: the OpenCL C text
// emitted by codegen is compiled by the clc front end, interpreted on
// the clsim runtime with true per-work-item execution and barriers, and
// compared against both the reference BLAS and the native Go kernels —
// which must agree bit for bit in both precisions, since both compute
// every C element in the same accumulation order.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oclgemm/internal/blas"
	"oclgemm/internal/clc"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/kernels"
	"oclgemm/internal/matrix"
)

// sameBits reports whether x and y have identical IEEE bit patterns.
func sameBits[T matrix.Scalar](x, y T) bool {
	if xf, ok := any(x).(float32); ok {
		return math.Float32bits(xf) == math.Float32bits(any(y).(float32))
	}
	return math.Float64bits(any(x).(float64)) == math.Float64bits(any(y).(float64))
}

// runGenerated executes the generated source under BOTH clc engines —
// the bytecode VM (whose result lands in c) and the AST-interpreter
// oracle — and fails on any bitwise divergence between them. Every
// integration test below therefore doubles as a differential check of
// the VM.
func runGenerated[T matrix.Scalar](t *testing.T, p codegen.Params, m, n, k int,
	alpha T, at, bp []T, beta T, c []T) {
	t.Helper()
	src, err := p.GenerateSource()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("clc compile: %v\n%s", err, src)
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		t.Fatal(err)
	}
	if err := kern.CompileBytecode(); err != nil {
		t.Fatalf("bytecode compile: %v\n%s", err, src)
	}
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	cInterp := append([]T(nil), c...)
	run := func(out []T, forceInterp bool) {
		bound, err := kern.Bind(m, n, k, alpha, beta, at, bp, out)
		if err != nil {
			t.Fatalf("bind: %v", err)
		}
		bound.SetInterp(forceInterp)
		ctx := clsim.NewContext(&clsim.Device{Spec: device.Tahiti()})
		q := clsim.NewQueue(ctx)
		if err := q.Run(bound, nd); err != nil {
			t.Fatalf("run: %v\n%s", err, src)
		}
	}
	run(c, false)
	run(cInterp, true)
	for i := range c {
		if !sameBits(c[i], cInterp[i]) {
			t.Fatalf("%s: bytecode VM diverges from interpreter at C[%d]: vm=%v interp=%v",
				p.Name(), i, c[i], cInterp[i])
		}
	}
}

// checkGenerated packs inputs, runs the generated source through clc,
// runs the native kernel, and compares the generated result against
// the reference within tolerance and against the native kernel bit for
// bit: both execute the same per-element arithmetic in the same
// accumulation order, in either precision and for every stride mode.
func checkGenerated[T matrix.Scalar](t *testing.T, p codegen.Params, m, n, k int, seed int64) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid params: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New[T](m, k, matrix.RowMajor)
	b := matrix.New[T](k, n, matrix.RowMajor)
	c := matrix.New[T](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	alpha, beta := T(1.5), T(-0.75)

	at := matrix.Pack(a, true, k, m, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, false, k, n, p.Kwg, p.Nwg, p.LayoutB)

	// Generated source through the clc engines.
	cGen := c.Clone()
	runGenerated(t, p, m, n, k, alpha, at.Data, bp.Data, beta, cGen.Data)

	// Native kernel.
	cNat := c.Clone()
	kern, err := kernels.NewGEMM(p, m, n, k, alpha, at.Data, bp.Data, beta, cNat.Data)
	if err != nil {
		t.Fatal(err)
	}
	ctx := clsim.NewContext(&clsim.Device{Spec: device.Tahiti()})
	q := clsim.NewQueue(ctx)
	if err := q.RunLockstep(kern, kern.NDRange()); err != nil {
		t.Fatal(err)
	}

	// Reference.
	want := c.Clone()
	blas.GEMM(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, want)

	tol := 1e-12
	if p.Precision == matrix.Single {
		tol = matrix.Tolerance(matrix.Single, k)
	}
	if d := matrix.MaxRelDiff(cGen, want); d > tol {
		t.Errorf("%s: generated source differs from reference by %g", p.Name(), d)
	}
	for i := range cGen.Data {
		if !sameBits(cGen.Data[i], cNat.Data[i]) {
			t.Errorf("%s: C[%d] generated %v, native %v (want bit-identical)",
				p.Name(), i, cGen.Data[i], cNat.Data[i])
			return
		}
	}
}

func smallParams() codegen.Params {
	return codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 8, Nwg: 8, Kwg: 4,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
}

func TestGeneratedBAAllLayouts(t *testing.T) {
	for _, la := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
		for _, lb := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
			p := smallParams()
			p.LayoutA, p.LayoutB = la, lb
			checkGenerated[float64](t, p, 16, 16, 12, 1)
		}
	}
}

func TestGeneratedSharedModes(t *testing.T) {
	for _, sh := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		p := smallParams()
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkGenerated[float64](t, p, 16, 24, 8, 2)
	}
}

func TestGeneratedStrideAndVector(t *testing.T) {
	for _, st := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		for _, vw := range []int{1, 2, 4} {
			p := smallParams()
			p.Nwg = 16 // Nwi = 4
			p.StrideM, p.StrideN = st[0], st[1]
			p.VectorWidth = vw
			checkGenerated[float64](t, p, 16, 32, 8, 3)
			p.Precision = matrix.Single
			checkGenerated[float32](t, p, 16, 32, 8, 3)
		}
	}
}

func TestGeneratedPL(t *testing.T) {
	for _, sh := range [][2]bool{{true, true}, {true, false}, {false, false}} {
		p := smallParams()
		p.Algorithm = codegen.PL
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkGenerated[float64](t, p, 16, 16, 16, 4)
		p.Precision = matrix.Single
		checkGenerated[float32](t, p, 16, 16, 16, 4)
	}
}

func TestGeneratedDB(t *testing.T) {
	for _, sh := range [][2]bool{{true, true}, {false, true}} {
		p := smallParams()
		p.Algorithm = codegen.DB
		p.Kwg = 8
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkGenerated[float64](t, p, 16, 16, 32, 5)
	}
}

func TestGeneratedReshapedLoads(t *testing.T) {
	p := smallParams()
	p.Mwg, p.Nwg, p.Kwg = 16, 16, 8
	p.MdimA, p.NdimB = 8, 2
	checkGenerated[float64](t, p, 32, 32, 16, 6)
}

func TestGeneratedFloat32(t *testing.T) {
	p := smallParams()
	p.Precision = matrix.Single
	p.VectorWidth = 2
	checkGenerated[float32](t, p, 16, 16, 8, 7)
}

// The paper's Table II Tahiti configs, functionally, at reduced size.
func TestGeneratedPaperConfig(t *testing.T) {
	p := codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 96, Nwg: 32, Kwg: 48,
		MdimC: 16, NdimC: 16, MdimA: 16, NdimB: 16,
		Kwi: 2, VectorWidth: 2, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	checkGenerated[float64](t, p, 96, 32, 48, 8)
}

// Property test over random small configurations: the generated source,
// run by the clc engines, matches the reference BLAS and the native
// kernel for all three algorithms, both precisions and every stride
// mode.
func TestGeneratedPropertyRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("interpreter property test")
	}
	f := func(algSel, mwiS, nwiS, kwgS, vwS, shSel, stSel, layA, layB uint8, single bool, seed int64) bool {
		p := codegen.Params{
			Precision: matrix.Double,
			Algorithm: codegen.Algorithms[algSel%3],
			MdimC:     2, NdimC: 4,
			Kwi:     2,
			SharedA: shSel&1 != 0,
			SharedB: shSel&2 != 0,
			StrideM: stSel&1 != 0,
			StrideN: stSel&2 != 0,
			LayoutA: []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layA%3],
			LayoutB: []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layB%3],
		}
		p.Mwg = p.MdimC * (int(mwiS%3) + 1)
		p.Nwg = p.NdimC * []int{2, 4}[nwiS%2]
		p.Kwg = []int{4, 8}[kwgS%2]
		p.VectorWidth = []int{1, 2}[vwS%2]
		p.MdimA = p.MdimC
		p.NdimB = p.NdimC
		if p.Algorithm == codegen.DB && !p.UsesLocalMemory() {
			p.SharedB = true
		}
		if single {
			p.Precision = matrix.Single
		}
		if err := p.Validate(); err != nil {
			return true
		}
		m, n, k := p.Mwg*2, p.Nwg, p.Kwg*2
		if single {
			checkGenerated[float32](t, p, m, n, k, seed)
		} else {
			checkGenerated[float64](t, p, m, n, k, seed)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
