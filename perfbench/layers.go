package main

import "oclgemm/internal/obs"

// layerCounters are the program's obs counters the per-layer table
// reads.
var layerCounters = []string{
	"gemm.plan.hit", "gemm.plan.miss", "gemm.pack.reused.A", "gemm.pack.reused.B",
	"clsim.kernel.launches", "clsim.workgroups.run", "clsim.bytes.written",
	"clsim.bytes.read", "clsim.buffer.created",
}

// readCounters reads layerCounters plus the number of executed A and B
// packs (gemm.packs) from a registry; a nil registry reads nothing.
func readCounters(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	if reg == nil {
		return out
	}
	for _, n := range layerCounters {
		out[n] = reg.Counter(n).Value()
	}
	out["gemm.packs"] = reg.Histogram("gemm.phase.pack.A.seconds").Count() + reg.Histogram("gemm.phase.pack.B.seconds").Count()
	return out
}

// since returns the counter deltas from before to now.
func since(reg *obs.Registry, before map[string]int64) map[string]int64 {
	d := readCounters(reg)
	for n, v := range before {
		d[n] -= v
	}
	return d
}

// engineSums totals the traced ops: time in benchmark call spans and in
// the program's phase spans (ms), and useful and executed flops.
type engineSums struct {
	call, pack, kernel, copyOut float64
	useful, padded              float64
}

// addPhase adds a program phase span to the sums.
func (s *engineSums) addPhase(sp *spanRec) {
	ms := float64(sp.DurNS) / 1e6
	switch sp.Name {
	case "gemm.pack.A", "gemm.pack.B", "gemm.pack.C":
		s.pack += ms
	case "gemm.kernel":
		s.kernel += ms
	case "gemm.copy.out":
		s.copyOut += ms
	}
}

// engineLayers fills the gemmimpl, kernels and clsim rows from span
// sums and counter deltas over ops traced ops.
func engineLayers(L map[string]float64, s engineSums, d map[string]int64, ops float64) {
	reused := float64(d["gemm.pack.reused.A"] + d["gemm.pack.reused.B"])
	// GEMM.Observe reaches plans, not the plan cache a routine builds in
	// NewGEMM, so only the server publishes plan hits and misses.
	if lookups := d["gemm.plan.hit"] + d["gemm.plan.miss"]; lookups > 0 {
		L["gemmimpl.plan_hit_share"] = float64(d["gemm.plan.hit"]) / float64(lookups)
	}
	L["gemmimpl.pack_ms_per_op"] = s.pack / ops
	L["gemmimpl.kernel_ms_per_op"] = s.kernel / ops
	L["gemmimpl.copyout_ms_per_op"] = s.copyOut / ops
	L["gemmimpl.overhead_ms_per_op"] = (s.call - s.pack - s.kernel - s.copyOut) / ops
	L["gemmimpl.pack_reuse_share"] = reused / (reused + float64(d["gemm.packs"]))
	L["kernels.padding_ratio"] = s.padded / s.useful
	L["kernels.executed_gflops"] = s.padded / (s.kernel / 1e3) / 1e9
	L["clsim.launches_per_op"] = float64(d["clsim.kernel.launches"]) / ops
	L["clsim.workgroups_per_op"] = float64(d["clsim.workgroups.run"]) / ops
	L["clsim.bytes_per_op"] = float64(d["clsim.bytes.written"]+d["clsim.bytes.read"]) / ops
	L["clsim.buffers_created_per_op"] = float64(d["clsim.buffer.created"]) / ops
}
