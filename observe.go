package oclgemm

import (
	"oclgemm/internal/obs"
)

// Metrics is a process-local metrics registry: named counters, gauges
// and histograms with an atomic, allocation-free hot path. One registry
// can be shared by any number of GEMM routines, pools and tuning runs —
// instruments with the same name aggregate. The zero of everything is
// cheap: components given no registry skip all recording.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time copy of a registry's instruments,
// renderable as an aligned table or JSON.
type MetricsSnapshot = obs.Snapshot

// Trace is a fixed-capacity ring buffer of completed spans. When full,
// the oldest spans are overwritten (see Trace.Dropped) so tracing never
// blocks or grows without bound.
type Trace = obs.Tracer

// TraceSpan is one completed span: name, start time, duration and the
// bytes/flops/attribute annotations the recording layer attached.
type TraceSpan = obs.SpanRecord

// PhaseStat aggregates the spans of one phase name: call count, total
// seconds, bytes and flops.
type PhaseStat = obs.Phase

// BenchReport is the machine-readable benchmark artifact gemmbench
// emits (schema "oclgemm-bench/v1"): the run's configuration, wall
// time, throughput, per-phase breakdown and a metrics snapshot.
type BenchReport = obs.BenchReport

// BenchEntry is one named throughput row inside a BenchReport: a leg of
// a comparative run, e.g. the batched path versus its loop-of-GEMMs
// baseline.
type BenchEntry = obs.BenchEntry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTrace returns a span ring buffer holding up to capacity spans
// (<= 0 selects the default, 4096).
func NewTrace(capacity int) *Trace { return obs.NewTracer(capacity) }

// PhaseBreakdown aggregates spans by name, sorted by total time
// descending — the per-phase (pack/kernel/copy) profile of a trace.
func PhaseBreakdown(spans []TraceSpan) []PhaseStat { return obs.PhaseBreakdown(spans) }

// RenderPhases formats a phase breakdown as an aligned table with each
// phase's share of the total.
func RenderPhases(phases []PhaseStat) string { return obs.RenderPhases(phases) }

// NewBenchReport returns a report skeleton for the given mode
// ("single" or "pool") stamped with the current time.
func NewBenchReport(mode string) *BenchReport { return obs.NewBenchReport(mode) }

// Observe attaches a metrics registry and/or span trace to the routine
// (either may be nil). The plan cache counts hits, misses and
// evictions into the registry from the next call on; plans the engine
// builds afterwards record per-phase pack/kernel/copy timings,
// pack-reuse counters and the underlying runtime's launch/buffer
// accounting. Call it before the first Run: plans already cached keep
// the instruments they were built with (Close first to rebuild). Safe
// to call concurrently with Runs.
func (g *GEMM) Observe(m *Metrics, t *Trace) {
	g.eng.Impl().SetObservability(m, t)
}
