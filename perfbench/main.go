// Command perfbench is the repository's benchmark. It runs one workload
// against the public entry points (oclgemm.GEMM and GEMMStridedBatched,
// serve.Server over loopback HTTP, core.VerifyParams), checks every
// output, and prints the end-to-end metrics — or, with -trace 1, the
// per-layer metrics — as the last line of standard output:
//
//	{"correct":true,"attempted":…,"failed":0,"metrics":{"lat_p50_ms":{"value":…,"unit":"ms"},…}}
//
// Every knob the program exposes is held at 1 worker: on a small,
// shared machine a fork/join over two vCPUs waits for whichever vCPU
// was stolen, so wall times would measure the neighbours. Run it
// through run.sh, which builds it from source.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// workload is one traffic mix. run measures it and returns the meters
// of its timed window; in trace mode it also fills the per-layer table.
type workload struct {
	name string
	// tail is the highest percentile every run of the workload has at
	// least minBeyond samples beyond.
	tail float64
	run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{"gemm-large", 90, runGemmLarge},
	{"gemm-small", 90, runGemmSmall},
	{"serve-mixed", 99, runServeMixed},
	{"tune-verify", 90, runTuneVerify},
}

// setupRepeats is how many fresh set-ups a run times; setup_s is their
// median, so one set-up that lands on a busy moment does not move it.
const setupRepeats = 15

// report is what a workload measured.
type report struct {
	plain  *meter // untraced ops: the end-to-end metrics
	traced *meter // traced ops (trace mode only)
	setups []float64
	layers map[string]float64
	health health
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "timed window length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for span traces and run-health records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload one of gemm-large|gemm-small|serve-mixed|tune-verify, -seconds > 0, -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	res, err := summarize(wl, cfg, rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	rep.health.record(cfg, stdout, stderr)
	if cfg.trace {
		for _, m := range perLayer {
			fmt.Fprintf(stdout, "%-30s %14.6g %-8s moves %s\n", m.name, res.Metrics[m.name].Value, m.unit, m.moves)
		}
	} else {
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, "%-30s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
		}
		fmt.Fprintf(stdout, "setup_s is the median of %d set-ups\n", len(rep.setups))
		if tail, err := percentile(rep.plain.lat, wl.tail); err == nil {
			fmt.Fprintf(stdout, "tail, not gated: p%g of %d ops = %.6g ms\n", wl.tail, len(rep.plain.lat), tail)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summarize turns a report into the printed metrics: every end-to-end
// metric untraced, every per-layer metric traced.
func summarize(wl *workload, cfg config, rep *report) (*result, error) {
	res := &result{Attempted: rep.plain.attempted, Failed: rep.plain.failed, Metrics: make(map[string]jsonMetric)}
	if rep.traced != nil {
		res.Attempted += rep.traced.attempted
		res.Failed += rep.traced.failed
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no op attempted")
	}
	if cfg.trace {
		p50u, err := percentile(rep.plain.lat, 50)
		if err != nil {
			return nil, fmt.Errorf("untraced lat_p50: %w", err)
		}
		p50t, err := percentile(rep.traced.lat, 50)
		if err != nil {
			return nil, fmt.Errorf("traced lat_p50: %w", err)
		}
		rep.layers["obs.trace_overhead_share"] = p50t/p50u - 1
		tail, err := percentile(slices.Concat(rep.plain.lat, rep.traced.lat), wl.tail)
		if err != nil {
			return nil, fmt.Errorf("e2e.lat_tail_ms: %w", err)
		}
		rep.layers["e2e.lat_tail_ms"] = tail
		for _, m := range perLayer {
			// A layer the workload does not reach reads 0.
			res.Metrics[m.name] = jsonMetric{rep.layers[m.name], m.unit}
		}
	} else {
		m := rep.plain
		p50, err := percentile(m.lat, 50)
		if err != nil {
			return nil, fmt.Errorf("lat_p50: %w", err)
		}
		ok := m.attempted - m.failed
		vals := map[string]float64{
			"lat_p50_ms":    p50,
			"ops_per_s":     float64(ok) / m.busy.Seconds(),
			"useful_gflops": m.flops / m.busy.Seconds() / 1e9,
			"cpu_ms_per_op": float64(m.cpu.Nanoseconds()) / 1e6 / float64(max(ok, 1)),
			"heap_peak_mb":  float64(m.heapPeak) / (1 << 20),
			"setup_s":       median(rep.setups),
			"ok_share":      float64(ok) / float64(m.attempted),
		}
		for _, em := range endToEnd {
			res.Metrics[em.name] = jsonMetric{vals[em.name], em.unit}
		}
	}
	for n, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, v.Value)
		}
	}
	return res, nil
}

// meter accumulates a timed window: wall latency and process CPU time
// summed over op intervals only, so output checking between ops stays
// outside it.
type meter struct {
	lat       []float64 // ms of each verified op
	busy      time.Duration
	cpu       time.Duration
	attempted int
	failed    int
	flops     float64 // useful 2·m·n·k of verified results
	heapPeak  uint64
	firstErr  error
}

// measure times fn as one op.
func (m *meter) measure(fn func() error) (time.Duration, error) {
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	m.cpu += cpuTime() - c0
	m.busy += d
	m.sampleHeap()
	return d, err
}

// op times call, then (untimed) checks its output, and counts the op.
func (m *meter) op(flops float64, call, check func() error) {
	d, err := m.measure(call)
	if err == nil {
		err = check()
	}
	m.count(d, flops, err)
}

// count records one attempted op.
func (m *meter) count(d time.Duration, flops float64, err error) {
	m.attempted++
	if err != nil {
		m.failed++
		if m.firstErr == nil {
			m.firstErr = err
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
		}
		return
	}
	m.lat = append(m.lat, float64(d.Nanoseconds())/1e6)
	m.flops += flops
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// sampleHeap folds the live-and-unswept heap size into the peak.
func (m *meter) sampleHeap() {
	metrics.Read(heapSample)
	if v := heapSample[0].Value.Uint64(); v > m.heapPeak {
		m.heapPeak = v
	}
}

// cpuTime is the process's user+system CPU time. Time the hypervisor
// stole is in neither, so it moves less than wall time when neighbours
// take the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// closedLoop runs passes until the ops have been busy for cfg.seconds in
// total, stopping only where the pass index is a multiple of cycle, so
// every run covers whole cycles of the op mix. In trace mode each pass
// runs untraced and then traced on the same operands, so both variants
// see the same inputs and machine conditions.
func closedLoop(cfg config, rep *report, cycle int, pass func(i int, m *meter, traced bool) error) error {
	rep.plain = &meter{}
	if cfg.trace {
		rep.traced = &meter{}
	}
	// Garbage from set-up would otherwise be collected, or not, inside
	// the window.
	runtime.GC()
	probe := startStealProbe()
	window := time.Duration(cfg.seconds * float64(time.Second))
	for i := 0; ; i++ {
		busy := rep.plain.busy
		if cfg.trace {
			busy += rep.traced.busy
		}
		if busy >= window && i%cycle == 0 {
			break
		}
		if err := pass(i, rep.plain, false); err != nil {
			return err
		}
		if cfg.trace {
			if err := pass(i, rep.traced, true); err != nil {
				return err
			}
		}
	}
	rep.health.StealShare = probe.share()
	return nil
}

// timeSetups runs setup setupRepeats times, closing every instance but
// the last, and returns the last with the set-up times in seconds.
func timeSetups[E any](setup func() (E, error), closeFn func(E)) (E, []float64, error) {
	var cur E
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return cur, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			closeFn(cur)
		}
		cur = e
	}
	return cur, times, nil
}

// writeTrace writes the run's spans as JSONL under the output directory.
func writeTrace(cfg config, tr *tracer) {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeJSONL(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stdout, "spans written to %s\n", path)
}
