package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// health is the run-health record: what the machine was doing while a
// run measured. It explains a noisy run; it never gates one.
type health struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	StealShare float64 `json:"steal_share"` // stolen share of all CPU time in the window
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// record completes the record, prints it and appends it to
// health.jsonl in the output directory.
func (h *health) record(cfg config, stdout, stderr io.Writer) {
	h.Workload, h.Seed, h.Trace = cfg.workload, cfg.seed, cfg.trace
	h.GOMAXPROCS = runtime.GOMAXPROCS(0)
	h.NumCPU = runtime.NumCPU()
	h.CPUModel = cpuModel()
	h.GoVersion = runtime.Version()
	h.Commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	line, err := json.Marshal(h)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: health record: %v\n", err)
		return
	}
	fmt.Fprintf(stdout, "health %s\n", line)
	f, err := os.OpenFile(filepath.Join(cfg.outDir, "health.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: health record: %v\n", err)
		return
	}
	if _, err := fmt.Fprintf(f, "%s\n", line); err != nil {
		fmt.Fprintf(stderr, "perfbench: health record: %v\n", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(stderr, "perfbench: health record: %v\n", err)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealProbe holds the aggregate CPU tick counters of /proc/stat at the
// start of a window.
type stealProbe struct{ steal, total uint64 }

func startStealProbe() stealProbe {
	s, t := readCPUTicks()
	return stealProbe{s, t}
}

// share is the stolen fraction of all CPU ticks since the probe started
// (0 where /proc/stat is unavailable).
func (p stealProbe) share() float64 {
	s, t := readCPUTicks()
	if t <= p.total {
		return 0
	}
	return float64(s-p.steal) / float64(t-p.total)
}

// readCPUTicks parses the "cpu" line of /proc/stat: user nice system
// idle iowait irq softirq steal ...
func readCPUTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice are already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
