// Command perfbench is the repository's end-to-end benchmark: capture →
// sealed epoch and store → restored digest latency on three workloads,
// through the public rt/ckpt entry points, with a separate traced run that
// times each layer. See README.md for the workloads and metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits nonzero when
// any output check fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// setupReps is how many times set-up runs; its median is setup_s.
const setupReps = 3

func main() {
	name := flag.String("workload", "", "workload: full-rewrite, cdc-insert or sim-vasp")
	seed := flag.Int64("seed", 1, "seed for the capture schedule and state content")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	traceOn := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", ".bench_build/perfbench", "directory for stores and the trace file")
	commit := flag.String("commit", "unknown", "git commit of the measured tree, for the stamp")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceOn == 1, *out, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out, commit string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	dir := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{w: w, dir: dir, factory: w.factory(seed), steps: w.schedule(seed), trace: traced}
	if traced {
		b.tr = newTracer()
	}
	if err := b.setup(setupReps); err != nil {
		return err
	}
	if err := b.run(seconds); err != nil {
		return err
	}

	st := stamp(w, seed, commit, b.s.logicalPerCapture, len(b.steps))
	var rows []metric
	if traced {
		rows = b.layerMetrics()
		path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		if err := b.tr.writeChrome(path, st); err != nil {
			return err
		}
		fmt.Printf("# trace: %s (Chrome trace-event JSON; open in Perfetto)\n", path)
		fmt.Println("# self time by layer over the traced cycles:")
		self := b.tr.selfTimes()
		for _, l := range sortedKeys(self) {
			fmt.Printf("#   %-12s %10.1f ms\n", l, float64(self[l])/1e6)
		}
	} else {
		rows = b.endToEnd()
	}
	stampJSON, _ := json.Marshal(st) // a map of strings and numbers always marshals
	fmt.Printf("# stamp %s\n", stampJSON)
	fmt.Printf("# %-30s %14s  %-8s %s\n", "metric", "value", "unit", "n")
	for _, r := range rows {
		fmt.Printf("# %-30s %14.6g  %-8s %s\n", r.name, r.value, r.unit, r.n)
	}
	fmt.Printf("# %-30s %14.6g  %-8s %d attempted\n", "fail_ratio", b.tally.failRatio(), "ratio", b.tally.attempted)
	fmt.Printf("# %d of %d captures parked after their request step (CC drain target)\n", b.parkedLate, len(b.s.ckptMs))
	for _, reason := range b.tally.reasons {
		fmt.Printf("# FAILED: %s\n", reason)
	}

	metrics := make(map[string]any, len(rows))
	for _, r := range rows {
		metrics[r.name] = map[string]any{"value": finite(r.value), "unit": r.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   b.tally.failed == 0,
		"attempted": b.tally.attempted,
		"failed":    b.tally.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if b.tally.failed > 0 {
		return fmt.Errorf("%d of %d operations failed their output checks", b.tally.failed, b.tally.attempted)
	}
	return nil
}

// finite maps a metric with no samples (NaN, ±Inf) to 0 so the result line
// stays valid JSON; such a metric is also shown with n=0 in the table.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

type metric struct {
	name  string
	value float64
	unit  string
	n     string // sample count, or how the value was formed
}

// endToEnd derives the user-visible metrics from an untraced run.
func (b *bench) endToEnd() []metric {
	s := &b.s
	ck := summarize(s.ckptMs)
	rs := summarize(s.restartMs)
	captures := fmt.Sprintf("%d captures", ck.N)
	restarts := fmt.Sprintf("%d restarts", rs.N)
	return []metric{
		{"ckpt_p50_ms", ck.P50, "ms", captures},
		{"ckpt_tail_ms", ck.Tail, "ms", fmt.Sprintf("p%.0f of %s", ck.TailPct, captures)},
		{"ckpt_MBps", float64(s.imageBytes) / 1e6 / s.ckptSec, "MB/s", captures},
		{"restart_p50_ms", rs.P50, "ms", restarts},
		{"restart_tail_ms", rs.Tail, "ms", fmt.Sprintf("p%.0f of %s", rs.TailPct, restarts)},
		{"stored_B_per_B", float64(s.freshBytes) / float64(s.imageBytes), "B/B", captures},
		{"mpi_calls_per_s", float64(s.mpiCalls) / s.mpiSec, "1/s", fmt.Sprintf("%d calls", s.mpiCalls)},
		{"peak_rss_MB", peakRSSMB(), "MB", "VmHWM"},
		{"setup_s", median(s.setupSec), "s", fmt.Sprintf("median of %d", len(s.setupSec))},
	}
}

// layerMetrics derives the per-layer metrics from a traced run.
func (b *bench) layerMetrics() []metric {
	l := &b.ls
	s := &b.s
	mbps := func(bytes, ns int64) float64 { return float64(bytes) / 1e6 / (float64(ns) / 1e9) }
	tracedCkptNs := 1e6 * sum(l.tracedCkpt)
	captures := fmt.Sprintf("%d traced captures", len(l.tracedCkpt))
	restarts := fmt.Sprintf("%d traced restarts", len(l.tracedRest))
	ops := float64(len(l.tracedCkpt) + len(l.tracedRest))
	self := b.tr.selfTimes()
	inCapture := b.tr.covered(captureOp)
	overhead := 100 * (median(l.tracedCkpt) - median(l.untracedCkpt)) / median(l.untracedCkpt)
	return []metric{
		{"apps.snapshot_MBps", mbps(l.m.snapBytes.Load(), l.m.snapNs.Load()), "MB/s", captures},
		{"apps.snapshot_share", float64(inCapture["apps"]) / tracedCkptNs, "ratio", captures},
		{"apps.restore_MBps", mbps(l.m.restoreBytes.Load(), l.m.restoreNs.Load()), "MB/s", restarts},
		{"ckpt.capture_ms_p50", median(s.captureMs), "ms", fmt.Sprintf("%d captures", len(s.captureMs))},
		{"ckpt.commit_ms_p50", median(s.commitMs), "ms", fmt.Sprintf("%d captures", len(s.commitMs))},
		{"ckpt.alloc_B_per_B", float64(l.allocBytes) / float64(l.commitBytes), "B/B", captures},
		{"ckpt.hash.MBps", mbps(l.hashBytes, l.hashNs), "MB/s", "replay"},
		{"ckpt.hash.share", float64(l.hashNs) / tracedCkptNs, "ratio", "replay"},
		{"ckpt.cdc.chunks_per_MB", float64(l.chunks) / (float64(l.chunkBytes) / 1e6), "count/MB", "replay"},
		{"ckpt.cdc.chunk_reuse_ratio", float64(l.reusedChunks) / float64(l.tableChunks), "ratio", "manifests"},
		{"ckpt.codec.flate_enc_MBps", mbps(l.flateIn, l.flateEncNs), "MB/s", "replay"},
		{"ckpt.codec.flate_dec_MBps", mbps(l.flateIn, l.flateDecNs), "MB/s", "replay"},
		{"ckpt.codec.none_enc_MBps", mbps(l.flateIn, l.noneEncNs), "MB/s", "replay"},
		{"ckpt.codec.ratio", float64(l.flateOut) / float64(l.flateIn), "B/B", "replay"},
		{"ckpt.commit.MBps", mbps(l.commitBytes, l.commitNs), "MB/s", "replay"},
		{"ckpt.commit.peak_encode_MB", float64(l.peakEncode) / 1e6, "MB", "max"},
		{"ckpt.commit.fresh_shard_ratio", float64(l.freshShards) / float64(l.totalShards), "ratio", "manifests"},
		{"ckpt.store.write_MBps", mbps(l.m.writeBytes.Load(), l.m.writeNs.Load()), "MB/s", "page cache"},
		{"ckpt.store.write_share", float64(inCapture["ckpt.store"]) / tracedCkptNs, "ratio", captures},
		{"ckpt.store.read_MBps", mbps(l.m.readBytes.Load(), l.m.readNs.Load()), "MB/s", "page cache"},
		{"ckpt.store.ops", float64(l.m.storeOps.Load()) / ops, "count/op", "per capture or restart"},
		{"ckpt.store.errors", float64(l.m.storeErrs.Load()), "count", "total"},
		{"ckpt.restart.load_MBps", mbps(l.loadBytes, l.loadNs), "MB/s", "replay"},
		{"ckpt.restart.load_share", float64(l.loadNs) / 1e6 / float64(l.loads) / median(l.tracedRest), "ratio", "replay"},
		{"ckpt.restart.read_amp", float64(l.loadRead) / float64(l.loadResolved), "B/B", "replay"},
		{"mpi.native_calls_per_s", float64(l.nativeCalls) / l.nativeSec, "1/s", "traced cycles"},
		{"core.wrapper_ns_per_call", 1e9 * (l.ccSec - l.nativeSec) / float64(l.ccWrapperCalls), "ns", "traced cycles"},
		{"netmodel.stall_vt_s", mean(s.stallVT), "s", fmt.Sprintf("%d captures", len(s.stallVT))},
		{"rt.self_ms", float64(self["rt"]) / 1e6 / ops, "ms/op", "per capture or restart"},
		{"apps.self_ms", float64(self["apps"]) / 1e6 / ops, "ms/op", "per capture or restart"},
		{"ckpt.store.self_ms", float64(self["ckpt.store"]) / 1e6 / ops, "ms/op", "per capture or restart"},
		{"trace.overhead_pct", overhead, "%", "ckpt_p50 traced vs untraced"},
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return math.NaN()
}

// stamp records what the numbers were measured on and with.
func stamp(w *workload, seed int64, commit string, logicalPerCapture int64, epochs int) map[string]any {
	model, llc := cpuInfo()
	return map[string]any{
		"workload":                  w.name,
		"seed":                      seed,
		"go":                        runtime.Version(),
		"gomaxprocs":                runtime.GOMAXPROCS(0),
		"nproc":                     runtime.NumCPU(),
		"cpu":                       model,
		"llc":                       llc,
		"commit":                    commit,
		"ranks":                     w.ranks,
		"epochs_per_chain":          epochs,
		"logical_bytes_per_capture": logicalPerCapture,
		"bandwidths":                "cache-resident: every workload fits well inside 4x the LLC, and store I/O is served by the page cache",
	}
}

// cpuInfo returns the CPU model and the cache size /proc/cpuinfo reports.
func cpuInfo() (model, cache string) {
	model, cache = "unknown", "unknown"
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			model = strings.TrimSpace(v)
		case "cache size":
			cache = strings.TrimSpace(v)
			return
		}
	}
	return
}
