// Command perfbench is the repository's benchmark. It runs one workload
// per process, checks every op's output against a reference that does
// not come from the analysis being timed, and prints each metric with its
// unit and better direction. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload table1 --seed 7 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates traced and untraced rounds, records a span around every
// call into a layer of the program under test, writes the spans to
// --out-dir when the run ends and reports the per-layer metrics. See
// README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procStart stands in for process start: package initialization runs
// before main, a few milliseconds after exec.
var procStart = time.Now()

// minRounds is the fewest rounds an untraced run measures, whatever
// --seconds says. Every input then has at least 11 samples, so the tail
// (the 11th-largest latency) lands inside the slowest input's samples
// rather than between two inputs.
const minRounds = 11

// minTracedRounds is the fewest rounds of each kind a traced run
// measures after its first round. The first round, untraced, is left out
// of the tracing-overhead comparison: it alone regrows the heap that
// set-up returned to the OS.
const minTracedRounds = 2

type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run; perLayer those of a
// traced run. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"static_instr_pct", "%", "lower"},
	{"cost_overhead_pct", "%", "lower"},
}

var perLayer = []metricDef{
	{"frontend.parse_ms", "ms", "lower"},
	{"frontend.unit_ms", "ms", "lower"},
	{"passes.scalar_ms", "ms", "lower"},
	{"ir.instrs", "count", "lower"},
	{"pointer.solve_ms", "ms", "lower"},
	{"pointer.constraints", "count", "lower"},
	{"pointer.alloc_mb", "MB", "lower"},
	{"memssa.build_ms", "ms", "lower"},
	{"memssa.defs", "count", "lower"},
	{"memssa.alloc_mb", "MB", "lower"},
	{"vfg.build_ms", "ms", "lower"},
	{"vfg.nodes", "count", "lower"},
	{"vfg.edges", "count", "lower"},
	{"vfg.alloc_mb", "MB", "lower"},
	{"resolve.ms", "ms", "lower"},
	{"resolve.bottom", "count", "lower"},
	{"resolve.alloc_mb", "MB", "lower"},
	{"vfgopt.optII_ms", "ms", "lower"},
	{"vfgopt.redirected", "count", "higher"},
	{"vfgopt.alloc_mb", "MB", "lower"},
	{"instrument.plan_ms", "ms", "lower"},
	{"instrument.items", "count", "lower"},
	{"instrument.alloc_mb", "MB", "lower"},
	{"interp.run_ms", "ms", "lower"},
	{"interp.steps", "count", "lower"},
	{"interp.shadow_props", "count", "lower"},
	{"interp.shadow_checks", "count", "lower"},
	{"interp.ns_per_step", "ns", "lower"},
	{"interp.native_ms", "ms", "lower"},
	{"service.hit_ms", "ms", "lower"},
	{"service.miss_ms", "ms", "lower"},
	{"service.overhead_ms", "ms", "lower"},
	{"cache.hit_ratio", "share", "higher"},
	{"cache.coalesced", "count", "lower"},
	{"cache.evictions", "count", "lower"},
	{"cache.accounted_over_heap", "share", "lower"},
	{"runtime.gc_cpu_frac", "share", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.heap_live_mb", "MB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.layer_coverage", "share", "higher"},
}

type options struct {
	workload *workloadDef
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, -1))
}

// run is the whole command. corruptOp, when not -1, replaces the output
// of the op with that id before it is checked.
func run(args []string, stdout, stderr io.Writer, corruptOp int) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table1, resolve-mid, sanitize-run or usherd-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "least time the timed phase lasts")
	traceLevel := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	outDir := fs.String("out-dir", ".bench_build", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceLevel == 1, outDir: *outDir}
	if o.workload = lookupWorkload(*name); o.workload == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *traceLevel != 0 && *traceLevel != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if err := guard(o.workload); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	env := stamp(o)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	rep, err := execute(o, corruptOp, env, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload.name, err)
		return 1
	}
	rep.print(stdout)
	if !rep.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed their output check\n",
			o.workload.name, rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

// guard refuses to run a workload whose clients or server workers
// exceed the CPUs the process may use: they would queue for a CPU, and
// the latencies would measure the queue.
func guard(w *workloadDef) error {
	cpus := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < cpus {
		cpus = p
	}
	if w.clients > cpus || w.workers > cpus {
		return fmt.Errorf("%s needs %d clients and %d workers but only %d CPUs are available",
			w.name, w.clients, w.workers, cpus)
	}
	return nil
}

// envStamp records where and on what a run was measured.
type envStamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// stamp fills the environment stamp. The commit comes from
// PERFBENCH_COMMIT, which run.py sets from git when the checkout is a
// repository.
func stamp(o options) envStamp {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envStamp{Workload: o.workload.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	defs  []metricDef
	notes map[string]string
}

func (r *report) set(name string, v float64, note string) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			if note != "" {
				r.notes[name] = note
			}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (r *report) print(w io.Writer) {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "fail_ratio = %.6g share (better: lower; %d of %d ops failed)\n",
		float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	for _, d := range r.defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(bw, "%s = %.6g %s (better: %s)", d.name, m.Value, m.Unit, d.better)
		if note := r.notes[d.name]; note != "" {
			fmt.Fprintf(bw, " %s", note)
		}
		fmt.Fprintln(bw)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(bw, "%s\n", line)
	bw.Flush()
}

// roundWall is the wall time a round's ops took, excluding the output
// digests of sequential ops.
type roundWall struct {
	traced bool
	wall   time.Duration
	ops    int
}

// setupRuns is how many times a run sets its workload up.
const setupRuns = 3

// setUp prepares the workload and ends with one untimed pass over its
// inputs and a collection that also returns freed memory to the OS, so
// that set-up is mostly deterministic work and the timed phase starts
// warm and with set-up's garbage gone.
func setUp(w *workloadDef, seed int64, tr *tracer) (benchmark, error) {
	b, err := w.prepare(seed, tr)
	if err != nil {
		return nil, err
	}
	err = b.round(&roundCtx{h: &harness{corruptOp: -1}, round: -1})
	if err == nil {
		err = b.endRound()
	}
	if err != nil {
		if cerr := b.close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	debug.FreeOSMemory()
	return b, nil
}

// execute sets the workload up, runs its timed phase, checks every op
// and computes the metrics.
func execute(o options, corruptOp int, env envStamp, log io.Writer) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	// Set-up runs setupRuns times and setup_s takes the median, so that
	// one slow set-up on a busy machine does not move it. The last set-up
	// is the one the timed phase uses.
	var b benchmark
	var setups []float64
	beforeSetup := time.Since(procStart)
	for k := 0; k < setupRuns; k++ {
		s0 := time.Now()
		nb, err := setUp(o.workload, o.seed, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(s0).Seconds())
		if k == setupRuns-1 {
			b = nb
		} else if err := nb.close(); err != nil {
			return nil, err
		}
	}
	defer func() {
		if err := b.close(); err != nil {
			fmt.Fprintf(log, "perfbench: closing %s: %v\n", o.workload.name, err)
		}
	}()
	sort.Float64s(setups)
	setup := beforeSetup.Seconds() + median(setups)
	resetPeakRSS()

	h := &harness{corruptOp: corruptOp, sequential: o.workload.clients == 1}
	roundErr := map[int]error{}
	var walls []roundWall
	var heapLive []float64
	rt0 := readRuntime()
	t0 := time.Now()
	for r := 0; ; r++ {
		traced := o.trace && r%2 == 1
		rc := &roundCtx{h: h, round: r}
		if traced {
			rc.tr = tr
		}
		n0, p0, start := h.nextID.Load(), h.paused.Load(), time.Now()
		if err := b.round(rc); err != nil {
			roundErr[r] = err
		}
		wall := time.Since(start) - time.Duration(h.paused.Load()-p0)
		walls = append(walls, roundWall{traced: traced, wall: wall, ops: int(h.nextID.Load() - n0)})
		if err := b.endRound(); err != nil {
			roundErr[r] = err
		}
		heapLive = append(heapLive, float64(heapLiveBytes())/(1<<20))
		least := minRounds
		if o.trace {
			least = 1 + 2*minTracedRounds
		}
		if r+1 >= least && time.Since(t0).Seconds() >= o.seconds {
			break
		}
	}
	rt1 := readRuntime()
	rss := peakRSS()
	timed := time.Since(t0)

	c0 := time.Now()
	ref, err := b.reference()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	rep := &report{Attempted: len(h.ops), Metrics: map[string]metricValue{}, notes: map[string]string{}}
	for _, op := range h.ops {
		if why := failure(op, ref, roundErr); why != "" {
			if rep.Failed == 0 {
				fmt.Fprintf(log, "perfbench: first failed op: %s\n", why)
			}
			rep.Failed++
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	fmt.Fprintf(log, "perfbench: set-up %.2fs, timed phase %.2fs (%.2fs of it digests), output checks %.2fs\n",
		setup, timed.Seconds(), time.Duration(h.paused.Load()).Seconds(), time.Since(c0).Seconds())

	if o.trace {
		rep.defs = perLayer
		layerMetrics(rep, h.ops, tr, b, walls, rt0, rt1, heapLive)
		if err := writeSpans(o, env, tr); err != nil {
			return nil, err
		}
		return rep, nil
	}

	rep.defs = endToEnd
	var wall time.Duration
	for _, w := range walls {
		wall += w.wall
	}
	lat := latencies(h.ops)
	rep.set("setup_s", setup, fmt.Sprintf("(median of %d set-ups, %.3f to %.3f s)", len(setups), setups[0], setups[len(setups)-1]))
	rep.set("throughput_ops_s", float64(len(h.ops))/wall.Seconds(), fmt.Sprintf("(%d ops in %.3fs over %d rounds)", len(h.ops), wall.Seconds(), len(walls)))
	rep.set("latency_p50_ms", lat.p50, fmt.Sprintf("(n=%d)", lat.n))
	rep.set("latency_tail_ms", lat.tail, fmt.Sprintf("(p%.1f, %d samples above, n=%d, input %s)", lat.tailPctile, lat.above, lat.n, lat.tailInput))
	rep.set("peak_rss_mb", rss, "")
	rep.set("alloc_mb_per_op", float64(rt1.allocs-rt0.allocs)/(1<<20)/float64(len(h.ops)), "")
	p0 := time.Now()
	staticPct, costPct, err := paperMetrics()
	fmt.Fprintf(log, "perfbench: paper metrics %.2fs\n", time.Since(p0).Seconds())
	if err != nil {
		return nil, fmt.Errorf("paper metrics: %w", err)
	}
	rep.set("static_instr_pct", staticPct, "(15 Table-1 profiles)")
	rep.set("cost_overhead_pct", costPct, "(15 Table-1 profiles)")
	return rep, nil
}

// failure says why op failed its output check, or "" if it passed.
func failure(op opRecord, ref map[string]string, roundErr map[int]error) string {
	want, ok := ref[op.key]
	switch {
	case op.err != nil:
		return fmt.Sprintf("op %d (%s): %v", op.id, op.key, op.err)
	case roundErr[op.round] != nil:
		return fmt.Sprintf("op %d (%s): round %d: %v", op.id, op.key, op.round, roundErr[op.round])
	case !ok:
		return fmt.Sprintf("op %d (%s): no reference for this input", op.id, op.key)
	case op.out != want:
		return fmt.Sprintf("op %d (%s): output %.80q, want %.80q", op.id, op.key, op.out, want)
	}
	return ""
}

// resetPeakRSS starts VmHWM afresh from the current RSS, so that
// peak_rss_mb measures the timed phase, not the transient peak of
// set-up's garbage. Kernels without the interface leave the peak alone.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the process's VmHWM in MB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// layerMetrics fills a traced run's per-layer metrics. Layer times,
// allocations and counters are per traced op: the sum over an op's spans
// of one layer, averaged over the traced ops. A layer the workload never
// reaches reads 0.
func layerMetrics(rep *report, ops []opRecord, tr *tracer, b benchmark, walls []roundWall,
	rt0, rt1 runtimeSnap, heapLive []float64) {
	traced := map[int]opRecord{}
	for _, op := range ops {
		if op.traced {
			traced[op.id] = op
		}
	}
	n := float64(len(traced))
	dur := map[string]float64{}   // ms
	alloc := map[string]float64{} // MB
	count := map[string]float64{} // "<layer>.<counter>"
	covered := map[int]float64{}  // ms of layer spans per op
	var nativeMS, natives float64
	for _, s := range tr.spans {
		ms := float64(s.EndNS-s.StartNS) / 1e6
		if s.Op == -1 && s.Name == "interp.native" {
			nativeMS += ms
			natives++
			continue
		}
		if _, ok := traced[s.Op]; !ok || s.Parent == 0 {
			continue
		}
		dur[s.Name] += ms
		alloc[s.Name] += float64(s.Alloc) / (1 << 20)
		for k, v := range s.Counters {
			count[s.Name+"."+k] += float64(v)
		}
		covered[s.Op] += ms
	}
	per := func(m map[string]float64, k string) float64 {
		if n == 0 {
			return 0
		}
		return m[k] / n
	}
	rep.set("frontend.parse_ms", per(dur, "frontend.parse"), "")
	rep.set("frontend.unit_ms", per(dur, "frontend.unit"), "")
	rep.set("passes.scalar_ms", per(dur, "passes.scalar"), "")
	rep.set("ir.instrs", per(count, "frontend.unit.instrs"), "")
	rep.set("pointer.solve_ms", per(dur, "pointer"), "")
	rep.set("pointer.constraints", per(count, "pointer.constraints"), "")
	rep.set("pointer.alloc_mb", per(alloc, "pointer"), "")
	rep.set("memssa.build_ms", per(dur, "memssa"), "")
	rep.set("memssa.defs", per(count, "memssa.defs"), "")
	rep.set("memssa.alloc_mb", per(alloc, "memssa"), "")
	rep.set("vfg.build_ms", per(dur, "vfg"), "")
	rep.set("vfg.nodes", per(count, "vfg.nodes"), "")
	rep.set("vfg.edges", per(count, "vfg.edges"), "")
	rep.set("vfg.alloc_mb", per(alloc, "vfg"), "")
	rep.set("resolve.ms", per(dur, "resolve"), "")
	rep.set("resolve.bottom", per(count, "resolve.bottom"), "")
	rep.set("resolve.alloc_mb", per(alloc, "resolve"), "")
	rep.set("vfgopt.optII_ms", per(dur, "vfgopt"), "")
	rep.set("vfgopt.redirected", per(count, "vfgopt.redirected"), "")
	rep.set("vfgopt.alloc_mb", per(alloc, "vfgopt"), "")
	rep.set("instrument.plan_ms", per(dur, "instrument"), "")
	rep.set("instrument.items", per(count, "instrument.items"), "")
	rep.set("instrument.alloc_mb", per(alloc, "instrument"), "")
	rep.set("interp.run_ms", per(dur, "interp.run"), "")
	rep.set("interp.steps", per(count, "interp.run.steps"), "")
	rep.set("interp.shadow_props", per(count, "interp.run.shadow_props"), "")
	rep.set("interp.shadow_checks", per(count, "interp.run.shadow_checks"), "")
	nsPerStep := 0.0
	if steps := count["interp.run.steps"]; steps > 0 {
		nsPerStep = dur["interp.run"] * 1e6 / steps
	}
	rep.set("interp.ns_per_step", nsPerStep, "")
	if natives > 0 {
		nativeMS /= natives
	}
	rep.set("interp.native_ms", nativeMS, "(set-up, per program)")

	// The service layer is seen from the client: latency by outcome, and
	// the part of it outside the pipeline passes the response reports.
	var hitMS, hits, missMS, misses, overheadMS float64
	ub, isService := b.(*usherdBench)
	for _, op := range traced {
		if !isService {
			break
		}
		ms := float64(op.lat) / 1e6
		if op.hit {
			hitMS += ms
			hits++
		} else {
			missMS += ms
			misses++
		}
		overheadMS += ms - float64(op.phases)/1e6
	}
	rep.set("service.hit_ms", safeDiv(hitMS, hits), "")
	rep.set("service.miss_ms", safeDiv(missMS, misses), "")
	rep.set("service.overhead_ms", safeDiv(overheadMS, hits+misses), "")
	var cHits, cLookups, coalesced, evictions, accounted float64
	if isService {
		// rounds[0] is the warm-up round.
		for _, st := range ub.rounds[1:] {
			cHits += float64(st.CacheHits)
			cLookups += float64(st.CacheHits + st.CacheMisses)
			coalesced += float64(st.Coalesced)
			evictions += float64(st.Cache.Evictions)
			accounted += safeDiv(float64(st.Cache.Bytes), float64(st.HeapBytes))
		}
		accounted = safeDiv(accounted, float64(len(ub.rounds)-1))
	}
	rep.set("cache.hit_ratio", safeDiv(cHits, cLookups), "")
	rep.set("cache.coalesced", coalesced, "")
	rep.set("cache.evictions", evictions, "")
	rep.set("cache.accounted_over_heap", accounted, "")

	rep.set("runtime.gc_cpu_frac", safeDiv(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "")
	rep.set("runtime.gc_cycles_per_op", safeDiv(float64(rt1.gcCycles-rt0.gcCycles), float64(len(ops))), "")
	sort.Float64s(heapLive)
	rep.set("runtime.heap_live_mb", median(heapLive), "(median over rounds)")

	var tw, uw time.Duration
	var tn, un int
	for _, w := range walls[1:] {
		if w.traced {
			tw, tn = tw+w.wall, tn+w.ops
		} else {
			uw, un = uw+w.wall, un+w.ops
		}
	}
	overhead := 100 * (safeDiv(tw.Seconds(), float64(tn))/safeDiv(uw.Seconds(), float64(un)) - 1)
	rep.set("trace.overhead_pct", overhead, fmt.Sprintf("(traced %d ops in %.3fs, untraced %d ops in %.3fs)", tn, tw.Seconds(), un, uw.Seconds()))
	coverage := 0.0
	for id, op := range traced {
		coverage += covered[id] / (float64(op.lat) / 1e6)
	}
	rep.set("trace.layer_coverage", safeDiv(coverage, n), "(layer self time over op latency, mean over traced ops)")
}

// median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the traced run's spans, with its environment stamp,
// as one JSON document.
func writeSpans(o options, env envStamp, tr *tracer) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload.name, o.seed))
	data, err := json.Marshal(struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}{env, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
