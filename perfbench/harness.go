package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is what an op hands back to the harness. digest renders the
// op's output for comparison with the reference; the harness calls it
// after the op's clock has stopped, so output checking is never timed.
type opResult struct {
	digest func() string
	// hit and phases are set by usherd-mixed: the response's cache_hit
	// flag and the pipeline wall time its "phases" list reports.
	hit    bool
	phases time.Duration
}

// opRecord is one timed op.
type opRecord struct {
	id     int
	round  int
	key    string // the input the op used; ref[key] is its expected output
	lat    time.Duration
	out    string
	err    error
	traced bool
	hit    bool
	phases time.Duration
}

// harness runs rounds of ops and records them. It is safe for the
// concurrent clients of usherd-mixed.
type harness struct {
	mu     sync.Mutex
	ops    []opRecord
	nextID atomic.Int64
	// paused accumulates digest time, which is excluded from the wall
	// time of the round that spent it. Only a workload whose ops run one
	// after another pauses: with concurrent clients, one client's digest
	// overlaps the other's op, and the digests (of a short HTTP response)
	// stay inside the wall time.
	paused     atomic.Int64
	sequential bool
	// corruptOp replaces the output of the op with this id, so a test
	// can show that a wrong result is counted as failed (-1: none).
	corruptOp int
}

// roundCtx is one round in progress.
type roundCtx struct {
	h     *harness
	round int
	tr    *tracer // nil in untraced rounds
}

// opCtx is handed to an op body: the tracer plus the op's root span, to
// which every layer span of the op is attached.
type opCtx struct {
	tr   *tracer
	op   int
	root int
}

// do runs fn as one op on input key, timing it and recording its
// output.
func (rc *roundCtx) do(key string, fn func(c opCtx) (opResult, error)) {
	id := int(rc.h.nextID.Add(1)) - 1
	root := rc.tr.begin("op", id, 0)
	start := time.Now()
	res, err := fn(opCtx{tr: rc.tr, op: id, root: root.id})
	lat := time.Since(start)
	root.endAt(start.Add(lat), nil)
	rec := opRecord{id: id, round: rc.round, key: key, lat: lat, err: err,
		traced: rc.tr != nil, hit: res.hit, phases: res.phases}
	if err == nil && res.digest != nil {
		d0 := time.Now()
		rec.out = res.digest()
		if rc.h.sequential {
			rc.h.paused.Add(int64(time.Since(d0)))
		}
	}
	if id == rc.h.corruptOp {
		rec.out = "corrupted:" + rec.out
	}
	rc.h.mu.Lock()
	rc.h.ops = append(rc.h.ops, rec)
	rc.h.mu.Unlock()
}

// ---- tracing ----

// span is one recorded interval. Layer spans are children of their op's
// root span; spans recorded outside any op (setup) carry op -1.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Op       int              `json:"op"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"` // since process start
	EndNS    int64            `json:"end_ns"`
	Alloc    uint64           `json:"alloc_bytes"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced rounds run the same op bodies.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  atomic.Int64
}

// spanRef is an open span.
type spanRef struct {
	t      *tracer
	id     int
	op     int
	parent int
	name   string
	start  time.Time
	alloc0 uint64
}

func (t *tracer) begin(name string, op, parent int) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: int(t.next.Add(1)), op: op, parent: parent, name: name,
		start: time.Now(), alloc0: heapAllocs()}
}

// endAt closes the span at a given instant, so that work done after the
// instant (such as computing counters) stays outside the span.
func (s spanRef) endAt(end time.Time, counters map[string]int64) {
	if s.t == nil {
		return
	}
	sp := span{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		StartNS: int64(s.start.Sub(procStart)), EndNS: int64(end.Sub(procStart)),
		Alloc: heapAllocs() - s.alloc0, Counters: counters}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// layer runs fn as one call into a layer of the program under test,
// recorded as a child span of the op when the op is traced. counters
// runs after the span has closed.
func layer[T any](c opCtx, name string, fn func() (T, error), counters func(T) map[string]int64) (T, error) {
	if c.tr == nil {
		return fn()
	}
	s := c.tr.begin(name, c.op, c.root)
	v, err := fn()
	end := time.Now()
	var cs map[string]int64
	if err == nil && counters != nil {
		cs = counters(v)
	}
	s.endAt(end, cs)
	return v, err
}

// ---- runtime measurements ----

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// heapAllocs is the cumulative heap allocation volume. runtime/metrics
// reads it without stopping the world, unlike runtime.ReadMemStats.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:bytes").Uint64() }

// runtimeSnap is a point-in-time reading of the runtime counters the
// benchmark reports.
type runtimeSnap struct {
	allocs   uint64
	gcCycles uint64
	gcCPU    float64
	totalCPU float64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

func heapLiveBytes() uint64 { return readMetric("/gc/heap/live:bytes").Uint64() }

// ---- latency statistics ----

// latencyStats are the median and the tail of a set of op latencies.
// The tail is the highest percentile with at least ten samples above
// it: with n sorted samples, the (n-10)th.
type latencyStats struct {
	n          int
	p50, tail  float64 // ms
	tailPctile float64
	above      int    // samples above the tail
	tailInput  string // the input of the op whose latency is the tail
}

func latencies(ops []opRecord) latencyStats {
	sorted := append([]opRecord(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].lat < sorted[j].lat })
	ms := make([]float64, len(sorted))
	for i, op := range sorted {
		ms[i] = float64(op.lat) / float64(time.Millisecond)
	}
	n := len(ms)
	ls := latencyStats{n: n, p50: median(ms)}
	if n == 0 {
		return ls
	}
	k := n - 11
	if k < 0 {
		k = 0
	}
	ls.tail = ms[k]
	ls.tailPctile = 100 * float64(k+1) / float64(n)
	ls.above = n - k - 1
	ls.tailInput = sorted[k].key
	return ls
}
