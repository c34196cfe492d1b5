package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/service"
	"github.com/valueflow/usher/internal/vfgsum"
	"github.com/valueflow/usher/internal/workload"
)

// benchmark is one workload with its inputs generated and its set-up
// done.
type benchmark interface {
	// round runs one round: every input once, in a fixed order, so the
	// op mix never varies between runs.
	round(rc *roundCtx) error
	// endRound runs untimed between rounds: per-round checks and any
	// state the next round needs.
	endRound() error
	// reference returns the output a correct program gives for each
	// input key. It runs untimed, after the timed phase, and never
	// reuses the analysis the timed ops ran.
	reference() (map[string]string, error)
	close() error
}

// workloadDef describes one workload.
type workloadDef struct {
	name string
	// clients and workers are the concurrency the workload needs; the
	// benchmark refuses to run when either exceeds the CPUs available.
	clients, workers int
	prepare          func(seed int64, tr *tracer) (benchmark, error)
}

var workloads = []*workloadDef{
	{name: "table1", clients: 1, workers: 1, prepare: prepareTable1},
	{name: "resolve-mid", clients: 1, workers: 1, prepare: prepareResolveMid},
	{name: "sanitize-run", clients: 1, workers: 1, prepare: prepareSanitize},
	{name: "usherd-mixed", clients: usherdClients, workers: usherdWorkers, prepare: prepareUsherd},
}

func lookupWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// progInput is one generated MiniC program.
type progInput struct {
	key     string
	profile workload.Profile
	src     string
}

// itersAssign matches the assignments in a generated main that set each
// group's iteration count.
var itersAssign = regexp.MustCompile(`cfg_iters_(\d+) = (\d+);`)

// variantSource generates a seeded variant of a Table-1 profile: the
// profile's own program with each group's iteration count moved
// by at most one, either way. Only constants in main change, so the
// variant has exactly the profile's functions, types and value flow, and
// runs within a fraction of a percent of its steps: neither analysis nor
// run cost depends on the seed, while the source text, and with it every
// content hash, does. Re-seeding the generator would not do: at one
// program per profile it moves a profile's analysis time by up to 3x
// between seeds.
func variantSource(p workload.Profile, rng *rand.Rand) string {
	return itersAssign.ReplaceAllStringFunc(workload.Generate(p), func(m string) string {
		sub := itersAssign.FindStringSubmatch(m)
		n, _ := strconv.Atoi(sub[2])
		return fmt.Sprintf("cfg_iters_%s = %d;", sub[1], n+rng.Intn(3)-1)
	})
}

func profileInputs(rng *rand.Rand, profiles []workload.Profile, suffix string) []progInput {
	var ins []progInput
	for _, p := range profiles {
		ins = append(ins, progInput{key: p.Name + suffix, profile: p, src: variantSource(p, rng)})
	}
	return ins
}

// ---- table1 ----

// table1Bench: one op compiles a seeded variant of one Table-1 profile
// at O0+IM and analyzes it under all six configurations.
type table1Bench struct{ inputs []progInput }

func prepareTable1(seed int64, _ *tracer) (benchmark, error) {
	return &table1Bench{inputs: profileInputs(rand.New(rand.NewSource(seed)), workload.Profiles, "")}, nil
}

func (b *table1Bench) round(rc *roundCtx) error {
	for _, in := range b.inputs {
		rc.do(in.key, func(c opCtx) (opResult, error) {
			prog, err := compileSource(c, in.profile.Name+".c", in.src)
			if err != nil {
				return opResult{}, err
			}
			a, err := analyzeAll(c, prog)
			return opResult{digest: a.digest}, err
		})
	}
	return nil
}

func (b *table1Bench) endRound() error { return nil }
func (b *table1Bench) close() error    { return nil }

// reference re-analyzes every program through usher.Session and runs it
// under the Usher plan. The interpreter's own ground truth (its oracle
// sites) is the reference: the Usher-guided run must report exactly
// those sites with no shadow violations, and parser's planted bug must
// be among them. A program that passes gets the digest of its plans as
// the expected output of every op on it; one that fails gets the reason,
// which no op output equals.
func (b *table1Bench) reference() (map[string]string, error) {
	want := make([]string, len(b.inputs))
	err := bench.ForEach(refWorkers, len(b.inputs), func(i int) error {
		want[i] = table1Reference(b.inputs[i])
		return nil
	})
	ref := map[string]string{}
	for i, in := range b.inputs {
		ref[in.key] = want[i]
	}
	return ref, err
}

func table1Reference(in progInput) string {
	prog, err := compileSource(opCtx{}, in.profile.Name+".c", in.src)
	if err != nil {
		return "reference: " + err.Error()
	}
	a, sess, err := analyzeSession(prog)
	if err != nil {
		return "reference: " + err.Error()
	}
	an, err := sess.Analyze(usher.ConfigUsherFull)
	if err != nil {
		return "reference: " + err.Error()
	}
	res, err := an.Run(usher.RunOptions{})
	switch {
	case err != nil:
		return "reference run: " + err.Error()
	case len(res.ShadowViolations) > 0:
		return "reference run: shadow violation: " + res.ShadowViolations[0]
	case sites(res.ShadowSites()) != sites(res.OracleSites()):
		return fmt.Sprintf("reference run: warnings at %q, oracle sites %q", sites(res.ShadowSites()), sites(res.OracleSites()))
	case in.profile.PlantBug && len(res.OracleWarnings) == 0:
		return "reference run: the planted bug was not reported"
	}
	return a.digest()
}

// ---- resolve-mid ----

// resolveMidBase sits between resolve-xl-small and resolve-xl: ops of
// 150 to 170 ms, 70 to 77% of it Γ resolution, on a 2-vCPU machine.
var resolveMidBase = workload.XLProfile{Cells: 24, UndefSites: 90, UndefTargets: 48, UndefBodyLen: 180}

// resolveMidBench: one op analyzes a workload.BuildXL resolve-stress
// program under all six configurations. BuildXL is the benchmark's input
// generator, not a layer of the program under test, so the programs are
// built between rounds, untimed, and afresh for every round.
type resolveMidBench struct {
	shapes []workload.XLProfile
	progs  []*ir.Program
}

// prepareResolveMid draws four shapes from the seed. The site counts are
// the base's shifted by a seeded permutation of -2, -1, +1 and +2, so a
// round's total dense-resolution work does not depend on the seed.
func prepareResolveMid(seed int64, _ *tracer) (benchmark, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &resolveMidBench{}
	for k, d := range rng.Perm(4) {
		p := resolveMidBase
		p.Name = fmt.Sprintf("resolve-mid-%d", k)
		p.UndefSites += []int{-2, -1, 1, 2}[d]
		p.Cells += rng.Intn(9) - 4
		b.shapes = append(b.shapes, p)
	}
	return b, b.endRound()
}

func (b *resolveMidBench) round(rc *roundCtx) error {
	for i, p := range b.shapes {
		prog := b.progs[i]
		rc.do(p.Name, func(c opCtx) (opResult, error) {
			a, err := analyzeAll(c, prog)
			return opResult{digest: a.digest}, err
		})
	}
	return nil
}

// endRound builds the next round's programs.
func (b *resolveMidBench) endRound() error {
	b.progs = b.progs[:0]
	for _, p := range b.shapes {
		b.progs = append(b.progs, workload.BuildXL(p))
	}
	return nil
}

func (b *resolveMidBench) close() error { return nil }

// reference resolves every shape with the summary resolver
// (internal/vfgsum) instead of the dense one the ops time. Its Γ and
// plans must equal the dense resolver's bit for bit.
func (b *resolveMidBench) reference() (map[string]string, error) {
	defer func(e bool) { vfgsum.Enabled = e }(vfgsum.Enabled)
	vfgsum.Enabled = true
	ref := map[string]string{}
	for _, p := range b.shapes {
		a, _, err := analyzeSession(workload.BuildXL(p))
		if err != nil {
			ref[p.Name] = "reference: " + err.Error()
			continue
		}
		ref[p.Name] = a.digest()
	}
	return ref, nil
}

// ---- sanitize-run ----

// sanitizeBench: set-up compiles and analyzes the 15 Table-1 variants;
// one op is one Usher-guided run of one of them in the interpreter.
type sanitizeBench struct {
	inputs []progInput
	ans    []*usher.Analysis
	// ref holds, per input, the native run's exit code and the
	// interpreter's oracle sites.
	ref map[string]string
}

func prepareSanitize(seed int64, tr *tracer) (benchmark, error) {
	b := &sanitizeBench{
		inputs: profileInputs(rand.New(rand.NewSource(seed)), workload.Profiles, ""),
		ref:    map[string]string{},
	}
	setup := opCtx{tr: tr, op: -1}
	for _, in := range b.inputs {
		prog, err := compileSource(opCtx{}, in.profile.Name+".c", in.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.key, err)
		}
		an, err := usher.NewSession(prog).Analyze(usher.ConfigUsherFull)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.key, err)
		}
		// Keep only what Run reads, so the session's graphs are freed.
		b.ans = append(b.ans, &usher.Analysis{Config: an.Config, Prog: prog, Plan: an.Plan})
		native, err := layer(setup, "interp.native", func() (*interp.Result, error) {
			return usher.RunNative(prog, usher.RunOptions{})
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("%s native: %w", in.key, err)
		}
		b.ref[in.key] = runDigest(native.Exit.Int, native.OracleSites(), 0)
	}
	return b, nil
}

func (b *sanitizeBench) round(rc *roundCtx) error {
	for i, in := range b.inputs {
		an := b.ans[i]
		rc.do(in.key, func(c opCtx) (opResult, error) {
			res, err := layer(c, "interp.run", func() (*interp.Result, error) {
				return an.Run(usher.RunOptions{})
			}, func(r *interp.Result) map[string]int64 {
				return map[string]int64{"steps": r.Steps, "shadow_props": r.ShadowProps, "shadow_checks": r.ShadowChecks}
			})
			if err != nil {
				return opResult{}, err
			}
			return opResult{digest: func() string {
				return runDigest(res.Exit.Int, res.ShadowSites(), len(res.ShadowViolations))
			}}, nil
		})
	}
	return nil
}

func (b *sanitizeBench) endRound() error                       { return nil }
func (b *sanitizeBench) close() error                          { return nil }
func (b *sanitizeBench) reference() (map[string]string, error) { return b.ref, nil }

// runDigest renders what a run is judged by: its exit code, its warning
// sites and its shadow violations.
func runDigest(exit int64, s map[interp.Site]bool, violations int) string {
	return fmt.Sprintf("exit=%d violations=%d sites=%s", exit, violations, sites(s))
}

func sites(s map[interp.Site]bool) string {
	var out []string
	for site := range s {
		out = append(out, fmt.Sprintf("%s:%d", site.Fn, site.Label))
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// ---- usherd-mixed ----

const (
	usherdClients = 2
	usherdWorkers = 2
)

// usherdProfiles are the profiles behind usherd-mixed's programs. Their
// six-configuration analyses cost about the same, so the median and the
// tail of a run both land among misses of one kind of program.
var usherdProfiles = []string{"mesa", "parser", "twolf"}

// usherdRequest is one scheduled request.
type usherdRequest struct {
	key  string // "<program>/miss" or "<program>/hit"
	body []byte
	prog int
}

// usherdBench: two closed-loop clients post to an in-process
// service.Server over loopback HTTP. Each round, every client posts
// three programs of its own (misses) and then resubmits its first (a
// hit) against a fresh server whose cache budget holds the whole round,
// so hit, miss, coalesced and eviction counts are fixed by the schedule.
type usherdBench struct {
	progs  []progInput
	sched  [usherdClients][]usherdRequest
	url    string
	srv    *http.Server
	served chan error
	client *http.Client
	cur    atomic.Pointer[liveServer]

	// rounds collects each round's /stats reading.
	rounds []service.ServerStats
}

// liveServer is the handler of the round's server.
type liveServer struct{ h http.Handler }

func (b *usherdBench) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.cur.Load().h.ServeHTTP(w, r)
}

func (b *usherdBench) freshServer() {
	s := service.New(service.Options{
		// Far above what one round accounts, so nothing is evicted.
		CacheBytes: 1 << 40,
		Workers:    usherdWorkers,
		Timeout:    2 * time.Minute,
	})
	b.cur.Store(&liveServer{h: s.Handler()})
}

func prepareUsherd(seed int64, _ *tracer) (benchmark, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &usherdBench{}
	var profiles []workload.Profile
	for _, name := range usherdProfiles {
		p, _ := workload.ByName(name)
		profiles = append(profiles, p)
	}
	seen := map[string]bool{}
	for c := 0; c < usherdClients; c++ {
		for _, in := range profileInputs(rng, profiles, fmt.Sprintf("-c%d", c)) {
			// Two clients drawing the same iteration counts would share a
			// program and coalesce; redraw until the sources differ.
			for seen[in.src] {
				in.src = variantSource(in.profile, rng)
			}
			seen[in.src] = true
			body, err := json.Marshal(service.AnalyzeRequest{
				File: in.profile.Name + ".c", Source: in.src, Configs: configNames(), Run: new(bool),
			})
			if err != nil {
				return nil, err
			}
			b.progs = append(b.progs, in)
			i := len(b.progs) - 1
			b.sched[c] = append(b.sched[c], usherdRequest{key: in.key + "/miss", body: body, prog: i})
		}
		first := b.sched[c][0]
		b.sched[c] = append(b.sched[c], usherdRequest{key: b.progs[first.prog].key + "/hit", body: first.body, prog: first.prog})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.freshServer()
	b.srv = &http.Server{Handler: b}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: usherdClients}}
	return b, nil
}

func configNames() []string {
	var names []string
	for _, c := range usher.ExtendedConfigs {
		names = append(names, c.String())
	}
	return names
}

func (b *usherdBench) round(rc *roundCtx) error {
	var wg sync.WaitGroup
	for c := range b.sched {
		wg.Add(1)
		go func(sched []usherdRequest) {
			defer wg.Done()
			for _, rq := range sched {
				rc.do(rq.key, func(c opCtx) (opResult, error) {
					return layer(c, "service.request", func() (opResult, error) { return b.post(rq.body) }, nil)
				})
			}
		}(b.sched[c])
	}
	wg.Wait()
	return nil
}

func (b *usherdBench) post(body []byte) (opResult, error) {
	resp, err := b.client.Post(b.url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return opResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return opResult{}, fmt.Errorf("POST /analyze: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var ar service.AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return opResult{}, fmt.Errorf("POST /analyze: %w", err)
	}
	var phases float64
	for _, ps := range ar.Phases {
		phases += ps.WallSec
	}
	return opResult{
		hit:    ar.CacheHit,
		phases: time.Duration(phases * float64(time.Second)),
		digest: func() string { return responseDigest(ar.CacheHit, ar.Configs) },
	}, nil
}

func responseDigest(hit bool, cfgs []service.ConfigResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hit=%v", hit)
	for _, c := range cfgs {
		fmt.Fprintf(&sb, " %s:%d/%d/%d/%d/%d", c.Config, c.StaticProps, c.StaticChecks,
			c.MFCsSimplified, c.Redirected, c.ChecksElided)
	}
	return sb.String()
}

// endRound reads the finished round's /stats, checks its counts against
// the schedule and installs a fresh server for the next round.
func (b *usherdBench) endRound() error {
	resp, err := b.client.Get(b.url + "/stats")
	if err != nil {
		return err
	}
	var st service.ServerStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("GET /stats: %w", err)
	}
	b.rounds = append(b.rounds, st)
	b.freshServer()
	misses := int64(len(b.progs))
	hits := int64(usherdClients)
	if st.Requests != hits+misses || st.CacheHits != hits || st.CacheMisses != misses ||
		st.Coalesced != 0 || st.Cache.Evictions != 0 || st.Cache.Rejected != 0 {
		return fmt.Errorf("/stats: %d requests, %d hits, %d misses, %d coalesced, %d evictions, %d rejected; the schedule has %d hits and %d misses, none coalesced or evicted",
			st.Requests, st.CacheHits, st.CacheMisses, st.Coalesced, st.Cache.Evictions, st.Cache.Rejected, hits, misses)
	}
	return nil
}

// reference analyzes every program in-process through usher.Session and
// renders the response a correct server gives for it.
func (b *usherdBench) reference() (map[string]string, error) {
	ref := map[string]string{}
	for _, in := range b.progs {
		prog, err := compileSource(opCtx{}, in.profile.Name+".c", in.src)
		var ans []*usher.Analysis
		if err == nil {
			ans, err = usher.NewSession(prog).AnalyzeAll(usher.ExtendedConfigs)
		}
		if err != nil {
			ref[in.key+"/miss"] = "reference: " + err.Error()
			ref[in.key+"/hit"] = ref[in.key+"/miss"]
			continue
		}
		var cfgs []service.ConfigResult
		for _, an := range ans {
			st := an.StaticStats()
			cfgs = append(cfgs, service.ConfigResult{Config: an.Config.String(), StaticProps: st.Props,
				StaticChecks: st.Checks, MFCsSimplified: an.MFCsSimplified, Redirected: an.Redirected,
				ChecksElided: an.ChecksElided})
		}
		ref[in.key+"/miss"] = responseDigest(false, cfgs)
		ref[in.key+"/hit"] = responseDigest(true, cfgs)
	}
	return ref, nil
}

func (b *usherdBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	b.client.CloseIdleConnections()
	return err
}

// refWorkers bounds the untimed reference work.
const refWorkers = 2
