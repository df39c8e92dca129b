package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// workload is one input set the benchmark runs. Names are normative
// (BENCHMARK.json); why each exists is in README.md.
type workload struct {
	name     string
	universe string
	// warm reps read the store set-up filled; cold reps each get a fresh
	// copy of the store set-up prepared (generation cache only).
	warm bool
	// remote serves the store from an sfs-serve daemon over loopback.
	remote bool
}

var workloads = []workload{
	{name: "seq-cold", universe: uniSequential},
	{name: "seq-warm", universe: uniSequential, warm: true},
	{name: "nondet-cold", universe: uniNondet},
	{name: "remote-warm", universe: uniSequential, warm: true, remote: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tally counts traces checked against the known answer and those that
// missed it (harness errors included).
type tally struct{ attempted, failed int }

func (t *tally) add(u tally) { t.attempted += u.attempted; t.failed += u.failed }

// fixture is what set-up leaves for the measured runs.
type fixture struct {
	dir   string
	store string // cold: template store to copy; warm: the filled store
	// ref is the cold journal a warm run must reproduce byte for byte.
	ref    []byte
	daemon *daemon
}

func (fx *fixture) close() {
	if fx.daemon != nil {
		fx.daemon.stop()
	}
	os.RemoveAll(fx.dir)
}

// setup prepares one fixture: for cold workloads a store holding only
// the generation cache; for seq-warm a store filled by a cold run; for
// remote-warm a fresh sfs-serve daemon seeded by a cold client through
// HTTPStore. The cold journal of a warm set-up is checked too.
func (e *env) setup(ctx context.Context, w workload, dir string) (*fixture, tally, error) {
	fx := &fixture{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, tally{}, err
	}
	sp := childSpec{
		Universe:     w.universe,
		CacheDir:     filepath.Join(dir, "store"),
		OutDir:       filepath.Join(dir, "cold"),
		GenerateOnly: !w.warm,
	}
	if w.remote {
		d, err := startDaemon(ctx, e.serveBin, filepath.Join(dir, "serve"), e.workers)
		if err != nil {
			fx.close()
			return nil, tally{}, err
		}
		fx.daemon = d
		sp.CacheDir, sp.Remote = "", d.url
	}
	fx.store = sp.CacheDir
	if _, err := e.runChild(ctx, sp, dir); err != nil {
		fx.close()
		return nil, tally{}, err
	}
	if !w.warm {
		return fx, tally{}, nil
	}
	t := e.verify(w, sp.OutDir, nil, nil)
	var err error
	if fx.ref, err = os.ReadFile(journalPath(sp.OutDir, "seq", 0)); err != nil {
		fx.close()
		return nil, t, err
	}
	return fx, t, nil
}

// traces is how many traces one run of w checks: the known answers'
// counts for its universe and schedules.
func (e *env) traces(w workload, scheds []schedAnswer) int {
	if w.universe == uniSequential {
		return e.answers.Sequential.Traces
	}
	n := e.answers.Crash.Traces
	for _, s := range scheds {
		n += s.Traces
	}
	return n
}

// verify checks every journal a run of w left in outDir against the known
// answers (and, for warm runs, against the cold journal ref).
func (e *env) verify(w workload, outDir string, scheds []schedAnswer, ref []byte) tally {
	var t tally
	check := func(path string, ans fileAnswer, ref []byte) {
		t.attempted += ans.Traces
		t.failed += checkJournal(path, ans, ref)
	}
	if w.universe == uniSequential {
		check(journalPath(outDir, "seq", 0), e.answers.Sequential, ref)
		return t
	}
	for _, s := range scheds {
		check(journalPath(outDir, "conc", s.Seed), s.fileAnswer, nil)
	}
	check(journalPath(outDir, "crash", 0), e.answers.Crash, nil)
	return t
}

// sample is one measured run.
type sample struct {
	traced bool
	wall   float64 // s, spawn to exit
	first  float64 // s, spawn to the first record at the observer
	cpu    float64 // s, user + system
	rss    float64 // MiB
	traces int
	layers map[string]float64
}

// rep makes one measured run of w against fx in a fresh child process and
// checks its output. A run whose child or daemon fails misses every trace
// it should have checked.
func (e *env) rep(ctx context.Context, w workload, fx *fixture, scheds []schedAnswer, dir string, traced bool) (sample, tally, error) {
	defer os.RemoveAll(dir)
	fail := func(err error) (sample, tally, error) {
		if ctx.Err() != nil {
			return sample{}, tally{}, ctx.Err()
		}
		n := e.traces(w, scheds)
		fmt.Fprintf(e.log, "sfsbench: %s: run failed, its %d traces count as failed: %v\n", w.name, n, err)
		return sample{}, tally{n, n}, errRunFailed
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sample{}, tally{}, err
	}
	sp := childSpec{Universe: w.universe, OutDir: filepath.Join(dir, "out"), Trace: traced}
	for _, s := range scheds {
		sp.SchedSeeds = append(sp.SchedSeeds, s.Seed)
	}
	switch {
	case w.remote:
		sp.Remote = fx.daemon.url
	case w.warm:
		sp.CacheDir = fx.store
	default:
		sp.CacheDir = filepath.Join(dir, "store")
		if err := copyTree(fx.store, sp.CacheDir); err != nil {
			return sample{}, tally{}, err
		}
	}
	// The daemon serves remote-warm's store on the same CPUs, so its CPU
	// time over the run counts in cpu_s.
	var before telemetry.Snapshot
	var daemonCPU time.Duration
	if w.remote {
		var err error
		if daemonCPU, err = fx.daemon.cpuTime(); err != nil {
			return fail(err)
		}
		if traced {
			if before, err = fx.daemon.stats(); err != nil {
				return fail(err)
			}
		}
	}
	out, err := e.runChild(ctx, sp, dir)
	if err != nil {
		return fail(err)
	}
	if w.remote {
		after, err := fx.daemon.cpuTime()
		if err != nil {
			return fail(err)
		}
		daemonCPU = after - daemonCPU
	}
	t := e.verify(w, sp.OutDir, scheds, fx.ref)
	s := sample{
		traced: traced,
		wall:   out.wall.Seconds(),
		first:  float64(out.res.FirstVerdict-out.spawn.UnixNano()) / 1e9,
		cpu:    (out.cpu + daemonCPU).Seconds(),
		rss:    float64(out.rss) / (1 << 20),
		traces: t.attempted,
	}
	if traced {
		s.layers = out.res.Layers
		s.layers["unattributed_s"] = s.wall - out.res.Attributed
		s.layers["serve.http_s"], s.layers["serve.http_requests"] = 0, 0
		if w.remote {
			after, err := fx.daemon.stats()
			if err != nil {
				return fail(err)
			}
			h := after.Hists["serve.http_ns"]
			s.layers["serve.http_s"] = float64(h.Sum-before.Hists["serve.http_ns"].Sum) / 1e9
			s.layers["serve.http_requests"] = float64(after.Counters["serve.http_requests"] - before.Counters["serve.http_requests"])
		}
	}
	return s, t, nil
}

var errRunFailed = errors.New("measured run failed")

// result is one benchmark invocation.
type result struct {
	workload string
	seed     int64
	trace    bool
	setups   []float64
	samples  []sample
	tally    tally
	out      output
}

// output is the final JSON line the benchmark prints.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// maxSetups caps how often a cheap set-up is repeated (see env.setupBudget).
const maxSetups = 15

// bench runs workload w: set-up at least e.setups times (the last fixture
// is kept), then measured runs, each in a fresh process, until seconds have
// passed (at least three; a traced invocation alternates untraced and
// traced runs, at least two of each). A set-up whose child or daemon fails
// ends the invocation: its traces count as failed, and nothing is
// measured.
func (e *env) bench(ctx context.Context, w workload, seed int64, seconds float64, trace bool) (*result, error) {
	r := &result{workload: w.name, seed: seed, trace: trace}
	var scheds []schedAnswer
	if w.universe == uniNondet {
		var err error
		if scheds, err = pickSchedules(e.answers.Schedules, e.schedules, seed); err != nil {
			return nil, err
		}
	}
	var fx *fixture
	defer func() {
		if fx != nil {
			fx.close()
		}
	}()
	var setupTotal float64
	for i := 0; i < e.setups || (i < maxSetups && setupTotal < e.setupBudget); i++ {
		if fx != nil {
			fx.close()
		}
		start := time.Now()
		var t tally
		var err error
		fx, t, err = e.setup(ctx, w, filepath.Join(e.work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			n := e.traces(w, scheds)
			fmt.Fprintf(e.log, "sfsbench: %s: set-up failed, its %d traces count as failed: %v\n", w.name, n, err)
			r.tally.add(tally{n, n})
			r.summarise()
			return r, nil
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		setupTotal += r.setups[i]
		r.tally.add(t)
	}
	minRuns := 3
	if trace {
		minRuns = 4
	}
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start).Seconds() < seconds; i++ {
		s, t, err := e.rep(ctx, w, fx, scheds, filepath.Join(e.work, fmt.Sprintf("run-%d", i)), trace && i%2 == 1)
		r.tally.add(t)
		if errors.Is(err, errRunFailed) {
			continue
		}
		if err != nil {
			return nil, err
		}
		r.samples = append(r.samples, s)
	}
	r.summarise()
	return r, nil
}

// measured reports whether the invocation has the runs its metrics need:
// an untraced one, and for --trace 1 a traced one too.
func (r *result) measured() bool {
	return len(r.series(false)["wall_s"]) > 0 && (!r.trace || len(r.series(true)["wall_s"]) > 0)
}

// summarise fills r.out: medians of the untraced runs (--trace 0) or of
// the traced runs (--trace 1). Without the runs they need the metrics
// stay empty and the result is not correct; the failed traces say why.
func (r *result) summarise() {
	r.out = output{
		Correct:   r.tally.failed == 0 && r.measured(),
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   make(map[string]metricValue),
	}
	if !r.measured() {
		return
	}
	untraced := r.series(false)
	if !r.trace {
		for _, m := range endToEnd {
			r.out.Metrics[m.Name] = metricValue{median(untraced[m.Name]), m.Unit}
		}
		return
	}
	traced := r.series(true)
	traced["trace_overhead_frac"] = []float64{median(traced["wall_s"])/median(untraced["wall_s"]) - 1}
	for _, m := range perLayer {
		r.out.Metrics[m.Name] = metricValue{median(traced[m.Name]), m.Unit}
	}
}

// series collects each metric's values over the traced or untraced runs.
func (r *result) series(traced bool) map[string][]float64 {
	m := map[string][]float64{"setup_s": r.setups}
	for _, s := range r.samples {
		if s.traced != traced {
			continue
		}
		m["wall_s"] = append(m["wall_s"], s.wall)
		m["traces_per_s"] = append(m["traces_per_s"], float64(s.traces)/s.wall)
		m["first_verdict_s"] = append(m["first_verdict_s"], s.first)
		m["cpu_s"] = append(m["cpu_s"], s.cpu)
		m["peak_rss_mb"] = append(m["peak_rss_mb"], s.rss)
		for k, v := range s.layers {
			m[k] = append(m[k], v)
		}
	}
	return m
}

// report prints the human-readable account of r: the stamp, each
// metric's median, quartiles and sample count, and for a traced run the
// per-layer table against the traced wall clock.
func (r *result) report(w io.Writer, st stamp) {
	mode := "timed"
	if r.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "sfsbench: %s seed %d, %s: %d set-ups, %d runs\n", r.workload, r.seed, mode, len(r.setups), len(r.samples))
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(w, "stamp: %s\n", stampJSON)
	untraced := r.series(false)
	fmt.Fprintf(w, "%-22s %14s %14s %14s  %-6s %s\n", "metric", "median", "q1", "q3", "unit", "n")
	for _, m := range endToEnd {
		xs := untraced[m.Name]
		q1, med, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-22s %14.6g %14.6g %14.6g  %-6s %d\n", m.Name, med, q1, q3, m.Unit, len(xs))
	}
	fmt.Fprintf(w, "%-22s %14.6g  (%d of %d traces missed the known answer)\n", "failed_frac",
		ratio(float64(r.tally.failed), float64(r.tally.attempted)), r.tally.failed, r.tally.attempted)
	if !r.measured() {
		fmt.Fprintln(w, "no measured run completed: no metrics")
		return
	}
	if !r.trace {
		return
	}
	traced := r.series(true)
	wall := median(traced["wall_s"])
	fmt.Fprintf(w, "per-layer split of %s (medians of %d traced runs; traced wall_s %.6g s)\n",
		r.workload, len(traced["wall_s"]), wall)
	fmt.Fprintf(w, "%-24s %16s  %-6s %s\n", "metric", "value", "unit", "share of wall_s")
	for _, m := range perLayer {
		v := r.out.Metrics[m.Name].Value
		share := ""
		if m.Unit == "s" {
			share = fmt.Sprintf("%6.1f%%", 100*v/wall)
		}
		fmt.Fprintf(w, "%-24s %16.6g  %-6s %s\n", m.Name, v, m.Unit, share)
	}
}

// savedResult is one invocation as -save appends it, for aa.
type savedResult struct {
	Stamp    stamp  `json:"stamp"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Output   output `json:"output"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("sfsbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (picks nondet-cold's schedule seeds)")
	seconds := fs.Float64("seconds", 12, "how long the measured runs last")
	traceFlag := fs.Int("trace", 0, "1 = traced run: report the per-layer metrics")
	save := fs.String("save", "", "also append the stamped result as one JSON line to this file")
	if fs.Parse(args) != nil || fs.NArg() != 0 {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "sfsbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	return withEnv(func(ctx context.Context, e *env) error {
		root, _ := os.Getwd()
		st, err := makeStamp(root, e.workers)
		if err != nil {
			return err
		}
		r, err := e.bench(ctx, w, *seed, *seconds, *traceFlag == 1)
		if err != nil {
			return err
		}
		r.report(os.Stdout, st)
		if *save != "" {
			if err := appendJSONLine(*save, savedResult{st, w.name, *seed, r.trace, r.out}); err != nil {
				return err
			}
		}
		line, err := json.Marshal(r.out)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	})
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
