package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	sibylfs "repro"
	"repro/internal/cliutil"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// Universes a child run checks.
const (
	uniSequential = "sequential" // the generated sequential suite
	uniNondet     = "nondet"     // conc___ under seeded schedules, then crash___
)

// childSpec is one measured run, handed to a fresh child process as a
// JSON file: the parent times the process from spawn to exit.
type childSpec struct {
	Universe string `json:"universe"`
	// CacheDir roots the local result store; nondet uses its conc/ and
	// crash/ subdirectories. Empty with Remote.
	CacheDir string `json:"cache_dir,omitempty"`
	// Remote is the sfs-serve base URL backing the store (remote-warm).
	Remote string `json:"remote,omitempty"`
	// OutDir receives the finalized journals (see journalPath).
	OutDir string `json:"out_dir"`
	// SchedSeeds lists nondet's schedule seeds, one Session.Run each.
	SchedSeeds []int64 `json:"sched_seeds,omitempty"`
	Workers    int     `json:"workers"`
	// Sample keeps every Nth sequential script (0 or 1 = the whole suite);
	// only the benchmark's own tests shrink the suite.
	Sample int `json:"sample,omitempty"`
	// GenerateOnly stops after generation: it fills the generation cache.
	GenerateOnly bool `json:"generate_only,omitempty"`
	// Trace makes the child time its calls and read the telemetry
	// registry and runtime/metrics; timed runs leave it off.
	Trace bool `json:"trace,omitempty"`
	// Result is where the child writes its childResult.
	Result string `json:"result"`
}

// childResult is what a child reports back besides its exit status.
type childResult struct {
	// FirstVerdict is the wall-clock time (Unix ns) the first record
	// reached the session's observer.
	FirstVerdict int64 `json:"first_verdict_unix_ns"`
	Traces       int   `json:"traces"`
	// Attributed is the summed duration of the benchmark's top-level
	// calls into the program (traced runs only).
	Attributed float64 `json:"attributed_s,omitempty"`
	// Layers holds the per-layer metrics measured inside the child
	// (traced runs only).
	Layers map[string]float64 `json:"layers,omitempty"`
}

// journalPath names a finalized journal under dir: the sequential suite,
// one concurrent schedule, or the crash universe.
func journalPath(dir, kind string, seed int64) string {
	if kind == "conc" {
		return filepath.Join(dir, fmt.Sprintf("conc-%d.jsonl", seed))
	}
	return filepath.Join(dir, kind+".jsonl")
}

func childMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: sfsbench child SPEC.json")
		return 2
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfsbench child:", err)
		return 1
	}
	var sp childSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "sfsbench child: bad spec:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runSpec(ctx, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfsbench child:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(sp.Result, out, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfsbench child: writing result:", err)
		return 1
	}
	return 0
}

// callTimer sums the duration of the benchmark's calls into the program
// by kind. It is inert in timed runs.
type callTimer struct {
	on    bool
	kinds map[string]time.Duration
	total time.Duration
}

func (t *callTimer) do(kind string, f func() error) error {
	if !t.on {
		return f()
	}
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.kinds[kind] += d
	t.total += d
	return err
}

// part is one session's share of a child run: one universe, one store,
// one journal, and either one Run or one Run per schedule seed.
type part struct {
	kind     string // "seq", "conc" or "crash" (journal naming)
	cacheDir string
	crash    bool
	generate func(*sibylfs.Session, context.Context) ([]*sibylfs.Script, error)
	seeds    []int64 // conc: schedule seeds; nil = one sequential Run
}

func runSpec(ctx context.Context, sp childSpec) (childResult, error) {
	var res childResult
	var first atomic.Int64
	observe := func(sibylfs.PipelineRecord) {
		if first.Load() == 0 {
			first.CompareAndSwap(0, time.Now().UnixNano())
		}
	}
	tm := &callTimer{on: sp.Trace, kinds: make(map[string]time.Duration)}

	var parts []part
	switch sp.Universe {
	case uniSequential:
		parts = []part{{kind: "seq", cacheDir: sp.CacheDir, generate: (*sibylfs.Session).Generate}}
	case uniNondet:
		parts = []part{
			{kind: "conc", cacheDir: filepath.Join(sp.CacheDir, "conc"),
				generate: (*sibylfs.Session).GenerateConcurrent, seeds: sp.SchedSeeds},
			{kind: "crash", cacheDir: filepath.Join(sp.CacheDir, "crash"), crash: true,
				generate: (*sibylfs.Session).GenerateCrash},
		}
	default:
		return res, fmt.Errorf("unknown universe %q", sp.Universe)
	}
	var storeBytes int64
	for _, p := range parts {
		n, err := runPart(ctx, sp, p, tm, observe, &res)
		if err != nil {
			return res, fmt.Errorf("%s: %w", p.kind, err)
		}
		storeBytes += n
	}
	res.FirstVerdict = first.Load()
	if sp.Trace {
		res.Attributed = tm.total.Seconds()
		res.Layers = childLayers(telemetry.Default.Snapshot(), tm, storeBytes, res.Traces)
	}
	return res, nil
}

// runPart makes the calls sfs-run makes for one universe: a session with
// a result store and a journal, its store opened by CacheStats, the suite
// generated, run, and the finalized journal re-read and summarised. It
// returns the store's size after the run (traced runs only).
func runPart(ctx context.Context, sp childSpec, p part, tm *callTimer, observe func(sibylfs.PipelineRecord), res *childResult) (int64, error) {
	spec := sibylfs.SpecFor(sibylfs.Linux)
	spec.Crash = p.crash
	var fsc cliutil.FSChoice
	if p.crash {
		var err error
		if fsc, err = cliutil.PickCrashFS("ext4"); err != nil {
			return 0, err
		}
	} else {
		fsc, _ = cliutil.PickFS("ext4")
	}
	if err := os.MkdirAll(sp.OutDir, 0o755); err != nil {
		return 0, err
	}
	journal := journalPath(sp.OutDir, p.kind, 0)
	opts := []sibylfs.Option{
		sibylfs.WithSpec(spec),
		sibylfs.WithWorkers(sp.Workers),
		sibylfs.WithJournal(journal),
		sibylfs.WithObserver(observe),
	}
	if sp.Remote != "" {
		opts = append(opts, sibylfs.WithRemoteCache(sp.Remote))
	} else {
		opts = append(opts, sibylfs.WithCacheDir(p.cacheDir))
	}
	var s *sibylfs.Session
	tm.do("new", func() error { s = sibylfs.New(opts...); return nil })
	if err := tm.do("store.open", func() error {
		if _, ok := s.CacheStats(); !ok {
			return errors.New("result store did not open")
		}
		return nil
	}); err != nil {
		return 0, err
	}
	var scripts []*sibylfs.Script
	if err := tm.do("generate", func() (err error) { scripts, err = p.generate(s, ctx); return err }); err != nil {
		return 0, err
	}
	if sp.Sample > 1 && p.kind == "seq" {
		var sel []*sibylfs.Script
		for i := 0; i < len(scripts); i += sp.Sample {
			sel = append(sel, scripts[i])
		}
		scripts = sel
	}
	if sp.GenerateOnly {
		return 0, nil
	}
	seeds := p.seeds
	if seeds == nil {
		seeds = []int64{0}
	}
	for _, seed := range seeds {
		job := sibylfs.RunJob{
			Name:       "ext4 vs linux",
			Scripts:    scripts,
			Factory:    fsc.Factory,
			FSName:     "ext4",
			Concurrent: p.kind == "conc",
			SchedSeed:  seed,
		}
		if err := tm.do("run", func() error { _, _, err := s.Run(ctx, job); return err }); err != nil {
			return 0, err
		}
		out := journal
		if p.kind == "conc" {
			out = journalPath(sp.OutDir, p.kind, seed)
			if err := tm.do("rename", func() error { return os.Rename(journal, out) }); err != nil {
				return 0, err
			}
		}
		var recs []pipeline.Record
		if err := tm.do("read", func() (err error) { recs, err = pipeline.ReadRecords(out); return err }); err != nil {
			return 0, err
		}
		tm.do("summarise", func() error {
			res.Traces += pipeline.Summarise(job.Name, recs).Total
			return nil
		})
	}
	if !sp.Trace {
		return 0, nil
	}
	st, _ := s.CacheStats()
	return st.Bytes, nil
}

// childLayers turns the child's call timings, the telemetry registry the
// program already publishes and the runtime's own metrics into the
// per-layer metrics that can be measured inside the child.
func childLayers(snap telemetry.Snapshot, tm *callTimer, storeBytes int64, traces int) map[string]float64 {
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	g := func(name string) float64 { return float64(snap.Gauges[name]) }
	sum := func(name string) float64 { return float64(snap.Hists[name].Sum) / 1e9 }
	count := func(name string) float64 { return float64(snap.Hists[name].Count) }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	job, get := snap.Hists["pipeline.job_ns"], snap.Hists["pipeline.http_get_ns"]

	rt := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(rt)
	f := func(i int) float64 {
		switch rt[i].Value.Kind() {
		case metrics.KindFloat64:
			return rt[i].Value.Float64()
		case metrics.KindUint64:
			return float64(rt[i].Value.Uint64())
		}
		return 0
	}
	perTrace := func(v float64) float64 { return ratio(v, float64(traces)) }

	return map[string]float64{
		"store.open_s":       tm.kinds["store.open"].Seconds(),
		"generate_s":         tm.kinds["generate"].Seconds(),
		"testgen.cache_hits": c("testgen.cache_hits"),
		"run_s":              sum("span.session.run"),
		"run_setup_s":        sum("span.session.run") - sum("span.pipeline.run") - sum("journal.finalize_ns"),
		"job_p50_us":         us(job.P50),
		"job_p99_us":         us(job.P99),

		"exec.busy_s": sum("pipeline.execute_ns"),
		"exec.steps":  c("exec.steps"),

		"checker.busy_s":         sum("checker.check_ns"),
		"checker.tau_closure_s":  sum("checker.tau_closure_ns"),
		"checker.steps":          c("checker.steps"),
		"checker.mean_states":    ratio(c("checker.states_explored"), c("checker.steps")),
		"checker.max_states":     g("checker.max_states"),
		"checker.tau_expansions": c("checker.tau_expansions"),
		"checker.cons_hit_ratio": ratio(c("checker.cons_hits"), c("checker.cons_hits")+c("checker.cons_misses")),
		"checker.crash_points":   c("checker.crash_points"),
		"osspec.state_clones":    g("osspec.state_clones"),

		"store.get_s":     sum("pipeline.cache_lookup_ns"),
		"store.gets":      count("pipeline.cache_lookup_ns"),
		"store.hit_ratio": ratio(c("pipeline.cache_hits"), c("pipeline.cache_hits")+c("pipeline.cache_misses")),
		"store.put_s":     sum("pipeline.cache_store_ns"),
		"store.puts":      c("pipeline.cache_stores"),
		"store.fsyncs":    c("pipeline.store_fsyncs"),
		"store.bytes":     float64(storeBytes),

		"journal.flush_s":    sum("journal.flush_ns"),
		"journal.fsyncs":     c("journal.fsyncs"),
		"journal.bytes":      c("journal.bytes"),
		"journal.finalize_s": sum("journal.finalize_ns"),
		"report.read_s":      tm.kinds["read"].Seconds(),
		"report.summarise_s": tm.kinds["summarise"].Seconds(),

		"remote.get_s":         sum("pipeline.http_get_ns"),
		"remote.get_p50_us":    us(get.P50),
		"remote.get_p99_us":    us(get.P99),
		"remote.hit_ratio":     ratio(c("pipeline.http_hits"), c("pipeline.http_gets")),
		"remote.retries":       c("pipeline.http_retries"),
		"remote.fallback_gets": c("pipeline.http_fallback_gets"),

		"gc_cpu_frac":           ratio(f(0), f(1)-f(2)),
		"allocs_per_trace":      perTrace(f(3)),
		"alloc_bytes_per_trace": perTrace(f(4)),
		"gc_cycles":             f(5),
	}
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
