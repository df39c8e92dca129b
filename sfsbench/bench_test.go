package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-invokes itself as `self child SPEC.json` for every run.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if os.Getenv(failRunsEnv) != "" && !generateOnly(os.Args[2]) {
			os.Exit(1)
		}
		os.Exit(childMain(os.Args[2:]))
	}
	code := m.Run()
	if serveDir != "" {
		os.RemoveAll(serveDir)
	}
	os.Exit(code)
}

// failRunsEnv, when set, makes every child fail except the generation-only
// ones of a cold set-up: a program fault in every measured run.
const failRunsEnv = "SFSBENCH_TEST_FAIL_RUNS"

func generateOnly(specPath string) bool {
	var sp childSpec
	data, err := os.ReadFile(specPath)
	return err == nil && json.Unmarshal(data, &sp) == nil && sp.GenerateOnly
}

var (
	serveOnce sync.Once
	serveDir  string
	serveBin  string
	serveErr  error
)

// sfsServe builds the daemon once per test binary.
func sfsServe(t *testing.T) string {
	t.Helper()
	serveOnce.Do(func() {
		if serveDir, serveErr = os.MkdirTemp("", "sfsbench-serve-"); serveErr != nil {
			return
		}
		serveBin = filepath.Join(serveDir, "sfs-serve")
		out, err := exec.Command("go", "build", "-o", serveBin, "repro/cmd/sfs-serve").CombinedOutput()
		if err != nil {
			serveErr = err
			serveBin = string(out)
		}
	})
	if serveErr != nil {
		t.Fatalf("building sfs-serve: %v\n%s", serveErr, serveBin)
	}
	return serveBin
}

// tinyEnv is a benchmark environment at a tiny size: every 97th
// sequential script, two concurrent schedules drawn from a pool of four,
// one set-up, with known answers recorded from a cold run of the same
// program.
func tinyEnv(t *testing.T) *env {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{
		self:      self,
		serveBin:  sfsServe(t),
		work:      t.TempDir(),
		sample:    97,
		schedules: 2,
		setups:    1,
		workers:   2,
		log:       io.Discard,
	}
	if testing.Verbose() {
		e.log = os.Stderr
	}
	if e.answers, err = recordAnswers(context.Background(), e, 4); err != nil {
		t.Fatal(err)
	}
	return e
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricNames pins the metric and workload names: each is well formed
// and used once, and BENCHMARK.json declares exactly the metrics and
// workloads the benchmark reports, with the same units and directions.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("malformed metric %q (unit %q)", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	spec, err := loadBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	maxBound := 0.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if !equalDefs(e2e, endToEnd) || !equalDefs(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json metrics differ from the benchmark's:\n%v\n%v\nvs\n%v\n%v", e2e, spec.PerLayer, endToEnd, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if !nameRE.MatchString(w.Name) || w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// layersThatWork lists, per workload, per-layer metrics that must be
// non-zero because their layer does work there.
var layersThatWork = map[string][]string{
	"seq-cold": {"store.open_s", "generate_s", "testgen.cache_hits", "run_s", "job_p50_us", "exec.busy_s",
		"exec.steps", "checker.busy_s", "checker.tau_closure_s", "checker.steps", "checker.mean_states",
		"checker.max_states", "checker.tau_expansions", "checker.cons_hit_ratio", "osspec.state_clones",
		"store.get_s", "store.gets", "store.put_s", "store.puts", "store.fsyncs", "store.bytes",
		"journal.bytes", "journal.finalize_s", "report.read_s", "report.summarise_s",
		"allocs_per_trace", "alloc_bytes_per_trace", "unattributed_s"},
	"seq-warm": {"store.open_s", "generate_s", "testgen.cache_hits", "run_s", "job_p50_us", "store.get_s",
		"store.gets", "store.hit_ratio", "store.bytes", "journal.bytes", "journal.finalize_s",
		"report.read_s", "allocs_per_trace", "unattributed_s"},
	"nondet-cold": {"run_s", "exec.busy_s", "exec.steps", "checker.busy_s", "checker.tau_closure_s",
		"checker.steps", "checker.mean_states", "checker.max_states", "checker.tau_expansions",
		"checker.crash_points", "osspec.state_clones", "store.puts", "journal.bytes", "report.read_s"},
	"remote-warm": {"generate_s", "testgen.cache_hits", "run_s", "store.gets", "store.hit_ratio",
		"remote.get_s", "remote.get_p50_us", "remote.get_p99_us", "remote.hit_ratio",
		"serve.http_s", "serve.http_requests", "journal.bytes", "report.read_s"},
}

// TestEveryWorkloadReportsItsMetrics runs every workload at a tiny size,
// timed and traced, and checks that the output carries exactly the
// declared metrics, finite, with no trace missing its known answer, and
// that every layer doing work on the workload shows it.
func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e := tinyEnv(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := e.bench(context.Background(), w, 1, 0, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.out.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.out.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := r.out.Metrics[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, traced, m.Name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, v.Value)
				}
			}
			if !r.out.Correct || r.out.Failed != 0 || r.out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced,
					r.out.Correct, r.out.Failed, r.out.Attempted)
			}
			if !traced {
				continue
			}
			for _, name := range layersThatWork[w.name] {
				if r.out.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, but its layer does work here", w.name, name, r.out.Metrics[name].Value)
				}
			}
			if w.warm && r.out.Metrics["exec.steps"].Value != 0 {
				t.Errorf("%s: warm run executed %v steps", w.name, r.out.Metrics["exec.steps"].Value)
			}
		}
	}
}

// TestTamperedRecordRaisesFailedFrac checks that one wrong record — a
// changed byte, a flipped verdict, a dropped line — makes traces miss
// the known answer, and that a warm journal differing from the cold one
// does too.
func TestTamperedRecordRaisesFailedFrac(t *testing.T) {
	e := tinyEnv(t)
	w, _ := lookupWorkload("seq-cold")
	dir := filepath.Join(e.work, "tamper")
	sp := childSpec{Universe: uniSequential, CacheDir: filepath.Join(dir, "store"), OutDir: filepath.Join(dir, "out")}
	if _, err := e.runChild(context.Background(), sp, e.work); err != nil {
		t.Fatal(err)
	}
	path := journalPath(sp.OutDir, "seq", 0)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.verify(w, sp.OutDir, nil, nil); got.failed != 0 || got.attempted != e.answers.Sequential.Traces {
		t.Fatalf("clean journal: %+v", got)
	}
	lines := splitLines(clean)
	tampers := map[string][]byte{
		"byte":    bytes.Replace(clean, []byte(`# Trace accepted.`), []byte(`# Trace accepteD.`), 1),
		"verdict": bytes.Replace(clean, accepted, []byte(`"accepted":false,`), 1),
		"dropped": bytes.Join(append(append([][]byte(nil), lines[:3]...), lines[4:]...), nil),
	}
	for name, data := range tampers {
		if bytes.Equal(data, clean) {
			t.Fatalf("%s: tamper changed nothing", name)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got := e.verify(w, sp.OutDir, nil, nil)
		if got.failed == 0 || ratio(float64(got.failed), float64(got.attempted)) <= 0 {
			t.Errorf("%s: tampered journal passed: %+v", name, got)
		}
	}
	// A warm run must reproduce the cold journal byte for byte, even where
	// both would match a stale known answer.
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := bytes.Replace(clean, []byte(`# Trace accepted.`), []byte(`# Trace accepteD.`), 1)
	if got := e.verify(w, sp.OutDir, nil, ref); got.failed == 0 {
		t.Errorf("warm journal differing from the cold one passed: %+v", got)
	}
}

// TestFailingChildCountsAsFailed checks that a program fault fails traces
// instead of the benchmark: when every measured run's child fails, or the
// daemon dies during set-up, the invocation still ends with a result, one
// in which every attempted trace failed and nothing was measured.
func TestFailingChildCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	e := tinyEnv(t)
	n := e.answers.Sequential.Traces
	check := func(name string, r *result, err error, attempted int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.out.Correct || r.out.Attempted != attempted || r.out.Failed != attempted || len(r.out.Metrics) != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d metrics=%d, want false %d %d 0", name,
				r.out.Correct, r.out.Attempted, r.out.Failed, len(r.out.Metrics), attempted, attempted)
		}
		r.report(io.Discard, stamp{})
	}
	seqCold, _ := lookupWorkload("seq-cold")
	t.Run("runs", func(t *testing.T) {
		t.Setenv(failRunsEnv, "1")
		r, err := e.bench(context.Background(), seqCold, 1, 0, false)
		check("timed", r, err, 3*n)
		r, err = e.bench(context.Background(), seqCold, 1, 0, true)
		check("traced", r, err, 4*n)
	})
	t.Run("daemon", func(t *testing.T) {
		broken := *e
		broken.serveBin = filepath.Join(t.TempDir(), "sfs-serve")
		if err := os.WriteFile(broken.serveBin, []byte("#!/bin/sh\nexit 1\n"), 0o755); err != nil {
			t.Fatal(err)
		}
		remoteWarm, _ := lookupWorkload("remote-warm")
		r, err := broken.bench(context.Background(), remoteWarm, 1, 0, false)
		check("remote-warm", r, err, n)
	})
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestPickSchedules checks that the workload seed alone decides the
// schedules, one from each cost stratum.
func TestPickSchedules(t *testing.T) {
	var pool []schedAnswer
	for i := int64(1); i <= 40; i++ {
		pool = append(pool, schedAnswer{Seed: i, Cost: (i * 7) % 40})
	}
	a, _ := pickSchedules(pool, 10, 1)
	b, _ := pickSchedules(pool, 10, 1)
	c, _ := pickSchedules(pool, 10, 2)
	differs := false
	for i := range a {
		if a[i].Seed != b[i].Seed {
			t.Fatalf("seed 1 picked differently: %v vs %v", a, b)
		}
		if a[i].Cost/4 != int64(i) {
			t.Errorf("pick %d has cost %d, outside stratum %d", i, a[i].Cost, i)
		}
		differs = differs || a[i].Seed != c[i].Seed
	}
	if !differs {
		t.Error("seeds 1 and 2 picked the same schedules")
	}
	if _, err := pickSchedules(pool, 41, 1); err == nil {
		t.Error("picked more schedules than the pool holds")
	}
}

// TestCompareRefusesDifferentStamps checks that results whose stamps
// differ — another machine, or other code — are not compared.
func TestCompareRefusesDifferentStamps(t *testing.T) {
	spec, err := loadBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	res := func(st stamp) []savedResult {
		out := output{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
		for _, m := range endToEnd {
			out.Metrics[m.Name] = metricValue{1, m.Unit}
		}
		return []savedResult{{Stamp: st, Workload: "seq-cold", Output: out}}
	}
	base := stamp{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1", Commit: "c1", Source: "s1", Bench: "b"}
	if ok, err := compare(io.Discard, spec, res(base), res(base)); err != nil || !ok {
		t.Errorf("identical sets: ok=%v err=%v", ok, err)
	}
	for name, change := range map[string]func(*stamp){
		"cpu":    func(s *stamp) { s.CPU = "y" },
		"commit": func(s *stamp) { s.Commit = "c2" },
		"source": func(s *stamp) { s.Source = "s2" },
		"bench":  func(s *stamp) { s.Bench = "b2" },
	} {
		other := base
		change(&other)
		if _, err := compare(io.Discard, spec, res(base), res(other)); err == nil {
			t.Errorf("compared results whose stamps differ in %s", name)
		}
	}
}
