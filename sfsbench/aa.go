package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the A/A mode needs.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkSpec
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// aaDir is where aa keeps the two sets' results (A.jsonl, B.jsonl).
const aaDir = ".bench_build/aa"

// aaMain runs two interleaved sets of timed invocations of every workload
// from the same build — each invocation a fresh process, as the driver
// runs them, for BENCHMARK.json's run_seconds — and then compares the
// sets (see compare).
func aaMain(args []string) int {
	fs := flag.NewFlagSet("sfsbench aa", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "invocations per set and workload")
	if fs.Parse(args) != nil || fs.NArg() != 0 {
		return 2
	}
	ok, err := aa(*runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfsbench aa:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func aa(runs int) (bool, error) {
	spec, err := loadBenchmarkSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(aaDir, 0o755); err != nil {
		return false, err
	}
	files := [2]string{filepath.Join(aaDir, "A.jsonl"), filepath.Join(aaDir, "B.jsonl")}
	for _, f := range files {
		os.Remove(f)
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2 // alternate which set goes first
				seed := strconv.Itoa(1 + i + 1000*set)
				cmd := exec.Command(self, "--workload", w.name, "--seed", seed,
					"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0", "--save", files[set])
				cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
				fmt.Fprintf(os.Stderr, "sfsbench aa: set %c, %s, seed %s\n", 'A'+set, w.name, seed)
				if err := cmd.Run(); err != nil {
					return false, fmt.Errorf("%s seed %s: %w", w.name, seed, err)
				}
			}
		}
	}
	return compareSaved(spec, files[0], files[1])
}

// compareSaved compares two files of saved results with the bounds in
// spec (see compare).
func compareSaved(spec *benchmarkSpec, a, b string) (bool, error) {
	setA, err := readSaved(a)
	if err != nil {
		return false, err
	}
	setB, err := readSaved(b)
	if err != nil {
		return false, err
	}
	return compare(os.Stdout, spec, setA, setB)
}

func readSaved(path string) ([]savedResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []savedResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r savedResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// compare prints, for every workload both sets measured and every
// end-to-end metric, each set's median and quartiles, and whether they
// agree: the medians differ by no more than the metric's bound and each
// set's spread (interquartile range over median) stays within it —
// setup_s's spread excepted. It refuses sets whose stamps differ.
func compare(w io.Writer, spec *benchmarkSpec, a, b []savedResult) (bool, error) {
	ref := a[0].Stamp
	for _, r := range append(append([]savedResult(nil), a...), b...) {
		if f := ref.diff(r.Stamp); f != "" {
			return false, fmt.Errorf("refusing to compare: stamps differ in %s (%+v vs %+v)", f, ref, r.Stamp)
		}
		if r.Trace {
			return false, fmt.Errorf("refusing to compare traced results (%s seed %d)", r.Workload, r.Seed)
		}
	}
	ok := true
	fmt.Fprintf(w, "%-12s %-16s %5s %12s %12s %12s %8s %12s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "bound", "A median", "A q1", "A q3", "A iqr", "B median", "B q1", "B q3", "B iqr", "B-A", "n", "agree")
	for _, wl := range workloads {
		va, vb := values(a, wl.name), values(b, wl.name)
		if va == nil || vb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			xa, xb := va[m.Name], vb[m.Name]
			a1, am, a3 := quartiles(xa)
			b1, bm, b3 := quartiles(xb)
			sa, sb := (a3-a1)/am, (b3-b1)/bm
			diff := (bm - am) / am
			agree := math.Abs(diff) <= m.Bound
			if m.Name != "setup_s" {
				agree = agree && sa <= m.Bound && sb <= m.Bound
			}
			ok = ok && agree
			fmt.Fprintf(w, "%-12s %-16s %5.2f %12.6g %12.6g %12.6g %7.1f%% %12.6g %12.6g %12.6g %7.1f%% %7.1f%% %3d/%-2d  %v\n",
				wl.name, m.Name, m.Bound, am, a1, a3, 100*sa, bm, b1, b3, 100*sb, 100*diff, len(xa), len(xb), agree)
		}
		fa, fb := failures(a, wl.name), failures(b, wl.name)
		fmt.Fprintf(w, "%-12s %-16s failed traces: A %d, B %d\n", wl.name, "failed_frac", fa, fb)
		ok = ok && fa == 0 && fb == 0
	}
	return ok, nil
}

// values collects one workload's end-to-end metric values, one per
// invocation; nil when the set has none.
func values(set []savedResult, workload string) map[string][]float64 {
	var m map[string][]float64
	for _, r := range set {
		if r.Workload != workload {
			continue
		}
		if m == nil {
			m = make(map[string][]float64)
		}
		for k, v := range r.Output.Metrics {
			m[k] = append(m[k], v.Value)
		}
	}
	return m
}

func failures(set []savedResult, workload string) int {
	n := 0
	for _, r := range set {
		if r.Workload == workload {
			n += r.Output.Failed
		}
	}
	return n
}
