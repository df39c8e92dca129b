package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of a timed run (--trace 0), in report order.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"traces_per_s", "1/s", "higher"},
	{"first_verdict_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1), grouped by layer
// in report order. README.md gives each one's source.
var perLayer = []metricDef{
	// sibylfs / cliutil
	{"store.open_s", "s", "lower"},
	// testgen + generation cache
	{"generate_s", "s", "lower"},
	{"testgen.cache_hits", "count", "higher"},
	// pipeline orchestration
	{"run_s", "s", "lower"},
	{"run_setup_s", "s", "lower"},
	{"job_p50_us", "us", "lower"},
	{"job_p99_us", "us", "lower"},
	// exec / fsimpl
	{"exec.busy_s", "s", "lower"},
	{"exec.steps", "count", "lower"},
	// checker / osspec / state
	{"checker.busy_s", "s", "lower"},
	{"checker.tau_closure_s", "s", "lower"},
	{"checker.steps", "count", "lower"},
	{"checker.mean_states", "states", "lower"},
	{"checker.max_states", "states", "lower"},
	{"checker.tau_expansions", "count", "lower"},
	{"checker.cons_hit_ratio", "ratio", "higher"},
	{"checker.crash_points", "count", "lower"},
	{"osspec.state_clones", "count", "lower"},
	// pipeline store
	{"store.get_s", "s", "lower"},
	{"store.gets", "count", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"store.put_s", "s", "lower"},
	{"store.puts", "count", "lower"},
	{"store.fsyncs", "count", "lower"},
	{"store.bytes", "bytes", "lower"},
	// pipeline sink + report
	{"journal.flush_s", "s", "lower"},
	{"journal.fsyncs", "count", "lower"},
	{"journal.bytes", "bytes", "lower"},
	{"journal.finalize_s", "s", "lower"},
	{"report.read_s", "s", "lower"},
	{"report.summarise_s", "s", "lower"},
	// HTTPStore / serve
	{"remote.get_s", "s", "lower"},
	{"remote.get_p50_us", "us", "lower"},
	{"remote.get_p99_us", "us", "lower"},
	{"remote.hit_ratio", "ratio", "higher"},
	{"remote.retries", "count", "lower"},
	{"remote.fallback_gets", "count", "lower"},
	{"serve.http_s", "s", "lower"},
	{"serve.http_requests", "count", "lower"},
	// Go runtime
	{"gc_cpu_frac", "ratio", "lower"},
	{"allocs_per_trace", "count", "lower"},
	{"alloc_bytes_per_trace", "bytes", "lower"},
	{"gc_cycles", "count", "lower"},
	// the benchmark itself
	{"unattributed_s", "s", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(n=4) (exclusive); with
// fewer than two values all three are that value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
