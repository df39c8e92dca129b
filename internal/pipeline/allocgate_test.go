package pipeline

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/fsimpl"
	"repro/internal/testgen"
	"repro/internal/trace"
	"repro/internal/types"
)

// allocCeilingPerTrace is the allocation gate of the cold sequential
// path: heap objects allocated per trace by execute → check → render →
// encode → store → journal → finalize, on the stratified sample below
// with one worker and a fresh cons table. The figure measured when the
// gate was introduced was 349 allocs/trace (go1.24, linux/amd64); the
// ceiling is that plus 10%. Allocation counts are a deterministic work
// counter — unlike wall time they do not drift with the machine — so a
// change that pushes past the ceiling has added per-trace work. Lower
// the ceiling when a change lowers the figure; raise it only with a
// reason.
const allocCeilingPerTrace = 384

// allocSampleStride takes every 40th script of each command group: about
// 520 traces, with every group represented in proportion to its size.
const allocSampleStride = 40

// stratifiedSample picks every stride-th script within each command group
// (testgen.GroupOf), keeping suite order — a fixed sample that mirrors the
// suite's mix of commands instead of its first few groups.
func stratifiedSample(scripts []*trace.Script, stride int) []*trace.Script {
	seen := map[string]int{}
	var out []*trace.Script
	for _, s := range scripts {
		g := testgen.GroupOf(s.Name)
		if seen[g]%stride == 0 {
			out = append(out, s)
		}
		seen[g]++
	}
	return out
}

// TestColdPathAllocCeiling is the allocation gate (see
// allocCeilingPerTrace). It runs in short mode: the sample takes well
// under a second.
func TestColdPathAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	sample := stratifiedSample(testgen.Generate().Scripts, allocSampleStride)
	// Script hashes come from the generation cache on the real path
	// (Session's HashScript memo), so the gate does not count hashing.
	_, hashes := EncodeSuite(sample)
	hashOf := make(map[*trace.Script]string, len(sample))
	for i, s := range sample {
		hashOf[s] = hashes[i]
	}
	dir := t.TempDir()
	cache, err := OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	sink, err := OpenSink(filepath.Join(dir, "run.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name:    "alloc-gate",
		Scripts: sample,
		Factory: fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")),
		FSName:  "ext4",
		Spec:    types.DefaultSpec(),
		Workers: 1, // Run builds a fresh cons table per call
		Cache:   cache,
		Sink:    sink,
		HashScript: func(s *trace.Script) string {
			return hashOf[s]
		},
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, st, err := Run(context.Background(), cfg)
	if err == nil {
		err = sink.Finalize()
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != len(sample) {
		t.Fatalf("executed %d of %d sampled traces", st.Executed, len(sample))
	}
	perTrace := float64(after.Mallocs-before.Mallocs) / float64(len(sample))
	t.Logf("%d sampled traces: %.1f allocs/trace (ceiling %d)", len(sample), perTrace, allocCeilingPerTrace)
	if perTrace > allocCeilingPerTrace {
		t.Fatalf("cold path allocates %.1f objects per trace, over the ceiling of %d", perTrace, allocCeilingPerTrace)
	}
}
