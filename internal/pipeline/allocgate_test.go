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
// with one worker and a fresh cons table. The figure measured last was
// 325.7 allocs/trace (go1.24, linux/amd64), after the executor stopped
// re-boxing each call label and the checker stopped probing the cons
// table for transitions that are empty by construction; the ceiling is
// that plus 10%. Allocation counts are a deterministic work
// counter — unlike wall time they do not drift with the machine — so a
// change that pushes past the ceiling has added per-trace work. Lower
// the ceiling when a change lowers the figure; raise it only with a
// reason.
const allocCeilingPerTrace = 358

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

	var st Stats
	perTrace := allocsPer(len(sample), func() {
		if _, st, err = Run(context.Background(), cfg); err == nil {
			err = sink.Finalize()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != len(sample) {
		t.Fatalf("executed %d of %d sampled traces", st.Executed, len(sample))
	}
	t.Logf("%d sampled traces: %.1f allocs/trace (ceiling %d)", len(sample), perTrace, allocCeilingPerTrace)
	if perTrace > allocCeilingPerTrace {
		t.Fatalf("cold path allocates %.1f objects per trace, over the ceiling of %d", perTrace, allocCeilingPerTrace)
	}
}

// Decode allocation ceilings of the warm path's two text decoders, per
// script of the generated suite's blob (DecodeSuite) and per record of a
// full-suite journal (ReadRecords), as measured when the gate was
// introduced plus 10% (go1.24, linux/amd64): 32.05 allocs/script, nearly
// all of them the boxed labels and commands a parsed script is made of,
// and 3.00 allocs/record, its three strings. Like allocCeilingPerTrace
// they count work, not time; lower them when a change lowers the figure.
const (
	decodeSuiteAllocCeilingPerScript = 35.3
	readRecordsAllocCeilingPerRecord = 3.3
)

// allocsPer runs fn once and returns the heap objects it allocated,
// divided by n.
func allocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestDecodeAllocCeiling is the decode allocation gate, on the generated
// suite's blob and a full-suite journal (suiteJournal).
func TestDecodeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	scripts := testgen.Generate().Scripts
	blob, _ := EncodeSuite(scripts)
	var decoded []*trace.Script
	var err error
	perScript := allocsPer(len(scripts), func() { decoded, _, err = DecodeSuite(blob) })
	if err != nil || len(decoded) != len(scripts) {
		t.Fatalf("DecodeSuite: %d scripts, %v", len(decoded), err)
	}

	path := suiteJournal(t, scripts)
	var read []Record
	perRecord := allocsPer(len(scripts), func() { read, err = ReadRecords(path) })
	if err != nil || len(read) != len(scripts) {
		t.Fatalf("ReadRecords: %d records, %v", len(read), err)
	}

	t.Logf("DecodeSuite: %.2f allocs/script (ceiling %.2f); ReadRecords: %.2f allocs/record (ceiling %.2f)",
		perScript, decodeSuiteAllocCeilingPerScript, perRecord, readRecordsAllocCeilingPerRecord)
	if perScript > decodeSuiteAllocCeilingPerScript {
		t.Errorf("DecodeSuite allocates %.2f objects per script, over the ceiling of %.2f", perScript, decodeSuiteAllocCeilingPerScript)
	}
	if perRecord > readRecordsAllocCeilingPerRecord {
		t.Errorf("ReadRecords allocates %.2f objects per record, over the ceiling of %.2f", perRecord, readRecordsAllocCeilingPerRecord)
	}
}
