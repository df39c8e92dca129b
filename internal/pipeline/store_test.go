package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fsimpl"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/types"
)

// TestStoreRoundTrip pins the local Store contract: Put-then-Get returns
// the bytes verbatim (before AND after a Flush), absent keys are plain
// misses, and overwriting a key is allowed.
func TestStoreRoundTrip(t *testing.T) {
	for _, open := range []struct {
		name string
		open func(dir string) (Store, error)
	}{
		{"pack", func(dir string) (Store, error) { return OpenPackStore(dir) }},
	} {
		t.Run(open.name, func(t *testing.T) {
			s, err := open.open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			key := testKey(7)
			if _, ok := s.Get(key); ok {
				t.Fatal("miss expected on empty store")
			}
			if err := s.Put(key, []byte("one")); err != nil {
				t.Fatal(err)
			}
			// Read-your-writes: visible before any flush.
			if v, ok := s.Get(key); !ok || string(v) != "one" {
				t.Fatalf("pre-flush get: %q, %v", v, ok)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if v, ok := s.Get(key); !ok || string(v) != "one" {
				t.Fatalf("post-flush get: %q, %v", v, ok)
			}
			if err := s.Put(key, []byte("two")); err != nil {
				t.Fatal(err)
			}
			if v, ok := s.Get(key); !ok || string(v) != "two" {
				t.Fatalf("overwrite get: %q, %v", v, ok)
			}
			st := s.Stats()
			if st.Entries != 1 {
				t.Fatalf("stats entries = %d, want 1", st.Entries)
			}
		})
	}
}

// TestPackPersistence pins durability across process boundaries: entries
// written and Closed read back from a fresh open, from sidecars (no
// rebuild scan).
func TestPackPersistence(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 50)

	reg := telemetry.NewRegistry()
	old := telemetry.Default
	telemetry.Default = reg
	defer func() { telemetry.Default = old }()

	p, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, k := range keys {
		if v, ok := p.Get(k); !ok || !strings.HasSuffix(string(v), k) {
			t.Fatalf("entry %s lost across reopen: %q, %v", k, v, ok)
		}
	}
	if n := reg.Counter("pipeline.index_rebuilds").Value(); n != 0 {
		t.Fatalf("clean reopen scanned %d segments, want sidecar loads only", n)
	}
}

// TestPackRotation forces segment rotation with tiny bounds and checks
// every entry stays readable across the segment boundary and across a
// reopen, and that Stats sees the extra segments.
func TestPackRotation(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPackStoreWith(dir, PackOptions{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 40; i++ {
		k := testKey(i)
		keys = append(keys, k)
		if err := p.Put(k, bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Segments < 2 {
		t.Fatalf("%d segments after overflow, want rotation", st.Segments)
	}
	if st.Entries != len(keys) {
		t.Fatalf("stats entries = %d, want %d", st.Entries, len(keys))
	}
	for i, k := range keys {
		if v, ok := p.Get(k); !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 50)) {
			t.Fatalf("entry %d unreadable after rotation", i)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPackStoreWith(dir, PackOptions{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for i, k := range keys {
		if v, ok := p2.Get(k); !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 50)) {
			t.Fatalf("entry %d unreadable after rotation+reopen", i)
		}
	}
}

// TestPackOversizeEntry pins the escape hatch: an entry larger than
// MaxSegmentBytes still stores (in a segment of its own).
func TestPackOversizeEntry(t *testing.T) {
	p, err := OpenPackStoreWith(t.TempDir(), PackOptions{MaxSegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	big := bytes.Repeat([]byte("x"), 4096)
	if err := p.Put(testKey(1), big); err != nil {
		t.Fatal(err)
	}
	if v, ok := p.Get(testKey(1)); !ok || !bytes.Equal(v, big) {
		t.Fatal("oversize entry unreadable")
	}
}

// TestPackConcurrency hammers one store from many goroutines — the
// pipeline's worker pool shape — under the race detector.
func TestPackConcurrency(t *testing.T) {
	p, err := OpenPackStoreWith(t.TempDir(), PackOptions{MaxSegmentBytes: 4096, FlushBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := testKey(w*100 + i)
				val := []byte(fmt.Sprintf("worker %d item %d", w, i))
				if err := p.Put(k, val); err != nil {
					t.Error(err)
					return
				}
				if v, ok := p.Get(k); !ok || !bytes.Equal(v, val) {
					t.Errorf("read-your-writes failed for %s", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.Entries != 400 {
		t.Fatalf("entries = %d, want 400", st.Entries)
	}
}

// TestCacheIgnoresStaleV1Tree pins what happens to a cache directory
// that still holds the retired file-per-key fan-out tree: OpenCache reads
// only dir/pack, so those entries are misses (the cache is lossy by
// contract — a cold run, never a wrong verdict) and new records land
// packed.
func TestCacheIgnoresStaleV1Tree(t *testing.T) {
	dir := t.TempDir()
	key := testKey(1)
	v1 := filepath.Join(dir, key[:2], key[2:]+".json")
	if err := os.MkdirAll(filepath.Dir(v1), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1, marshalRecord(&Record{Key: key, Name: "old", Accepted: true}), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rec, ok := c.GetRecord(key); ok {
		t.Fatalf("v1 entry served: %+v", rec)
	}
	if err := c.PutRecord(Record{Key: key, Name: "new", Accepted: true}); err != nil {
		t.Fatal(err)
	}
	if rec, ok := c.GetRecord(key); !ok || rec.Name != "new" {
		t.Fatalf("packed entry: %+v, %v", rec, ok)
	}
	if st := c.Stats(); st.Backend != "pack" || st.Entries != 1 {
		t.Fatalf("stats = %+v, want one pack entry", st)
	}
}

// storeSuiteConfig builds a small real pipeline config against the
// determinized model (execution is hermetic and fast).
func storeSuiteConfig(t *testing.T, cache *Cache, sink *Sink) Config {
	t.Helper()
	scripts := testgen.Generate().Scripts
	if len(scripts) > 60 {
		scripts = scripts[:60]
	}
	spec := types.Spec{Platform: types.PlatformLinux, Permissions: true}
	return Config{
		Name:    "store-parity",
		Scripts: scripts,
		Factory: fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")),
		FSName:  "ext4",
		Spec:    spec,
		Workers: 4,
		Cache:   cache,
		Sink:    sink,
	}
}

// TestBackendJSONLParity pins that the finalized JSONL is byte-identical
// whether every record was executed (a cold pack cache) or served from
// the store (the same cache warm).
func TestBackendJSONLParity(t *testing.T) {
	dir := t.TempDir()
	run := func(t *testing.T, reg *telemetry.Registry) ([]byte, Stats) {
		t.Helper()
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		sink, err := OpenSink(filepath.Join(t.TempDir(), "run.jsonl"), false)
		if err != nil {
			t.Fatal(err)
		}
		cfg := storeSuiteConfig(t, cache, sink)
		cfg.Tel = reg
		_, st, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Finalize(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(sink.Path())
		if err != nil {
			t.Fatal(err)
		}
		return data, st
	}

	coldOut, cold := run(t, telemetry.NewRegistry())
	if cold.Executed != cold.Jobs {
		t.Fatalf("cold run executed %d of %d jobs", cold.Executed, cold.Jobs)
	}
	reg := telemetry.NewRegistry()
	warmOut, warm := run(t, reg)
	if warm.Executed != 0 {
		t.Fatalf("warm run executed %d jobs, want 0", warm.Executed)
	}
	if got := reg.Counter("pipeline.cache_hits").Value(); got != int64(warm.Jobs) {
		t.Fatalf("warm run: %d cache hits, want %d", got, warm.Jobs)
	}
	if !bytes.Equal(coldOut, warmOut) {
		t.Fatal("finalized JSONL differs between the cold and the warm run")
	}
}

// TestPipelineFlushesCacheOnCancel pins the group-commit contract at the
// pipeline level: records completed before a cancellation are durable in
// the pack (a fresh open of the same directory sees them) even though the
// run returned ctx.Err and nobody Closed the cache.
func TestPipelineFlushesCacheOnCancel(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeSuiteConfig(t, cache, nil)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	cfg.Observe = func(Record) {
		n++
		if n == 10 {
			cancel()
		}
	}
	_, st, err := Run(ctx, cfg)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if st.Executed == 0 {
		t.Skip("cancelled before any job completed")
	}
	// No Close: simulate the process dying right after Run returns by
	// opening the directory fresh and counting durable entries.
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Stats().Entries; got < st.Executed {
		t.Fatalf("durable entries %d < executed %d: cancel path lost the flush", got, st.Executed)
	}
}
