package pipeline

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestCacheEntryPermissions pins the shared-artifact contract: entries
// land world-readable (0644), not with os.CreateTemp's private 0600 —
// a cache directory is meant to be shareable across users and CI stages.
// Checked on PackStore's segment and sidecar files.
func TestCacheEntryPermissions(t *testing.T) {
	key := strings.Repeat("ab", 32)
	packDir := t.TempDir()
	p, err := OpenPackStore(packDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put(key, []byte(`{"name":"x"}`)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"000001.seg", "000001.idx"} {
		info, err := os.Stat(filepath.Join(packDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if perm := info.Mode().Perm(); perm != 0o644 {
			t.Fatalf("pack store %s mode %o, want 644", name, perm)
		}
	}
}

// TestFinalizedSinkPermissions does the same for the finalized JSONL.
func TestFinalizedSinkPermissions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := WriteRecords(path, []Record{{Key: "k1", Name: "a"}}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Fatalf("finalized sink mode %o, want 644", perm)
	}
}

// TestOrphanSweepOnOpen simulates a kill between CreateTemp and Rename:
// the leaked temp files (backdated past orphanAge) must be reclaimed the
// next time the cache or sink is opened, while a live writer's fresh temp
// file and ordinary payload files survive untouched.
func TestOrphanSweepOnOpen(t *testing.T) {
	dir := t.TempDir()

	// Cache orphans (.tmp-*, from a kill mid-sidecar write) live in the
	// pack directory beside the segments.
	sub := packDir(dir)
	packFill(t, sub, 1)
	old := filepath.Join(sub, ".tmp-dead123")
	fresh := filepath.Join(sub, ".tmp-live456")
	entry := filepath.Join(sub, "000001.seg")
	for _, p := range []string{old, fresh} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * orphanAge)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatal("stale cache orphan survived OpenCache")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp file (possible live writer) was swept")
	}
	if _, err := os.Stat(entry); err != nil {
		t.Fatal("cache entry was swept")
	}

	// Sink orphans (.jsonl-*, from a kill mid-Finalize) live next to the
	// sink file.
	sinkDir := t.TempDir()
	oldSink := filepath.Join(sinkDir, ".jsonl-dead")
	freshSink := filepath.Join(sinkDir, ".jsonl-live")
	for _, p := range []string{oldSink, freshSink} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chtimes(oldSink, stale, stale); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSink(filepath.Join(sinkDir, "run.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(oldSink); !os.IsNotExist(err) {
		t.Fatal("stale sink orphan survived OpenSink")
	}
	if _, err := os.Stat(freshSink); err != nil {
		t.Fatal("fresh sink temp file was swept")
	}
}

// packFill writes n deterministic records through a PackStore and closes
// it, returning the keys in write order.
func packFill(t *testing.T, dir string, n int) []string {
	t.Helper()
	p, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = testKey(i)
		if err := p.Put(keys[i], []byte(strings.Repeat("v", 64)+keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// testKey derives a distinct 64-hex-char key from i (the shape real
// SHA-256 keys have).
func testKey(i int) string {
	return strings.Repeat("0", 60) + string([]byte{
		hexDigit(i >> 12), hexDigit(i >> 8), hexDigit(i >> 4), hexDigit(i),
	})
}

func hexDigit(i int) byte {
	return "0123456789abcdef"[i&0xf]
}

// TestPackTruncatedTailSegment pins crash recovery: a segment whose tail
// was torn mid-append (simulated by truncating into the last entry) loses
// exactly the torn entry — earlier entries still read back verbatim, the
// file is cut back to the last intact boundary, and the lost key is a
// plain miss, never an error or a torn record.
func TestPackTruncatedTailSegment(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 10)

	segPath := filepath.Join(dir, "000001.seg")
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	p, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, k := range keys[:9] {
		v, ok := p.Get(k)
		if !ok {
			t.Fatalf("intact entry %s lost after tail truncation", k)
		}
		if string(v) != strings.Repeat("v", 64)+k {
			t.Fatalf("intact entry %s corrupted after tail truncation", k)
		}
	}
	if _, ok := p.Get(keys[9]); ok {
		t.Fatal("torn tail entry served instead of missing")
	}
	// The recovered file must end at an entry boundary so new appends land
	// at a valid offset.
	if err := p.Put(keys[9], []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if v, ok := p2.Get(keys[9]); !ok || string(v) != "rewritten" {
		t.Fatalf("re-put after recovery: got %q, %v", v, ok)
	}
}

// TestPackCRCMismatch pins bit-rot handling: flipping one payload byte
// makes that entry (and only that entry) a miss — reads verify the CRC,
// and a mismatch never surfaces a wrong or torn record.
func TestPackCRCMismatch(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 4)

	segPath := filepath.Join(dir, "000001.seg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the last entry's payload (the file tail is value
	// bytes of keys[3]).
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	p, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, ok := p.Get(keys[3]); ok {
		t.Fatal("CRC-mismatched entry served instead of missing")
	}
	for _, k := range keys[:3] {
		if _, ok := p.Get(k); !ok {
			t.Fatalf("clean entry %s became a miss", k)
		}
	}
}

// TestPackMissingIndexRebuild pins sidecar independence: deleting the
// index file costs the next open a scan (pipeline.index_rebuilds), not
// any data — every entry still reads back.
func TestPackMissingIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 10)
	if err := os.Remove(filepath.Join(dir, "000001.idx")); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, k := range keys {
		if _, ok := p.Get(k); !ok {
			t.Fatalf("entry %s lost with the sidecar", k)
		}
	}
}

// TestPackCorruptIndexRebuild does the same for a damaged (rather than
// missing) sidecar: the checksum rejects it wholesale and the scan
// rebuilds the index.
func TestPackCorruptIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 10)
	idxPath := filepath.Join(dir, "000001.idx")
	data, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(idxPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, k := range keys {
		if _, ok := p.Get(k); !ok {
			t.Fatalf("entry %s lost with the corrupt sidecar", k)
		}
	}
}

// TestPackHeaderlessActiveSegment pins the subtlest crash shape: a
// segment file created but killed before its first group commit (0 bytes,
// or fewer than the magic). The store must restart it — and, critically,
// new appends must re-seed the magic so the *next* recovery scan doesn't
// dismiss the whole segment.
func TestPackHeaderlessActiveSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "000001.seg"), []byte("sfs"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if err := p.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Force a scan (no sidecar) to prove the re-seeded header is on disk.
	if err := os.Remove(filepath.Join(dir, "000001.idx")); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if v, ok := p2.Get(key); !ok || string(v) != "value" {
		t.Fatalf("entry lost after headerless-segment recovery: %q, %v", v, ok)
	}
}

// TestSuiteBlobRoundTrip pins the generation-cache encoding: decode is the
// inverse of encode, the stored hashes are exactly ScriptHash's, and a
// damaged blob reports an error (a cache miss) instead of a partial suite.
func TestSuiteBlobRoundTrip(t *testing.T) {
	a, err := trace.ParseScript("@type script\n# Test alpha\n1: mkdir \"/a\" 0o755\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.ParseScript("@type script\n# Test beta\n1: stat \"/a\"\n")
	if err != nil {
		t.Fatal(err)
	}
	scripts := []*trace.Script{a, b}
	blob, hashes := EncodeSuite(scripts)
	for i, s := range scripts {
		if hashes[i] != ScriptHash(s) {
			t.Fatalf("script %d: stored hash %s, ScriptHash %s", i, hashes[i], ScriptHash(s))
		}
	}
	back, gotHashes, err := DecodeSuite(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(scripts) {
		t.Fatalf("decoded %d scripts, want %d", len(back), len(scripts))
	}
	for i := range scripts {
		if back[i].Name != scripts[i].Name {
			t.Fatalf("script %d: name %q, want %q", i, back[i].Name, scripts[i].Name)
		}
		if back[i].Render() != scripts[i].Render() {
			t.Fatalf("script %d: decoded text differs", i)
		}
		if gotHashes[i] != hashes[i] {
			t.Fatalf("script %d: decoded hash %s, want %s", i, gotHashes[i], hashes[i])
		}
	}
	for _, cut := range []int{0, len(blob) / 2, len(blob) - 1} {
		if _, _, err := DecodeSuite(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}
