package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// remarshalled is the pre-encode-once Finalize: every journaled record
// read back and re-marshalled in canonical order.
func remarshalled(t *testing.T, journal string) []byte {
	t.Helper()
	recs, err := ReadRecords(journal)
	if err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(t.TempDir(), "ref.jsonl")
	if err := WriteRecords(ref, recs); err != nil {
		t.Fatal(err)
	}
	return readFile(t, ref)
}

// finalizeAgainstRemarshal flushes the sink, derives the re-marshal
// reference from its journal, finalizes, and requires identical bytes.
func finalizeAgainstRemarshal(t *testing.T, name string, sink *Sink) {
	t.Helper()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	want := remarshalled(t, sink.Path())
	if err := sink.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, sink.Path()); string(got) != string(want) {
		t.Fatalf("%s: finalized bytes differ from WriteRecords(ReadRecords(journal))", name)
	}
}

// TestFinalizeMatchesRemarshal pins encode-once: a sink fed fresh records
// (cold), framed store lines (warm) and a resumed journal each finalizes
// to exactly the bytes the old re-marshalling Finalize produced, and all
// three agree with each other.
func TestFinalizeMatchesRemarshal(t *testing.T) {
	scripts := testScripts(t, 12)
	dir := t.TempDir()
	cache, err := OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cfg := testConfig(scripts)
	cfg.Cache = cache

	run := func(name string, cfg Config, resume bool) ([]byte, Stats) {
		t.Helper()
		path := filepath.Join(dir, name+".jsonl")
		sink, err := OpenSink(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sink = sink
		_, st, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		finalizeAgainstRemarshal(t, name, sink)
		return readFile(t, path), st
	}

	cold, st := run("cold", cfg, false)
	if st.Executed != len(scripts) {
		t.Fatalf("cold run executed %d of %d", st.Executed, len(scripts))
	}
	warm, st := run("warm", cfg, false)
	if st.CacheHits != len(scripts) {
		t.Fatalf("warm run hit %d of %d", st.CacheHits, len(scripts))
	}
	if string(warm) != string(cold) {
		t.Fatal("warm finalized JSONL differs from cold")
	}

	// Resumed: half the suite journaled (no cache, so the rest executes),
	// the sink closed as a killed or cancelled run leaves it, then resumed.
	resumed := filepath.Join(dir, "resumed.jsonl")
	sink, err := OpenSink(resumed, false)
	if err != nil {
		t.Fatal(err)
	}
	part := testConfig(scripts[:6])
	part.Sink = sink
	if _, _, err := Run(context.Background(), part); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := run("resumed", testConfig(scripts), true)
	if st.SinkSkipped != 6 || st.Executed != len(scripts)-6 {
		t.Fatalf("resume: %s", st)
	}
	if string(got) != string(cold) {
		t.Fatal("resumed finalized JSONL differs from cold")
	}
}

// TestResumeRecanonicalizesLines pins the one place encode-once still
// encodes: a journal line that parses but is not json.Marshal's spelling
// (extra whitespace, reordered fields) is re-encoded when the journal is
// opened, so Finalize still writes canonical bytes.
func TestResumeRecanonicalizesLines(t *testing.T) {
	rec := codecTestRecord()
	path := filepath.Join(t.TempDir(), "j.jsonl")
	var fields map[string]any
	canonical, _ := json.Marshal(rec)
	if err := json.Unmarshal(canonical, &fields); err != nil {
		t.Fatal(err)
	}
	loose, _ := json.MarshalIndent(fields, "", "   ") // sorted keys, spaces, newlines
	line := strings.ReplaceAll(string(loose), "\n", " ")
	if line == string(canonical) {
		t.Fatal("test line is already canonical")
	}
	if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink, err := OpenSink(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := sink.Lookup(rec.Key); !ok || got.Checked != rec.Checked {
		t.Fatal("resumed sink lost the record")
	}
	if err := sink.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); string(got) != string(canonical)+"\n" {
		t.Fatalf("finalized %q, want canonical %q", got, canonical)
	}
}

// TestFinalizeCountsFsyncs pins that the atomic rewrite's file and
// directory fsyncs reach journal.fsyncs (a successful run used to report
// zero journal fsyncs although its output was durable).
func TestFinalizeCountsFsyncs(t *testing.T) {
	reg := telemetry.NewRegistry()
	sink, err := OpenSink(filepath.Join(t.TempDir(), "j.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	sink.SetTelemetry(reg)
	if err := sink.Append(codecTestRecord()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Finalize(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters["journal.fsyncs"]; n < 2 {
		t.Fatalf("journal.fsyncs = %d after Finalize, want ≥ 2", n)
	}
}

// TestReadRecordsReportsLowestBadLine pins the parallel decode's error
// contract: with several bad lines spread over the workers' blocks, the
// error is the first bad line's, and a torn tail is still ignored.
func TestReadRecordsReportsLowestBadLine(t *testing.T) {
	good, _ := json.Marshal(codecTestRecord())
	var b strings.Builder
	const n = 10 * parallelBlock
	for i := 0; i < n; i++ {
		switch i {
		case 3*parallelBlock + 5:
			b.WriteString(`{"key": 17}`) // type error: the first bad line
		case 7*parallelBlock + 1, 9 * parallelBlock:
			b.WriteString(`{not json`) // syntax errors, later
		default:
			b.Write(good)
		}
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // the answer must not depend on scheduling
		_, err := ReadRecords(path)
		if err == nil || !strings.Contains(err.Error(), "cannot unmarshal number") {
			t.Fatalf("error %v, want the first bad line's type error", err)
		}
	}

	// Intact lines and a torn tail: every line decodes, in order, and the
	// tail is dropped.
	var ok strings.Builder
	for i := 0; i < n; i++ {
		rec := codecTestRecord()
		rec.Name = fmt.Sprintf("r%04d", i)
		line, _ := json.Marshal(rec)
		ok.Write(line)
		ok.WriteByte('\n')
	}
	ok.Write(good[:len(good)/2])
	if err := os.WriteFile(path, []byte(ok.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want %d (torn tail ignored)", len(recs), n)
	}
	for i, rec := range recs {
		if want := fmt.Sprintf("r%04d", i); rec.Name != want {
			t.Fatalf("record %d is %q, want %q", i, rec.Name, want)
		}
	}
}

// suiteBlob builds a suite blob by hand so tests can plant a bad script
// text or a bad header at chosen indices.
func suiteBlob(n int, badText map[int]bool, badHeader int) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%d\n", suiteMagic, n)
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("@type script\n# Test s%04d\n1: stat \"/a\"\n", i)
		if badText[i] {
			text = "@type script\n1: frobnicate \"/a\"\n"
		}
		if i == badHeader {
			b.WriteString("no-length-here\n")
		}
		fmt.Fprintf(&b, "%024x %d s%04d\n%s", i, len(text), i, text)
	}
	return []byte(b.String())
}

// TestDecodeSuiteReportsLowestBadScript pins DecodeSuite's error contract
// under parallel parsing: the error names the lowest bad script, a bad
// header only wins when no earlier script failed to parse, and a clean
// blob decodes in order.
func TestDecodeSuiteReportsLowestBadScript(t *testing.T) {
	const n = 8 * parallelBlock
	if _, err := trace.ParseScript("@type script\n1: frobnicate \"/a\"\n"); err == nil {
		t.Fatal("the planted bad script parses")
	}
	scripts, hashes, err := DecodeSuite(suiteBlob(n, nil, -1))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scripts {
		if want := fmt.Sprintf("s%04d", i); s.Name != want || hashes[i] != fmt.Sprintf("%024x", i) {
			t.Fatalf("script %d decoded as %q/%s", i, s.Name, hashes[i])
		}
	}

	bad := map[int]bool{2*parallelBlock + 3: true, 5 * parallelBlock: true, n - 1: true}
	for i := 0; i < 20; i++ {
		_, _, err := DecodeSuite(suiteBlob(n, bad, -1))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("script %d:", 2*parallelBlock+3)) {
			t.Fatalf("error %v, want script %d's", err, 2*parallelBlock+3)
		}
	}
	// A bad header after the first bad script: the script error is lower.
	_, _, err = DecodeSuite(suiteBlob(n, bad, 6*parallelBlock))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("script %d:", 2*parallelBlock+3)) {
		t.Fatalf("error %v, want script %d's", err, 2*parallelBlock+3)
	}
	// A bad header before it wins.
	_, _, err = DecodeSuite(suiteBlob(n, bad, parallelBlock))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("header at script %d", parallelBlock)) {
		t.Fatalf("error %v, want the header error at script %d", err, parallelBlock)
	}
}
