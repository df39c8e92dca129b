package pipeline

import (
	"path/filepath"
	"testing"

	"repro/internal/testgen"
	"repro/internal/trace"
)

// BenchmarkDecodeSuite decodes the generated suite's generation-cache
// blob: the warm path's suite load.
func BenchmarkDecodeSuite(b *testing.B) {
	blob, _ := EncodeSuite(testgen.Generate().Scripts)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeSuite(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// suiteJournal writes a finalized journal with one record per script,
// carrying the script's rendering as its checked text (the same line
// shapes and escapes as a checked trace, without a cold run to produce
// them), and returns its path.
func suiteJournal(tb testing.TB, scripts []*trace.Script) string {
	tb.Helper()
	_, hashes := EncodeSuite(scripts)
	records := make([]Record, len(scripts))
	for i, s := range scripts {
		records[i] = Record{Key: hashes[i], Name: s.Name, Accepted: true, Steps: 2 * len(s.Steps),
			MaxStates: 1, SumStates: 2 * len(s.Steps), Checked: s.Render()}
	}
	path := filepath.Join(tb.TempDir(), "suite.jsonl")
	if err := WriteRecords(path, records); err != nil {
		tb.Fatal(err)
	}
	return path
}

// BenchmarkReadRecords reads back a full-suite journal (suiteJournal):
// the warm path's report read.
func BenchmarkReadRecords(b *testing.B) {
	path := suiteJournal(b, testgen.Generate().Scripts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadRecords(path); err != nil {
			b.Fatal(err)
		}
	}
}
