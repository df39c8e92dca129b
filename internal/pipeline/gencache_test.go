package pipeline

import (
	"testing"

	"repro/internal/testgen"
	"repro/internal/trace"
)

// FuzzDecodeSuite fuzzes the generation cache's decoder, which reads a
// blob from disk or from a shared daemon. Properties: no panic, an
// accepted blob yields one hash per script, and DecodeSuite(EncodeSuite(
// scripts)) gives back the names and renderings of scripts. The seeds
// check that round trip on generated scripts as they are. A fuzzed header
// may carry a name the script text cannot ("x ", say), which the first
// re-encoding normalizes, so for fuzzed blobs it is checked from there on.
func FuzzDecodeSuite(f *testing.F) {
	var scripts []*trace.Script
	for i, s := range testgen.Generate().Scripts {
		if i%4000 == 0 {
			scripts = append(scripts, s)
		}
	}
	scripts = append(scripts, testgen.ConcurrentScripts()[0], testgen.CrashScripts()[0])
	sameSuite(f, scripts, suiteRoundTrip(f, scripts))
	blob, _ := EncodeSuite(scripts)
	for _, cut := range []int{len(blob), len(blob) - 1, len(blob) / 2, len(suiteMagic) + 3, 0} {
		f.Add(blob[:cut])
	}
	f.Add([]byte(suiteMagic + "\n1\nh 13 x \n@type script\n"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		scripts, hashes, err := DecodeSuite(blob)
		if err != nil {
			return
		}
		if len(scripts) != len(hashes) {
			t.Fatalf("%d scripts, %d hashes", len(scripts), len(hashes))
		}
		once := suiteRoundTrip(t, scripts)
		sameSuite(t, once, suiteRoundTrip(t, once))
	})
}

// suiteRoundTrip encodes scripts and decodes the blob again.
func suiteRoundTrip(tb testing.TB, scripts []*trace.Script) []*trace.Script {
	tb.Helper()
	blob, _ := EncodeSuite(scripts)
	back, _, err := DecodeSuite(blob)
	if err != nil {
		tb.Fatalf("encoded suite does not decode: %v", err)
	}
	return back
}

// sameSuite fails unless a and b hold the same names and renderings.
func sameSuite(tb testing.TB, a, b []*trace.Script) {
	tb.Helper()
	if len(a) != len(b) {
		tb.Fatalf("%d scripts, then %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Render() != b[i].Render() {
			tb.Fatalf("script %d: %q\n%s\nthen %q\n%s", i, a[i].Name, a[i].Render(), b[i].Name, b[i].Render())
		}
	}
}
