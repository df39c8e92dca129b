package trace_test

import (
	"testing"

	"repro/internal/testgen"
	"repro/internal/trace"
)

// FuzzParseScript drives the script parser with arbitrary text: it must
// never panic, and every script it accepts must round-trip through its
// rendering — the generation cache stores rendered scripts and parses
// them back. The rendering must parse to a script with the same name and
// the same labels (compared by their rendering: trace syntax does not
// print every field a label may be parsed with, such as a stats return's
// st_ino), and rendering that script must give the same text again.
func FuzzParseScript(f *testing.F) {
	for i, s := range testgen.Generate().Scripts {
		if i%97 == 0 {
			f.Add(s.Render())
		}
	}
	for _, s := range append(testgen.ConcurrentScripts(), testgen.CrashScripts()...) {
		f.Add(s.Render())
	}
	f.Add("@type trace\n1: open \"f\" [O_CREAT] 0o644\n1: RV_file_descriptor(FD 3)\n1: read (FD 3) 4\n1: RV_bytes(\"a\\x00\")\n")
	f.Add("@type script\n1: lstat \"l\"\n1: RV_stats { st_kind=S_IFLNK; st_perm=0o777; st_size=1; st_nlink=1; st_uid=0; st_gid=0; st_ino=9 }\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := trace.ParseScript(text)
		if err != nil {
			return
		}
		rendered := s.Render()
		s2, err := trace.ParseScript(rendered)
		if err != nil {
			t.Fatalf("rendering of a parsed script does not parse: %v\n%s", err, rendered)
		}
		if s2.Name != s.Name || len(s2.Steps) != len(s.Steps) {
			t.Fatalf("round trip changed the script: name %q → %q, %d → %d steps", s.Name, s2.Name, len(s.Steps), len(s2.Steps))
		}
		for i := range s.Steps {
			if a, b := s.Steps[i].Label.String(), s2.Steps[i].Label.String(); a != b {
				t.Fatalf("step %d: %q parses back as %q", i, a, b)
			}
		}
		if again := s2.Render(); again != rendered {
			t.Fatalf("rendering does not round-trip:\n%s\nvs\n%s", rendered, again)
		}
	})
}
