package osspec

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modelSourcesDigest pins the model's non-test sources: the packages
// whose code decides every verdict the result cache stores under
// ModelVersion. It lives here rather than in version.go, whose own bytes
// it covers.
const modelSourcesDigest = "f4b76863068674ca0230581d6c05da605272437d7cd4df5a3fc045311381a308"

// TestModelSourcesDigest makes the ModelVersion bump a checked decision:
// any edit to the model's sources fails here until someone either bumps
// ModelVersion (the edit can change output, so cached verdicts must go)
// or re-records the digest (a pure refactor). The digest covers each
// package's sorted non-test .go files, by path and content.
func TestModelSourcesDigest(t *testing.T) {
	h := sha256.New()
	for _, pkg := range []string{"types", "state", "pathres", "fsspec", "osspec"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(filepath.ToSlash(path) + "\x00"))
			h.Write(data)
			h.Write([]byte{0})
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != modelSourcesDigest {
		t.Fatalf("model sources changed (digest %s, pinned %s): if verdicts or output changed, bump osspec.ModelVersion; if this is a pure refactor, re-record the digest", got, modelSourcesDigest)
	}
}
