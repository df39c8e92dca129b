package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// stamp says where and from what a result was measured. Results are only
// compared when their stamps agree in every field.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of the measured client
	Go         string `json:"go"`
	// Commit is the checkout's git commit, "none" outside a repository.
	Commit string `json:"commit"`
	// Source digests the program's Go sources and go.mod; Bench digests
	// the benchmark's own files (known answers included).
	Source string `json:"source"`
	Bench  string `json:"bench"`
}

func makeStamp(root string, gomaxprocs int) (stamp, error) {
	st := stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: gomaxprocs,
		Go:         runtime.Version(),
		Commit:     "none",
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	var err error
	if st.Source, err = treeDigest(root, func(rel string) bool {
		return strings.HasSuffix(rel, ".go") || rel == "go.mod"
	}, "sfsbench"); err != nil {
		return st, err
	}
	st.Bench, err = treeDigest(filepath.Join(root, "sfsbench"), func(string) bool { return true })
	return st, err
}

// diff names the first field in which two stamps differ ("" when none
// does).
func (a stamp) diff(b stamp) string {
	switch {
	case a.CPU != b.CPU:
		return "cpu"
	case a.NProc != b.NProc:
		return "nproc"
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return "gomaxprocs"
	case a.Go != b.Go:
		return "go"
	case a.Commit != b.Commit:
		return "commit"
	case a.Source != b.Source:
		return "source"
	case a.Bench != b.Bench:
		return "bench"
	}
	return ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeDigest hashes the names and contents of the regular files under
// root that keep accepts, skipping dot-directories and the named
// top-level directories.
func treeDigest(root string, keep func(rel string) bool, skip ...string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || slices.Contains(skip, rel)) {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Type().IsRegular() && keep(rel) {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		f, err := os.Open(filepath.Join(root, rel))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}
