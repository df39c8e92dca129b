package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
)

// blockLines is how many journal lines one known-answer digest covers. A
// digest mismatch fails every trace of its block: the known answer cannot
// tell which line of the block is wrong.
const blockLines = 64

// answers is the known answer for every journal the benchmark checks,
// recorded from the conforming ext4 profile by `sfsbench record`.
type answers struct {
	Sequential fileAnswer `json:"sequential"`
	Crash      fileAnswer `json:"crash"`
	// Schedules is the pool nondet-cold picks its schedule seeds from.
	Schedules []schedAnswer `json:"schedules"`
}

// fileAnswer pins one finalized JSONL journal: its trace count and the
// digest of each block of blockLines lines.
type fileAnswer struct {
	Traces int      `json:"traces"`
	Blocks []string `json:"blocks"`
}

// schedAnswer is one concurrent schedule seed's journal, with the oracle
// work it costs (Σ sum_states + tau_expansions over its records), by which
// the pool is stratified.
type schedAnswer struct {
	Seed int64 `json:"seed"`
	Cost int64 `json:"cost"`
	fileAnswer
}

//go:embed known_answers.json
var knownAnswersJSON []byte

func loadAnswers() (*answers, error) {
	var a answers
	if err := json.Unmarshal(knownAnswersJSON, &a); err != nil {
		return nil, fmt.Errorf("known_answers.json: %w", err)
	}
	return &a, nil
}

// blockDigest is the truncated SHA-256 of one block of journal lines.
func blockDigest(lines [][]byte) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write(l)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// splitLines splits a journal into lines, each keeping its newline; an
// unterminated tail is a line of its own.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := bytes.IndexByte(data, '\n') + 1
		if n == 0 {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

func answerOf(data []byte) fileAnswer {
	lines := splitLines(data)
	a := fileAnswer{Traces: len(lines)}
	for i := 0; i < len(lines); i += blockLines {
		a.Blocks = append(a.Blocks, blockDigest(lines[i:min(i+blockLines, len(lines))]))
	}
	return a
}

// accepted is the verdict check: ext4 is the conforming baseline, so
// every record must carry an accepting verdict.
var accepted = []byte(`"accepted":true,`)

// checkJournal compares the finalized journal at path with its known
// answer and returns how many of the answer's traces miss it: missing or
// extra traces, rejected verdicts, lines of a block whose digest differs,
// and, when ref is non-nil, lines that differ from ref byte for byte (the
// cold journal a warm run must reproduce). An unreadable journal misses
// every trace. The result is at most ans.Traces.
func checkJournal(path string, ans fileAnswer, ref []byte) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return ans.Traces
	}
	lines := splitLines(data)
	bad := make([]bool, len(lines))
	for i, l := range lines {
		if !bytes.Contains(l, accepted) || l[len(l)-1] != '\n' {
			bad[i] = true
		}
	}
	for b := 0; b*blockLines < len(lines); b++ {
		lo, hi := b*blockLines, min((b+1)*blockLines, len(lines))
		if b >= len(ans.Blocks) || blockDigest(lines[lo:hi]) != ans.Blocks[b] {
			for i := lo; i < hi; i++ {
				bad[i] = true
			}
		}
	}
	if ref != nil {
		refLines := splitLines(ref)
		for i, l := range lines {
			if i >= len(refLines) || !bytes.Equal(l, refLines[i]) {
				bad[i] = true
			}
		}
	}
	failed := len(lines) - ans.Traces // extra or missing traces
	if failed < 0 {
		failed = -failed
	}
	for _, b := range bad {
		if b {
			failed++
		}
	}
	return min(failed, ans.Traces)
}

// pickSchedules chooses k schedule seeds from the pool with the workload
// seed: the pool, sorted by oracle cost, is cut into k strata of equal
// size and one seed is drawn from each. Every seed gets the same number
// of schedules from each cost band, so the work of a run barely depends
// on the workload seed while the schedules themselves do.
func pickSchedules(pool []schedAnswer, k int, seed int64) ([]schedAnswer, error) {
	if k <= 0 || k > len(pool) {
		return nil, fmt.Errorf("cannot pick %d schedules from a pool of %d", k, len(pool))
	}
	sorted := append([]schedAnswer(nil), pool...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Cost != sorted[j].Cost {
			return sorted[i].Cost < sorted[j].Cost
		}
		return sorted[i].Seed < sorted[j].Seed
	})
	per := len(sorted) / k
	rng := rand.New(rand.NewSource(seed))
	out := make([]schedAnswer, k)
	for i := range out {
		out[i] = sorted[i*per+rng.Intn(per)]
	}
	return out, nil
}

// journalCost sums the oracle work the records of a journal report.
func journalCost(data []byte) (int64, error) {
	var cost int64
	for _, l := range splitLines(data) {
		var r struct {
			SumStates     int64 `json:"sum_states"`
			TauExpansions int64 `json:"tau_expansions"`
		}
		if err := json.Unmarshal(l, &r); err != nil {
			return 0, err
		}
		cost += r.SumStates + r.TauExpansions
	}
	return cost, nil
}

// recordAnswers runs every universe cold once — the sequential suite, the
// first poolSize schedule seeds of the concurrent universe, and the crash
// universe — and records their journals as the known answers. Every trace
// must be accepted: ext4 is the conforming baseline.
func recordAnswers(ctx context.Context, e *env, poolSize int) (*answers, error) {
	dir, err := os.MkdirTemp(e.work, "record-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	seeds := make([]int64, poolSize)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	seq := childSpec{Universe: uniSequential, CacheDir: filepath.Join(dir, "seq"), OutDir: filepath.Join(dir, "seq")}
	nd := childSpec{Universe: uniNondet, CacheDir: filepath.Join(dir, "nd"), OutDir: filepath.Join(dir, "nd"), SchedSeeds: seeds}
	for _, sp := range []childSpec{seq, nd} {
		if _, err := e.runChild(ctx, sp, dir); err != nil {
			return nil, err
		}
	}
	var a answers
	read := func(path string) ([]byte, error) {
		data, err := os.ReadFile(path)
		if err == nil && bytes.Count(data, accepted) != bytes.Count(data, []byte("\n")) {
			err = fmt.Errorf("%s: a trace was rejected; known answers need a conforming run", path)
		}
		return data, err
	}
	data, err := read(journalPath(seq.OutDir, "seq", 0))
	if err != nil {
		return nil, err
	}
	a.Sequential = answerOf(data)
	if data, err = read(journalPath(nd.OutDir, "crash", 0)); err != nil {
		return nil, err
	}
	a.Crash = answerOf(data)
	for _, s := range seeds {
		if data, err = read(journalPath(nd.OutDir, "conc", s)); err != nil {
			return nil, err
		}
		cost, err := journalCost(data)
		if err != nil {
			return nil, err
		}
		a.Schedules = append(a.Schedules, schedAnswer{Seed: s, Cost: cost, fileAnswer: answerOf(data)})
	}
	return &a, nil
}

// recordMain rewrites known_answers.json from the current program, with
// a pool of 400 schedule seeds. Run it only when the checker's output is
// meant to change.
func recordMain(args []string) int {
	if len(args) != 0 {
		fmt.Fprintln(os.Stderr, "usage: sfsbench record")
		return 2
	}
	return withEnv(func(ctx context.Context, e *env) error {
		a, err := recordAnswers(ctx, e, 400)
		if err != nil {
			return err
		}
		data, err := json.Marshal(a)
		if err != nil {
			return err
		}
		// One universe, and one schedule, per line.
		for _, key := range []string{`"crash"`, `"schedules"`, `{"seed"`} {
			data = bytes.ReplaceAll(data, []byte(key), []byte("\n"+key))
		}
		return os.WriteFile("sfsbench/known_answers.json", append(data, '\n'), 0o644)
	})
}
