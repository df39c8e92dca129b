package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Generation cache: generated suites stored as content-addressed blobs in
// the result cache (GetRaw/PutRaw), keyed by (testgen version, universe).
// The blob stores each script's rendered text together with its
// precomputed ScriptHash, because the hashes are the expensive part of a
// warm start — pipeline.Run needs every script's content hash for key
// computation, and re-rendering a 21k-script suite costs several times the
// generation it was meant to avoid. A warm load parses the stored text
// (cheaper than generating and re-rendering) and hands the hashes to the
// session's memo, so the run's key pass is pure lookups.

// suiteMagic versions the blob layout; bump on any format change.
const suiteMagic = "sfs-suite-v1"

// GenSuiteKey is the content address of a generated suite: the testgen
// version (bumped whenever generation output changes) and the universe
// name ("sequential", "concurrent"). The "gencache" tag namespaces the key
// away from checked-trace records per GetRaw's contract.
func GenSuiteKey(testgenVersion, universe string) string {
	sum := sha256.Sum256([]byte("gencache\x00" + testgenVersion + "\x00" + universe))
	return hex.EncodeToString(sum[:])
}

// EncodeSuite serializes scripts into a suite blob, rendering each script
// exactly once to derive both its stored text and its content hash. The
// returned hashes are index-aligned with scripts.
func EncodeSuite(scripts []*trace.Script) (blob []byte, hashes []string) {
	var b strings.Builder
	b.WriteString(suiteMagic)
	b.WriteByte('\n')
	b.WriteString(strconv.Itoa(len(scripts)))
	b.WriteByte('\n')
	hashes = make([]string, len(scripts))
	for i, s := range scripts {
		text := s.Render()
		sum := sha256.Sum256([]byte(text))
		hashes[i] = hex.EncodeToString(sum[:])[:24]
		// Header line: hash, text length, then the name (which may itself
		// contain spaces, so it goes last and runs to end of line).
		b.WriteString(hashes[i])
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(len(text)))
		b.WriteByte(' ')
		b.WriteString(s.Name)
		b.WriteByte('\n')
		b.WriteString(text)
	}
	return []byte(b.String()), hashes
}

// DecodeSuite parses a suite blob back into scripts and their content
// hashes. Any structural damage is an error — callers treat it as a cache
// miss and regenerate. The headers are walked in order (each gives the
// next script's offset); the script texts then parse on every core, and
// the error reported is the one at the lowest script index.
func DecodeSuite(blob []byte) (scripts []*trace.Script, hashes []string, err error) {
	s := string(blob)
	line, rest, ok := strings.Cut(s, "\n")
	if !ok || line != suiteMagic {
		return nil, nil, fmt.Errorf("gencache: bad magic")
	}
	line, rest, ok = strings.Cut(rest, "\n")
	if !ok {
		return nil, nil, fmt.Errorf("gencache: truncated count")
	}
	n, err := strconv.Atoi(line)
	if err != nil || n < 0 {
		return nil, nil, fmt.Errorf("gencache: bad count %q", line)
	}
	// Never trust the count for an allocation: each script needs at least
	// a header line.
	texts := make([]string, 0, min(n, len(rest)/2))
	names := make([]string, 0, cap(texts))
	hashes = make([]string, 0, cap(texts))
	var headerErr error
	for i := 0; i < n; i++ {
		line, rest, ok = strings.Cut(rest, "\n")
		if !ok {
			headerErr = fmt.Errorf("gencache: truncated header at script %d", i)
			break
		}
		hash, tail, ok := strings.Cut(line, " ")
		if !ok {
			headerErr = fmt.Errorf("gencache: bad header at script %d", i)
			break
		}
		lenStr, name, ok := strings.Cut(tail, " ")
		if !ok {
			headerErr = fmt.Errorf("gencache: bad header at script %d", i)
			break
		}
		textLen, err := strconv.Atoi(lenStr)
		if err != nil || textLen < 0 || textLen > len(rest) {
			headerErr = fmt.Errorf("gencache: bad length at script %d", i)
			break
		}
		texts = append(texts, rest[:textLen])
		names = append(names, name)
		hashes = append(hashes, hash)
		rest = rest[textLen:]
	}
	scripts = make([]*trace.Script, len(texts))
	var bad lowestError
	parallelEach(len(texts), func(i int) {
		sc, err := trace.ParseScript(texts[i])
		if err != nil {
			bad.set(i, fmt.Errorf("gencache: script %d: %w", i, err))
			return
		}
		if sc.Name == "" {
			sc.Name = names[i]
		}
		scripts[i] = sc
	})
	// A script that failed to parse precedes the first bad header.
	if bad.err != nil {
		return nil, nil, bad.err
	}
	if headerErr != nil {
		return nil, nil, headerErr
	}
	return scripts, hashes, nil
}
