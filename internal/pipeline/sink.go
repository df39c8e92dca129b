package pipeline

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Sink is the streaming JSONL result file and, at the same time, the
// crash-safe resume journal: records append one line at a time as jobs
// finish, so a killed run keeps everything completed before the kill. On
// reopen with resume, a torn trailing line (the only damage an append-mode
// kill can cause) is truncated away and every intact record is indexed by
// key, letting the next run skip finished work. Append order is completion
// order and therefore nondeterministic; Finalize rewrites the file in
// canonical order before the sink is handed to consumers.
//
// Every record is JSON-encoded exactly once: the sink keeps each record's
// canonical line (appendRecord, byte-identical to json.Marshal) beside
// it, and Finalize writes the sorted lines it already holds instead of
// re-encoding the run.
type Sink struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	byKey   map[string]int // key → index into entries
	entries []sinkEntry
	tel     *telemetry.Registry // nil until SetTelemetry; journal I/O metrics

	// chunk is both the group-commit buffer and the arena the kept lines
	// live in: appends copy their line (and its '\n') here, a batch commit
	// writes chunk[flushed:] with one write, and a full chunk is committed
	// and replaced by a fresh one — the entries keep referencing the old
	// chunk, so nothing is copied twice. Commits happen when a chunk
	// fills, on interval (the background flusher), and
	// always on Close/Finalize, so every record completed before a cancel
	// is durable in the journal.
	chunk     []byte
	flushed   int
	flushDone chan struct{}
	stopOnce  sync.Once
}

// sinkEntry is one journaled record with its canonical JSON line (no
// trailing newline).
type sinkEntry struct {
	rec  Record
	line []byte
}

// Arena chunks start at sinkFirstChunkBytes and double up to
// sinkChunkBytes, so a sink that journals a handful of records (one
// concurrent schedule, a crash universe) never pays for a full chunk; a
// chunk's size is the batch that forces a commit. sinkFlushInterval
// bounds how long an append can stay buffered (the exposure window of a
// hard kill — a cooperative cancel always flushes).
const (
	sinkFirstChunkBytes = 32 << 10
	sinkChunkBytes      = 1 << 20
	sinkFlushInterval   = 25 * time.Millisecond
)

// SetTelemetry attributes the sink's journal I/O (append counts/bytes/
// latency, finalize latency) to reg; pipeline.Run installs the run's
// registry here. Nil disables sink metrics (the sink never falls back to
// Default on its own — a sink may outlive the run that instrumented it).
func (s *Sink) SetTelemetry(reg *telemetry.Registry) {
	s.mu.Lock()
	s.tel = reg
	s.mu.Unlock()
}

// OpenSink opens the JSONL sink at path. With resume true an existing file
// is recovered (intact lines kept, a torn tail truncated); with resume
// false any existing file is replaced. Either way, opening sweeps
// finalize temp files abandoned by a kill mid-Finalize (see sweepOrphans).
// Recovered lines are re-encoded once here, so Finalize writes canonical
// bytes whatever formatting the journal held.
func OpenSink(path string, resume bool) (*Sink, error) {
	sweepOrphans(filepath.Dir(path), ".jsonl-")
	s := &Sink{path: path, byKey: make(map[string]int), flushDone: make(chan struct{})}
	if !resume {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		s.f = f
		go s.flusher()
		return s, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	valid := 0 // byte offset of the end of the last intact record
	for len(data[valid:]) > 0 {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // torn tail: no terminating newline
		}
		raw := data[valid : valid+nl]
		var rec Record
		if err := unmarshalRecordLine(raw, &rec); err != nil || rec.Key == "" {
			break // torn or foreign content; drop it and everything after
		}
		if _, dup := s.byKey[rec.Key]; !dup {
			s.byKey[rec.Key] = len(s.entries)
			s.entries = append(s.entries, sinkEntry{rec: rec, line: appendRecord(make([]byte, 0, len(raw)), &rec)})
		}
		valid += nl + 1
	}
	if valid != len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, err
	}
	s.f = f
	go s.flusher()
	return s, nil
}

// Path returns the sink's file path.
func (s *Sink) Path() string { return s.path }

// Restrict drops journaled records whose key is not in valid — the
// resume-time defence against stale results. A sink belongs to one
// (suite, configuration) pair; when a script is edited between runs its
// key changes, and without pruning the old record (same name, old
// verdict) would survive every resume and finalize. Run calls this with
// the key set of the FULL suite (all shards), so records contributed by
// other shards of the same layout are never touched. The journal file
// still holds the stale lines until Finalize rewrites it; the in-memory
// view (Lookup/Len/Finalize) is pruned immediately.
func (s *Sink) Restrict(valid map[string]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.entries[:0]
	for _, e := range s.entries {
		if valid[e.rec.Key] {
			kept = append(kept, e)
		} else {
			delete(s.byKey, e.rec.Key)
		}
	}
	clear(s.entries[len(kept):])
	s.entries = kept
	for i, e := range s.entries {
		s.byKey[e.rec.Key] = i
	}
}

// reserve makes room for a run of n jobs, so it journals without
// regrowing the entry table and the key index as it goes. Records the
// sink already holds (Run has restricted them to the run's suite) count
// against n.
func (s *Sink) reserve(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n -= len(s.entries); n <= 0 {
		return
	}
	s.entries = slices.Grow(s.entries, n)
	byKey := make(map[string]int, len(s.byKey)+n)
	for k, i := range s.byKey {
		byKey[k] = i
	}
	s.byKey = byKey
}

// Lookup returns the already-journaled record for key, if any.
func (s *Sink) Lookup(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byKey[key]
	if !ok {
		return Record{}, false
	}
	return s.entries[i].rec, true
}

// Len returns the number of journaled records.
func (s *Sink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Append journals one record through the group-commit buffer: the line
// coalesces with its neighbours and reaches the file in the next batch
// commit (whole lines only, so a kill still tears at most the final
// line of the file). Duplicate keys are dropped silently — they can only
// arise from two shards of the same layout sharing a sink, where both
// would write identical content anyway.
func (s *Sink) Append(rec Record) error {
	return s.appendLine(rec, marshalRecord(&rec))
}

// AppendEncoded journals a record whose canonical encoding (appendRecord,
// byte-identical to json.Marshal) the caller already holds — the pipeline
// encodes each fresh record once for the store and the sink, and its warm
// path hands the bytes straight from the result store. line must be
// exactly that encoding: Finalize writes it as is. The sink copies line;
// the caller keeps ownership.
func (s *Sink) AppendEncoded(rec Record, line []byte) error {
	if len(line) == 0 {
		return s.Append(rec)
	}
	return s.appendLine(rec, line)
}

func (s *Sink) appendLine(rec Record, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byKey[rec.Key]; dup {
		return nil
	}
	if len(s.chunk)+len(data)+1 > cap(s.chunk) {
		// The chunk is full: commit it and start a fresh one (a line
		// larger than a chunk gets a chunk of its own).
		if err := s.flushLocked(false); err != nil {
			return err
		}
		s.chunk = make([]byte, 0, max(min(2*cap(s.chunk), sinkChunkBytes), sinkFirstChunkBytes, len(data)+1))
		s.flushed = 0
	}
	start := len(s.chunk)
	s.chunk = append(s.chunk, data...)
	s.chunk = append(s.chunk, '\n')
	if s.tel != nil {
		s.tel.Counter("journal.appends").Inc()
		s.tel.Counter("journal.bytes").Add(int64(len(data) + 1))
	}
	s.byKey[rec.Key] = len(s.entries)
	s.entries = append(s.entries, sinkEntry{rec: rec, line: s.chunk[start : start+len(data) : start+len(data)]})
	return nil
}

// flushLocked is the batch commit: one write covers every append since
// the last commit; fsync additionally syncs the file (the Close
// barrier — interval and chunk commits leave durability to the OS,
// exactly the pre-batching behaviour of per-record appends).
func (s *Sink) flushLocked(fsync bool) error {
	if s.f == nil {
		return nil
	}
	if s.flushed < len(s.chunk) {
		flushStart := time.Now()
		if _, err := s.f.Write(s.chunk[s.flushed:]); err != nil {
			return err
		}
		s.flushed = len(s.chunk)
		if s.tel != nil {
			s.tel.Histogram("journal.flush_ns").ObserveSince(flushStart)
			s.tel.Counter("journal.batches").Inc()
		}
	}
	if fsync {
		if err := s.f.Sync(); err != nil {
			return err
		}
		if s.tel != nil {
			s.tel.Counter("journal.fsyncs").Inc()
		}
	}
	return nil
}

// Flush commits the group-commit buffer to the OS (tests and long-lived
// embedders; Close and Finalize flush on their own).
func (s *Sink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked(false)
}

// flusher is the background interval commit bounding how long a record
// can stay buffered in a process that is killed without Close.
func (s *Sink) flusher() {
	t := time.NewTicker(sinkFlushInterval)
	defer t.Stop()
	for {
		select {
		case <-s.flushDone:
			return
		case <-t.C:
			s.mu.Lock()
			s.flushLocked(false) // best-effort; errors surface on Close/Finalize
			s.mu.Unlock()
		}
	}
}

func (s *Sink) stopFlusher() {
	s.stopOnce.Do(func() { close(s.flushDone) })
}

// Finalize rewrites the sink file in canonical order and closes the sink.
// After Finalize the file's bytes depend only on the record *set* — not on
// completion order, shard layout, cache hits or how many interrupted runs
// contributed — which is the property the shard-invariance and
// resume-equivalence tests pin. The rewrite is atomic and durable; its
// two fsyncs (file and directory) count in journal.fsyncs.
func (s *Sink) Finalize() error {
	s.stopFlusher()
	s.mu.Lock()
	defer s.mu.Unlock()
	finalizeStart := time.Now()
	if err := s.flushLocked(false); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	s.f = nil
	order := make([]int, len(s.entries))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return compareRecords(&s.entries[a].rec, &s.entries[b].rec)
	})
	err := writeJSONL(s.path, func(bw *bufio.Writer) {
		for _, j := range order {
			bw.Write(s.entries[j].line)
			bw.WriteByte('\n')
		}
	})
	if s.tel != nil {
		if err == nil {
			s.tel.Counter("journal.fsyncs").Add(2)
		}
		s.tel.Histogram("journal.finalize_ns").ObserveSince(finalizeStart)
	}
	return err
}

// Close closes the sink without canonicalizing (the journal keeps its
// append order; a later resume or Finalize can still pick it up). The
// group-commit buffer is flushed and fsynced first — Close is the
// cancellation path's exit, and "journal always resumable" requires the
// completed records to actually be on disk.
func (s *Sink) Close() error {
	s.stopFlusher()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.flushLocked(true)
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// compareRecords orders records canonically: by name, key-tiebroken
// (names are unique across the generated suite, but user script
// directories make no such promise).
func compareRecords(a, b *Record) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return strings.Compare(a.Key, b.Key)
}

// WriteRecords writes records to path in canonical order, atomically and
// durably (temp file + fsync + rename + directory fsync), world-readable.
func WriteRecords(path string, records []Record) error {
	sorted := append([]Record(nil), records...)
	slices.SortFunc(sorted, func(a, b Record) int { return compareRecords(&a, &b) })
	return writeJSONL(path, func(bw *bufio.Writer) {
		var line []byte
		for i := range sorted {
			line = append(appendRecord(line[:0], &sorted[i]), '\n')
			bw.Write(line)
		}
	})
}

// writeJSONL writes path atomically and durably (see atomicWrite),
// streaming what write emits through a buffer instead of joining the
// whole file in memory.
func writeJSONL(path string, write func(bw *bufio.Writer)) error {
	return atomicWrite(path, ".jsonl-*", func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 256<<10)
		write(bw)
		return bw.Flush() // the first write error sticks and surfaces here
	})
}

// ReadRecords loads every record line of a JSONL file, in file order. A
// torn trailing line — one with no terminating newline, the only shape a
// killed append can leave — is ignored; any malformed newline-terminated
// line is corruption and an error (appends write the line and its '\n'
// in one syscall, so a short write can never produce a terminated
// partial line).
func ReadRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := make([][]byte, 0, bytes.Count(data, []byte{'\n'}))
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail
		}
		lines = append(lines, data[off:off+nl])
		off += nl + 1
	}
	// Lines decode independently, so they parse on every core into
	// index-aligned slots; the error reported is the first bad line's.
	// Canonical lines take the hand-written decoder, anything else
	// json.Unmarshal (unmarshalRecordLine).
	out := make([]Record, len(lines))
	var bad lowestError
	parallelEach(len(lines), func(i int) {
		if err := unmarshalRecordLine(lines[i], &out[i]); err != nil {
			bad.set(i, err)
		}
	})
	if bad.err != nil {
		return nil, fmt.Errorf("pipeline: %s: bad record line: %w", path, bad.err)
	}
	return out, nil
}

// MergeRecords combines shard sinks into one canonical JSONL file,
// dropping duplicate keys (first occurrence wins; duplicates are
// byte-identical by the cache-key contract).
func MergeRecords(out string, ins ...string) error {
	seen := make(map[string]bool)
	var all []Record
	for _, in := range ins {
		recs, err := ReadRecords(in)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if seen[rec.Key] {
				continue
			}
			seen[rec.Key] = true
			all = append(all, rec)
		}
	}
	return WriteRecords(out, all)
}
