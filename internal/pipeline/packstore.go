package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// PackStore is the default result store: records append to bounded,
// append-only pack segments (git packfile / LevelDB-log style) instead
// of one file per key, and durability is paid per *batch*, not per
// entry. The three design points, each fixing a measured bottleneck of
// the file-per-key layout it replaced:
//
//   - Packed segments. A cold full-suite run used to create ~21k small
//     files, each with its own fsync + rename + directory fsync; a warm
//     run re-opened and re-parsed all of them. Here every entry is a
//     length-prefixed, CRC32-guarded append into the current segment,
//     and a read is one pread at a known offset.
//
//   - In-memory index. OpenPackStore loads key → (segment, offset,
//     length, crc) from per-segment index sidecars; a missing, stale or
//     corrupt sidecar degrades to a sequential scan of that segment
//     (pipeline.index_rebuilds), never to an error. A torn tail entry —
//     the only damage a killed append can leave — is detected by its CRC
//     and truncated away.
//
//   - Group commit. Puts from all pipeline workers coalesce into one
//     in-memory tail; a single write + fsync covers the whole batch
//     (pipeline.store_batches / store_fsyncs). The commit swaps the tail
//     out and does its I/O without holding the store's mutex, so
//     workers keep putting (and reading — the batch in flight stays
//     readable) while the disk works; a separate commit lock orders the
//     commits. Commits happen on size (FlushBytes, handed to the
//     background flusher), on interval (FlushInterval), and always on
//     Flush/Close, which wait for any commit in flight — pipeline.Run
//     flushes at every exit, cancellation included, so the cache is
//     durable whenever the resume journal is.
//
// Each entry is one frame (frame.go): uint32 crc32c(key ‖ value) |
// uint16 len(key) | uint32 len(value) | key | value.
//
// Segments are named NNNNNN.seg with an 8-byte "sfspack1" header and
// sealed at MaxSegmentBytes; NNNNNN.idx sidecars are written atomically
// on seal and on Close.
type PackStore struct {
	dir  string
	opts PackOptions

	// commitMu orders commits and is held across a batch's write +
	// fsync; whoever holds it may take mu too (never the other order).
	// Rotation and Close hold both, so no commit is in flight for them.
	commitMu sync.Mutex

	mu       sync.RWMutex
	index    map[string]packLoc
	files    map[int]*os.File // open segment handles (active one is RDWR)
	segSizes map[int]int64    // durable bytes per sealed segment; active tracked below

	active      int   // active segment id (0 = none yet)
	flushedSize int64 // bytes of the active segment already on disk
	idxCovered  int64 // bytes of the active segment its on-disk sidecar covers
	// inflight is the batch a commit is writing at flushedSize (nil when
	// none is); pending buffers the Puts after it, so it starts at
	// flushedSize+len(inflight). spare recycles a committed batch buffer.
	inflight []byte
	pending  []byte
	spare    []byte
	closed   bool
	// commitHook, when set (tests only, under mu), runs inside a commit
	// after the batch is taken and before its write — the window in
	// which the batch is in flight.
	commitHook func()

	flushOnce sync.Once
	flushDone chan struct{}
	kick      chan struct{} // size trigger: wakes the flusher early

	tel *telemetry.Registry
}

// packLoc addresses one value: segment id, value offset, value length,
// and the entry's CRC32 (over key+value), verified on every read.
type packLoc struct {
	seg  int
	off  int64
	vlen uint32
	crc  uint32
}

// PackOptions tune a PackStore; zero values select the defaults.
type PackOptions struct {
	// MaxSegmentBytes seals a segment once it grows past this size
	// (default 64 MiB). An entry larger than the bound still fits: it
	// gets a segment of its own.
	MaxSegmentBytes int64
	// FlushBytes forces a group commit once this many bytes are pending
	// (default 1 MiB).
	FlushBytes int
	// FlushInterval bounds how long a Put can stay buffered before the
	// background flusher commits it (default 50ms).
	FlushInterval time.Duration
}

const (
	packMagic    = "sfspack1"
	packIdxMagic = "sfspidx1"

	defaultMaxSegmentBytes = 64 << 20
	defaultFlushBytes      = 1 << 20
	defaultFlushInterval   = 50 * time.Millisecond
)

// OpenPackStore opens (creating if needed) a packed segment store rooted
// at dir, with default options.
func OpenPackStore(dir string) (*PackStore, error) {
	return OpenPackStoreWith(dir, PackOptions{})
}

// OpenPackStoreWith opens a packed segment store with explicit options
// (tests use tiny segments to force rotation).
func OpenPackStoreWith(dir string, opts PackOptions) (*PackStore, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = defaultMaxSegmentBytes
	}
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = defaultFlushBytes
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = defaultFlushInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sweepOrphans(dir, ".tmp-")
	p := &PackStore{
		dir:       dir,
		opts:      opts,
		index:     make(map[string]packLoc),
		files:     make(map[int]*os.File),
		segSizes:  make(map[int]int64),
		flushDone: make(chan struct{}),
		kick:      make(chan struct{}, 1),
		tel:       telemetry.Default,
	}
	if err := p.load(); err != nil {
		p.closeFiles()
		return nil, err
	}
	go p.flusher()
	return p, nil
}

// SetTelemetry attributes the store's I/O metrics (batch commits,
// fsyncs, index rebuilds, CRC failures) to reg; pipeline.Run installs
// the run's registry here. Open-time events land on telemetry.Default.
func (p *PackStore) SetTelemetry(reg *telemetry.Registry) {
	p.mu.Lock()
	p.tel = telemetry.Or(reg)
	p.mu.Unlock()
}

// Dir returns the store root.
func (p *PackStore) Dir() string { return p.dir }

// load opens every segment, preferring index sidecars and falling back
// to a sequential scan; the last segment becomes the active one if it
// has room.
func (p *PackStore) load() error {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return err
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(name, ".seg"))
		if err != nil || id <= 0 {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		last := i == len(ids)-1
		if err := p.loadSegment(id, last); err != nil {
			return err
		}
	}
	p.tel.Gauge("pipeline.segments").Set(int64(len(p.files)))
	return nil
}

// loadSegment installs one segment's entries into the index. Sidecar
// first; any mismatch (missing, corrupt, or not covering the file's
// current size) degrades to a scan that verifies every entry's CRC and
// truncates a torn tail off the active segment.
func (p *PackStore) loadSegment(id int, last bool) error {
	path := p.segPath(id)
	flags := os.O_RDONLY
	if last {
		flags = os.O_RDWR
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := info.Size()

	locs, ok := p.readSidecar(id, size)
	if !ok {
		p.tel.Counter("pipeline.index_rebuilds").Inc()
		var logical int64
		locs, logical, err = scanSegment(f, size)
		if err != nil {
			f.Close()
			return err
		}
		if logical < size {
			// Torn or corrupt tail: cut it off so the file again ends at
			// a clean entry boundary (and, for the segment we are about
			// to append to, so new entries land at a valid offset).
			if err := os.Truncate(path, logical); err != nil {
				f.Close()
				return err
			}
			size = logical
		}
		if !last {
			// Repair the sidecar so the next open skips the scan.
			p.writeSidecar(id, locs, size)
		}
	}
	for key, loc := range locs {
		loc.seg = id
		p.index[key] = loc
	}
	p.files[id] = f
	p.segSizes[id] = size
	if last && size < p.opts.MaxSegmentBytes {
		p.active = id
		if ok {
			p.idxCovered = size // current sidecar; barriers skip the rewrite
		}
		if size < int64(len(packMagic)) {
			// The segment never got a durable header (killed before its
			// first commit): restart it from scratch.
			if err := os.Truncate(path, 0); err != nil {
				f.Close()
				return err
			}
			size = 0
			p.pending = append(p.pending[:0], packMagic...)
		}
		p.flushedSize = size
		p.segSizes[id] = size
	}
	return nil
}

func (p *PackStore) segPath(id int) string {
	return filepath.Join(p.dir, fmt.Sprintf("%06d.seg", id))
}

func (p *PackStore) idxPath(id int) string {
	return filepath.Join(p.dir, fmt.Sprintf("%06d.idx", id))
}

// scanSegment walks a segment sequentially, verifying every entry's CRC,
// and returns the recovered locations plus the logical end — the offset
// of the first torn or corrupt entry (everything after it is ignored).
func scanSegment(f *os.File, size int64) (map[string]packLoc, int64, error) {
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, 0, err
	}
	locs := make(map[string]packLoc)
	if len(data) < len(packMagic) || string(data[:len(packMagic)]) != packMagic {
		return locs, 0, nil // not even a header: treat as empty
	}
	off := len(packMagic)
	for off < len(data) {
		f, ok := nextFrame(data[off:])
		if !ok || !f.intact() {
			break // torn, nonsense or corrupt entry: stop at the last good offset
		}
		locs[string(f.key)] = packLoc{
			off:  int64(off + frameHeaderLen + len(f.key)),
			vlen: uint32(len(f.val)),
			crc:  f.crc,
		}
		off += f.size
	}
	return locs, int64(off), nil
}

// Sidecar layout: "sfspidx1", uint64 covered segment size, uint32 count,
// then per entry (uint16 keyLen | uint64 valOff | uint32 valLen |
// uint32 crc | key), and a trailing CRC32 over everything before it.
// Written atomically; validated wholesale on read — any damage means a
// rebuild-by-scan, never a wrong lookup.

func (p *PackStore) writeSidecar(id int, locs map[string]packLoc, covered int64) {
	keys := make([]string, 0, len(locs))
	for k := range locs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := make([]byte, 0, len(packIdxMagic)+12+len(locs)*32)
	buf = append(buf, packIdxMagic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(covered))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(locs)))
	for _, k := range keys {
		loc := locs[k]
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
		buf = binary.BigEndian.AppendUint64(buf, uint64(loc.off))
		buf = binary.BigEndian.AppendUint32(buf, loc.vlen)
		buf = binary.BigEndian.AppendUint32(buf, loc.crc)
		buf = append(buf, k...)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, packCRC))
	// Best-effort: a failed sidecar write only costs the next open a scan.
	_ = atomicWriteFile(p.idxPath(id), ".tmp-*", buf)
}

// readSidecar loads a segment's index sidecar; ok is false when the
// sidecar is missing, corrupt, or does not cover the segment's current
// size (e.g. the store was killed after appending but before resealing).
func (p *PackStore) readSidecar(id int, segSize int64) (map[string]packLoc, bool) {
	buf, err := os.ReadFile(p.idxPath(id))
	if err != nil || len(buf) < len(packIdxMagic)+16 {
		return nil, false
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.Checksum(body, packCRC) != binary.BigEndian.Uint32(tail) {
		return nil, false
	}
	if string(body[:len(packIdxMagic)]) != packIdxMagic {
		return nil, false
	}
	covered := int64(binary.BigEndian.Uint64(body[8:16]))
	if covered != segSize {
		return nil, false
	}
	count := binary.BigEndian.Uint32(body[16:20])
	locs := make(map[string]packLoc, count)
	off := 20
	for i := uint32(0); i < count; i++ {
		if off+18 > len(body) {
			return nil, false
		}
		klen := int(binary.BigEndian.Uint16(body[off : off+2]))
		valOff := int64(binary.BigEndian.Uint64(body[off+2 : off+10]))
		vlen := binary.BigEndian.Uint32(body[off+10 : off+14])
		crc := binary.BigEndian.Uint32(body[off+14 : off+18])
		off += 18
		if off+klen > len(body) {
			return nil, false
		}
		key := string(body[off : off+klen])
		off += klen
		locs[key] = packLoc{off: valOff, vlen: vlen, crc: crc}
	}
	if off != len(body) {
		return nil, false
	}
	return locs, true
}

// Get returns the bytes stored under key: GetMany for one key.
func (p *PackStore) Get(key string) ([]byte, bool) {
	val := p.GetMany([]string{key})[0]
	return val, val != nil
}

// GetMany returns the bytes stored under each key (nil on a miss), taking
// the read lock once: under it every key's location is resolved and
// entries still in the group-commit buffer are copied out (a commit only
// recycles its batch, and Puts only grow the tail, under the write lock);
// committed entries are then read outside it, one pread each. All values
// share one buffer. Every read re-verifies the entry CRC — a mismatch
// (bit rot, torn concurrent writer) is a miss, never an error or a torn
// record.
func (p *PackStore) GetMany(keys []string) [][]byte {
	out := make([][]byte, len(keys))
	locs := make([]packLoc, len(keys))
	files := make([]*os.File, len(keys))
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return out
	}
	var total int
	for i, key := range keys {
		if loc, ok := p.index[key]; ok {
			locs[i] = loc
			total += int(loc.vlen)
		}
	}
	buf := make([]byte, total)
	for i, loc := range locs {
		if loc.seg == 0 { // segment ids start at 1: a miss
			continue
		}
		val := buf[:loc.vlen:loc.vlen]
		buf = buf[loc.vlen:]
		if loc.seg == p.active && loc.off >= p.flushedSize {
			start, tail := loc.off-p.flushedSize, p.inflight
			if start >= int64(len(tail)) {
				start, tail = start-int64(len(tail)), p.pending
			}
			copy(val, tail[start:])
			out[i] = val
		} else if f := p.files[loc.seg]; f != nil {
			files[i], out[i] = f, val
		}
	}
	p.mu.RUnlock()
	for i, val := range out {
		if val == nil {
			continue
		}
		if files[i] != nil {
			if _, err := files[i].ReadAt(val, locs[i].off); err != nil {
				out[i] = nil
				continue
			}
		}
		out[i], _ = p.verify(keys[i], val, locs[i].crc)
	}
	return out
}

func (p *PackStore) verify(key string, val []byte, crc uint32) ([]byte, bool) {
	if wireCRC(key, val) != crc {
		p.mu.RLock()
		tel := p.tel
		p.mu.RUnlock()
		tel.Counter("pipeline.store_crc_errors").Inc()
		return nil, false
	}
	return val, true
}

// Put appends one entry to the active segment's group-commit buffer.
// The entry is immediately visible to Get; durability arrives with the
// next batch commit (size, interval, or an explicit Flush). Put never
// waits for a commit's I/O, except to seal a full segment.
func (p *PackStore) Put(key string, data []byte) error {
	if len(key) == 0 || len(key) > 0xffff {
		return fmt.Errorf("pipeline: pack store: bad key length %d", len(key))
	}
	entrySize := int64(frameHeaderLen + len(key) + len(data))
	p.mu.Lock()
	for !p.closed && p.needRotateLocked(entrySize) {
		p.mu.Unlock()
		if err := p.rotate(entrySize); err != nil {
			return err
		}
		p.mu.Lock()
	}
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("pipeline: pack store: closed")
	}
	off, start := p.tailLocked(), len(p.pending)
	p.pending = appendFrame(p.pending, key, data)
	p.index[key] = packLoc{
		seg:  p.active,
		off:  off + frameHeaderLen + int64(len(key)),
		vlen: uint32(len(data)),
		crc:  binary.BigEndian.Uint32(p.pending[start:]), // as appendFrame wrote it
	}
	full := len(p.pending) >= p.opts.FlushBytes
	p.mu.Unlock()
	if full {
		select {
		case p.kick <- struct{}{}:
		default: // a wake-up is already queued
		}
	}
	return nil
}

// tailLocked is the active segment's logical size: committed bytes, the
// batch in flight and the pending tail.
func (p *PackStore) tailLocked() int64 {
	return p.flushedSize + int64(len(p.inflight)) + int64(len(p.pending))
}

// needRotateLocked reports whether an entry of entrySize bytes needs a
// fresh segment: there is none yet, or it would overflow MaxSegmentBytes
// and the active segment already holds an entry (an oversized entry gets
// a segment of its own rather than rotating forever).
func (p *PackStore) needRotateLocked(entrySize int64) bool {
	if p.active == 0 {
		return true
	}
	tail := p.tailLocked()
	return tail+entrySize > p.opts.MaxSegmentBytes && tail > int64(len(packMagic))
}

// rotate seals the active segment and opens the next one, unless another
// Put got there first. It holds the commit lock, so no commit is in
// flight while the segment changes.
func (p *PackStore) rotate(entrySize int64) error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || !p.needRotateLocked(entrySize) {
		return nil
	}
	return p.rotateLocked()
}

// rotateLocked seals the active segment (committing its tail and writing
// its index sidecar) and opens the next one. The very first Put, and any
// Put that would overflow MaxSegmentBytes, lands here. Callers hold
// commitMu and mu.
func (p *PackStore) rotateLocked() error {
	next := 1
	for id := range p.files {
		if id >= next {
			next = id + 1
		}
	}
	if p.active != 0 {
		if err := p.flushLocked(); err != nil {
			return err
		}
		p.segSizes[p.active] = p.flushedSize
		p.writeSidecar(p.active, p.segLocsLocked(p.active), p.flushedSize)
	}
	f, err := os.OpenFile(p.segPath(next), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	p.files[next] = f
	p.active = next
	p.flushedSize = 0
	p.idxCovered = 0
	p.pending = append(p.pending[:0], packMagic...)
	p.tel.Gauge("pipeline.segments").Set(int64(len(p.files)))
	return nil
}

// segLocsLocked collects the index entries that live in segment id (the
// sidecar's content — superseded duplicates are irrelevant by the
// cache-key contract: same key, same bytes).
func (p *PackStore) segLocsLocked(id int) map[string]packLoc {
	locs := make(map[string]packLoc)
	for k, loc := range p.index {
		if loc.seg == id {
			locs[k] = loc
		}
	}
	return locs
}

// flushLocked is the synchronous group commit, for callers that hold
// commitMu and mu (rotation, Close): one write and one fsync cover every
// Put buffered since the last commit.
func (p *PackStore) flushLocked() error {
	if len(p.pending) == 0 || p.active == 0 {
		return nil
	}
	f := p.files[p.active]
	if _, err := f.WriteAt(p.pending, p.flushedSize); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	p.committedLocked(len(p.pending))
	p.pending = p.pending[:0]
	return nil
}

// committedLocked records that n more bytes of the active segment are on
// disk.
func (p *PackStore) committedLocked(n int) {
	p.flushedSize += int64(n)
	p.segSizes[p.active] = p.flushedSize
	p.tel.Counter("pipeline.store_batches").Inc()
	p.tel.Counter("pipeline.store_fsyncs").Inc()
}

// commitLocked is the group commit the workers never wait for: it takes
// the pending tail as the in-flight batch, then writes and fsyncs it with
// mu released, so Puts keep appending to a fresh tail and Gets keep
// reading the batch. The caller holds commitMu. A failed write puts the
// batch back in front of the tail (its offsets are still right), so the
// next commit retries it.
func (p *PackStore) commitLocked() error {
	p.mu.Lock()
	if p.closed || p.active == 0 || len(p.pending) == 0 {
		p.mu.Unlock()
		return nil
	}
	batch, off, f := p.pending, p.flushedSize, p.files[p.active]
	p.inflight, p.pending, p.spare = batch, p.spare[:0], nil
	hook := p.commitHook
	p.mu.Unlock()

	if hook != nil {
		hook()
	}
	_, err := f.WriteAt(batch, off)
	if err == nil {
		err = f.Sync()
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	p.inflight = nil
	if err != nil {
		p.pending = append(batch, p.pending...)
		return err
	}
	p.committedLocked(len(batch))
	p.spare = batch[:0]
	return nil
}

// Flush commits every buffered Put — the group-commit barrier: it waits
// for a commit in flight, then commits the rest. pipeline.Run calls it
// on every exit path (success, failure and cancellation), so the store
// is durable whenever the journal is. The explicit barrier also
// refreshes the active segment's index sidecar: sessions are long-lived
// and may never Close, and without a current sidecar every reopen would
// pay a scan of the active segment. (Interval and size commits skip
// this — once per batch would be far too often for a full index
// rewrite.)
func (p *PackStore) Flush() error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	if err := p.commitLocked(); err != nil {
		return err
	}
	p.mu.RLock()
	id, size := p.active, p.flushedSize
	if p.closed || id == 0 || size <= p.idxCovered {
		p.mu.RUnlock()
		return nil
	}
	locs := p.segLocsLocked(id)
	p.mu.RUnlock()
	// No commit can move the segment meanwhile (we hold commitMu); Puts
	// only add pending entries the snapshot already excludes.
	p.writeSidecar(id, locs, size)
	p.mu.Lock()
	p.idxCovered = size
	p.mu.Unlock()
	return nil
}

// flusher is the background commit: on interval it bounds how long a Put
// can stay buffered in a process that neither fills FlushBytes nor
// reaches a Flush barrier (e.g. a run killed without cleanup), and a
// kick from Put commits a full buffer without making that Put wait.
func (p *PackStore) flusher() {
	t := time.NewTicker(p.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-p.flushDone:
			return
		case <-t.C:
		case <-p.kick:
		}
		p.commitMu.Lock()
		p.commitLocked() // best-effort; errors surface on Flush/Close
		p.commitMu.Unlock()
	}
}

// Close flushes, seals the active segment's index sidecar (so the next
// open needs no scan), and closes every segment handle.
func (p *PackStore) Close() error {
	p.flushOnce.Do(func() { close(p.flushDone) })
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	err := p.flushLocked()
	if err == nil && p.active != 0 && p.flushedSize > p.idxCovered {
		p.writeSidecar(p.active, p.segLocsLocked(p.active), p.flushedSize)
	}
	p.closeFiles()
	p.closed = true
	return err
}

func (p *PackStore) closeFiles() {
	for _, f := range p.files {
		f.Close()
	}
}

// Stats reports live keys, segment count and the summed segment bytes
// (pending group-commit bytes included).
func (p *PackStore) Stats() StoreStats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := StoreStats{Backend: "pack", Entries: len(p.index), Segments: len(p.files)}
	for id, size := range p.segSizes {
		if id == p.active {
			continue
		}
		st.Bytes += size
	}
	if p.active != 0 {
		st.Bytes += p.tailLocked()
	}
	return st
}
