package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// HTTPStore is a Store served over the wire by an sfs-serve daemon (or
// any server mounting StoreHandler): a fleet of CI clients pointing
// `sfs-run -store http://…` at one daemon share one warm
// content-addressed cache. The client reads with a batch get and writes
// framed batches and flushes (StoreHandler lists the routes), with every
// value CRC-verified end to end (crc32c over key‖value, the same
// checksum pack entries carry on disk).
//
// Semantics against the Store contract:
//
//   - GetMany (and Get, its one-key form) checks the local write-behind
//     batch first (read-your-writes), then the server, in one round
//     trip for the whole window. A key the server lacks, a torn or
//     truncated body, or a CRC mismatch is a miss, never an error. When
//     the server is unreachable the optional Fallback store answers
//     instead.
//   - Put appends to a bounded in-memory write-behind batch; crossing
//     the bound ships the batch inline. Put never fails on a network
//     fault — the cache is lossy by contract, and a dead cache server
//     must not kill a fleet's runs.
//   - Flush ships the outstanding batch (with retry/backoff on 5xx and
//     transport errors) and then asks the server to run its own Flush —
//     the group-commit barrier spans both sides. A batch that still
//     fails after retries degrades: it lands in the Fallback store when
//     one is configured, and is dropped (and counted) otherwise.
//
// All degradation is visible in telemetry: pipeline.http_fallback_gets,
// pipeline.http_fallback_puts and pipeline.http_dropped_puts say exactly
// how much traffic the server did not see.
type HTTPStore struct {
	base string
	opts HTTPStoreOptions

	mu       sync.Mutex
	pending  map[string][]byte // write-behind batch, keyed for read-your-writes
	inflight map[string][]byte // batches shipped but not yet acknowledged
	pendSize int
	closed   bool

	tmu sync.RWMutex
	tel *telemetry.Registry
}

// HTTPStoreOptions tune an HTTPStore; the zero value is ready for use.
type HTTPStoreOptions struct {
	// FlushBytes bounds the write-behind batch: crossing it ships the
	// batch inline (default 1 MiB).
	FlushBytes int
	// MaxRetries is how many times a failed request is retried (default
	// 3, so up to 4 attempts).
	MaxRetries int
	// RetryBackoff is the first retry's delay, doubling per attempt
	// (default 50ms).
	RetryBackoff time.Duration
	// Fallback is a local store consulted when the server cannot answer:
	// reads fall through to it, and batches that exhaust their retries
	// land in it instead of being dropped. Close closes it.
	Fallback Store
	// Client overrides the HTTP client (default: 30s overall timeout).
	Client *http.Client
}

// OpenHTTPStore validates the base URL ("http://host:port", with or
// without a trailing slash) and returns a remote store speaking the
// /v1/store protocol rooted there. No connection is attempted here — a
// daemon that comes up later is fine.
func OpenHTTPStore(base string, opts HTTPStoreOptions) (*HTTPStore, error) {
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("pipeline: http store: base URL %q must start with http:// or https://", base)
	}
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = 1 << 20
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 3
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPStore{
		base:     strings.TrimRight(base, "/"),
		opts:     opts,
		pending:  make(map[string][]byte),
		inflight: make(map[string][]byte),
		tel:      telemetry.Default,
	}, nil
}

// SetTelemetry attributes the store's remote-traffic metrics to reg
// (nil selects Default); Cache.SetTelemetry forwards through it.
func (h *HTTPStore) SetTelemetry(reg *telemetry.Registry) {
	h.tmu.Lock()
	h.tel = telemetry.Or(reg)
	h.tmu.Unlock()
	if ts, ok := h.opts.Fallback.(telemetrySetter); ok {
		ts.SetTelemetry(reg)
	}
}

func (h *HTTPStore) telemetry() *telemetry.Registry {
	h.tmu.RLock()
	defer h.tmu.RUnlock()
	return h.tel
}

// Get is GetMany for one key.
func (h *HTTPStore) Get(key string) ([]byte, bool) {
	val := h.GetMany([]string{key})[0]
	return val, val != nil
}

// maxGetKeys caps the keys of one POST /v1/store/get; the server answers
// a longer list with 400, so GetMany splits longer windows.
const maxGetKeys = 4096

// GetMany returns the bytes stored under each key (nil on a miss), in one
// round trip per maxGetKeys keys: the write-behind batch answers first
// (read-your-writes), then one POST /v1/store/get asks the server for the
// rest. The response holds frames for the server's hits only, in request
// order. Per key: a key the server omits is an authoritative miss the
// Fallback may answer; a transport error or a 5xx after retries sends
// each key to the Fallback; a frame that fails its CRC misses its own
// key, and a torn response misses the keys it did not deliver — misses,
// never errors. Hit values share the response body's buffer.
//
// pipeline.http_gets and http_hits count keys; pipeline.http_get_ns
// observes one request.
func (h *HTTPStore) GetMany(keys []string) [][]byte {
	out := make([][]byte, len(keys))
	ask := make([]int, 0, len(keys))
	h.mu.Lock()
	for i, key := range keys {
		if val, ok := h.pending[key]; ok {
			out[i] = append([]byte{}, val...) // non-nil even when empty
		} else if val, ok := h.inflight[key]; ok {
			out[i] = append([]byte{}, val...)
		} else {
			ask = append(ask, i)
		}
	}
	h.mu.Unlock()
	for len(ask) > 0 {
		n := min(len(ask), maxGetKeys)
		h.getBatch(keys, ask[:n], out)
		ask = ask[n:]
	}
	return out
}

// getBatch fetches keys[i] for every i in ask (at most maxGetKeys) in
// one request and fills out[i] with each hit.
func (h *HTTPStore) getBatch(keys []string, ask []int, out [][]byte) {
	tel := h.telemetry()
	tel.Counter("pipeline.http_gets").Add(int64(len(ask)))
	defer tel.Histogram("pipeline.http_get_ns").ObserveSince(time.Now())
	req := make([]byte, 0, len(ask)*(len(keys[ask[0]])+1))
	for _, i := range ask {
		req = append(req, keys[i]...)
		req = append(req, '\n')
	}
	resp, err := h.do(http.MethodPost, "/v1/store/get", req)
	if err != nil {
		for _, i := range ask {
			out[i], _ = h.fallbackGet(keys[i])
		}
		return
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		for _, i := range ask {
			out[i], _ = h.fallbackGet(keys[i])
		}
		return
	}
	body, whole := readBody(resp)
	// ask[:next] are resolved; a frame for ask[j] resolves ask[next:j] as
	// keys the server omitted: authoritative misses, which a local
	// fallback may still answer (e.g. it absorbed a degraded batch).
	next, hits, misses, fallbackHits, crcErrors := 0, 0, 0, 0, 0
	omitTo := func(j int) {
		for ; next < j; next++ {
			misses++
			if h.opts.Fallback == nil {
				continue
			}
			if val, ok := h.opts.Fallback.Get(keys[ask[next]]); ok {
				out[ask[next]] = val
				fallbackHits++
			}
		}
	}
	defer func() {
		addCount(tel, "pipeline.http_hits", hits)
		addCount(tel, "pipeline.http_misses", misses)
		addCount(tel, "pipeline.http_fallback_gets", fallbackHits)
		addCount(tel, "pipeline.store_crc_errors", crcErrors)
	}()
	for len(body) > 0 {
		f, ok := nextFrame(body)
		if !ok {
			whole = false
			break
		}
		body = body[f.size:]
		intact := f.intact()
		if !intact {
			crcErrors++
		}
		j := next
		for j < len(ask) && keys[ask[j]] != string(f.key) {
			j++
		}
		if j == len(ask) {
			continue // answers no outstanding key
		}
		omitTo(j)
		next = j + 1
		if intact {
			out[ask[j]] = f.val
			hits++
		}
	}
	if !whole {
		// Torn mid-body: the keys not yet delivered miss. The server may
		// hold them, so they are not sent to the fallback.
		tel.Counter("pipeline.http_torn").Inc()
		return
	}
	omitTo(len(ask))
}

// addCount adds n to the named counter, leaving an untouched counter out
// of the snapshot when n is 0.
func addCount(tel *telemetry.Registry, name string, n int) {
	if n > 0 {
		tel.Counter(name).Add(int64(n))
	}
}

// readBody reads a response body into one buffer sized from its
// Content-Length, bounded by maxStoreValueBytes; whole is false when the
// body ended before it promised to or ran past the bound.
func readBody(resp *http.Response) (body []byte, whole bool) {
	if resp.ContentLength < 0 || resp.ContentLength > maxStoreValueBytes {
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxStoreValueBytes+1))
		return body, err == nil && len(body) <= maxStoreValueBytes
	}
	body = make([]byte, resp.ContentLength)
	n, err := io.ReadFull(resp.Body, body)
	return body[:n], err == nil
}

func (h *HTTPStore) fallbackGet(key string) ([]byte, bool) {
	tel := h.telemetry()
	tel.Counter("pipeline.http_errors").Inc()
	if h.opts.Fallback == nil {
		return nil, false
	}
	val, ok := h.opts.Fallback.Get(key)
	if ok {
		tel.Counter("pipeline.http_fallback_gets").Inc()
	}
	return val, ok
}

// Put appends the entry to the write-behind batch; crossing FlushBytes
// ships the batch inline. Visibility is immediate (Get consults the
// batch first); durability arrives with Flush. Put never surfaces
// network faults — degraded batches land in the fallback or are
// dropped, both counted.
func (h *HTTPStore) Put(key string, data []byte) error {
	if len(key) == 0 || len(key) > 0xffff {
		return fmt.Errorf("pipeline: http store: bad key length %d", len(key))
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return fmt.Errorf("pipeline: http store: closed")
	}
	if old, ok := h.pending[key]; ok {
		h.pendSize -= len(old)
	}
	val := append([]byte(nil), data...)
	h.pending[key] = val
	h.pendSize += len(val)
	if h.pendSize < h.opts.FlushBytes {
		h.mu.Unlock()
		return nil
	}
	batch := h.takeBatchLocked()
	h.mu.Unlock()
	h.shipBatch(batch)
	return nil
}

// takeBatchLocked moves the pending batch to the inflight set (still
// visible to Get) and returns it; the caller ships it outside the lock.
func (h *HTTPStore) takeBatchLocked() map[string][]byte {
	batch := h.pending
	h.pending = make(map[string][]byte)
	h.pendSize = 0
	for k, v := range batch {
		h.inflight[k] = v
	}
	return batch
}

// releaseBatch drops shipped entries from the inflight set.
func (h *HTTPStore) releaseBatch(batch map[string][]byte) {
	h.mu.Lock()
	for k := range batch {
		delete(h.inflight, k)
	}
	h.mu.Unlock()
}

// shipBatch sends one batch with retry/backoff; on exhausted retries it
// degrades to the fallback store (or drops, counted). The batch body is a
// sequence of frames (frame.go), so both sides verify the same checksum
// the entries will carry at rest.
func (h *HTTPStore) shipBatch(batch map[string][]byte) {
	defer h.releaseBatch(batch)
	if len(batch) == 0 {
		return
	}
	tel := h.telemetry()
	var buf []byte
	for k, v := range batch {
		buf = appendFrame(buf, k, v)
	}
	resp, err := h.do(http.MethodPost, "/v1/store/batch", buf)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 300 {
			tel.Counter("pipeline.http_batches").Inc()
			tel.Counter("pipeline.http_batch_entries").Add(int64(len(batch)))
			return
		}
	}
	tel.Counter("pipeline.http_errors").Inc()
	if h.opts.Fallback != nil {
		for k, v := range batch {
			if h.opts.Fallback.Put(k, v) == nil {
				tel.Counter("pipeline.http_fallback_puts").Inc()
			}
		}
		return
	}
	tel.Counter("pipeline.http_dropped_puts").Add(int64(len(batch)))
}

// Flush ships the outstanding batch and runs the server-side Flush —
// the group-commit barrier covers the write-behind buffer, the wire,
// and the server's own store. Degraded batches divert to the fallback
// (then its Flush is the barrier for them); Flush itself only fails on
// a local fallback error, never on remote unavailability.
func (h *HTTPStore) Flush() error {
	h.mu.Lock()
	batch := h.takeBatchLocked()
	h.mu.Unlock()
	tel := h.telemetry()
	flushStart := time.Now()
	h.shipBatch(batch)
	if resp, err := h.do(http.MethodPost, "/v1/store/flush", nil); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	tel.Histogram("pipeline.http_flush_ns").ObserveSince(flushStart)
	if h.opts.Fallback != nil {
		return h.opts.Fallback.Flush()
	}
	return nil
}

// Close flushes and releases the store (closing the fallback).
func (h *HTTPStore) Close() error {
	err := h.Flush()
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	if h.opts.Fallback != nil {
		if cerr := h.opts.Fallback.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats asks the server for its store's contents; an unreachable
// server reports zero entries under the "http" backend name (the
// telemetry counters, not Stats, describe degraded traffic).
func (h *HTTPStore) Stats() StoreStats {
	st := StoreStats{Backend: "http"}
	resp, err := h.do(http.MethodGet, "/v1/store/stats", nil)
	if err != nil {
		return st
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return st
	}
	var remote StoreStats
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&remote) != nil {
		return st
	}
	st.Entries = remote.Entries
	st.Segments = remote.Segments
	st.Bytes = remote.Bytes
	if remote.Backend != "" {
		st.Backend = "http/" + remote.Backend
	}
	return st
}

// do issues one request with retry/backoff: transport errors and 5xx
// responses are retried up to MaxRetries times with doubling delay;
// anything else returns as-is for the caller to interpret.
func (h *HTTPStore) do(method, path string, body []byte) (*http.Response, error) {
	tel := h.telemetry()
	backoff := h.opts.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, h.base+path, rd)
		if err != nil {
			return nil, err
		}
		resp, err := h.opts.Client.Do(req)
		if err == nil && resp.StatusCode < 500 {
			return resp, nil
		}
		if err == nil {
			lastErr = fmt.Errorf("pipeline: http store: %s %s: %s", method, path, resp.Status)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		} else {
			lastErr = err
		}
		if attempt >= h.opts.MaxRetries {
			return nil, lastErr
		}
		tel.Counter("pipeline.http_retries").Inc()
		time.Sleep(backoff)
		backoff *= 2
	}
}
