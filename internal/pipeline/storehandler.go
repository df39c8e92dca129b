package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// StoreHandler serves a Store over the /v1/store wire protocol
// HTTPStore speaks — the server side of the shared fleet cache.
// sfs-serve mounts it beside the job API; tests mount it on an
// httptest.Server directly.
//
// Routes (rooted wherever the handler is mounted):
//
//	POST /v1/store/get     newline-separated keys (at most 4096) → frames
//	                       for the hits only, in request order
//	POST /v1/store/batch   frames to store, then Flush
//	POST /v1/store/flush   group-commit barrier
//	GET  /v1/store/stats   StoreStats JSON
//
// Frames are the pack entry layout (frame.go), each carrying
// crc32c(key‖value). Keys are hex digests (the cache-key contract); a
// request naming any other key is 400.
type StoreHandler struct {
	store Store
	tel   *telemetry.Registry
}

// NewStoreHandler wraps store; metrics land in reg (nil = Default).
func NewStoreHandler(store Store, reg *telemetry.Registry) *StoreHandler {
	return &StoreHandler{store: store, tel: telemetry.Or(reg)}
}

// maxStoreValueBytes bounds one uploaded batch and one batch-get
// response; records and generation blobs are far below it.
const maxStoreValueBytes = 64 << 20

func (sh *StoreHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	// Tolerate both a bare mount ("/v1/store/…" arriving verbatim) and a
	// stripped one (mux passed only the tail).
	if i := strings.Index(path, "/v1/store/"); i >= 0 {
		path = path[i+len("/v1/store/"):]
	} else {
		path = strings.TrimPrefix(path, "/")
	}
	switch {
	case path == "flush" && r.Method == http.MethodPost:
		sh.flush(w)
	case path == "get" && r.Method == http.MethodPost:
		sh.getMany(w, r)
	case path == "batch" && r.Method == http.MethodPost:
		sh.batch(w, r)
	case path == "stats" && r.Method == http.MethodGet:
		sh.stats(w)
	default:
		http.Error(w, "bad store path or method", http.StatusBadRequest)
	}
}

// isStoreKey accepts lower-case hex digests — the only keys the cache
// key contract produces.
func isStoreKey(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// maxGetKeyBytes bounds a batch get's request body: maxGetKeys keys of
// the longest length isStoreKey accepts, one newline each.
const maxGetKeyBytes = maxGetKeys * 129

// getMany answers a batch get: one GetMany over the listed keys, and a
// response of frames for the hits, in request order. The response stops
// before it would outgrow maxStoreValueBytes; the keys it leaves out are
// misses to the client, as any omitted key is.
func (sh *StoreHandler) getMany(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxGetKeyBytes+1))
	if err != nil {
		http.Error(w, "torn body", http.StatusBadRequest)
		return
	}
	var keys []string
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		key := string(line)
		if !isStoreKey(key) {
			http.Error(w, fmt.Sprintf("bad key %q", key), http.StatusBadRequest)
			return
		}
		if len(keys) == maxGetKeys {
			http.Error(w, fmt.Sprintf("more than %d keys", maxGetKeys), http.StatusBadRequest)
			return
		}
		keys = append(keys, key)
	}
	sh.tel.Counter("pipeline.store_http_gets").Add(int64(len(keys)))
	vals := sh.store.GetMany(keys)
	size := 0
	for i, val := range vals {
		if val != nil {
			size += frameHeaderLen + len(keys[i]) + len(val)
		}
	}
	resp := make([]byte, 0, min(size, maxStoreValueBytes))
	for i, val := range vals {
		if val == nil {
			continue
		}
		if len(resp)+frameHeaderLen+len(keys[i])+len(val) > maxStoreValueBytes {
			break
		}
		resp = appendFrame(resp, keys[i], val)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	w.Write(resp)
}

// batch decodes a sequence of frames, verifies every CRC, stores all
// entries and flushes — one durable round trip per client write-behind
// batch. Any malformed or CRC-failing entry
// fails the whole batch with 400 before anything of it is trusted;
// batches are idempotent (same keys, same bytes), so the client simply
// retries.
func (sh *StoreHandler) batch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxStoreValueBytes+1))
	if err != nil {
		http.Error(w, "torn body", http.StatusBadRequest)
		return
	}
	if len(body) > maxStoreValueBytes {
		http.Error(w, "batch too large", http.StatusRequestEntityTooLarge)
		return
	}
	var entries []frame
	for len(body) > 0 {
		f, ok := nextFrame(body)
		if !ok {
			http.Error(w, "torn batch entry", http.StatusBadRequest)
			return
		}
		body = body[f.size:]
		if !isStoreKey(string(f.key)) {
			http.Error(w, fmt.Sprintf("bad key %q", f.key), http.StatusBadRequest)
			return
		}
		if !f.intact() {
			http.Error(w, "crc mismatch in batch", http.StatusBadRequest)
			return
		}
		entries = append(entries, f)
	}
	for _, e := range entries {
		if err := sh.store.Put(string(e.key), e.val); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if err := sh.store.Flush(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sh.tel.Counter("pipeline.store_http_batches").Inc()
	sh.tel.Counter("pipeline.store_http_puts").Add(int64(len(entries)))
	w.WriteHeader(http.StatusNoContent)
}

func (sh *StoreHandler) flush(w http.ResponseWriter) {
	if err := sh.store.Flush(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sh.tel.Counter("pipeline.store_http_flushes").Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (sh *StoreHandler) stats(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sh.store.Stats())
}
