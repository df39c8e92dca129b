package pipeline

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// storeFixture builds one Store backend for the shared conformance
// suite. corrupt damages the stored entry for key (whose value is val)
// in whatever way that backend can be damaged — bit-flipping pack
// segment bytes, tampering the wire body — after which the contract
// demands a miss, never an error.
type storeFixture struct {
	name  string
	setup func(t *testing.T) (Store, func(t *testing.T, key string, val []byte))
}

func storeFixtures() []storeFixture {
	return []storeFixture{
		{
			name: "pack",
			setup: func(t *testing.T) (Store, func(*testing.T, string, []byte)) {
				dir := t.TempDir()
				p, err := OpenPackStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				corrupt := func(t *testing.T, _ string, val []byte) {
					if err := p.Flush(); err != nil {
						t.Fatal(err)
					}
					flipValueOnDisk(t, dir, val)
				}
				return p, corrupt
			},
		},
		{
			name: "http",
			setup: func(t *testing.T) (Store, func(*testing.T, string, []byte)) {
				backing, err := OpenPackStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { backing.Close() })
				var mu sync.Mutex
				tampered := map[string]bool{}
				// Flip a value bit in each tampered key's frame, leaving its
				// CRC as it was — exactly what a torn cache entry looks like
				// on the wire.
				srv := getManyServer(t, backing, func(w http.ResponseWriter, body []byte) {
					mu.Lock()
					for rest := body; ; {
						f, ok := nextFrame(rest)
						if !ok {
							break
						}
						if tampered[string(f.key)] && len(f.val) > 0 {
							f.val[0] ^= 0x01
						}
						rest = rest[f.size:]
					}
					mu.Unlock()
					w.Write(body)
				})
				h, err := OpenHTTPStore(srv.URL, HTTPStoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				corrupt := func(t *testing.T, key string, _ []byte) {
					if err := h.Flush(); err != nil {
						t.Fatal(err)
					}
					mu.Lock()
					tampered[key] = true
					mu.Unlock()
				}
				return h, corrupt
			},
		},
	}
}

// flipValueOnDisk locates val's bytes inside any file under dir and
// flips one bit — simulated at-rest corruption for checksummed stores.
func flipValueOnDisk(t *testing.T, dir string, val []byte) {
	t.Helper()
	var flipped bool
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || flipped {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		i := bytes.Index(data, val)
		if i < 0 {
			return nil
		}
		data[i] ^= 0x01
		flipped = true
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !flipped {
		t.Fatal("value bytes not found in any file; cannot corrupt")
	}
}

// TestStoreConformance pins the Store contract every backend must obey
// — the local pack and the remote HTTP store behind one table: round-trip, overwrite idempotence, Flush visibility, and
// corruption-is-a-miss (never an error).
func TestStoreConformance(t *testing.T) {
	for _, fx := range storeFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			s, corrupt := fx.setup(t)
			defer s.Close()

			key, val := testKey(1), []byte("conformance value one")
			if _, ok := s.Get(key); ok {
				t.Fatal("miss expected on empty store")
			}
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
			// Read-your-writes before any Flush.
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("pre-flush get: %q, %v", got, ok)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("post-flush get: %q, %v", got, ok)
			}

			// Overwrite idempotence: same bytes again, then new bytes.
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("idempotent re-put get: %q, %v", got, ok)
			}
			val2 := []byte("conformance value two")
			if err := s.Put(key, val2); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, val2) {
				t.Fatalf("overwrite get: %q, %v", got, ok)
			}

			// GetMany answers per key, in order, duplicates included.
			got := s.GetMany([]string{key, testKey(99), key})
			if len(got) != 3 || !bytes.Equal(got[0], val2) || got[1] != nil || !bytes.Equal(got[2], val2) {
				t.Fatalf("GetMany = %q", got)
			}

			// Corruption is a miss, never an error — and other keys are
			// unaffected.
			victim, victimVal := testKey(2), []byte("victim value with unique bytes 0xDECAFBAD")
			if err := s.Put(victim, victimVal); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, victim, victimVal)
			if got, ok := s.Get(victim); ok {
				t.Fatalf("corrupted entry served as a hit: %q", got)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, val2) {
				t.Fatalf("healthy key lost after corrupting another: %q, %v", got, ok)
			}
			if got := s.GetMany([]string{victim, key}); got[0] != nil || !bytes.Equal(got[1], val2) {
				t.Fatalf("GetMany after corrupting %s: %q", victim, got)
			}
		})
	}
}

// fastHTTPOpts keeps fault-path tests quick: one retry, 1ms backoff.
func fastHTTPOpts(fallback Store) HTTPStoreOptions {
	return HTTPStoreOptions{
		MaxRetries:   1,
		RetryBackoff: 1,
		Fallback:     fallback,
	}
}

// TestHTTPStoreServerDownFallback pins the degradation ladder when the
// daemon is unreachable mid-batch: Put and Flush still succeed, the
// batch lands in the local fallback store, and reads are answered from
// it — the run survives, telemetry says what the server never saw.
func TestHTTPStoreServerDownFallback(t *testing.T) {
	srv := httptest.NewServer(NewStoreHandler(mustPack(t), telemetry.NewRegistry()))
	url := srv.URL
	srv.Close() // server is down before the first byte

	fallback, err := OpenPackStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h, err := OpenHTTPStore(url, fastHTTPOpts(fallback))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)

	key, val := testKey(3), []byte("survives the outage")
	if err := h.Put(key, val); err != nil {
		t.Fatalf("Put must not surface network faults: %v", err)
	}
	if err := h.Flush(); err != nil {
		t.Fatalf("Flush must not surface remote unavailability: %v", err)
	}
	if got, ok := h.Get(key); !ok || !bytes.Equal(got, val) {
		t.Fatalf("fallback read: %q, %v", got, ok)
	}
	if n := reg.Counter("pipeline.http_fallback_puts").Value(); n != 1 {
		t.Fatalf("http_fallback_puts = %d, want 1", n)
	}
	if n := reg.Counter("pipeline.http_fallback_gets").Value(); n == 0 {
		t.Fatal("http_fallback_gets not counted")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPStoreServerDownNoFallback: with no fallback configured the
// batch is dropped — counted, not fatal — and reads are plain misses.
func TestHTTPStoreServerDownNoFallback(t *testing.T) {
	h, err := OpenHTTPStore("http://127.0.0.1:1", fastHTTPOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)

	key := testKey(4)
	if err := h.Put(key, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatalf("Flush must not fail on a dead server: %v", err)
	}
	if _, ok := h.Get(key); ok {
		t.Fatal("dropped entry must read as a miss")
	}
	if n := reg.Counter("pipeline.http_dropped_puts").Value(); n != 1 {
		t.Fatalf("http_dropped_puts = %d, want 1", n)
	}
}

// TestHTTPStoreRetries5xx pins retry/backoff: transient 5xx responses
// are retried with backoff and the request then succeeds; the retries
// are visible in telemetry.
func TestHTTPStoreRetries5xx(t *testing.T) {
	backing := mustPack(t)
	inner := NewStoreHandler(backing, telemetry.NewRegistry())
	var mu sync.Mutex
	failures := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fail := failures > 0
		if fail {
			failures--
		}
		mu.Unlock()
		if fail {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	h, err := OpenHTTPStore(srv.URL, HTTPStoreOptions{MaxRetries: 3, RetryBackoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)

	key, val := testKey(5), []byte("after retries")
	if err := h.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := backing.Get(key); !ok {
		t.Fatal("batch did not reach the server after retries")
	}
	if n := reg.Counter("pipeline.http_retries").Value(); n != 2 {
		t.Fatalf("http_retries = %d, want 2", n)
	}
	if n := reg.Counter("pipeline.http_batches").Value(); n != 1 {
		t.Fatalf("http_batches = %d, want 1", n)
	}
}

// TestHTTPStoreTornResponseBody pins the torn-read path: a response
// that dies mid-entry (Content-Length promises more than arrives)
// delivers the frames before the cut and misses the key it cut — never
// an error, and not sent to the fallback — and is counted as
// pipeline.http_torn.
func TestHTTPStoreTornResponseBody(t *testing.T) {
	backing := mustPack(t)
	keys := putAll(t, backing, "first", "second", "third")
	srv := getManyServer(t, backing, func(w http.ResponseWriter, body []byte) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body[:len(body)-3]) // connection closes with bytes owed
	})
	fallback := mustPack(t)
	putAll(t, fallback, "stale first", "stale second", "stale third")
	h, err := OpenHTTPStore(srv.URL, fastHTTPOpts(fallback))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)

	wantMany(t, h.GetMany(keys), "first", "second", "")
	if _, ok := h.Get(keys[0]); ok {
		t.Fatal("torn body served as a hit")
	}
	if n := reg.Counter("pipeline.http_torn").Value(); n != 2 {
		t.Fatalf("http_torn = %d, want 2", n)
	}
	if n := reg.Counter("pipeline.http_fallback_gets").Value(); n != 0 {
		t.Fatalf("a torn response fell back: http_fallback_gets = %d", n)
	}
}

// TestHTTPStoreBatchRejectsBadCRC pins the server-side verification:
// a batch whose entry CRC does not match is rejected whole (400) and
// nothing from it is stored.
func TestHTTPStoreBatchRejectsBadCRC(t *testing.T) {
	backing := mustPack(t)
	srv := httptest.NewServer(NewStoreHandler(backing, telemetry.NewRegistry()))
	defer srv.Close()

	key, val := testKey(7), []byte("tampered in transit")
	var buf []byte
	buf = appendBatchEntry(buf, key, val)
	buf[0] ^= 0x01 // break the CRC
	resp, err := http.Post(srv.URL+"/v1/store/batch", "application/octet-stream", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if _, ok := backing.Get(key); ok {
		t.Fatal("CRC-failing batch entry was stored")
	}
}

// appendBatchEntry frames one entry in the batch wire format.
func appendBatchEntry(buf []byte, key string, val []byte) []byte {
	buf = append(buf, byte(wireCRC(key, val)>>24), byte(wireCRC(key, val)>>16), byte(wireCRC(key, val)>>8), byte(wireCRC(key, val)))
	buf = append(buf, byte(len(key)>>8), byte(len(key)))
	buf = append(buf, byte(len(val)>>24), byte(len(val)>>16), byte(len(val)>>8), byte(len(val)))
	buf = append(buf, key...)
	buf = append(buf, val...)
	return buf
}

// TestHTTPStoreStats pins Stats plumbing: the client reports the
// server store's contents under a combined backend name.
func TestHTTPStoreStats(t *testing.T) {
	backing := mustPack(t)
	srv := httptest.NewServer(NewStoreHandler(backing, telemetry.NewRegistry()))
	defer srv.Close()

	h, err := OpenHTTPStore(srv.URL, HTTPStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Put(testKey(8), []byte("counted")); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Backend != "http/pack" {
		t.Fatalf("backend = %q, want http/pack", st.Backend)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

func mustPack(t *testing.T) *PackStore {
	t.Helper()
	p, err := OpenPackStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// getManyServer serves backing over the store protocol, letting mangle
// rewrite each batch-get response body before it is sent.
func getManyServer(t *testing.T, backing Store, mangle func(w http.ResponseWriter, body []byte)) *httptest.Server {
	t.Helper()
	inner := NewStoreHandler(backing, telemetry.NewRegistry())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/store/get" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		mangle(w, rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)
	return srv
}

// putAll stores testKey(i) → vals[i] for every i.
func putAll(t *testing.T, s Store, vals ...string) []string {
	t.Helper()
	keys := make([]string, len(vals))
	for i, v := range vals {
		keys[i] = testKey(100 + i)
		if err := s.Put(keys[i], []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// wantMany checks GetMany's answer key by key; "" means a miss.
func wantMany(t *testing.T, got [][]byte, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("GetMany returned %d values, want %d", len(got), len(want))
	}
	for i, w := range want {
		if w == "" && got[i] != nil || w != "" && string(got[i]) != w {
			t.Errorf("value %d = %q, want %q", i, got[i], w)
		}
	}
}

// TestHTTPStoreGetManyReadYourWrites: entries still in the write-behind
// batch, or in a batch on the wire, answer GetMany without the server.
func TestHTTPStoreGetManyReadYourWrites(t *testing.T) {
	backing := mustPack(t)
	inner := NewStoreHandler(backing, telemetry.NewRegistry())
	shipping, release := make(chan struct{}), make(chan struct{})
	var putDone sync.WaitGroup
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/store/batch" {
			close(shipping)
			<-release
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	h, err := OpenHTTPStore(srv.URL, HTTPStoreOptions{FlushBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)

	pend := putAll(t, h, "pending value")
	wantMany(t, h.GetMany([]string{pend[0]}), "pending value")
	if n := reg.Counter("pipeline.http_gets").Value(); n != 0 {
		t.Fatalf("a pending hit went to the server: http_gets = %d", n)
	}

	// This Put crosses FlushBytes and ships the batch inline; the server
	// holds the batch until released, so both entries are in flight.
	big := strings.Repeat("x", 64)
	putDone.Add(1)
	go func() {
		defer putDone.Done()
		if err := h.Put(testKey(200), []byte(big)); err != nil {
			t.Error(err)
		}
	}()
	<-shipping
	wantMany(t, h.GetMany([]string{pend[0], testKey(200)}), "pending value", big)
	if n := reg.Counter("pipeline.http_gets").Value(); n != 0 {
		t.Fatalf("an in-flight hit went to the server: http_gets = %d", n)
	}
	close(release)
	putDone.Wait()
	wantMany(t, h.GetMany([]string{pend[0], testKey(200)}), "pending value", big)
	if n := reg.Counter("pipeline.http_hits").Value(); n != 2 {
		t.Fatalf("http_hits = %d after the batch landed, want 2", n)
	}
}

// TestHTTPStoreGetManyCorruptEntry: a frame that fails its CRC misses
// its own key only.
func TestHTTPStoreGetManyCorruptEntry(t *testing.T) {
	backing := mustPack(t)
	keys := putAll(t, backing, "first", "second", "third")
	srv := getManyServer(t, backing, func(w http.ResponseWriter, body []byte) {
		f, _ := nextFrame(body)
		f, _ = nextFrame(body[f.size:])
		f.val[0] ^= 0x01
		w.Write(body)
	})
	h, err := OpenHTTPStore(srv.URL, fastHTTPOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)
	wantMany(t, h.GetMany(keys), "first", "", "third")
	if n := reg.Counter("pipeline.store_crc_errors").Value(); n != 1 {
		t.Fatalf("store_crc_errors = %d, want 1", n)
	}
	if n := reg.Counter("pipeline.http_hits").Value(); n != 2 {
		t.Fatalf("http_hits = %d, want 2", n)
	}
}

// TestHTTPStoreGetManyServerDown: with the server unreachable, each key
// goes to the fallback when there is one and misses when there is not.
func TestHTTPStoreGetManyServerDown(t *testing.T) {
	fallback := mustPack(t)
	keys := putAll(t, fallback, "local")
	keys = append(keys, testKey(300))
	for _, fb := range []Store{nil, fallback} {
		h, err := OpenHTTPStore("http://127.0.0.1:1", fastHTTPOpts(fb))
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		h.SetTelemetry(reg)
		got := h.GetMany(keys)
		if fb == nil {
			wantMany(t, got, "", "")
		} else {
			wantMany(t, got, "local", "")
		}
		if n := reg.Counter("pipeline.http_errors").Value(); n != 2 {
			t.Fatalf("fallback %v: http_errors = %d, want one per key", fb != nil, n)
		}
		if n := reg.Histogram("pipeline.http_get_ns").Count(); n != 1 {
			t.Fatalf("fallback %v: %d timed requests, want 1", fb != nil, n)
		}
	}
}

// TestHTTPStoreGetManyOmittedKeyFallback: a key the server does not
// hold is an authoritative miss, which a fallback holding it answers.
func TestHTTPStoreGetManyOmittedKeyFallback(t *testing.T) {
	backing := mustPack(t)
	remote := putAll(t, backing, "remote")
	fallback := mustPack(t)
	if err := fallback.Put(testKey(400), []byte("degraded earlier")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewStoreHandler(backing, telemetry.NewRegistry()))
	defer srv.Close()
	h, err := OpenHTTPStore(srv.URL, fastHTTPOpts(fallback))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)
	wantMany(t, h.GetMany([]string{testKey(400), remote[0], testKey(401)}), "degraded earlier", "remote", "")
	for name, want := range map[string]int64{
		"pipeline.http_gets": 3, "pipeline.http_hits": 1, "pipeline.http_misses": 2,
		"pipeline.http_fallback_gets": 1, "pipeline.http_errors": 0,
	} {
		if n := reg.Counter(name).Value(); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
}

// TestStoreHandlerGetKeyCap: a batch get of more than maxGetKeys keys,
// or of a malformed key, is a 400; one of exactly maxGetKeys is served.
func TestStoreHandlerGetKeyCap(t *testing.T) {
	backing := mustPack(t)
	keys := putAll(t, backing, "capped")
	srv := httptest.NewServer(NewStoreHandler(backing, telemetry.NewRegistry()))
	defer srv.Close()
	post := func(n int, extra string) (int, []byte) {
		t.Helper()
		body := strings.Repeat(keys[0]+"\n", n) + extra
		resp, err := http.Post(srv.URL+"/v1/store/get", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	code, body := post(maxGetKeys, "")
	if code != http.StatusOK {
		t.Fatalf("%d keys: status %d, want 200", maxGetKeys, code)
	}
	if f, ok := nextFrame(body); !ok || !f.intact() || string(f.val) != "capped" || len(body) != maxGetKeys*f.size {
		t.Fatalf("%d keys: %d response bytes, want %d intact frames", maxGetKeys, len(body), maxGetKeys)
	}
	if code, _ := post(maxGetKeys+1, ""); code != http.StatusBadRequest {
		t.Fatalf("%d keys: status %d, want 400", maxGetKeys+1, code)
	}
	if code, _ := post(1, "../etc/passwd\n"); code != http.StatusBadRequest {
		t.Fatalf("bad key: status %d, want 400", code)
	}
}
