package pipeline

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestNextFrameTorn: every proper prefix of a frame is torn, and a whole
// frame decodes to what was encoded.
func TestNextFrameTorn(t *testing.T) {
	key, val := testKey(1), []byte("a value")
	buf := appendFrame(nil, key, val)
	for n := 0; n < len(buf); n++ {
		if _, ok := nextFrame(buf[:n]); ok {
			t.Fatalf("prefix of %d/%d bytes decoded as a frame", n, len(buf))
		}
	}
	f, ok := nextFrame(append(buf, 0xff))
	if !ok || !f.intact() || string(f.key) != key || !bytes.Equal(f.val, val) || f.size != len(buf) {
		t.Fatalf("nextFrame = %+v, %v", f, ok)
	}
	buf[len(buf)-1] ^= 0x01
	if f, ok := nextFrame(buf); !ok || f.intact() {
		t.Fatal("a flipped value bit left the frame intact")
	}
}

// storeFrameSeeds returns frames as the store really writes them: the
// body of a pack segment after its magic, and the body of a write-behind
// batch as HTTPStore ships it.
func storeFrameSeeds(t testing.TB, dir string) (segment, batch []byte) {
	rec := Record{Key: testKey(7), Name: "seed___rename", Accepted: true, Steps: 3, Checked: "@type trace\n"}
	frame, _ := frameRecord(&rec)
	vals := [][]byte{frame, []byte("raw blob"), {}}

	p, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if err := p.Put(testKey(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "000001.seg"))
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/store/batch" {
			batch, _ = io.ReadAll(r.Body)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	h, err := OpenHTTPStore(srv.URL, HTTPStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		h.Put(testKey(i), v)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	return seg[len(packMagic):], batch
}

// FuzzStoreFrames fuzzes the frame decoder every segment scan, batch put
// and batch get goes through. Properties: no panic, decoding stays inside
// its input, and every frame it accepts re-encodes to the same bytes — all
// of them when the frame is intact, all but the CRC when it is not.
func FuzzStoreFrames(f *testing.F) {
	segment, batch := storeFrameSeeds(f, f.TempDir())
	for _, seed := range [][]byte{segment, batch} {
		n := 0
		for rest := seed; ; n++ {
			fr, ok := nextFrame(rest)
			if !ok || !fr.intact() {
				break
			}
			rest = rest[fr.size:]
		}
		if n != 3 {
			f.Fatalf("seed holds %d intact frames, want 3", n)
		}
	}
	f.Add(segment)
	f.Add(batch)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for rest := data; ; {
			fr, ok := nextFrame(rest)
			if !ok {
				return
			}
			if fr.size <= frameHeaderLen || fr.size > len(rest) {
				t.Fatalf("frame of %d bytes from %d", fr.size, len(rest))
			}
			enc := appendFrame(nil, string(fr.key), fr.val)
			if fr.intact() && !bytes.Equal(enc, rest[:fr.size]) {
				t.Fatalf("intact frame re-encodes to %x, read from %x", enc, rest[:fr.size])
			}
			if !bytes.Equal(enc[4:], rest[4:fr.size]) {
				t.Fatalf("frame re-encodes to %x, read from %x", enc, rest[:fr.size])
			}
			rest = rest[fr.size:]
		}
	})
}
