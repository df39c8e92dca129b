package pipeline

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// pausedCommit installs a commit hook that parks the first commit with
// its batch in flight until release is closed; entered is closed once
// the commit is parked.
func pausedCommit(p *PackStore) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	p.mu.Lock()
	p.commitHook = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	p.mu.Unlock()
	return entered, release
}

// waitDone reports whether done closes within d.
func waitDone(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestPackCommitOffTheLock pins the group commit's concurrency contract:
// while a batch is being written and fsynced, Puts neither wait for it nor
// lose read-your-writes, a Get of an entry in the batch in flight is
// served from memory, and Flush and Close wait for the commit before
// returning — afterwards every entry is durable across a reopen. GetMany
// reads the batch in flight, the pending tail and the segment alike.
func TestPackCommitOffTheLock(t *testing.T) {
	dir := t.TempDir()
	// No size or interval commits: only the explicit barriers commit.
	p, err := OpenPackStoreWith(dir, PackOptions{FlushBytes: 1 << 30, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	inflight := []byte("in the batch being committed")
	if err := p.Put(testKey(1), inflight); err != nil {
		t.Fatal(err)
	}
	entered, release := pausedCommit(p)
	flushed := make(chan struct{})
	var flushErr error
	go func() {
		flushErr = p.Flush()
		close(flushed)
	}()
	<-entered

	if v, ok := p.Get(testKey(1)); !ok || !bytes.Equal(v, inflight) {
		t.Fatal("entry in the in-flight batch unreadable during its commit")
	}
	put := make(chan struct{})
	pending := []byte("put while a commit is in flight")
	go func() {
		if err := p.Put(testKey(2), pending); err != nil {
			t.Error(err)
		}
		close(put)
	}()
	if !waitDone(put, 5*time.Second) {
		t.Fatal("Put waited for the in-flight commit")
	}
	if v, ok := p.Get(testKey(2)); !ok || !bytes.Equal(v, pending) {
		t.Fatal("entry put during a commit unreadable")
	}
	if vs := p.GetMany([]string{testKey(2), testKey(3), testKey(1)}); !bytes.Equal(vs[0], pending) || vs[1] != nil || !bytes.Equal(vs[2], inflight) {
		t.Fatalf("GetMany during a commit = %q", vs)
	}
	if st := p.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d during commit, want 2", st.Entries)
	}

	closed := make(chan struct{})
	var closeErr error
	go func() {
		closeErr = p.Close()
		close(closed)
	}()
	if waitDone(flushed, 50*time.Millisecond) || waitDone(closed, 50*time.Millisecond) {
		t.Fatal("Flush or Close returned while the commit was still in flight")
	}
	close(release)
	if !waitDone(flushed, 5*time.Second) || !waitDone(closed, 5*time.Second) {
		t.Fatal("Flush or Close did not return after the commit finished")
	}
	if flushErr != nil || closeErr != nil {
		t.Fatalf("flush: %v, close: %v", flushErr, closeErr)
	}

	q, err := OpenPackStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i, want := range [][]byte{inflight, pending} {
		if v, ok := q.Get(testKey(i + 1)); !ok || !bytes.Equal(v, want) {
			t.Fatalf("entry %d not durable after Flush + Close", i+1)
		}
	}
	if vs := q.GetMany([]string{testKey(1), testKey(2)}); !bytes.Equal(vs[0], inflight) || !bytes.Equal(vs[1], pending) {
		t.Fatalf("GetMany after reopen = %q", vs)
	}
}

// TestPackSizeCommitDoesNotBlockPut pins that a Put filling FlushBytes
// hands the commit to the background flusher: with that commit parked in
// flight, further Puts still complete, and the parked batch lands once
// released.
func TestPackSizeCommitDoesNotBlockPut(t *testing.T) {
	p, err := OpenPackStoreWith(t.TempDir(), PackOptions{FlushBytes: 64, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	entered, release := pausedCommit(p)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	if err := p.Put(testKey(1), bytes.Repeat([]byte("x"), 128)); err != nil {
		t.Fatal(err)
	}
	if !waitDone(entered, 5*time.Second) {
		t.Fatal("a full buffer did not start a background commit")
	}
	done := make(chan struct{})
	go func() {
		for i := 2; i < 20; i++ {
			if err := p.Put(testKey(i), bytes.Repeat([]byte("y"), 128)); err != nil {
				t.Error(err)
			}
		}
		close(done)
	}()
	if !waitDone(done, 5*time.Second) {
		t.Fatal("Puts blocked behind the in-flight size commit")
	}
	close(release)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.pending) != 0 || p.inflight != nil {
		t.Fatalf("after Flush: %d bytes pending, in flight %v", len(p.pending), p.inflight != nil)
	}
}
