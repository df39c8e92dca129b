package osspec

import (
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/types"
)

// ConsTable memoises transition fan-outs across traces. The key observation
// (ROADMAP item 5): every combinatorial script opens with the identical
// fixture prelude, so the same states recur suite-wide — the per-trace
// hash-cons tables recompute the same clones and digests tens of thousands
// of times per run. The table interns the successor set of a (source state,
// label) pair once per run and replays it for every later trace that
// reaches the same state.
//
// Entries are keyed by the source state's *pointer identity*, not by
// StateEqual: StateEqual deliberately ignores fields Trans depends on
// (pending commands, allocation counters, descriptor capability flags,
// LastSeen snapshots — ignorable within one trace, where merged states
// never differ in them, but not across traces). Pointer identity makes a
// replay trivially sound — it is Trans applied to that very object — and
// still captures the suite-wide sharing: the checker publishes one initial
// state per run, interned successors feed back into every trace's state
// set, so all traces walk the same object graph along shared script
// prefixes and divergence re-interns fresh objects at the first new label.
//
// Concurrency: safe for concurrent use. Successor states are published
// only hashed and frozen (Hash() then Freeze()), after which Hash,
// StateEqual and Clone on them are pure reads. Callers must treat returned
// successor slices as immutable. The table is split into consShards
// shards keyed by the source pointer, each with its own lock, counters
// and share of the retention cap, so checker workers rarely meet on a
// lock or a contended cache line.
//
// Memory is bounded by a per-shard epoch reset: once a shard's retained
// states would pass its cap the whole shard is cleared (the shared
// initial state lives outside the table, so the next trace re-seeds the
// hot fixture prefix within a few steps — a reset costs one trace's worth
// of recomputation, not a run's).
type ConsTable struct {
	shards [consShards]consShard
}

// consShards is the number of independently locked shards; a power of
// two so the shard index is the top bits of the mixed source pointer.
const (
	consShardBits = 4
	consShards    = 1 << consShardBits
)

type consShard struct {
	mu sync.Mutex
	m  map[consKey][]*OsState
	// retained counts the *OsState pointers the shard keeps alive (the
	// interned successors); the epoch reset triggers when it passes cap.
	retained int
	cap      int

	hits, misses, resets int64

	_ [64]byte // keep neighbouring shards' locks off one cache line
}

type consKey struct {
	src *OsState
	lbl string
}

// DefaultConsCap bounds the states a ConsTable may retain before an epoch
// reset. 64k states is ~tens of MB of copy-on-write structure — far above
// what one suite's shared fixture prefix needs, far below a leak.
const DefaultConsCap = 1 << 16

// NewConsTable returns an empty table; maxStates ≤ 0 selects
// DefaultConsCap. The cap is divided among the shards (their caps sum to
// maxStates).
func NewConsTable(maxStates int) *ConsTable {
	if maxStates <= 0 {
		maxStates = DefaultConsCap
	}
	t := &ConsTable{}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.m = make(map[consKey][]*OsState)
		sh.cap = maxStates / consShards
		if i < maxStates%consShards {
			sh.cap++
		}
	}
	return t
}

// shard picks src's shard: a multiplicative mix of the pointer, so states
// allocated next to each other still spread across shards.
func (t *ConsTable) shard(src *OsState) *consShard {
	h := uint64(uintptr(unsafe.Pointer(src))) * 0x9e3779b97f4a7c15
	return &t.shards[h>>(64-consShardBits)]
}

// Get returns the interned successors of (src, key) and whether the pair
// was present.
func (t *ConsTable) Get(src *OsState, key string) ([]*OsState, bool) {
	sh := t.shard(src)
	sh.mu.Lock()
	succs, ok := sh.m[consKey{src, key}]
	if ok {
		sh.hits++
	} else {
		sh.misses++
	}
	sh.mu.Unlock()
	return succs, ok
}

// Put interns succs as the fan-out of (src, key), hashing and freezing
// every successor first (the publication protocol that makes later shared
// reads race-free), and returns the canonical slice: when a concurrent Put
// of the same pair won the race, the winner's (identical) successors are
// returned so every caller converges on the same interned objects. src
// must already be frozen.
func (t *ConsTable) Put(src *OsState, key string, succs []*OsState) []*OsState {
	for _, ns := range succs {
		ns.Hash()
		ns.Freeze()
	}
	k := consKey{src, key}
	sh := t.shard(src)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if won, dup := sh.m[k]; dup {
		return won
	}
	if sh.retained+len(succs) > sh.cap && sh.retained > 0 {
		// Epoch reset: drop the shard rather than evict piecemeal. It
		// regrows from the live frontier within one trace.
		sh.m = make(map[consKey][]*OsState)
		sh.retained = 0
		sh.resets++
	}
	sh.m[k] = succs
	sh.retained += len(succs)
	return succs
}

// Reset clears the table to an empty epoch (the shard boundary hook). It
// counts as one reset however many shards held entries.
func (t *ConsTable) Reset() {
	cleared := false
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if sh.retained > 0 || len(sh.m) > 0 {
			sh.m = make(map[consKey][]*OsState)
			sh.retained = 0
			cleared = true
		}
		sh.mu.Unlock()
	}
	if cleared {
		sh := &t.shards[0]
		sh.mu.Lock()
		sh.resets++
		sh.mu.Unlock()
	}
}

// ConsStats is a snapshot of a table's effectiveness counters.
type ConsStats struct {
	Hits, Misses, Resets int64
	Retained             int
}

// Stats snapshots the table's counters, summed over the shards
// (telemetry; never affects results).
func (t *ConsTable) Stats() ConsStats {
	var st ConsStats
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Resets += sh.resets
		st.Retained += sh.retained
		sh.mu.Unlock()
	}
	return st
}

// tauExpandKey is the ConsTable key for the whole-state τ expansion
// (expandOne: every calling pid's fan-out, concatenated in pid order).
// NUL-prefixed so it can never collide with a rendered label key.
const tauExpandKey = "\x00tau*"

// LabelKey renders lbl as a ConsTable key: a one-byte kind tag followed
// by the label's trace-syntax rendering (lbl.String()). The tag keeps the
// key space injective across label kinds even where the renderings could
// overlap; the text after it is the very line a checked trace prints for
// the label (see LabelText), so the checker renders each step's label
// once for both uses.
func LabelKey(lbl types.Label) string {
	switch l := lbl.(type) {
	case types.CallLabel:
		// Spelled out (one concatenation instead of two); must equal
		// "c" + l.String().
		return "c" + strconv.Itoa(int(l.Pid)) + ": " + l.Cmd.String()
	case types.ReturnLabel:
		return "r" + strconv.Itoa(int(l.Pid)) + ": " + l.Ret.String()
	case types.TauLabel:
		return "t" + l.String()
	case types.CreateLabel:
		return "n" + l.String()
	case types.DestroyLabel:
		return "d" + l.String()
	case types.CrashLabel:
		// One key for every keep count: the oracle ignores Keep (it admits
		// the whole crash-state set), so the fan-outs are identical.
		return "x"
	}
	return "?" + lbl.String()
}

// LabelText returns lbl.String() given key = LabelKey(lbl): the key's text
// after its tag, with no second rendering. Crash keys carry no text (they
// drop the keep count), so crash labels are rendered afresh.
func LabelText(lbl types.Label, key string) string {
	if _, ok := lbl.(types.CrashLabel); ok {
		return lbl.String()
	}
	return key[1:]
}
