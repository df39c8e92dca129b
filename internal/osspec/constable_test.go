package osspec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/types"
)

// TestConsTableInternsAndConverges pins the table's core contract: a Put
// followed by a Get of the same (source, key) pair returns the identical
// slice, a racing second Put of the pair converges on the first winner's
// successors, and the counters attribute hits and misses correctly.
func TestConsTableInternsAndConverges(t *testing.T) {
	src := NewOsState(types.DefaultSpec())
	src.Hash()
	src.Freeze()
	tbl := NewConsTable(0)

	lbl := types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}}
	key := LabelKey(lbl)
	if _, ok := tbl.Get(src, key); ok {
		t.Fatal("empty table reported a hit")
	}
	succs := Trans(src, lbl)
	if len(succs) == 0 {
		t.Fatal("mkdir produced no successors")
	}
	won := tbl.Put(src, key, succs)
	if len(won) != len(succs) || won[0] != succs[0] {
		t.Fatal("first Put did not intern its own successors")
	}
	for _, ns := range won {
		if !ns.frozen {
			t.Fatal("Put published an unfrozen successor")
		}
		if !ns.hvOK {
			t.Fatal("Put published an unhashed successor")
		}
	}
	got, ok := tbl.Get(src, key)
	if !ok || got[0] != succs[0] {
		t.Fatal("Get did not return the interned slice")
	}
	// A racing loser must converge on the winner's objects, not keep its
	// own equal-but-distinct recomputation.
	dup := Trans(src, lbl)
	if again := tbl.Put(src, key, dup); again[0] != succs[0] {
		t.Fatal("second Put kept the loser's successors")
	}
	st := tbl.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if st.Retained != len(succs) {
		t.Fatalf("retained %d states, want %d", st.Retained, len(succs))
	}
}

// TestConsTableEpochReset pins the memory bound: once retained successors
// would pass the cap, the table drops the whole epoch, so live heap
// objects held by the table never exceed cap plus one fan-out.
func TestConsTableEpochReset(t *testing.T) {
	src := NewOsState(types.DefaultSpec())
	src.Hash()
	src.Freeze()
	const cap = 4
	tbl := NewConsTable(cap)
	// Distinct labels produce distinct entries from the same source.
	paths := []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"}
	maxFan := 0
	for _, p := range paths {
		lbl := types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: p, Perm: 0o755}}
		succs := Trans(src, lbl)
		if len(succs) > maxFan {
			maxFan = len(succs)
		}
		tbl.Put(src, LabelKey(lbl), succs)
		if got := tbl.Stats().Retained; got > cap+maxFan {
			t.Fatalf("retained %d states, cap %d + fan-out %d", got, cap, maxFan)
		}
	}
	st := tbl.Stats()
	if st.Resets == 0 {
		t.Fatalf("no epoch reset after %d puts against cap %d", len(paths), cap)
	}
	// The shard-boundary hook empties the table unconditionally.
	tbl.Reset()
	if st := tbl.Stats(); st.Retained != 0 {
		t.Fatalf("Reset left %d retained states", st.Retained)
	}
	if _, ok := tbl.Get(src, LabelKey(types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}})); ok {
		t.Fatal("Reset left an entry behind")
	}
}

// TestLabelKeyInjectiveAcrossKinds spot-checks the type-tag discipline:
// labels of different kinds can never share a key, and the τ-expansion
// sentinel cannot collide with any rendered label.
func TestLabelKeyInjectiveAcrossKinds(t *testing.T) {
	keys := map[string]string{}
	for name, lbl := range map[string]types.Label{
		"call":    types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}},
		"ret":     types.ReturnLabel{Pid: 1, Ret: types.RvNone{}},
		"tau":     types.TauLabel{},
		"create":  types.CreateLabel{Pid: 2, Uid: 0, Gid: 0},
		"destroy": types.DestroyLabel{Pid: 2},
	} {
		k := LabelKey(lbl)
		if k == tauExpandKey {
			t.Fatalf("%s label collides with the τ-expansion sentinel", name)
		}
		if prev, dup := keys[k]; dup {
			t.Fatalf("labels %s and %s share key %q", prev, name, k)
		}
		keys[k] = name
	}
}

// distinctSources returns frozen, hashed states that are distinct
// objects (the table keys by pointer), enough to cover every shard.
func distinctSources(n int) []*OsState {
	base := NewOsState(types.DefaultSpec())
	base.Hash()
	base.Freeze()
	out := make([]*OsState, n)
	for i := range out {
		s := base.Clone()
		s.Hash()
		s.Freeze()
		out[i] = s
	}
	return out
}

// TestConsTableShardEpochReset pins that the retention cap is enforced per
// shard: overfilling one shard resets that shard alone, and entries held
// by the other shards survive.
func TestConsTableShardEpochReset(t *testing.T) {
	const cap = 4 * consShards // 4 states per shard
	tbl := NewConsTable(cap)
	srcs := distinctSources(64 * consShards)
	lbl := types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}}
	key := LabelKey(lbl)
	succs := Trans(srcs[0], lbl)

	// One entry in every shard, then overfill the shard of srcs[0].
	byShard := map[*consShard][]*OsState{}
	for _, s := range srcs {
		byShard[tbl.shard(s)] = append(byShard[tbl.shard(s)], s)
	}
	if len(byShard) != consShards {
		t.Fatalf("%d sources reached only %d of %d shards", len(srcs), len(byShard), consShards)
	}
	hot := tbl.shard(srcs[0])
	var others []*OsState
	for sh, ss := range byShard {
		if sh != hot {
			tbl.Put(ss[0], key, succs)
			others = append(others, ss[0])
		}
	}
	for _, s := range byShard[hot] {
		tbl.Put(s, key, succs)
	}
	st := tbl.Stats()
	if st.Resets == 0 {
		t.Fatal("overfilling one shard never reset it")
	}
	for _, s := range others {
		if _, ok := tbl.Get(s, key); !ok {
			t.Fatal("a reset of one shard dropped another shard's entry")
		}
	}
	if st.Retained > cap+len(succs)*consShards {
		t.Fatalf("retained %d states against cap %d", st.Retained, cap)
	}
}

// TestConsTableConcurrentShards hammers Get/Put across every shard from
// several goroutines, with a cap small enough that shards keep resetting,
// under the race detector. Every hit must return the slice interned for
// that very pair, and the counters must account for every Get.
func TestConsTableConcurrentShards(t *testing.T) {
	tbl := NewConsTable(2 * consShards)
	srcs := distinctSources(4 * consShards)
	lbls := []types.Label{
		types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}},
		types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: "/b", Perm: 0o700}},
		types.CallLabel{Pid: InitialPid, Cmd: types.Rmdir{Path: "/a"}},
	}
	// owner records which (source, label) each interned slice belongs
	// to, via its first successor's identity.
	var mu sync.Mutex
	owner := map[*OsState]string{}
	const workers, rounds = 4, 300
	var wg sync.WaitGroup
	var gets atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				src := srcs[(w*7+i*5)%len(srcs)]
				lbl := lbls[(w+i)%len(lbls)]
				key := LabelKey(lbl)
				pair := fmt.Sprintf("%p|%s", src, key)
				gets.Add(1)
				succs, ok := tbl.Get(src, key)
				if !ok {
					succs = tbl.Put(src, key, Trans(src, lbl))
				}
				if len(succs) == 0 {
					continue
				}
				mu.Lock()
				if prev, seen := owner[succs[0]]; seen && prev != pair {
					mu.Unlock()
					t.Errorf("pair %s was served pair %s's successors", pair, prev)
					return
				}
				owner[succs[0]] = pair
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	st := tbl.Stats()
	if st.Hits+st.Misses != gets.Load() {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, gets.Load())
	}
	if st.Hits == 0 || st.Resets == 0 {
		t.Fatalf("hits %d, resets %d: the test exercised neither replay nor epoch resets", st.Hits, st.Resets)
	}
}

// TestLabelTextIsLabelString pins that the text LabelText slices out of a
// key is exactly the label's rendering, for every label kind — the
// checker prints it in checked traces in place of a second String().
func TestLabelTextIsLabelString(t *testing.T) {
	for _, lbl := range []types.Label{
		types.CallLabel{Pid: 3, Cmd: types.Open{Path: "/a b\"c", Flags: types.OCreat | types.ORdwr, Perm: 0o644, HasPerm: true}},
		types.ReturnLabel{Pid: 1, Ret: types.RvNone{}},
		types.ReturnLabel{Pid: 2, Ret: types.RvBytes{Data: []byte("x\ny")}},
		types.TauLabel{},
		types.CreateLabel{Pid: 2, Uid: 5, Gid: 6},
		types.DestroyLabel{Pid: 2},
		types.CrashLabel{Keep: 3},
	} {
		if got, want := LabelText(lbl, LabelKey(lbl)), lbl.String(); got != want {
			t.Errorf("LabelText = %q, want %q", got, want)
		}
	}
	if LabelKey(types.CrashLabel{Keep: 1}) != LabelKey(types.CrashLabel{Keep: 2}) {
		t.Error("crash keys differ by keep count")
	}
}
