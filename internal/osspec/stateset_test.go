package osspec

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

// refSet is the map-only dedup set StateSet replaced: buckets by Hash,
// confirmed by StateEqual, no inline slice.
type refSet map[uint64][]*OsState

func (r refSet) add(s *OsState) bool {
	h := s.Hash()
	for _, t := range r[h] {
		if StateEqual(t, s) {
			return false
		}
	}
	r[h] = append(r[h], s)
	return true
}

// collidingStates returns n pairwise-distinct states (they differ in the
// initial process's umask) whose hashes are forced into `classes`
// values: the memoised non-heap hash is overwritten, and the states share
// one heap, so Hash collides while StateEqual still tells them apart.
func collidingStates(n, classes int) []*OsState {
	base := NewOsState(types.DefaultSpec())
	base.Hash()
	base.Freeze()
	out := make([]*OsState, n)
	for i := range out {
		s := base.Clone()
		s.mutProc(InitialPid).Umask = types.Perm(i)
		s.hv, s.hvOK = uint64(i%classes), true
		out[i] = s
	}
	return out
}

// TestStateSetCollisionsAcrossSpill forces hash collisions on both sides
// of the inline-slice/bucket-map boundary, re-adds equal clones, and
// repeats after Reset: every Add must answer exactly as the map-only set
// does, and Len must match its membership count.
func TestStateSetCollisionsAcrossSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := NewStateSet(0)
	for round := 0; round < 6; round++ {
		// Sizes straddle smallSetMax: some rounds never spill, some do.
		n := []int{3, smallSetMax, smallSetMax + 1, 3 * smallSetMax, 1, 40}[round]
		pool := collidingStates(n, 1+round%3)
		ref := refSet{}
		for i := 0; i < 3*n; i++ {
			s := pool[rng.Intn(n)]
			if rng.Intn(2) == 0 {
				// An equal-but-distinct object: same hash, StateEqual.
				c := s.Clone()
				c.hv, c.hvOK = s.hv, true
				s = c
			}
			if got, want := set.Add(s), ref.add(s); got != want {
				t.Fatalf("round %d add %d: StateSet.Add=%v, map-only set says %v", round, i, got, want)
			}
		}
		members := 0
		for _, b := range ref {
			members += len(b)
		}
		if set.Len() != members {
			t.Fatalf("round %d: Len %d, map-only set holds %d", round, set.Len(), members)
		}
		set.Reset()
		if set.Len() != 0 {
			t.Fatalf("round %d: Len %d after Reset", round, set.Len())
		}
		// Nothing from the last round may survive the Reset.
		for _, s := range pool {
			if !set.Add(s) {
				t.Fatalf("round %d: state survived Reset", round)
			}
		}
		set.Reset()
	}
}

// TestStateSetResetDropsReferences checks that Reset releases the inline
// slice's state pointers (the checker pools its scratch sets, and a
// pooled set must not pin a finished trace's states).
func TestStateSetResetDropsReferences(t *testing.T) {
	set := NewStateSet(0)
	for _, s := range collidingStates(smallSetMax, smallSetMax) {
		set.Add(s)
	}
	set.Reset()
	for i, e := range set.small[:cap(set.small)] {
		if e.s != nil {
			t.Fatalf("inline slot %d still references a state after Reset", i)
		}
	}
}
