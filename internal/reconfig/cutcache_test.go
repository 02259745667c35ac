package reconfig

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/partition"
)

// richHandler compiles the two-transform image handler, whose branching
// PSE ladder has more convex cuts than any other fixture.
func richHandler(t *testing.T) *partition.Compiled {
	t.Helper()
	unit := imaging.RichHandlerUnit(100)
	prog, _ := unit.Program(imaging.RichHandlerName)
	classes, err := unit.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := imaging.Builtins()
	c, err := partition.Compile(prog, classes, oracle, costmodel.NewDataSize())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomStats profiles every PSE with random sizes and work.
func randomStats(c *partition.Compiled, rng *rand.Rand) map[int32]costmodel.Stat {
	stats := make(map[int32]costmodel.Stat, c.NumPSEs())
	for id := int32(0); id < int32(c.NumPSEs()); id++ {
		stats[id] = costmodel.Stat{
			Count:     10,
			Prob:      1,
			Bytes:     float64(1 + rng.Intn(100000)),
			ModWork:   float64(rng.Intn(50000)),
			DemodWork: float64(rng.Intn(50000)),
		}
	}
	return stats
}

func cloneCuts(cuts [][]int32) [][]int32 {
	out := make([][]int32, len(cuts))
	for i, c := range cuts {
		out[i] = slices.Clone(c)
	}
	return out
}

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// TestSelectPlanReusesCutsAllocs: the candidate cuts are enumerated on the
// first selection only, so a second selection on unchanged statistics
// allocates strictly less than the first — by at least what one
// enumeration costs.
func TestSelectPlanReusesCutsAllocs(t *testing.T) {
	c := richHandler(t)
	stats := randomStats(c, rand.New(rand.NewSource(1)))
	u := NewUnit(c, costmodel.DefaultEnvironment())
	selectOnce := func() {
		if _, _, err := u.SelectPlan(stats); err != nil {
			t.Fatal(err)
		}
	}
	first := mallocs(selectOnce)
	second := mallocs(selectOnce)
	enumeration := mallocs(func() { u.enumerateCuts(DefaultMaxCandidates) })
	t.Logf("allocs: first selection %d, second %d, one enumeration %d", first, second, enumeration)
	if second >= first || second+enumeration > first {
		t.Errorf("second selection allocated %d, first %d; want at most first minus one enumeration (%d)",
			second, first, enumeration)
	}
}

// TestBalancedCutMissingLeavesCacheUnchanged: when the scalar min-cut is
// not among the enumerated candidates, buildFront appends it to its view of
// the cuts — which must copy, never write into the cache's spare capacity.
func TestBalancedCutMissingLeavesCacheUnchanged(t *testing.T) {
	c := richHandler(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		stats := randomStats(c, rng)
		u := NewUnit(c, costmodel.DefaultEnvironment())
		u.MaxCandidates = 2
		cached := u.candidateCuts(2)
		// Give the cache spare capacity, so an append that failed to copy
		// would land in it.
		u.cuts = append(make([][]int32, 0, len(cached)+4), cached...)
		want := cloneCuts(u.cuts)
		if _, _, err := u.SelectPlan(stats); err != nil {
			t.Fatal(err)
		}
		ex := u.LastExplanation()
		bal := ex.Front[slices.IndexFunc(ex.Front, func(p FrontPoint) bool { return p.Balanced })].Cut
		if containsCut(want, bal) {
			continue
		}
		if !reflect.DeepEqual(u.cuts, want) {
			t.Fatalf("trial %d: cache changed to %v, want %v", trial, u.cuts, want)
		}
		for i, spare := range u.cuts[len(u.cuts):cap(u.cuts)] {
			if spare != nil {
				t.Fatalf("trial %d: balanced cut %v written into cache spare slot %d", trial, spare, i)
			}
		}
		return
	}
	t.Fatal("no trial had a balanced cut outside the first 2 candidates")
}

// TestMaxCandidatesChangeReenumerates: the cache is keyed by the cap, so
// changing MaxCandidates between selections re-enumerates.
func TestMaxCandidatesChangeReenumerates(t *testing.T) {
	c := richHandler(t)
	u := NewUnit(c, costmodel.DefaultEnvironment())
	u.MaxCandidates = 2
	if _, _, err := u.InitialPlan(); err != nil {
		t.Fatal(err)
	}
	if u.cutsMax != 2 || len(u.cuts) > 2 {
		t.Fatalf("cap 2: cached %d cuts under cap %d", len(u.cuts), u.cutsMax)
	}
	u.MaxCandidates = 0
	if _, _, err := u.InitialPlan(); err != nil {
		t.Fatal(err)
	}
	if u.cutsMax != DefaultMaxCandidates || len(u.cuts) <= 2 {
		t.Fatalf("default cap: cached %d cuts under cap %d", len(u.cuts), u.cutsMax)
	}
	if want := u.enumerateCuts(DefaultMaxCandidates); !reflect.DeepEqual(u.cuts, want) {
		t.Errorf("cached cuts %v, fresh enumeration %v", u.cuts, want)
	}
}

// TestLongLivedUnitMatchesFreshUnit: over a sequence of statistics and
// policies, a Unit reusing its cached cuts builds exactly the front a fresh
// Unit builds.
func TestLongLivedUnitMatchesFreshUnit(t *testing.T) {
	c := richHandler(t)
	rng := rand.New(rand.NewSource(11))
	policies := []SLOPolicy{Balanced, LatencyFirst, CostFirst, ReceiverWeak}
	long := NewUnit(c, costmodel.DefaultEnvironment())
	for trial := 0; trial < 60; trial++ {
		stats := randomStats(c, rng)
		policy := policies[trial%len(policies)]
		long.Policy = policy
		fresh := NewUnit(c, costmodel.DefaultEnvironment())
		fresh.Policy = policy
		if _, _, err := long.SelectPlan(stats); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fresh.SelectPlan(stats); err != nil {
			t.Fatal(err)
		}
		got, want := long.LastExplanation(), fresh.LastExplanation()
		if !reflect.DeepEqual(got.Front, want.Front) || got.Chosen != want.Chosen {
			t.Fatalf("trial %d (%v): long-lived front %v chosen %d, fresh %v chosen %d",
				trial, policy, got.Front, got.Chosen, want.Front, want.Chosen)
		}
	}
}
