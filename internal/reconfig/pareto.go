package reconfig

import (
	"fmt"
	"slices"
	"strings"

	"methodpart/internal/analysis"
	"methodpart/internal/costmodel"
	"methodpart/internal/graph"
	"methodpart/internal/partition"
)

func edgeOf(a, b int) analysis.Edge { return analysis.Edge{From: a, To: b} }

// SLOPolicy names the service-level objective a channel optimises for when
// picking its operating point off the Pareto front. The zero value is
// Balanced, which reproduces the pre-front behavior exactly: the scalarized
// min-cut under the channel's cost model. Existing deployments that never
// set a policy therefore keep selecting the same plans.
type SLOPolicy int

const (
	// Balanced is the default (zero value): take the cut the scalar
	// max-flow/min-cut picks under the channel's cost model, i.e. the
	// selection every release before the Pareto engine made.
	Balanced SLOPolicy = iota
	// LatencyFirst minimises the expected end-to-end latency estimate
	// (sender work + link set-up + transmission + receiver work), breaking
	// ties toward fewer bytes.
	LatencyFirst
	// CostFirst minimises expected bytes on the wire, breaking ties toward
	// lower latency. On metered or congested links this is the operating
	// point the data-size model approximates.
	CostFirst
	// ReceiverWeak minimises the receiver's energy proxy (radio bytes plus
	// demodulator work, weighted like the energy cost model's defaults) —
	// for channels whose subscriber is the battery-powered weak device of
	// §5.1.
	ReceiverWeak
)

// policyNames is the canonical wire/CLI spelling of each policy.
var policyNames = map[SLOPolicy]string{
	Balanced:     "balanced",
	LatencyFirst: "latency-first",
	CostFirst:    "cost-first",
	ReceiverWeak: "receiver-weak",
}

// String returns the policy's canonical name ("balanced", "latency-first",
// "cost-first", "receiver-weak"); unknown values render as policy(N).
func (p SLOPolicy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseSLOPolicy maps a policy name (as accepted on CLIs and configs) to
// its SLOPolicy. The empty string parses to Balanced so an unset knob keeps
// the legacy behavior.
func ParseSLOPolicy(name string) (SLOPolicy, error) {
	if name == "" {
		return Balanced, nil
	}
	for p, s := range policyNames {
		if s == name {
			return p, nil
		}
	}
	return Balanced, fmt.Errorf("reconfig: unknown SLO policy %q (want %s)", name, strings.Join(PolicyNames(), ", "))
}

// PolicyNames lists the accepted policy spellings in a stable order.
func PolicyNames() []string {
	return []string{"balanced", "latency-first", "cost-first", "receiver-weak"}
}

// DefaultMaxCandidates bounds the convex-cut enumeration behind the Pareto
// front when Unit.MaxCandidates is 0. Handlers small enough to partition
// have few convex cuts; 64 covers every fixture in this repo with room to
// spare while keeping pathological graphs from blowing up a selection.
const DefaultMaxCandidates = 64

// FrontPoint is one operating point on the Pareto front: a valid convex cut
// with its cost vector and the scalar capacity the balanced model assigns
// it. The point produced by the scalar min-cut is pinned to the front
// (Balanced=true) even where another point dominates it, so operators
// always see the legacy choice alongside the front.
type FrontPoint struct {
	// Cut is the split set (sorted PSE ids).
	Cut []int32
	// Vec is the cut's cost vector (sum of its PSE vectors).
	Vec costmodel.Vector
	// CutValue is the scalar capacity of the cut under the channel's cost
	// model, with the breaker overlay applied.
	CutValue int64
	// Balanced marks the scalar min-cut's point.
	Balanced bool
	// Chosen marks the point the active policy selected.
	Chosen bool
}

// nodeSet is a bitset over Unit Graph nodes.
type nodeSet []uint64

func newNodeSet(n int) nodeSet   { return make(nodeSet, (n+63)/64) }
func (s nodeSet) has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }
func (s nodeSet) add(i int)      { s[i/64] |= 1 << uint(i%64) }
func (s nodeSet) clone() nodeSet { return append(nodeSet(nil), s...) }

// candidateCuts returns the candidate convex cuts for a selection capped at
// max. They depend only on the compiled graph, so they are enumerated once
// per Unit and again only when the cap changes. The returned view has
// len == cap, so appending to it (buildFront adds the balanced cut when the
// enumeration missed it) copies instead of writing into the cache.
func (u *Unit) candidateCuts(max int) [][]int32 {
	if u.cuts == nil || u.cutsMax != max {
		u.cuts = u.enumerateCuts(max)
		u.cutsMax = max
	}
	return u.cuts[:len(u.cuts):len(u.cuts)]
}

// enumerateCuts lists candidate convex cuts of the Unit Graph, each as a
// sorted PSE id set. A candidate is the PSE frontier of a "closed" source
// set S: closed under non-PSE edges (so the cut never crosses an uncuttable
// edge) and containing no StopNode (so no modulator-side path leaks past
// the cut — the same invariant partition.ValidateSplitSet checks). The
// enumeration BFSes from the minimal closed set, advancing one frontier PSE
// at a time, and stops after max candidates. The raw cut {RawPSEID} is
// always the first candidate.
func (u *Unit) enumerateCuts(max int) [][]int32 {
	ug := u.c.Analysis.UG
	n := ug.Exit + 1
	stops := u.c.Analysis.Stops

	// closure grows S along non-PSE edges; returns false if a StopNode
	// joins S (no valid cut separates this source set from the stops).
	closure := func(s nodeSet) bool {
		work := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if s.has(i) {
				work = append(work, i)
			}
		}
		for len(work) > 0 {
			a := work[len(work)-1]
			work = work[:len(work)-1]
			if stops[a] {
				return false
			}
			for _, b := range ug.G.Succ(a) {
				if s.has(b) {
					continue
				}
				if _, isPSE := u.c.PSEByEdge(edgeOf(a, b)); isPSE {
					continue
				}
				s.add(b)
				work = append(work, b)
			}
		}
		return true
	}

	// frontier returns the PSE ids crossing out of S, sorted.
	frontier := func(s nodeSet) []int32 {
		seen := map[int32]bool{}
		var ids []int32
		for a := 0; a < n; a++ {
			if !s.has(a) {
				continue
			}
			for _, b := range ug.G.Succ(a) {
				if s.has(b) {
					continue
				}
				if id, ok := u.c.PSEByEdge(edgeOf(a, b)); ok && !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
		}
		return partition.SortedIDs(ids)
	}

	cuts := [][]int32{{partition.RawPSEID}}

	s0 := newNodeSet(n)
	s0.add(ug.Start)
	if !closure(s0) {
		return cuts
	}
	queue := []nodeSet{s0}
	// Source sets dedupe by their bitset words. Enumeration runs once per
	// Unit, so a linear scan is cheap enough.
	setSeen := []nodeSet{s0}

	for len(queue) > 0 && len(cuts) < max {
		s := queue[0]
		queue = queue[1:]
		cut := frontier(s)
		if len(cut) > 0 && !containsCut(cuts, cut) {
			cuts = append(cuts, cut)
		}
		// Advance across each frontier PSE edge in turn.
		for a := 0; a < n; a++ {
			if !s.has(a) {
				continue
			}
			for _, b := range ug.G.Succ(a) {
				if s.has(b) {
					continue
				}
				if _, ok := u.c.PSEByEdge(edgeOf(a, b)); !ok {
					continue
				}
				next := s.clone()
				next.add(b)
				if !closure(next) {
					continue
				}
				if !slices.ContainsFunc(setSeen, func(t nodeSet) bool { return slices.Equal(t, next) }) {
					setSeen = append(setSeen, next)
					queue = append(queue, next)
				}
			}
		}
	}
	return cuts
}

// vectorFor is the per-PSE cost vector: profiled where statistics exist,
// the static estimate otherwise (mirroring Capacity's fallback).
func (u *Unit) vectorFor(id int32, stats map[int32]costmodel.Stat, env costmodel.Environment) costmodel.Vector {
	if st, ok := stats[id]; ok && st.Count > 0 {
		return costmodel.PSEVector(st, env)
	}
	pse, ok := u.c.PSE(id)
	if !ok {
		return costmodel.Vector{}
	}
	return costmodel.StaticVector(pse.Static, env)
}

// buildFront takes the candidate cuts, prices each as a cost vector,
// drops dominated points and candidates priced out by the breaker overlay
// (any tripped member pushes the scalar value to InfCapacity), and pins the
// balanced min-cut's point. It returns the front sorted deterministically
// (bytes, then latency, then cut) and the index of the balanced point.
func (u *Unit) buildFront(stats map[int32]costmodel.Stat, env costmodel.Environment, balCut []int32, balValue int64) ([]FrontPoint, int) {
	max := u.MaxCandidates
	if max <= 0 {
		max = DefaultMaxCandidates
	}
	cuts := u.candidateCuts(max)
	if !containsCut(cuts, balCut) {
		cuts = append(cuts, balCut)
	}

	points := make([]FrontPoint, 0, len(cuts))
	for _, cut := range cuts {
		var value int64
		var vec costmodel.Vector
		for _, id := range cut {
			value += u.capacityFor(id, stats, env)
			vec = vec.Add(u.vectorFor(id, stats, env))
		}
		bal := equalCut(cut, balCut)
		if bal {
			value = balValue
		}
		if value >= graph.InfCapacity && !bal {
			continue // contains a tripped PSE; priced out
		}
		points = append(points, FrontPoint{Cut: cut, Vec: vec, CutValue: value, Balanced: bal})
	}

	front := points[:0:0]
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && q.Vec.Dominates(p.Vec) {
				dominated = true
				break
			}
		}
		if !dominated || p.Balanced {
			front = append(front, p)
		}
	}
	slices.SortFunc(front, func(a, b FrontPoint) int {
		if frontLess(a, b) {
			return -1
		}
		if frontLess(b, a) {
			return 1
		}
		return 0
	})
	balIdx := 0
	for i := range front {
		if front[i].Balanced {
			balIdx = i
			break
		}
	}
	return front, balIdx
}

// frontLess is the front's display order: bytes, then latency, then cut.
func frontLess(a, b FrontPoint) bool {
	if a.Vec.Bytes != b.Vec.Bytes {
		return a.Vec.Bytes < b.Vec.Bytes
	}
	if a.Vec.LatencyMS != b.Vec.LatencyMS {
		return a.Vec.LatencyMS < b.Vec.LatencyMS
	}
	return cutLess(a.Cut, b.Cut)
}

// choosePoint picks the front index the policy selects. Ties break through
// a deterministic chain (secondary objective, failure rate, scalar cut
// value, then cut identity) so repeated selections over identical inputs
// never flip-flop between equivalent points.
func choosePoint(front []FrontPoint, balIdx int, policy SLOPolicy) int {
	if policy == Balanced || len(front) == 0 {
		return balIdx
	}
	key := func(p FrontPoint) policyKey {
		v := p.Vec
		switch policy {
		case LatencyFirst:
			return policyKey{v.LatencyMS, v.Bytes, v.FailureRate, float64(p.CutValue)}
		case CostFirst:
			return policyKey{v.Bytes, v.LatencyMS, v.FailureRate, float64(p.CutValue)}
		case ReceiverWeak:
			// Receiver energy proxy with the energy model's default
			// weights: radio nJ/byte and CPU nJ/work-unit.
			proxy := v.Bytes*250 + v.ReceiverWork*40
			return policyKey{proxy, v.ReceiverWork, v.Bytes, float64(p.CutValue)}
		default:
			return policyKey{float64(p.CutValue)}
		}
	}
	best := 0
	bestKey := key(front[0])
	for i := 1; i < len(front); i++ {
		k := key(front[i])
		if lessKeys(k, bestKey) || (k == bestKey && cutLess(front[i].Cut, front[best].Cut)) {
			best, bestKey = i, k
		}
	}
	return best
}

// policyPrimary is the policy's primary objective for one front point —
// the scalar the flip-hysteresis margin is applied to. It mirrors the
// first element of choosePoint's key chain so "beats by the margin" and
// "is preferred" agree on what matters.
func policyPrimary(p FrontPoint, policy SLOPolicy) float64 {
	v := p.Vec
	switch policy {
	case LatencyFirst:
		return v.LatencyMS
	case CostFirst:
		return v.Bytes
	case ReceiverWeak:
		return v.Bytes*250 + v.ReceiverWork*40
	default:
		return float64(p.CutValue)
	}
}

// policyKey is choosePoint's objective chain, compared lexicographically;
// unused trailing entries stay zero. A fixed-size array keeps the
// comparison free of per-point allocations.
type policyKey [4]float64

func lessKeys(a, b policyKey) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// cutLess orders cuts lexicographically, shorter first on shared prefixes.
func cutLess(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func containsCut(cuts [][]int32, cut []int32) bool {
	for _, c := range cuts {
		if equalCut(c, cut) {
			return true
		}
	}
	return false
}

func equalCut(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
