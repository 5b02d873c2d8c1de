// Fast-path mapping evaluation: the one implementation of eqs. 4–8. A
// Scorer evaluates a mapping into flat per-(segment,proc) R and C terms;
// Evaluator.Predict is one full Scorer evaluation plus the breakdown read
// off those terms, Scorer.Energy returns only the total without
// allocating, and Scorer.Apply/Undo delta-evaluate typed moves — the
// throughput engine behind the CS/NCS/GA schedulers.
//
// The evaluator precomputes, once per (topology, model, profile) triple:
//
//   - network-model classes indexed by interned path-class ID (plus the
//     topology's flat pair→ID table when it stores one), so the hot loop
//     never rebuilds path signatures or hashes map keys — and never
//     allocates O(nodes²) state on structured topologies;
//   - per-node resolved compute speeds and CPU counts (no ArchSpeed map
//     lookups);
//   - per-rank communication dependents: the profile entries whose Θ term
//     (eq. 6) reads that rank's node, derived from the send/recv groups.
//
// A Scorer then carries the mutable scratch state for one mapping: flat
// per-(segment,proc) R and C terms, per-node multiplicities, per-segment
// maxima, and an undo journal. Applying a Move re-scores only the entries
// whose inputs changed — the moved rank(s), their communication peers, and
// (for capacity-changing moves) the ranks co-located on the two affected
// nodes — and rebuilds the total from per-segment maxima, so the running
// energy is always bit-identical to a fresh full evaluation.
//
// Invariants (checked against the eq-by-eq test oracle referencePredict by
// TestFastPathEquivalence, TestPredictMatchesReference and FuzzEnergyDelta):
//
//	Predict(m, snap)            == referencePredict(m, snap)  (whole Prediction)
//	Scorer.Energy(m, snap)      == referencePredict(...).Seconds (exactly)
//	Scorer.Apply(mv); EnergyNow == Energy(moved m, snap)      (exactly)
//	Scorer.Undo() restores the pre-Apply state                (exactly)
package core

import (
	"fmt"
	"slices"

	"cbes/internal/cluster"
	"cbes/internal/monitor"
	"cbes/internal/netmodel"
	"cbes/internal/profile"
)

// Move is a typed mapping perturbation for the delta fast path. A zero
// Move is "move rank 0 to node 0".
type Move struct {
	// Swap selects the perturbation kind: false moves Rank to node To,
	// true exchanges the nodes of ranks A and B.
	Swap bool
	Rank int // rank to move (Swap == false)
	To   int // destination node (Swap == false)
	A, B int // ranks to exchange (Swap == true)
}

// fastIndex holds the immutable precomputed lookup tables shared by every
// Scorer of one evaluator (and its CommBlind sibling).
type fastIndex struct {
	nodes int
	// classes is indexed by interned path-class ID (O(classes), not
	// O(nodes²)); nil entry = uncalibrated. classTbl is the topology's flat
	// src·n+dst → class-ID table when it stores one (the 2005 testbeds);
	// structured topologies leave it nil and resolve IDs algebraically.
	classes  []*netmodel.Class
	classTbl []int32
	topo     *cluster.Topology
	speed    []float64 // per node: profile speed with nominal fallback
	cpus     []int     // per node: CPU count
	// flat is every segment's ProcProfile in profile order;
	// segOff[s] is the first flat index of segment s (len = segments+1).
	flat   []*profile.ProcProfile
	segOff []int
	// own[r] lists the flat entries belonging to rank r (one per segment
	// the rank appears in). commDeps[r] lists every flat entry whose C
	// term reads m[r]: r's own entries plus entries of ranks whose
	// send/recv groups name r as peer. Both are sorted and deduplicated.
	own      [][]int32
	commDeps [][]int32
}

func buildFastIndex(e *Evaluator) *fastIndex {
	n := e.Topo.NumNodes()
	ix := &fastIndex{
		nodes:    n,
		classes:  e.Model.ClassesByID(),
		classTbl: e.Topo.ClassIDTable(),
		topo:     e.Topo,
		speed:    make([]float64, n),
		cpus:     make([]int, n),
	}
	for node := 0; node < n; node++ {
		nd := e.Topo.Node(node)
		speed, ok := e.Prof.ArchSpeed[nd.Arch]
		if !ok || speed <= 0 {
			speed = nd.Speed
		}
		ix.speed[node] = speed
		ix.cpus[node] = nd.CPUs
	}
	ranks := e.Prof.Ranks
	ix.own = make([][]int32, ranks)
	ix.commDeps = make([][]int32, ranks)
	depSet := make([]map[int32]struct{}, ranks)
	for r := range depSet {
		depSet[r] = map[int32]struct{}{}
	}
	ix.segOff = append(ix.segOff, 0)
	for si := range e.Prof.Segments {
		seg := &e.Prof.Segments[si]
		for pi := range seg.Procs {
			pp := &seg.Procs[pi]
			f := int32(len(ix.flat))
			ix.flat = append(ix.flat, pp)
			if pp.Rank >= 0 && pp.Rank < ranks {
				ix.own[pp.Rank] = append(ix.own[pp.Rank], f)
				depSet[pp.Rank][f] = struct{}{}
			}
			for _, g := range pp.Recvs {
				if g.Peer >= 0 && g.Peer < ranks {
					depSet[g.Peer][f] = struct{}{}
				}
			}
			for _, g := range pp.Sends {
				if g.Peer >= 0 && g.Peer < ranks {
					depSet[g.Peer][f] = struct{}{}
				}
			}
		}
		ix.segOff = append(ix.segOff, len(ix.flat))
	}
	for r := 0; r < ranks; r++ {
		deps := make([]int32, 0, len(depSet[r]))
		for f := range depSet[r] {
			deps = append(deps, f)
		}
		// Sort for deterministic iteration (map order is random).
		for i := 1; i < len(deps); i++ {
			for j := i; j > 0 && deps[j] < deps[j-1]; j-- {
				deps[j], deps[j-1] = deps[j-1], deps[j]
			}
		}
		ix.commDeps[r] = deps
	}
	metricEvaluators.Inc()
	return ix
}

// fast returns the evaluator's precomputed index, building it on first use.
// NewEvaluator builds the index eagerly, so the lazy path only serves
// literal-constructed evaluators (tests); it is guarded for concurrent use.
func (e *Evaluator) fast() *fastIndex {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fastIx == nil {
		e.fastIx = buildFastIndex(e)
	}
	return e.fastIx
}

// CommBlind returns an evaluator over the same profile, model, and
// precomputed index with the communication term disabled — the NCS cost
// function. The receiver is unaffected.
func (e *Evaluator) CommBlind() *Evaluator {
	return &Evaluator{Topo: e.Topo, Model: e.Model, Prof: e.Prof, IgnoreComm: true, fastIx: e.fast()}
}

// savedTerm is one undo-journal record: the pre-move R and C of one entry.
type savedTerm struct {
	f    int32
	r, c float64
}

// frame is the undo record of one applied Move.
type frame struct {
	mv     Move
	from   int // origin node(s) needed to invert the move
	fromB  int
	noop   bool
	terms  []savedTerm
	segMax []float64
	total  float64
}

// Scorer evaluates mappings of one evaluator without allocating, and
// supports incremental delta-evaluation of typed moves with multi-level
// undo. A Scorer is NOT safe for concurrent use; create one per goroutine
// (the Evaluator itself is shareable).
type Scorer struct {
	e    *Evaluator
	ix   *fastIndex
	snap *monitor.Snapshot
	// avail/nic are the effective per-node resource views: the snapshot's
	// forecasts with profile-only fallback values (nominal CPU
	// availability, idle NIC) substituted for stale (HealthSuspect) nodes —
	// degraded mode: the prediction trusts only what the profile supports
	// rather than forecasts past their TTL.
	avail []float64
	nic   []float64

	m      Mapping   // current mapping (owned)
	mult   []int     // ranks per node
	r, c   []float64 // per flat entry
	segMax []float64
	total  float64
	primed bool

	frames []frame
	depth  int

	// epoch-stamped scratch for deduplicating touched entries/segments.
	seenEntry []uint32
	seenSeg   []uint32
	epoch     uint32
	touched   []int32
}

// Scorer returns a fresh scorer for this evaluator. The scorer reuses its
// internal arena across Energy/Apply calls, so steady-state evaluation does
// not allocate.
func (e *Evaluator) Scorer() *Scorer {
	ix := e.fast()
	return &Scorer{
		e:         e,
		ix:        ix,
		m:         make(Mapping, e.Prof.Ranks),
		mult:      make([]int, ix.nodes),
		avail:     make([]float64, ix.nodes),
		nic:       make([]float64, ix.nodes),
		r:         make([]float64, len(ix.flat)),
		c:         make([]float64, len(ix.flat)),
		segMax:    make([]float64, len(ix.segOff)-1),
		seenEntry: make([]uint32, len(ix.flat)),
		seenSeg:   make([]uint32, len(ix.segOff)-1),
	}
}

// loadSnapshot fills the scorer's effective resource views from snap,
// applying the degraded-mode substitution for stale nodes. O(nodes),
// allocation-free.
func (s *Scorer) loadSnapshot(snap *monitor.Snapshot) {
	s.snap = snap
	copy(s.avail, snap.AvailCPU)
	copy(s.nic, snap.NICUtil)
	for i, h := range snap.Health {
		if h == monitor.HealthSuspect {
			s.avail[i] = 1.0
			s.nic[i] = 0.0
		}
	}
}

// Energy fully evaluates mapping m under snap, primes the scorer's
// incremental state with it, and returns the predicted execution time —
// Predict(m, snap).Seconds without the breakdown. Any pending undo history
// is discarded.
func (s *Scorer) Energy(m Mapping, snap *monitor.Snapshot) (float64, error) {
	if err := s.load(m, snap); err != nil {
		return 0, err
	}
	metricEnergyFull.Inc()
	return s.total, nil
}

// load is the full evaluation behind Energy and Predict: it validates m,
// scores every flat entry, and primes the incremental state.
func (s *Scorer) load(m Mapping, snap *monitor.Snapshot) error {
	if len(m) != s.e.Prof.Ranks {
		return fmt.Errorf("core: mapping has %d ranks, profile has %d", len(m), s.e.Prof.Ranks)
	}
	if err := m.Validate(s.e.Topo); err != nil {
		return err
	}
	if err := checkNodesUp(m, snap); err != nil {
		return err
	}
	s.loadSnapshot(snap)
	copy(s.m, m)
	for i := range s.mult {
		s.mult[i] = 0
	}
	for _, n := range s.m {
		s.mult[n]++
	}
	for f := range s.ix.flat {
		s.r[f] = s.computeR(int32(f))
		s.c[f] = s.computeC(int32(f))
	}
	for seg := range s.segMax {
		s.segMax[seg] = s.segmentMax(seg)
	}
	s.total = s.sumSegments()
	s.depth = 0
	s.primed = true
	return nil
}

// prediction builds the full Prediction of the scorer's current state from
// its flat term arrays: one ProcEstimate per entry (sliced per segment out
// of a single backing array), each segment's maximum and critical rank by
// the first-strictly-greater rule segmentMax uses, and the degraded-mode
// markers for mapped nodes whose snapshot data is stale.
func (s *Scorer) prediction() *Prediction {
	ix := s.ix
	pred := &Prediction{Mapping: s.m.Clone(), Seconds: s.total}
	procs := make([]ProcEstimate, len(ix.flat))
	for f, pp := range ix.flat {
		procs[f] = ProcEstimate{Rank: pp.Rank, R: s.r[f], C: s.c[f]}
	}
	if len(s.segMax) > 0 {
		pred.Segments = make([]SegmentEstimate, len(s.segMax))
	}
	for seg := range pred.Segments {
		se := &pred.Segments[seg]
		se.Name = s.e.Prof.Segments[seg].Name
		se.Critical = -1
		lo, hi := ix.segOff[seg], ix.segOff[seg+1]
		if lo == hi {
			continue
		}
		se.Procs = procs[lo:hi:hi]
		for _, pe := range se.Procs {
			if t := pe.Total(); se.Critical < 0 || t > se.Seconds {
				se.Seconds = t
				se.Critical = pe.Rank
			}
		}
	}
	for _, n := range s.m {
		if s.snap.HealthOf(n) == monitor.HealthSuspect && !slices.Contains(pred.StaleNodes, n) {
			pred.StaleNodes = append(pred.StaleNodes, n)
		}
	}
	if pred.StaleNodes != nil {
		slices.Sort(pred.StaleNodes)
		pred.Degraded = true
		metricDegradedPredicts.Inc()
	}
	return pred
}

// EnergyNow returns the energy of the scorer's current state.
func (s *Scorer) EnergyNow() float64 { return s.total }

// Current exposes the scorer's current mapping as a read-only view: the
// caller must not modify or retain it across Apply/Undo/Energy calls.
func (s *Scorer) Current() Mapping { return s.m }

// NodeLoad reports how many ranks the current mapping places on a node —
// the capacity check move proposers need.
func (s *Scorer) NodeLoad(node int) int { return s.mult[node] }

// Apply applies the move to the current state, re-scores only the affected
// entries, and returns the new total energy; Undo reverts it. Apply panics
// if the scorer was never primed with Energy or if the move references an
// invalid rank or node.
func (s *Scorer) Apply(mv Move) float64 {
	if !s.primed {
		panic("core: Scorer.Apply before Energy")
	}
	metricEnergyDelta.Inc()
	fr := s.pushFrame(mv)
	if mv.Swap {
		if mv.A == mv.B || s.m[mv.A] == s.m[mv.B] {
			fr.noop = true
			return s.total
		}
		fr.from, fr.fromB = s.m[mv.A], s.m[mv.B]
		s.m[mv.A], s.m[mv.B] = s.m[mv.B], s.m[mv.A]
		// A swap preserves per-node multiplicities: only the two ranks'
		// own terms and their communication dependents change.
		s.beginTouch()
		s.touchList(s.ix.commDeps[mv.A])
		s.touchList(s.ix.commDeps[mv.B])
		s.touchList(s.ix.own[mv.A])
		s.touchList(s.ix.own[mv.B])
	} else {
		from := s.m[mv.Rank]
		if from == mv.To {
			fr.noop = true
			return s.total
		}
		if mv.To < 0 || mv.To >= s.ix.nodes {
			panic(fmt.Sprintf("core: Move to invalid node %d", mv.To))
		}
		fr.from = from
		s.m[mv.Rank] = mv.To
		s.mult[from]--
		s.mult[mv.To]++
		s.beginTouch()
		s.touchList(s.ix.commDeps[mv.Rank])
		// Multiplicity changed on both nodes: every rank now (or formerly)
		// co-located there sees a different ACPU share in eq. 5.
		for rank, node := range s.m {
			if node == from || node == mv.To {
				s.touchList(s.ix.own[rank])
			}
		}
	}
	s.rescoreTouched(fr)
	return s.total
}

// EnergyDelta is Apply under the name the scheduling layers use when they
// care about the resulting energy rather than the state mutation; the move
// stays applied until Undo.
func (s *Scorer) EnergyDelta(mv Move) float64 { return s.Apply(mv) }

// Undo reverts the most recent un-undone Apply. Applies form a stack, so
// recursive searches (the exhaustive walk) can unwind arbitrarily deep.
func (s *Scorer) Undo() {
	if s.depth == 0 {
		panic("core: Scorer.Undo with empty journal")
	}
	metricUndos.Inc()
	s.depth--
	fr := &s.frames[s.depth]
	if fr.noop {
		return
	}
	if fr.mv.Swap {
		s.m[fr.mv.A], s.m[fr.mv.B] = fr.from, fr.fromB
	} else {
		s.mult[fr.mv.To]--
		s.mult[fr.from]++
		s.m[fr.mv.Rank] = fr.from
	}
	for _, st := range fr.terms {
		s.r[st.f] = st.r
		s.c[st.f] = st.c
	}
	copy(s.segMax, fr.segMax)
	s.total = fr.total
}

// Commit discards the undo record of the most recent Apply, keeping its
// state change. Accepting annealers call it after each accepted move so the
// journal stays one frame deep instead of growing with every acceptance.
func (s *Scorer) Commit() {
	if s.depth == 0 {
		panic("core: Scorer.Commit with empty journal")
	}
	s.depth--
}

// Depth reports how many applied moves are undoable.
func (s *Scorer) Depth() int { return s.depth }

func (s *Scorer) pushFrame(mv Move) *frame {
	if s.depth == len(s.frames) {
		s.frames = append(s.frames, frame{})
	}
	fr := &s.frames[s.depth]
	s.depth++
	fr.mv = mv
	fr.noop = false
	fr.terms = fr.terms[:0]
	fr.segMax = append(fr.segMax[:0], s.segMax...)
	fr.total = s.total
	return fr
}

func (s *Scorer) beginTouch() {
	s.epoch++
	if s.epoch == 0 { // wrapped: reset stamps
		for i := range s.seenEntry {
			s.seenEntry[i] = 0
		}
		for i := range s.seenSeg {
			s.seenSeg[i] = 0
		}
		s.epoch = 1
	}
	s.touched = s.touched[:0]
}

func (s *Scorer) touchList(fs []int32) {
	for _, f := range fs {
		if s.seenEntry[f] != s.epoch {
			s.seenEntry[f] = s.epoch
			s.touched = append(s.touched, f)
		}
	}
}

// rescoreTouched recomputes R and C for every touched entry (recording the
// old values in the undo frame), refreshes the maxima of the segments they
// belong to, and rebuilds the total as the fresh segment sum — the same
// summation order as a full evaluation, keeping the running energy
// bit-identical.
func (s *Scorer) rescoreTouched(fr *frame) {
	metricDeltaTouched.Add(uint64(len(s.touched)))
	for _, f := range s.touched {
		fr.terms = append(fr.terms, savedTerm{f: f, r: s.r[f], c: s.c[f]})
		s.r[f] = s.computeR(f)
		s.c[f] = s.computeC(f)
		seg := s.segmentOf(f)
		s.seenSeg[seg] = s.epoch
	}
	for seg := range s.segMax {
		if s.seenSeg[seg] == s.epoch {
			s.segMax[seg] = s.segmentMax(seg)
		}
	}
	s.total = s.sumSegments()
}

// segmentOf locates the segment containing flat entry f by binary search
// over the offset table.
func (s *Scorer) segmentOf(f int32) int {
	lo, hi := 0, len(s.ix.segOff)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if int32(s.ix.segOff[mid]) <= f {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// segmentMax scans one segment's totals in entry order with the
// strictly-greater selection (first entry wins ties).
func (s *Scorer) segmentMax(seg int) float64 {
	lo, hi := s.ix.segOff[seg], s.ix.segOff[seg+1]
	if lo == hi {
		return 0
	}
	max := s.r[lo] + s.c[lo]
	for f := lo + 1; f < hi; f++ {
		if t := s.r[f] + s.c[f]; t > max {
			max = t
		}
	}
	return max
}

func (s *Scorer) sumSegments() float64 {
	total := 0.0
	for _, sm := range s.segMax {
		total += sm
	}
	return total
}

// computeR is R_i of eq. 5 on precomputed tables.
func (s *Scorer) computeR(f int32) float64 {
	pp := s.ix.flat[f]
	node := s.m[pp.Rank]
	speed := s.ix.speed[node]
	acpu := s.avail[node]
	if co := s.mult[node]; co > 1 {
		share := float64(s.ix.cpus[node]) / float64(co)
		if share < 1 {
			acpu *= share
		}
	}
	if acpu < 0.01 {
		acpu = 0.01
	}
	return (pp.X + pp.O) * (pp.ProfSpeed / speed) * (1 / acpu)
}

// computeC is C_i = λ_i · Θ_i (eqs. 6 and 8) on the dense class table,
// accumulating Θ over the receive groups and then the send groups.
func (s *Scorer) computeC(f int32) float64 {
	if s.e.IgnoreComm {
		return 0
	}
	pp := s.ix.flat[f]
	if pp.Lambda == 0 {
		return 0
	}
	my := s.m[pp.Rank]
	theta := 0.0
	for _, g := range pp.Recvs {
		theta += float64(g.Count) * s.latency(s.m[g.Peer], my, g.Size)
	}
	for _, g := range pp.Sends {
		theta += float64(g.Count) * s.latency(my, s.m[g.Peer], g.Size)
	}
	return theta * pp.Lambda
}

func (s *Scorer) latency(src, dst int, size int64) float64 {
	return s.ix.latency(src, dst, size, s.avail[src], s.avail[dst], s.nic[src], s.nic[dst])
}

// latency is the load-adjusted latency estimate Lc of the pair's path
// class under explicit conditions (CPU availability and NIC utilization
// at each end). It panics on an uncalibrated pair, like
// netmodel.Model.LatencyCond.
func (ix *fastIndex) latency(src, dst int, size int64, aSrc, aDst, uSrc, uDst float64) float64 {
	var id int
	if ix.classTbl != nil {
		id = int(ix.classTbl[src*ix.nodes+dst])
	} else {
		id = ix.topo.ClassID(src, dst)
	}
	c := ix.classes[id]
	if c == nil {
		panic(fmt.Sprintf("netmodel: no calibration for pair (%d,%d)", src, dst))
	}
	return c.Latency(size, aSrc, aDst, uSrc, uDst)
}

// Energy is the allocation-free counterpart of Predict(m, snap).Seconds:
// it scores the mapping through a pooled scratch arena and returns only
// the total. The evaluator stays shareable — concurrent callers draw
// distinct scorers from the pool.
func (e *Evaluator) Energy(m Mapping, snap *monitor.Snapshot) (float64, error) {
	s := e.pooled()
	defer e.pool.Put(s)
	return s.Energy(m, snap)
}

// pooled draws a scorer from the evaluator's pool (return it with
// e.pool.Put), building one on first use.
func (e *Evaluator) pooled() *Scorer {
	if s, _ := e.pool.Get().(*Scorer); s != nil {
		return s
	}
	return e.Scorer()
}
