// Package core implements the heart of CBES: the mapping evaluation
// operation of §3, which predicts the execution time an application would
// achieve under a candidate mapping, given the system profile (network
// latency model), the application profile, and a snapshot of current
// resource availability.
//
// For a mapping M (eq. 3) the prediction is
//
//	S_M = max_i (R_i + C_i)                                  (eq. 4)
//	R_i = (X_i + O_i) · Speed_profile_i/Speed_j · 1/ACPU_j   (eq. 5)
//	Θ_i = Σ message groups mc · Lc(·,·,ms)                   (eq. 6)
//	λ_i = B_i / Θ_i^profile                                  (eq. 7)
//	C_i = Θ_i · λ_i                                          (eq. 8)
//
// summed over the profile's segments. ACPU_j generalizes the paper's
// per-node availability to co-located ranks: k ranks sharing a node with
// c processors see their share scaled by min(1, c/k).
//
// One kernel implements these equations: the Scorer of fastpath.go.
// Predict is a full Scorer evaluation plus the per-segment, per-process
// breakdown read off its term arrays; Energy and the delta moves the
// schedulers drive are the same arithmetic. The eq-by-eq form lives on
// only as the test oracle referencePredict, and the invariant the tests
// hold is Scorer ≡ referencePredict, bit for bit.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cbes/internal/cluster"
	"cbes/internal/monitor"
	"cbes/internal/netmodel"
	"cbes/internal/profile"
)

// ErrNodeDown reports a mapping that places a rank on a node whose
// snapshot health is HealthDown. Callers match it with errors.Is; the
// wrapped message names the rank and node.
var ErrNodeDown = errors.New("node down")

// checkNodesUp returns a wrapped ErrNodeDown if any rank of m sits on a
// down node of snap.
func checkNodesUp(m Mapping, snap *monitor.Snapshot) error {
	for r, n := range m {
		if snap.HealthOf(n) == monitor.HealthDown {
			metricNodeDownErrors.Inc()
			return fmt.Errorf("core: rank %d mapped to node %d: %w", r, n, ErrNodeDown)
		}
	}
	return nil
}

// Mapping assigns each application rank (index) to a cluster node (value) —
// the set of (task, node) pairs of eq. 3.
type Mapping []int

// Clone copies the mapping.
func (m Mapping) Clone() Mapping { return append(Mapping(nil), m...) }

// Validate checks that every rank is assigned to an existing node.
func (m Mapping) Validate(topo *cluster.Topology) error {
	if len(m) == 0 {
		return fmt.Errorf("core: empty mapping")
	}
	for r, n := range m {
		if n < 0 || n >= topo.NumNodes() {
			return fmt.Errorf("core: rank %d mapped to invalid node %d", r, n)
		}
	}
	return nil
}

// Multiplicity returns how many ranks the mapping assigns to each node.
func (m Mapping) Multiplicity() map[int]int {
	mult := map[int]int{}
	for _, n := range m {
		mult[n]++
	}
	return mult
}

// Equal reports whether two mappings are identical.
func (m Mapping) Equal(o Mapping) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// ProcEstimate is the per-process breakdown of a prediction.
type ProcEstimate struct {
	Rank int
	R    float64 // computation contribution (eq. 5), seconds
	C    float64 // communication contribution (eq. 8), seconds
}

// Total is R + C.
func (p ProcEstimate) Total() float64 { return p.R + p.C }

// SegmentEstimate is the prediction for one profile segment.
type SegmentEstimate struct {
	Name     string
	Seconds  float64 // max_i (R_i + C_i)
	Critical int     // i_M: the rank attaining the max
	Procs    []ProcEstimate
}

// Prediction is a complete execution-time prediction for one mapping.
type Prediction struct {
	Mapping  Mapping
	Seconds  float64 // Σ over segments of S_M
	Segments []SegmentEstimate
	// Degraded reports that at least one mapped node's monitoring data was
	// stale, so its terms used profile-only fallback values (nominal CPU
	// availability, idle NIC) instead of forecasts.
	Degraded bool
	// StaleNodes lists the mapped nodes that triggered the fallback, in
	// ascending node order.
	StaleNodes []int
	// Brownout reports that the prediction was served from the profile-only
	// fast path (nominal resource conditions for every node) because the
	// service was shedding load — a cheaper, explicitly-labeled answer in
	// the spirit of Degraded, but triggered by overload rather than stale
	// monitoring data.
	Brownout bool
}

// Evaluator predicts execution times for mappings of one profiled
// application on one calibrated cluster. It is the core CBES module that
// serves mapping-comparison requests.
//
// An Evaluator is safe for concurrent use: Predict, Energy, and Compare may
// be called from multiple goroutines, and each Scorer drawn from it carries
// its own scratch state. Do not copy an Evaluator after first use (derive
// the NCS variant with CommBlind instead).
type Evaluator struct {
	Topo  *cluster.Topology
	Model *netmodel.Model
	Prof  *profile.Profile
	// IgnoreComm drops the communication term C_i entirely. This is the
	// cost function of the NCS baseline scheduler of §6: it can rank
	// mappings by computation speed but its scores are not execution-time
	// predictions.
	IgnoreComm bool

	mu     sync.Mutex // guards lazy fastIx construction
	fastIx *fastIndex
	pool   sync.Pool // *Scorer arena for Predict and Energy

	brownOnce sync.Once
	brownAgg  []brownoutAgg // lazily-built per-rank profile aggregate (see PredictBrownout)
}

// brownoutAgg collapses one rank's profile across every segment — the
// precomputation behind the O(ranks) brownout sketch. work is
// Σ(X+O)·ProfSpeed (the speed-independent numerator of eq. 5's R term);
// sends/recvs merge the rank's message groups λ-weighted, so one
// latency lookup per (peer, size) replaces one per segment.
type brownoutAgg struct {
	work  float64
	sends []aggMsg
	recvs []aggMsg
}

// aggMsg is a λ-weighted message-group aggregate: wcount · lat(size)
// approximates Σ_segments λ·Count·lat(size) for one peer.
type aggMsg struct {
	peer   int
	size   int64
	wcount float64
}

// addWeighted merges λ·Count for one message group into the aggregate.
func addWeighted(groups []aggMsg, peer int, size int64, w float64) []aggMsg {
	for i := range groups {
		if groups[i].peer == peer && groups[i].size == size {
			groups[i].wcount += w
			return groups
		}
	}
	return append(groups, aggMsg{peer: peer, size: size, wcount: w})
}

// NewEvaluator builds an evaluator after sanity-checking its inputs. The
// fast-path lookup tables are precomputed here, so the evaluator can be
// shared across scheduler workers without further synchronization.
func NewEvaluator(topo *cluster.Topology, model *netmodel.Model, prof *profile.Profile) (*Evaluator, error) {
	if prof.Cluster != topo.Name {
		return nil, fmt.Errorf("core: profile from cluster %q, topology is %q", prof.Cluster, topo.Name)
	}
	if !prof.LambdasReady {
		return nil, fmt.Errorf("core: profile lambdas not computed; call Profile.ComputeLambdas first")
	}
	e := &Evaluator{Topo: topo, Model: model, Prof: prof}
	e.fast()
	return e, nil
}

// Predict evaluates mapping m under the resource conditions of snap and
// returns the execution-time prediction with its per-segment, per-process
// breakdown. It is one full Scorer evaluation (drawn from the same pool as
// Energy) with the breakdown read off the scorer's term arrays, so
// Predict(m, snap).Seconds == Energy(m, snap) by construction.
func (e *Evaluator) Predict(m Mapping, snap *monitor.Snapshot) (*Prediction, error) {
	start := time.Now()
	defer func() {
		metricPredicts.Inc()
		metricPredictSeconds.Observe(time.Since(start).Seconds())
	}()
	s := e.pooled()
	defer e.pool.Put(s)
	if err := s.load(m, snap); err != nil {
		return nil, err
	}
	return s.prediction(), nil
}

// PredictBrownout estimates mapping m against nominal resource
// conditions — full CPU availability and idle NICs, ignoring monitoring
// data entirely — from a per-rank aggregate of the profile rather than
// a segment-by-segment walk. It is the brownout fast path the service
// uses while shedding load, so it MUST be cheap: O(ranks) instead of
// Predict's O(segments × ranks), or the degraded path would consume the
// very capacity whose exhaustion triggered it. The answer depends only
// on the profile and the topology (valid for the process lifetime,
// cacheable without an epoch), is coarser than Predict — the critical
// rank is assumed constant across the run, so barrier effects inside
// segments are lost and no per-segment breakdown is produced — and is
// explicitly labeled via Prediction.Brownout.
func (e *Evaluator) PredictBrownout(m Mapping) (*Prediction, error) {
	if len(m) != e.Prof.Ranks {
		return nil, fmt.Errorf("core: mapping has %d ranks, profile has %d", len(m), e.Prof.Ranks)
	}
	if err := m.Validate(e.Topo); err != nil {
		return nil, err
	}
	e.brownOnce.Do(func() {
		aggs := make([]brownoutAgg, e.Prof.Ranks)
		for si := range e.Prof.Segments {
			for pi := range e.Prof.Segments[si].Procs {
				pp := &e.Prof.Segments[si].Procs[pi]
				a := &aggs[pp.Rank]
				a.work += (pp.X + pp.O) * pp.ProfSpeed
				if pp.Lambda == 0 {
					continue
				}
				for _, g := range pp.Sends {
					a.sends = addWeighted(a.sends, g.Peer, g.Size, pp.Lambda*float64(g.Count))
				}
				for _, g := range pp.Recvs {
					a.recvs = addWeighted(a.recvs, g.Peer, g.Size, pp.Lambda*float64(g.Count))
				}
			}
		}
		e.brownAgg = aggs
	})
	ix := e.fast()
	mult := m.Multiplicity()
	pred := &Prediction{Mapping: m.Clone(), Brownout: true}
	for r := range e.brownAgg {
		a := &e.brownAgg[r]
		node := m[r]
		acpu := 1.0
		if co := mult[node]; co > 1 {
			if share := float64(ix.cpus[node]) / float64(co); share < 1 {
				acpu = share
			}
		}
		total := a.work / ix.speed[node] / acpu
		if !e.IgnoreComm {
			for _, g := range a.sends {
				total += g.wcount * ix.latency(node, m[g.peer], g.size, 1, 1, 0, 0)
			}
			for _, g := range a.recvs {
				total += g.wcount * ix.latency(m[g.peer], node, g.size, 1, 1, 0, 0)
			}
		}
		if total > pred.Seconds {
			pred.Seconds = total
		}
	}
	metricBrownoutPredicts.Inc()
	return pred, nil
}

// compareParallelThreshold is the batch size above which Compare fans out
// to a worker pool; smaller batches are not worth the goroutine overhead.
const compareParallelThreshold = 4

// Compare evaluates a batch of candidate mappings (a mapping-comparison
// request from an external client such as a scheduler) and returns the
// predictions in the same order plus the index of the fastest. Large
// batches are evaluated concurrently by a bounded worker pool; the result
// is identical to the sequential evaluation.
func (e *Evaluator) Compare(ms []Mapping, snap *monitor.Snapshot) ([]*Prediction, int, error) {
	if len(ms) == 0 {
		return nil, -1, fmt.Errorf("core: no mappings to compare")
	}
	metricCompares.Inc()
	metricCompareMappings.Add(uint64(len(ms)))
	preds := make([]*Prediction, len(ms))
	if workers := boundedWorkers(len(ms)); workers > 1 && len(ms) >= compareParallelThreshold {
		errs := make([]error, len(ms))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ms) {
						return
					}
					preds[i], errs[i] = e.Predict(ms[i], snap)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, -1, err
			}
		}
	} else {
		for i, m := range ms {
			p, err := e.Predict(m, snap)
			if err != nil {
				return nil, -1, err
			}
			preds[i] = p
		}
	}
	secs := make([]float64, len(preds))
	for i, p := range preds {
		secs[i] = p.Seconds
	}
	best := Argmin(secs)
	return preds, best, nil
}

// Argmin returns the index of the fastest prediction in seconds: the
// smallest non-NaN value, the first one on ties. A NaN prediction (corrupt
// profile or model) must never win by making every comparison false; if
// every value is NaN (or seconds is empty) it returns 0.
func Argmin(seconds []float64) int {
	best := -1
	for i, v := range seconds {
		if !math.IsNaN(v) && (best < 0 || v < seconds[best]) {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// boundedWorkers sizes a worker pool for n independent evaluations.
func boundedWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}
