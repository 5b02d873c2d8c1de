package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cbes/internal/cluster"
	"cbes/internal/monitor"
	"cbes/internal/profile"
	"cbes/internal/workloads"
)

// referencePredict is the eq-by-eq oracle for the fast path: eqs. 4–8
// written out directly over the profile, the ArchSpeed map, the network
// model's signature lookup (netmodel.Model.LatencyCond via profile.Theta),
// and a cloned snapshot for degraded mode. It shares nothing with
// fastpath.go, so every test that checks the Scorer (and Predict, which
// is built on it) against this function compares two independent
// implementations.
func referencePredict(e *Evaluator, m Mapping, snap *monitor.Snapshot) (*Prediction, error) {
	if len(m) != e.Prof.Ranks {
		return nil, fmt.Errorf("core: mapping has %d ranks, profile has %d", len(m), e.Prof.Ranks)
	}
	if err := m.Validate(e.Topo); err != nil {
		return nil, err
	}
	if err := checkNodesUp(m, snap); err != nil {
		return nil, err
	}
	mult := m.Multiplicity()
	pred := &Prediction{Mapping: m.Clone()}
	seen := map[int]bool{}
	for _, n := range m {
		if !seen[n] && snap.HealthOf(n) == monitor.HealthSuspect {
			seen[n] = true
			pred.StaleNodes = append(pred.StaleNodes, n)
		}
	}
	if pred.StaleNodes != nil {
		// Degraded mode: evaluate against the profile-only fallback view
		// (nominal CPU availability, idle NIC for every stale node).
		sort.Ints(pred.StaleNodes)
		pred.Degraded = true
		snap = snap.Clone()
		for i, h := range snap.Health {
			if h == monitor.HealthSuspect {
				snap.AvailCPU[i] = 1.0
				snap.NICUtil[i] = 0.0
			}
		}
	}
	for _, seg := range e.Prof.Segments {
		se := SegmentEstimate{Name: seg.Name, Critical: -1}
		for i := range seg.Procs {
			pp := &seg.Procs[i]
			node := m[pp.Rank]
			est := ProcEstimate{Rank: pp.Rank}
			est.R = referenceR(e, pp, node, mult[node], snap)
			if !e.IgnoreComm {
				est.C = referenceC(e, pp, m, snap)
			}
			se.Procs = append(se.Procs, est)
			if t := est.Total(); se.Critical < 0 || t > se.Seconds {
				se.Seconds = t
				se.Critical = pp.Rank
			}
		}
		pred.Seconds += se.Seconds
		pred.Segments = append(pred.Segments, se)
	}
	return pred, nil
}

// referenceR is R_i of eq. 5.
func referenceR(e *Evaluator, pp *profile.ProcProfile, node, coLocated int, snap *monitor.Snapshot) float64 {
	n := e.Topo.Node(node)
	speed, ok := e.Prof.ArchSpeed[n.Arch]
	if !ok || speed <= 0 {
		speed = n.Speed
	}
	acpu := snap.AvailCPU[node]
	if coLocated > 1 {
		share := float64(n.CPUs) / float64(coLocated)
		if share < 1 {
			acpu *= share
		}
	}
	if acpu < 0.01 {
		acpu = 0.01
	}
	return (pp.X + pp.O) * (pp.ProfSpeed / speed) * (1 / acpu)
}

// referenceC is C_i = λ_i · Θ_i (eqs. 6 and 8), with Lc the load-adjusted
// latency estimate of the network model.
func referenceC(e *Evaluator, pp *profile.ProcProfile, m Mapping, snap *monitor.Snapshot) float64 {
	if pp.Lambda == 0 {
		return 0
	}
	theta := profile.Theta(pp, m, func(src, dst int, size int64) float64 {
		return e.Model.LatencyCond(src, dst, size,
			snap.AvailCPU[src], snap.AvailCPU[dst], snap.NICUtil[src], snap.NICUtil[dst])
	})
	return theta * pp.Lambda
}

// TestPredictMatchesReference: the Scorer-built Prediction — totals,
// per-segment maxima and critical ranks, per-process R/C, degraded
// markers — is reflect.DeepEqual to the oracle's across the snapshot,
// placement, and topology shapes the service sees.
func TestPredictMatchesReference(t *testing.T) {
	check := func(t *testing.T, e *Evaluator, snap *monitor.Snapshot, ms ...Mapping) {
		t.Helper()
		for _, m := range ms {
			got, err := e.Predict(m, snap)
			if err != nil {
				t.Fatalf("Predict(%v): %v", m, err)
			}
			want, err := referencePredict(e, m, snap)
			if err != nil {
				t.Fatalf("referencePredict(%v): %v", m, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Predict(%v) =\n%+v\nreference =\n%+v", m, got, want)
			}
		}
	}
	f := newFixture(t, []int{0, 1})
	n := f.topo.NumNodes()
	idle := monitor.IdleSnapshot(n)
	loaded := randomSnapshot(n, rand.New(rand.NewSource(5)))
	suspect := healthSnap(n, map[int]monitor.Health{1: monitor.HealthSuspect, 6: monitor.HealthSuspect})
	suspect.AvailCPU[1], suspect.NICUtil[1], suspect.AvailCPU[6] = 0.3, 0.7, 0.1
	spread := []Mapping{{0, 1}, {0, 4}, {4, 5}, {2, 7}}

	t.Run("idle", func(t *testing.T) { check(t, f.eval, idle, spread...) })
	t.Run("loaded", func(t *testing.T) { check(t, f.eval, loaded, spread...) })
	t.Run("suspect", func(t *testing.T) {
		check(t, f.eval, suspect, Mapping{0, 1}, Mapping{6, 1}, Mapping{6, 6}, Mapping{2, 3})
	})
	// Single-CPU node 0 and dual-CPU node 4 hosting both ranks.
	t.Run("co-located", func(t *testing.T) { check(t, f.eval, loaded, Mapping{0, 0}, Mapping{4, 4}) })
	t.Run("comm-blind", func(t *testing.T) { check(t, f.eval.CommBlind(), loaded, spread...) })
	t.Run("synthetic", func(t *testing.T) {
		// Random topologies and profiles: up to 7 ranks on as few as a
		// handful of nodes, so heavy co-location is common.
		for seed := int64(0); seed < 6; seed++ {
			eval, rng := syntheticEvaluator(t, 200+seed)
			snap := randomSnapshot(eval.Topo.NumNodes(), rng)
			for trial := 0; trial < 10; trial++ {
				check(t, eval, snap, randomValidMapping(eval.Prof.Ranks, eval.Topo.NumNodes(), rng))
			}
		}
	})
	t.Run("phased", func(t *testing.T) {
		ph := newFixtureBody(t, f.topo, []int{0, 1, 2, 3}, workloads.Phased(60, 4).Body)
		if segs := len(ph.prof.Segments); segs < 60 {
			t.Fatalf("phased profile has %d segments, want >= 60", segs)
		}
		check(t, ph.eval, loaded, Mapping{0, 1, 2, 3}, Mapping{4, 5, 6, 7}, Mapping{0, 4, 0, 4})
	})
	t.Run("fattree", func(t *testing.T) {
		topo, err := cluster.FromSpec("fattree:4")
		if err != nil {
			t.Fatal(err)
		}
		if topo.ClassIDTable() != nil {
			t.Fatal("fattree:4 stores a class-ID table; the algebraic lookup goes untested")
		}
		ft := newFixtureOn(t, topo, []int{0, 1})
		tn := topo.NumNodes()
		check(t, ft.eval, randomSnapshot(tn, rand.New(rand.NewSource(9))),
			Mapping{0, 1}, Mapping{0, tn - 1}, Mapping{3, 3}, Mapping{tn / 2, 1})
	})
}
