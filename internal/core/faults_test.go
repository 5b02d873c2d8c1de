package core

import (
	"errors"
	"math"
	"testing"

	"cbes/internal/monitor"
)

// healthSnap builds an idle snapshot with explicit per-node health.
func healthSnap(n int, health map[int]monitor.Health) *monitor.Snapshot {
	s := monitor.IdleSnapshot(n)
	s.Health = make([]monitor.Health, n)
	for i, h := range health {
		s.Health[i] = h
		if h == monitor.HealthDown {
			s.AvailCPU[i] = 0
		}
	}
	return s
}

func TestPredictRejectsDownNode(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := healthSnap(f.topo.NumNodes(), map[int]monitor.Health{1: monitor.HealthDown})
	_, err := f.eval.Predict(Mapping{0, 1}, snap)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Predict onto down node: err = %v, want ErrNodeDown", err)
	}
	// A mapping avoiding the down node succeeds and is not degraded.
	pred, err := f.eval.Predict(Mapping{0, 2}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Degraded || pred.StaleNodes != nil {
		t.Fatalf("prediction avoiding faults flagged degraded: %+v", pred)
	}
}

func TestScorerRejectsDownNode(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := healthSnap(f.topo.NumNodes(), map[int]monitor.Health{0: monitor.HealthDown})
	if _, err := f.eval.Scorer().Energy(Mapping{0, 1}, snap); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Energy onto down node: err = %v, want ErrNodeDown", err)
	}
}

func TestPredictDegradesOnStaleNode(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	// Node 1 is suspect with a pessimistic (stale) forecast; degraded mode
	// must ignore the forecast and use the profile-only fallback.
	snap := healthSnap(f.topo.NumNodes(), map[int]monitor.Health{1: monitor.HealthSuspect})
	snap.AvailCPU[1] = 0.2
	snap.NICUtil[1] = 0.9

	pred, err := f.eval.Predict(Mapping{0, 1}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Degraded {
		t.Fatal("prediction on stale node not flagged degraded")
	}
	if len(pred.StaleNodes) != 1 || pred.StaleNodes[0] != 1 {
		t.Fatalf("StaleNodes = %v, want [1]", pred.StaleNodes)
	}

	// The degraded prediction equals the prediction against a fresh idle
	// snapshot: the stale forecast was discarded entirely.
	fresh, err := f.eval.Predict(Mapping{0, 1}, monitor.IdleSnapshot(f.topo.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.Seconds-fresh.Seconds) > 1e-12 {
		t.Fatalf("degraded %v != profile-only %v", pred.Seconds, fresh.Seconds)
	}

	// A mapping not touching the suspect node is served normally.
	clean, err := f.eval.Predict(Mapping{0, 2}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded {
		t.Fatal("mapping avoiding stale node flagged degraded")
	}
}

// TestScorerMatchesPredictUnderFaults extends the fast-path equivalence
// invariant to degraded snapshots: Energy must equal the oracle's
// referencePredict.Seconds exactly even when some nodes are suspect.
func TestScorerMatchesPredictUnderFaults(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := healthSnap(f.topo.NumNodes(), map[int]monitor.Health{
		1: monitor.HealthSuspect,
		5: monitor.HealthDown,
		6: monitor.HealthSuspect,
	})
	snap.AvailCPU[1] = 0.3
	snap.NICUtil[1] = 0.7
	snap.AvailCPU[6] = 0.1

	sc := f.eval.Scorer()
	for _, m := range []Mapping{{0, 1}, {1, 6}, {2, 3}, {6, 6}, {0, 7}} {
		pred, err := referencePredict(f.eval, m, snap)
		if err != nil {
			t.Fatalf("referencePredict(%v): %v", m, err)
		}
		got, err := sc.Energy(m, snap)
		if err != nil {
			t.Fatalf("Energy(%v): %v", m, err)
		}
		if got != pred.Seconds {
			t.Fatalf("Energy(%v) = %v, reference = %v (must be bit-identical)", m, got, pred.Seconds)
		}
	}
}

func TestCompareSurfacesNodeDown(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := healthSnap(f.topo.NumNodes(), map[int]monitor.Health{3: monitor.HealthDown})
	_, _, err := f.eval.Compare([]Mapping{{0, 1}, {2, 3}}, snap)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Compare with a down-node candidate: err = %v, want ErrNodeDown", err)
	}
}

func TestNilHealthMeansHealthy(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes()) // Health == nil
	pred, err := f.eval.Predict(Mapping{0, 1}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Degraded {
		t.Fatal("nil-health snapshot produced a degraded prediction")
	}
}
