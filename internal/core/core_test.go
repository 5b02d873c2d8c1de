package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/mpisim"
	"cbes/internal/netmodel"
	"cbes/internal/profile"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
)

// fixture builds a calibrated evaluator for a small communicating app on
// the test topology, profiled on profMapping.
type fixture struct {
	topo  *cluster.Topology
	model *netmodel.Model
	prof  *profile.Profile
	eval  *Evaluator
	body  func(*mpisim.Rank)
}

func appBody(r *mpisim.Rank) {
	for i := 0; i < 20; i++ {
		r.Compute(0.05)
		if r.ID() == 0 {
			r.Send(1, 16<<10)
			r.Recv(1)
		} else {
			r.Recv(0)
			r.Send(0, 16<<10)
		}
	}
}

func simulate(topo *cluster.Topology, mapping []int, body func(*mpisim.Rank), load map[int]float64) float64 {
	eng := des.NewEngine()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	for node, a := range load {
		node, a := node, a
		eng.Schedule(0, func() { vc.SetAvailability(node, a) })
	}
	res := mpisim.Run(vc, net, mapping, body, mpisim.Options{AppName: "app"})
	return res.Elapsed.Seconds()
}

func newFixture(t *testing.T, profMapping []int) *fixture {
	return newFixtureOn(t, cluster.NewTestTopology(), profMapping)
}

// twoSwitchAlphas builds a homogeneous 2-switch topology (2 Alphas per
// switch) so connectivity effects can be isolated from architecture
// effects.
func twoSwitchAlphas() *cluster.Topology {
	b := cluster.NewBuilder("twoswitch")
	swA := b.Switch("swA", "3com-100", 24)
	swB := b.Switch("swB", "3com-100", 24)
	b.Uplink(swA, swB, cluster.BandwidthFast100, 5*des.Microsecond)
	for i := 0; i < 2; i++ {
		b.Node("a", cluster.ArchAlpha, swA, cluster.BandwidthFast100, 5*des.Microsecond)
	}
	for i := 0; i < 2; i++ {
		b.Node("b", cluster.ArchAlpha, swB, cluster.BandwidthFast100, 5*des.Microsecond)
	}
	return b.Build()
}

func newFixtureOn(t *testing.T, topo *cluster.Topology, profMapping []int) *fixture {
	return newFixtureBody(t, topo, profMapping, appBody)
}

// newFixtureBody profiles an arbitrary SPMD body on topo under
// profMapping and builds its calibrated evaluator.
func newFixtureBody(t *testing.T, topo *cluster.Topology, profMapping []int, body func(*mpisim.Rank)) *fixture {
	t.Helper()
	model := bench.Calibrate(topo, bench.Options{Reps: 5})

	eng := des.NewEngine()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	res := mpisim.Run(vc, net, profMapping, body, mpisim.Options{AppName: "app"})

	speeds := bench.MeasureArchSpeeds(topo, nil, 0.2)
	prof, err := profile.FromTrace(res.Trace, topo, speeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.ComputeLambdas(model); err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(topo, model, prof)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{topo: topo, model: model, prof: prof, eval: eval, body: body}
}

func TestPredictSameMappingIdle(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	pred, err := f.eval.Predict(Mapping{0, 1}, snap)
	if err != nil {
		t.Fatal(err)
	}
	actual := simulate(f.topo, []int{0, 1}, f.body, nil)
	errPct := math.Abs(pred.Seconds-actual) / actual * 100
	if errPct > 2.0 {
		t.Fatalf("same-mapping prediction error %.2f%% (pred %v, actual %v)", errPct, pred.Seconds, actual)
	}
}

func TestPredictCrossSwitchMapping(t *testing.T) {
	// Same architecture everywhere: isolates the connectivity effect.
	f := newFixtureOn(t, twoSwitchAlphas(), []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	pred, err := f.eval.Predict(Mapping{0, 2}, snap)
	if err != nil {
		t.Fatal(err)
	}
	actual := simulate(f.topo, []int{0, 2}, f.body, nil)
	errPct := math.Abs(pred.Seconds-actual) / actual * 100
	if errPct > 5.0 {
		t.Fatalf("cross-switch prediction error %.2f%% (pred %v, actual %v)", errPct, pred.Seconds, actual)
	}
	// And the prediction must rank cross-switch slower than same-switch.
	same, _ := f.eval.Predict(Mapping{0, 1}, snap)
	if pred.Seconds <= same.Seconds {
		t.Fatalf("cross-switch predicted %v <= same-switch %v", pred.Seconds, same.Seconds)
	}
}

func TestPredictCrossArchRemapLooser(t *testing.T) {
	// Remapping one rank from Alpha to Intel restructures the
	// compute/communication overlap, which the constant-λ correction cannot
	// fully track (§3.1). The error grows but must stay moderate.
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	pred, err := f.eval.Predict(Mapping{0, 4}, snap)
	if err != nil {
		t.Fatal(err)
	}
	actual := simulate(f.topo, []int{0, 4}, f.body, nil)
	errPct := math.Abs(pred.Seconds-actual) / actual * 100
	if errPct > 15.0 {
		t.Fatalf("cross-arch prediction error %.2f%% (pred %v, actual %v)", errPct, pred.Seconds, actual)
	}
	// The ranking must still be correct: Alpha+Intel slower than two Alphas.
	same, _ := f.eval.Predict(Mapping{0, 1}, snap)
	if pred.Seconds <= same.Seconds {
		t.Fatal("mixed-arch mapping should be predicted slower")
	}
}

func TestPredictSlowArchMapping(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	// Nodes 4,5 are Intel (speed 0.78): prediction and simulation must both
	// slow down accordingly.
	pred, err := f.eval.Predict(Mapping{4, 5}, snap)
	if err != nil {
		t.Fatal(err)
	}
	actual := simulate(f.topo, []int{4, 5}, f.body, nil)
	errPct := math.Abs(pred.Seconds-actual) / actual * 100
	if errPct > 5.0 {
		t.Fatalf("cross-arch prediction error %.2f%% (pred %v, actual %v)", errPct, pred.Seconds, actual)
	}
}

func TestPredictUnderLoad(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	// Node 1 at 50% availability, known to the snapshot.
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	snap.AvailCPU[1] = 0.5
	pred, err := f.eval.Predict(Mapping{0, 1}, snap)
	if err != nil {
		t.Fatal(err)
	}
	actual := simulate(f.topo, []int{0, 1}, f.body, map[int]float64{1: 0.5})
	errPct := math.Abs(pred.Seconds-actual) / actual * 100
	if errPct > 8.0 {
		t.Fatalf("loaded prediction error %.2f%% (pred %v, actual %v)", errPct, pred.Seconds, actual)
	}
	// Load must slow the prediction versus idle.
	idle, _ := f.eval.Predict(Mapping{0, 1}, monitor.IdleSnapshot(f.topo.NumNodes()))
	if pred.Seconds <= idle.Seconds {
		t.Fatal("load did not slow the prediction")
	}
}

func TestStaleSnapshotMispredicts(t *testing.T) {
	// The paper's phase-3 finding: a prediction made with a stale snapshot
	// (load appeared after the snapshot) underestimates badly.
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes()) // stale: believes idle
	pred, _ := f.eval.Predict(Mapping{0, 1}, snap)
	actual := simulate(f.topo, []int{0, 1}, f.body, map[int]float64{1: 0.6})
	errPct := math.Abs(pred.Seconds-actual) / actual * 100
	if errPct < 5.0 {
		t.Fatalf("stale snapshot should mispredict, got only %.2f%%", errPct)
	}
}

func TestNCSIgnoresCommunication(t *testing.T) {
	// On a homogeneous topology NCS cannot distinguish same-switch from
	// cross-switch mappings — exactly why it loses to CS in §6.
	f := newFixtureOn(t, twoSwitchAlphas(), []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	ncs := &Evaluator{Topo: f.topo, Model: f.model, Prof: f.prof, IgnoreComm: true}
	same, _ := ncs.Predict(Mapping{0, 1}, snap)
	cross, _ := ncs.Predict(Mapping{0, 2}, snap)
	if math.Abs(same.Seconds-cross.Seconds) > 1e-9 {
		t.Fatalf("NCS distinguished mappings: %v vs %v", same.Seconds, cross.Seconds)
	}
	full, _ := f.eval.Predict(Mapping{0, 1}, snap)
	if same.Seconds >= full.Seconds {
		t.Fatal("NCS score should be below the full prediction (no C term)")
	}
}

func TestCoLocationPenalty(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	// Two ranks on one single-CPU node: timesharing halves ACPU.
	co, err := f.eval.Predict(Mapping{0, 0}, snap)
	if err != nil {
		t.Fatal(err)
	}
	apart, _ := f.eval.Predict(Mapping{0, 1}, snap)
	if co.Seconds <= apart.Seconds {
		t.Fatalf("co-location on single CPU not penalized: %v <= %v", co.Seconds, apart.Seconds)
	}
	actual := simulate(f.topo, []int{0, 0}, f.body, nil)
	errPct := math.Abs(co.Seconds-actual) / actual * 100
	if errPct > 20 {
		t.Fatalf("co-located prediction error %.1f%% (pred %v, actual %v)", errPct, co.Seconds, actual)
	}
	// On a dual-CPU node co-location is fine: multiplicity 2 <= CPUs.
	dual, err := f.eval.Predict(Mapping{4, 4}, snap)
	if err != nil {
		t.Fatal(err)
	}
	dualApart, _ := f.eval.Predict(Mapping{4, 5}, snap)
	// Communication moves to loopback, so co-located can even be faster;
	// at minimum it must not pay a timesharing penalty.
	if dual.Seconds > dualApart.Seconds*1.05 {
		t.Fatalf("dual-CPU co-location penalized: %v vs %v", dual.Seconds, dualApart.Seconds)
	}
}

func TestPredictValidation(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	if _, err := f.eval.Predict(Mapping{0}, snap); err == nil {
		t.Fatal("rank-count mismatch should error")
	}
	if _, err := f.eval.Predict(Mapping{0, 99}, snap); err == nil {
		t.Fatal("invalid node should error")
	}
	if err := (Mapping{}).Validate(f.topo); err == nil {
		t.Fatal("empty mapping should error")
	}
}

func TestNewEvaluatorChecks(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	bad := *f.prof
	bad.Cluster = "elsewhere"
	if _, err := NewEvaluator(f.topo, f.model, &bad); err == nil {
		t.Fatal("cluster mismatch should error")
	}
	bad2 := *f.prof
	bad2.LambdasReady = false
	if _, err := NewEvaluator(f.topo, f.model, &bad2); err == nil {
		t.Fatal("missing lambdas should error")
	}
}

func TestCompare(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	ms := []Mapping{{0, 4}, {0, 1}, {4, 5}}
	preds, best, err := f.eval.Compare(ms, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatal("wrong prediction count")
	}
	if best != 1 {
		t.Fatalf("best = %d (%v), want 1 (same-switch Alphas)", best, preds[best].Seconds)
	}
	if _, _, err := f.eval.Compare(nil, snap); err == nil {
		t.Fatal("empty compare should error")
	}
}

func TestExplain(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	pred, err := f.eval.Predict(Mapping{0, 4}, snap)
	if err != nil {
		t.Fatal(err)
	}
	out := pred.Explain(f.topo)
	if !strings.Contains(out, "predicted execution time") {
		t.Fatalf("explain:\n%s", out)
	}
	// The critical rank is marked and the node names resolve.
	if !strings.Contains(out, "*") {
		t.Fatal("critical rank not marked")
	}
	if !strings.Contains(out, f.topo.NodeName(0)) || !strings.Contains(out, f.topo.NodeName(4)) {
		t.Fatalf("node names missing:\n%s", out)
	}
	// Nil topo falls back to numeric names.
	if !strings.Contains(pred.Explain(nil), "node0") {
		t.Fatal("nil-topo fallback broken")
	}
}

func TestMappingHelpers(t *testing.T) {
	m := Mapping{3, 1, 3}
	c := m.Clone()
	c[0] = 9
	if m[0] != 3 {
		t.Fatal("clone aliases")
	}
	if !m.Equal(Mapping{3, 1, 3}) || m.Equal(Mapping{3, 1}) || m.Equal(Mapping{3, 1, 4}) {
		t.Fatal("Equal broken")
	}
	mult := m.Multiplicity()
	if mult[3] != 2 || mult[1] != 1 {
		t.Fatalf("multiplicity: %v", mult)
	}
}

// Property: prediction is monotone in snapshot availability — degrading any
// node's CPU availability never speeds up the prediction.
func TestQuickPredictionMonotoneInLoad(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	prop := func(a1, a2 uint8) bool {
		s1 := monitor.IdleSnapshot(f.topo.NumNodes())
		s2 := monitor.IdleSnapshot(f.topo.NumNodes())
		av1 := 0.05 + 0.95*float64(a1)/255
		av2 := 0.05 + 0.95*float64(a2)/255
		s1.AvailCPU[0] = av1
		s2.AvailCPU[0] = av2
		p1, err1 := f.eval.Predict(Mapping{0, 1}, s1)
		p2, err2 := f.eval.Predict(Mapping{0, 1}, s2)
		if err1 != nil || err2 != nil {
			return false
		}
		if av1 <= av2 {
			return p1.Seconds >= p2.Seconds-1e-12
		}
		return p2.Seconds >= p1.Seconds-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: S_M equals the max over per-process totals in every segment.
func TestQuickMaxConsistency(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	prop := func(n1, n2 uint8) bool {
		m := Mapping{int(n1) % 8, int(n2) % 8}
		pred, err := f.eval.Predict(m, snap)
		if err != nil {
			return false
		}
		total := 0.0
		for _, seg := range pred.Segments {
			max := 0.0
			for _, pe := range seg.Procs {
				if pe.Total() > max {
					max = pe.Total()
				}
			}
			if math.Abs(max-seg.Seconds) > 1e-12 {
				return false
			}
			total += seg.Seconds
		}
		return math.Abs(total-pred.Seconds) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPredict(b *testing.B) {
	topo := cluster.NewTestTopology()
	model := bench.Calibrate(topo, bench.Options{Reps: 3})
	eng := des.NewEngine()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	res := mpisim.Run(vc, net, []int{0, 1}, appBody, mpisim.Options{AppName: "app"})
	speeds := bench.MeasureArchSpeeds(topo, nil, 0.2)
	prof, _ := profile.FromTrace(res.Trace, topo, speeds)
	prof.ComputeLambdas(model)
	eval, _ := NewEvaluator(topo, model, prof)
	snap := monitor.IdleSnapshot(topo.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Predict(Mapping{i % 8, (i + 3) % 8}, snap); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCompareSkipsNaNPredictions(t *testing.T) {
	// Regression: best-mapping selection used "candidate < best", which a
	// NaN prediction (e.g. a corrupt availability reading) never satisfies,
	// so a NaN candidate in slot 0 won the whole comparison. Node 2's
	// availability is NaN, so every mapping touching it predicts NaN.
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	snap.AvailCPU[2] = math.NaN()
	for _, tc := range []struct {
		name string
		ms   []Mapping
		want int
	}{
		{"NaN first", []Mapping{{2, 3}, {0, 1}, {2, 1}}, 1},
		{"all NaN", []Mapping{{2, 3}, {2, 1}}, 0},
		{"ties", []Mapping{{4, 5}, {0, 1}, {0, 1}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			preds, best, err := f.eval.Compare(tc.ms, snap)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range tc.ms {
				if touchesNaN := m[0] == 2 || m[1] == 2; touchesNaN != math.IsNaN(preds[i].Seconds) {
					t.Fatalf("mapping %v predicted %v", m, preds[i].Seconds)
				}
			}
			if best != tc.want {
				t.Fatalf("best = %d (%.6g), want %d", best, preds[best].Seconds, tc.want)
			}
		})
	}
}

func TestCompareParallelMatchesSequential(t *testing.T) {
	// Large batches fan out to a worker pool; result order and best index
	// must match the sequential path.
	f := newFixture(t, []int{0, 1})
	snap := monitor.IdleSnapshot(f.topo.NumNodes())
	var ms []Mapping
	for a := 0; a < f.topo.NumNodes(); a++ {
		for b := 0; b < f.topo.NumNodes(); b++ {
			if a != b {
				ms = append(ms, Mapping{a, b})
			}
		}
	}
	preds, best, err := f.eval.Compare(ms, snap)
	if err != nil {
		t.Fatal(err)
	}
	wantBest := -1
	for i, m := range ms {
		p, err := f.eval.Predict(m, snap)
		if err != nil {
			t.Fatal(err)
		}
		if p.Seconds != preds[i].Seconds {
			t.Fatalf("mapping %v: parallel %v != sequential %v", m, preds[i].Seconds, p.Seconds)
		}
		if wantBest < 0 || p.Seconds < preds[wantBest].Seconds {
			wantBest = i
		}
	}
	if best != wantBest {
		t.Fatalf("best = %d, want %d", best, wantBest)
	}
}

func TestPredictBrownoutSketch(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	m := Mapping{2, 3}
	sketch, err := f.eval.PredictBrownout(m)
	if err != nil {
		t.Fatal(err)
	}
	if !sketch.Brownout {
		t.Fatal("brownout prediction not labeled")
	}
	if len(sketch.Segments) != 0 {
		t.Fatalf("brownout sketch carries %d segments, want none (coarse by design)", len(sketch.Segments))
	}
	if sketch.Seconds <= 0 {
		t.Fatalf("brownout sketch predicted %v seconds", sketch.Seconds)
	}
	// The sketch assumes one critical rank for the whole run, so it can
	// never exceed the full nominal-conditions prediction (sum of
	// per-segment maxima ≥ max of per-rank sums) — but it should stay in
	// its ballpark.
	full, err := f.eval.Predict(m, monitor.IdleSnapshot(f.topo.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	if sketch.Seconds > full.Seconds*1.0001 {
		t.Fatalf("sketch %v exceeds full nominal prediction %v", sketch.Seconds, full.Seconds)
	}
	if sketch.Seconds < full.Seconds/4 {
		t.Fatalf("sketch %v implausibly far below full prediction %v", sketch.Seconds, full.Seconds)
	}
}

func TestPredictBrownoutValidates(t *testing.T) {
	f := newFixture(t, []int{0, 1})
	if _, err := f.eval.PredictBrownout(Mapping{0}); err == nil {
		t.Fatal("wrong-arity mapping accepted")
	}
	if _, err := f.eval.PredictBrownout(Mapping{0, 99}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}
