package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/monitor"
	"cbes/internal/profile"
	"cbes/internal/trace"
)

// syntheticEvaluator builds an evaluator over a random topology with a
// hand-made profile (random segments, compute terms, and message groups),
// so the fast path is exercised on shapes far beyond the paper testbeds.
func syntheticEvaluator(t testing.TB, seed int64) (*Evaluator, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo := cluster.NewRandom(seed, cluster.RandomSpec{MaxSwitches: 3, MaxNodesPerSwitch: 4})
	model := bench.Calibrate(topo, bench.Options{Reps: 2, Sizes: []int64{64, 4 << 10}, SkipLoadFit: rng.Intn(2) == 0})

	n := topo.NumNodes()
	ranks := 2 + rng.Intn(6)
	if ranks > n {
		ranks = n
	}
	profMap := make([]int, ranks)
	for r := range profMap {
		profMap[r] = rng.Intn(n)
	}
	prof := &profile.Profile{
		App:       fmt.Sprintf("syn-%d", seed),
		Cluster:   topo.Name,
		Ranks:     ranks,
		Mapping:   profMap,
		ArchSpeed: map[cluster.Arch]float64{},
	}
	for i := 0; i < n; i++ {
		a := topo.Node(i).Arch
		if _, ok := prof.ArchSpeed[a]; !ok {
			prof.ArchSpeed[a] = 0.5 + rng.Float64()
		}
	}
	segs := 1 + rng.Intn(3)
	for s := 0; s < segs; s++ {
		sp := profile.SegmentProfile{Name: fmt.Sprintf("seg%d", s)}
		for r := 0; r < ranks; r++ {
			pp := profile.ProcProfile{
				Rank:      r,
				X:         rng.Float64() * 2,
				O:         rng.Float64() * 0.2,
				B:         rng.Float64() * 0.5,
				ProfNode:  profMap[r],
				ProfSpeed: prof.ArchSpeed[topo.Node(profMap[r]).Arch],
			}
			for g := rng.Intn(3); g > 0; g-- {
				pp.Sends = append(pp.Sends, trace.MsgGroup{
					Peer: rng.Intn(ranks), Size: 64 << rng.Intn(7), Count: 1 + rng.Intn(20),
				})
			}
			for g := rng.Intn(3); g > 0; g-- {
				pp.Recvs = append(pp.Recvs, trace.MsgGroup{
					Peer: rng.Intn(ranks), Size: 64 << rng.Intn(7), Count: 1 + rng.Intn(20),
				})
			}
			sp.Procs = append(sp.Procs, pp)
		}
		prof.Segments = append(prof.Segments, sp)
	}
	if err := prof.ComputeLambdas(model); err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(topo, model, prof)
	if err != nil {
		t.Fatal(err)
	}
	return eval, rng
}

func randomSnapshot(n int, rng *rand.Rand) *monitor.Snapshot {
	s := monitor.IdleSnapshot(n)
	for i := 0; i < n; i++ {
		s.AvailCPU[i] = 0.05 + 0.95*rng.Float64()
		s.NICUtil[i] = 0.95 * rng.Float64()
	}
	return s
}

func randomValidMapping(ranks, nodes int, rng *rand.Rand) Mapping {
	m := make(Mapping, ranks)
	for r := range m {
		m[r] = rng.Intn(nodes)
	}
	return m
}

func assertClose(t *testing.T, got, want float64, what string) {
	t.Helper()
	tol := 1e-12 * math.Max(1, math.Abs(want))
	if diff := math.Abs(got - want); diff > tol || math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("%s: fast %v != reference %v (diff %g)", what, got, want, diff)
	}
}

// TestFastPathEquivalence: Energy ≡ referencePredict(...).Seconds over
// randomized topologies, profiles, snapshots, and mappings — the fast path
// checked against the independent eq-by-eq oracle (run under -race in CI).
func TestFastPathEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		eval, rng := syntheticEvaluator(t, seed)
		n := eval.Topo.NumNodes()
		snap := randomSnapshot(n, rng)
		sc := eval.Scorer()
		for trial := 0; trial < 25; trial++ {
			m := randomValidMapping(eval.Prof.Ranks, n, rng)
			pred, err := referencePredict(eval, m, snap)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.Energy(m, snap)
			if err != nil {
				t.Fatal(err)
			}
			assertClose(t, got, pred.Seconds, fmt.Sprintf("seed %d trial %d", seed, trial))
			// The pooled Evaluator.Energy front-end agrees too.
			got2, err := eval.Energy(m, snap)
			if err != nil {
				t.Fatal(err)
			}
			assertClose(t, got2, pred.Seconds, "pooled Energy")
		}
	}
}

// TestEnergyDeltaNoDrift walks long random move/swap sequences (the classic
// incremental-evaluator failure mode) and checks after every Apply that the
// running energy matches the oracle's fresh prediction, that Undo restores the
// previous energy exactly, and that unwinding the whole journal returns to
// the initial state.
func TestEnergyDeltaNoDrift(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		eval, rng := syntheticEvaluator(t, 100+seed)
		n := eval.Topo.NumNodes()
		ranks := eval.Prof.Ranks
		snap := randomSnapshot(n, rng)
		sc := eval.Scorer()
		m := randomValidMapping(ranks, n, rng)
		e0, err := sc.Energy(m, snap)
		if err != nil {
			t.Fatal(err)
		}
		var applied int
		for step := 0; step < 120; step++ {
			var mv Move
			if rng.Intn(2) == 0 && ranks >= 2 {
				mv = Move{Swap: true, A: rng.Intn(ranks), B: rng.Intn(ranks)}
			} else {
				mv = Move{Rank: rng.Intn(ranks), To: rng.Intn(n)}
			}
			before := sc.EnergyNow()
			got := sc.Apply(mv)
			applied++
			pred, err := referencePredict(eval, sc.Current(), snap)
			if err != nil {
				t.Fatal(err)
			}
			assertClose(t, got, pred.Seconds, fmt.Sprintf("seed %d step %d apply", seed, step))
			if got != sc.EnergyNow() {
				t.Fatal("Apply return disagrees with EnergyNow")
			}
			// Occasionally reject the move, like the annealer does.
			if rng.Intn(3) == 0 {
				sc.Undo()
				applied--
				assertClose(t, sc.EnergyNow(), before, fmt.Sprintf("seed %d step %d undo", seed, step))
			}
		}
		for ; applied > 0; applied-- {
			sc.Undo()
		}
		assertClose(t, sc.EnergyNow(), e0, fmt.Sprintf("seed %d full unwind", seed))
		if !sc.Current().Equal(m) {
			t.Fatalf("seed %d: unwound mapping %v != initial %v", seed, sc.Current(), m)
		}
	}
}

// TestCommBlindFastPath: the NCS evaluator derived with CommBlind matches
// the oracle's comm-blind prediction, stays below the full prediction, and
// shares the index.
func TestCommBlindFastPath(t *testing.T) {
	eval, rng := syntheticEvaluator(t, 7)
	blind := eval.CommBlind()
	if !blind.IgnoreComm || eval.IgnoreComm {
		t.Fatal("CommBlind flags wrong")
	}
	n := eval.Topo.NumNodes()
	snap := randomSnapshot(n, rng)
	sc := blind.Scorer()
	for trial := 0; trial < 20; trial++ {
		m := randomValidMapping(eval.Prof.Ranks, n, rng)
		pred, err := referencePredict(blind, m, snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.Energy(m, snap)
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, got, pred.Seconds, "comm-blind energy")
		full, err := eval.Energy(m, snap)
		if err != nil {
			t.Fatal(err)
		}
		if got > full {
			t.Fatalf("comm-blind energy %v above full %v", got, full)
		}
	}
}

// TestScorerRejectsInvalid mirrors Predict's validation.
func TestScorerRejectsInvalid(t *testing.T) {
	eval, rng := syntheticEvaluator(t, 3)
	_ = rng
	sc := eval.Scorer()
	snap := monitor.IdleSnapshot(eval.Topo.NumNodes())
	if _, err := sc.Energy(make(Mapping, eval.Prof.Ranks+1), snap); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	bad := make(Mapping, eval.Prof.Ranks)
	bad[0] = 9999
	if _, err := sc.Energy(bad, snap); err == nil {
		t.Fatal("invalid node accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Apply before Energy did not panic")
		}
	}()
	eval.Scorer().Apply(Move{})
}

// TestEvaluatorConcurrentUse hammers a shared evaluator from several
// goroutines mixing Predict, pooled Energy, and per-goroutine scorers — the
// shareability contract the parallel schedulers rely on (meaningful under
// -race).
func TestEvaluatorConcurrentUse(t *testing.T) {
	eval, rng := syntheticEvaluator(t, 11)
	n := eval.Topo.NumNodes()
	snap := randomSnapshot(n, rng)
	ms := make([]Mapping, 64)
	want := make([]float64, len(ms))
	for i := range ms {
		ms[i] = randomValidMapping(eval.Prof.Ranks, n, rng)
		p, err := eval.Predict(ms[i], snap)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Seconds
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := eval.Scorer()
			for i, m := range ms {
				var got float64
				var err error
				switch (i + w) % 3 {
				case 0:
					var p *Prediction
					p, err = eval.Predict(m, snap)
					if p != nil {
						got = p.Seconds
					}
				case 1:
					got, err = eval.Energy(m, snap)
				default:
					got, err = sc.Energy(m, snap)
				}
				if err != nil || got != want[i] {
					t.Errorf("worker %d mapping %d: got %v err %v, want %v", w, i, got, err, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Parallel Compare agrees with the precomputed minimum.
	preds, best, err := eval.Compare(ms, snap)
	if err != nil {
		t.Fatal(err)
	}
	wantBest := 0
	for i := range want {
		if want[i] < want[wantBest] {
			wantBest = i
		}
	}
	if best != wantBest || preds[best].Seconds != want[wantBest] {
		t.Fatalf("Compare best %d (%v), want %d (%v)", best, preds[best].Seconds, wantBest, want[wantBest])
	}
}

// FuzzEnergyDelta drives the incremental evaluator with fuzz-derived move
// sequences on a fixed synthetic fixture, cross-checking every step against
// a fresh referencePredict.
func FuzzEnergyDelta(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(2), []byte{0xff, 0x80, 0x01, 0x40, 0x7f})
	f.Add(int64(3), []byte{})
	eval, rng := syntheticEvaluator(f, 42)
	n := eval.Topo.NumNodes()
	ranks := eval.Prof.Ranks
	snap := randomSnapshot(n, rng)
	f.Fuzz(func(t *testing.T, mapSeed int64, moves []byte) {
		sc := eval.Scorer()
		m := randomValidMapping(ranks, n, rand.New(rand.NewSource(mapSeed)))
		if _, err := sc.Energy(m, snap); err != nil {
			t.Fatal(err)
		}
		if len(moves) > 64 {
			moves = moves[:64]
		}
		for i := 0; i+1 < len(moves); i += 2 {
			a, b := int(moves[i]), int(moves[i+1])
			var mv Move
			if a&1 == 0 {
				mv = Move{Swap: true, A: (a >> 1) % ranks, B: b % ranks}
			} else {
				mv = Move{Rank: (a >> 1) % ranks, To: b % n}
			}
			got := sc.Apply(mv)
			pred, err := referencePredict(eval, sc.Current(), snap)
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(got - pred.Seconds); diff > 1e-12*math.Max(1, math.Abs(pred.Seconds)) {
				t.Fatalf("move %d: fast %v != reference %v", i/2, got, pred.Seconds)
			}
		}
	})
}
