package core_test

// The fast-path speedup gate. It lives in an external test package so its
// baseline can score proposals with the eq-by-eq oracle (ReferencePredict)
// on a full cbes.System, without an import cycle.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"cbes"
	"cbes/internal/anneal"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/monitor"
	"cbes/internal/raceflag"
	"cbes/internal/schedule"
	"cbes/internal/workloads"
)

var (
	groveOnce sync.Once
	groveEval *core.Evaluator
	grovePool []int
)

// groveAztec returns the evaluator of Aztec(8), profiled on the Alpha
// nodes of a calibrated Orange Grove, and the mixed-architecture pool the
// SA scheduling benchmarks search over.
func groveAztec(tb testing.TB) (*core.Evaluator, []int) {
	tb.Helper()
	groveOnce.Do(func() {
		sys := cbes.NewSystem(cluster.NewOrangeGrove(), cbes.Config{})
		sys.Calibrate(bench.Options{Reps: 3})
		prog := workloads.Aztec(8)
		sys.MustProfile(prog, sys.Topo.NodesByArch(cluster.ArchAlpha))
		groveEval, _ = sys.Evaluator(prog.Name)
		grovePool = sys.Pool(cluster.ArchAlpha, cluster.ArchIntel, cluster.ArchSPARC)
	})
	if groveEval == nil {
		tb.Fatal("no evaluator for the Aztec(8) profile")
	}
	return groveEval, grovePool
}

// saPredictBaseline runs one SA restart sequence the way the scheduler
// did before the fast path existed: 4 restarts, 1000 evaluations each,
// clone-based neighbor proposals, every proposal scored by the eq-by-eq
// reference prediction. Returns total evaluations performed.
func saPredictBaseline(tb testing.TB, eval *core.Evaluator, snap *monitor.Snapshot, pool []int, seed int64) int {
	energy := func(m core.Mapping) float64 {
		p, err := core.ReferencePredict(eval, m, snap)
		if err != nil {
			tb.Fatal(err)
		}
		return p.Seconds
	}
	total := 0
	for r := 0; r < 4; r++ {
		rng := rand.New(rand.NewSource(seed + int64(1000*r)))
		init := make(core.Mapping, eval.Prof.Ranks)
		used := map[int]int{}
		for i := range init {
			for {
				n := pool[rng.Intn(len(pool))]
				if used[n] < 1 {
					init[i] = n
					used[n]++
					break
				}
			}
		}
		_, _, st := anneal.Minimize(anneal.Config{
			Seed:           seed + int64(1000*r) + 1,
			MaxEvaluations: 1000,
		}, init, energy, func(m core.Mapping, rng *rand.Rand) core.Mapping {
			nm := m.Clone()
			if rng.Intn(2) == 0 && len(nm) >= 2 {
				i, j := rng.Intn(len(nm)), rng.Intn(len(nm))
				nm[i], nm[j] = nm[j], nm[i]
				return nm
			}
			u := nm.Multiplicity()
			i := rng.Intn(len(nm))
			for a := 0; a < 8*len(pool); a++ {
				n := pool[rng.Intn(len(pool))]
				if n != nm[i] && u[n] < 1 {
					nm[i] = n
					break
				}
			}
			return nm
		})
		total += st.Evaluations
	}
	return total
}

// BenchmarkSASchedulingPredictBaseline is the pre-fast-path configuration
// for comparison with BenchmarkSASchedulingFast (in the root package): the
// same annealing schedule and effort, but every proposal is a mapping
// clone scored by the eq-by-eq reference prediction. Reports evals/s; the
// ≥3× gap is asserted by TestFastPathSpeedupTarget.
func BenchmarkSASchedulingPredictBaseline(b *testing.B) {
	eval, pool := groveAztec(b)
	snap := monitor.IdleSnapshot(eval.Topo.NumNodes())
	evals := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		evals += saPredictBaseline(b, eval, snap, pool, int64(i))
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(evals)/secs, "evals/s")
	}
}

// TestFastPathSpeedupTarget asserts the headline claim: SA scheduling on
// Orange Grove achieves several times the energy-evaluation throughput of
// the baseline that scores every proposal with the eq-by-eq reference
// prediction. The measured gap is ~5× — it was over an order of magnitude
// before the topology's path-signature cache sped up the reference lookup
// itself — so the floor is a conservative 3×.
func TestFastPathSpeedupTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation penalizes the two paths unevenly; ratio is meaningless")
	}
	eval, pool := groveAztec(t)
	snap := monitor.IdleSnapshot(eval.Topo.NumNodes())

	rate := func(run func(seed int64) int) float64 {
		// Warm up once, then time a few decisions.
		run(0)
		evals := 0
		start := time.Now()
		for s := int64(1); s <= 3; s++ {
			evals += run(s)
		}
		return float64(evals) / time.Since(start).Seconds()
	}
	fast := rate(func(seed int64) int {
		d, err := schedule.SimulatedAnnealing(&schedule.Request{
			Eval: eval, Snap: snap, Pool: pool, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d.Evaluations
	})
	baseline := rate(func(seed int64) int {
		return saPredictBaseline(t, eval, snap, pool, seed)
	})
	if fast < 3*baseline {
		t.Fatalf("fast path %.0f evals/s < 3x baseline %.0f evals/s", fast, baseline)
	}
	t.Logf("fast %.0f evals/s, baseline %.0f evals/s (%.1fx)", fast, baseline, fast/baseline)
}
