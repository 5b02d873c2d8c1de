package cbes_test

// The benchmark harness: one testing.B benchmark per paper table/figure
// (regenerating a reduced-scale version of each experiment), plus
// component micro-benchmarks and ablation benches for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Full-scale regeneration of the tables/figures is done by
// cmd/experiments, not by these benchmarks.

import (
	"sync"
	"testing"
	"time"

	"cbes"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/experiments"
	"cbes/internal/monitor"
	"cbes/internal/schedule"
	"cbes/internal/workloads"
)

// skipSlowBench gates the experiment-suite benchmarks (several seconds
// per op each) out of -short runs, so `make bench-quick` can smoke every
// remaining benchmark body once under -race in reasonable time.
func skipSlowBench(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("multi-second experiment benchmark skipped in -short mode")
	}
}

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

// labForBench shares one calibrated lab across all benchmarks.
func labForBench(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.Config{Seed: 42})
	})
	return benchLab
}

func benchCfg(seed int64) experiments.Config {
	return experiments.Config{Seed: seed, Scale: 0.02}
}

func BenchmarkPhase1Sweep(b *testing.B) {
	l := labForBench(b)
	for i := 0; i < b.N; i++ {
		experiments.Phase1Sweep(l, benchCfg(int64(i)))
	}
}

func BenchmarkFig5Predictions(b *testing.B) {
	skipSlowBench(b)
	l := labForBench(b)
	for i := 0; i < b.N; i++ {
		experiments.Fig5(l, benchCfg(int64(i)))
	}
}

func BenchmarkPhase3LoadSensitivity(b *testing.B) {
	skipSlowBench(b)
	l := labForBench(b)
	for i := 0; i < b.N; i++ {
		experiments.Phase3LoadSensitivity(l, benchCfg(int64(i)))
	}
}

func BenchmarkFig6Zones(b *testing.B) {
	skipSlowBench(b)
	l := labForBench(b)
	for i := 0; i < b.N; i++ {
		experiments.Fig6LUZones(l, benchCfg(int64(i)))
	}
}

func BenchmarkTable1LUBestWorst(b *testing.B) {
	skipSlowBench(b)
	l := labForBench(b)
	for i := 0; i < b.N; i++ {
		experiments.Table1(l, benchCfg(int64(i)))
	}
}

func BenchmarkTable2LUAverage(b *testing.B) {
	skipSlowBench(b)
	l := labForBench(b)
	for i := 0; i < b.N; i++ {
		experiments.Table2(l, benchCfg(int64(i)))
	}
}

func BenchmarkFig7Distributions(b *testing.B) {
	skipSlowBench(b)
	l := labForBench(b)
	t2 := experiments.Table2(l, benchCfg(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig7(t2)
	}
}

func BenchmarkTable3OtherBestWorst(b *testing.B) {
	skipSlowBench(b)
	l := labForBench(b)
	for i := 0; i < b.N; i++ {
		experiments.Table3(l, benchCfg(int64(i)))
	}
}

func BenchmarkTable4OtherAverage(b *testing.B) {
	skipSlowBench(b)
	l := labForBench(b)
	for i := 0; i < b.N; i++ {
		experiments.Table4(l, benchCfg(int64(i)))
	}
}

func BenchmarkHeadline(b *testing.B) {
	skipSlowBench(b)
	l := labForBench(b)
	for i := 0; i < b.N; i++ {
		experiments.Headline(l, benchCfg(int64(i)))
	}
}

func BenchmarkAblations(b *testing.B) {
	l := labForBench(b)
	for i := 0; i < b.N; i++ {
		experiments.Ablations(l, benchCfg(int64(i)))
	}
}

// --- component micro-benchmarks -------------------------------------------

// benchSystem builds a calibrated System with a profiled app once.
var (
	benchSysOnce sync.Once
	benchSys     *cbes.System
	benchProg    workloads.Program
)

func systemForBench(b *testing.B) (*cbes.System, workloads.Program) {
	b.Helper()
	benchSysOnce.Do(func() {
		benchSys = cbes.NewSystem(cluster.NewOrangeGrove(), cbes.Config{})
		benchSys.Calibrate(bench.Options{Reps: 3})
		benchProg = workloads.Aztec(8)
		benchSys.MustProfile(benchProg, benchSys.Topo.NodesByArch(cluster.ArchAlpha))
	})
	return benchSys, benchProg
}

// BenchmarkMappingEvaluation measures the throughput of the core CBES
// prediction operation — the energy function the SA scheduler drives.
func BenchmarkMappingEvaluation(b *testing.B) {
	sys, prog := systemForBench(b)
	eval, err := sys.Evaluator(prog.Name)
	if err != nil {
		b.Fatal(err)
	}
	snap := monitor.IdleSnapshot(sys.Topo.NumNodes())
	m := core.Mapping(sys.Topo.NodesByArch(cluster.ArchAlpha))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Predict(m, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// Scheduler benches: one full scheduling decision per iteration.
func benchScheduler(b *testing.B, alg cbes.Algorithm) {
	sys, prog := systemForBench(b)
	pool := sys.Pool(cluster.ArchAlpha, cluster.ArchIntel, cluster.ArchSPARC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Schedule(prog.Name, alg, pool, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerCS(b *testing.B)  { benchScheduler(b, cbes.AlgCS) }
func BenchmarkSchedulerNCS(b *testing.B) { benchScheduler(b, cbes.AlgNCS) }
func BenchmarkSchedulerGA(b *testing.B)  { benchScheduler(b, cbes.AlgGA) }
func BenchmarkSchedulerRS(b *testing.B)  { benchScheduler(b, cbes.AlgRS) }

// BenchmarkSchedulerExhaustive measures full enumeration on the 8-node
// Alpha pool (8! mappings).
func BenchmarkSchedulerExhaustive(b *testing.B) {
	sys, prog := systemForBench(b)
	eval, err := sys.Evaluator(prog.Name)
	if err != nil {
		b.Fatal(err)
	}
	pool := sys.Topo.NodesByArch(cluster.ArchAlpha)
	snap := monitor.IdleSnapshot(sys.Topo.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Exhaustive(&schedule.Request{
			Eval: eval, Snap: snap, Pool: pool, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation bench: class-representative vs all-pairs calibration cost (the
// O(N) infrastructure claim of §2).
func BenchmarkCalibrateByClass(b *testing.B) {
	topo := cluster.NewOrangeGrove()
	for i := 0; i < b.N; i++ {
		bench.Calibrate(topo, bench.Options{Reps: 3, Sizes: []int64{64, 8 << 10}, SkipLoadFit: true})
	}
}

func BenchmarkCalibrateAllPairs(b *testing.B) {
	topo := cluster.NewOrangeGrove()
	for i := 0; i < b.N; i++ {
		bench.Calibrate(topo, bench.Options{Reps: 3, Sizes: []int64{64, 8 << 10}, SkipLoadFit: true, AllPairs: true})
	}
}

// BenchmarkApplicationRun measures end-to-end simulated execution of the
// LU model on the virtual cluster (the heaviest experiment component).
func BenchmarkApplicationRun(b *testing.B) {
	sys, _ := systemForBench(b)
	prog := workloads.LU(workloads.ClassA, 8)
	mapping := core.Mapping(sys.Topo.NodesByArch(cluster.ArchAlpha))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(prog, mapping)
	}
}

// BenchmarkProfilePipeline measures trace -> profile -> λ end to end.
func BenchmarkProfilePipeline(b *testing.B) {
	sys, prog := systemForBench(b)
	mapping := sys.Topo.NodesByArch(cluster.ArchAlpha)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Profile(prog, mapping); err != nil {
			b.Fatal(err)
		}
	}
}

// --- fast-path benchmarks -------------------------------------------------

// BenchmarkEnergyFastPath measures the allocation-free full evaluation
// (Scorer.Energy) on the same workload as BenchmarkMappingEvaluation.
func BenchmarkEnergyFastPath(b *testing.B) {
	sys, prog := systemForBench(b)
	eval, err := sys.Evaluator(prog.Name)
	if err != nil {
		b.Fatal(err)
	}
	snap := monitor.IdleSnapshot(sys.Topo.NumNodes())
	m := core.Mapping(sys.Topo.NodesByArch(cluster.ArchAlpha))
	sc := eval.Scorer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Energy(m, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnergyDelta measures incremental re-scoring of single moves —
// the per-proposal cost the SA scheduler actually pays.
func BenchmarkEnergyDelta(b *testing.B) {
	sys, prog := systemForBench(b)
	eval, err := sys.Evaluator(prog.Name)
	if err != nil {
		b.Fatal(err)
	}
	snap := monitor.IdleSnapshot(sys.Topo.NumNodes())
	pool := sys.Pool(cluster.ArchAlpha, cluster.ArchIntel, cluster.ArchSPARC)
	m := make(core.Mapping, prog.Ranks)
	copy(m, pool)
	sc := eval.Scorer()
	if _, err := sc.Energy(m, snap); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Apply(core.Move{Rank: i % prog.Ranks, To: pool[i%len(pool)]})
		sc.Undo()
	}
}

// saThroughput times full SA scheduling decisions and reports energy
// evaluations per second of wall time.
func saThroughput(b *testing.B, run func(seed int64) int) {
	b.Helper()
	evals := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		evals += run(int64(i))
	}
	secs := time.Since(start).Seconds()
	if secs > 0 {
		b.ReportMetric(float64(evals)/secs, "evals/s")
	}
}

// BenchmarkSASchedulingFast is a full CS scheduling decision on Orange
// Grove via the incremental fast path (the production configuration). Its
// reference-scored baseline, BenchmarkSASchedulingPredictBaseline, and the
// TestFastPathSpeedupTarget gate live in internal/core.
func BenchmarkSASchedulingFast(b *testing.B) {
	sys, prog := systemForBench(b)
	eval, err := sys.Evaluator(prog.Name)
	if err != nil {
		b.Fatal(err)
	}
	pool := sys.Pool(cluster.ArchAlpha, cluster.ArchIntel, cluster.ArchSPARC)
	snap := monitor.IdleSnapshot(sys.Topo.NumNodes())
	saThroughput(b, func(seed int64) int {
		d, err := schedule.SimulatedAnnealing(&schedule.Request{
			Eval: eval, Snap: snap, Pool: pool, Seed: seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		return d.Evaluations
	})
}
