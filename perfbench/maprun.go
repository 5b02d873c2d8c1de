package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime/debug"
	"time"

	"cbes"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/schedule"
	"cbes/internal/workloads"
)

// jobApps are the applications map-and-run draws its jobs from.
var jobApps = []string{"lu.A.8", "aztec.8", "cg.A.8", "smg2000.50.8", "sweep3d.8", "hpl.5000.8", "phased.60.8"}

const (
	replayJobs = 5              // jobs a second System replays to check determinism
	setupCount = 5              // set-ups per run; setup_s is their median
	jobGap     = 2 * des.Second // simulated time between jobs
)

// mapRun is one calibrated Orange Grove System with seeded background
// load, submitting jobs one at a time: schedule with CS, predict, run,
// then place the same job with RS and run it as the benefit baseline.
type mapRun struct {
	sys   *cbes.System
	progs map[string]workloads.Program
	pool  []int
	seed  int64
}

// newMapRun sets the System up and reports the CPU and wall time
// set-up took: NewSystem, Calibrate and one Profile per application.
func newMapRun(seed int64) (r *mapRun, cpu, wall time.Duration, err error) {
	cpu0, start := selfCPU(), time.Now()
	sys, err := setupSystem(jobApps, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	cpu, wall = selfCPU()-cpu0, time.Since(start)
	r = &mapRun{sys: sys, progs: map[string]workloads.Program{}, seed: seed}
	for _, name := range jobApps {
		r.progs[name], _ = workloads.Lookup(name) // set-up already resolved every name
	}
	rng := rand.New(rand.NewSource(seed))
	for id := 0; id < sys.Topo.NumNodes(); id++ {
		r.pool = append(r.pool, id)
		sys.VC.RandomWalkLoad(id, 0.55+0.45*rng.Float64(), 0.03, des.Second, rng.Int63())
	}
	sys.Advance(5 * des.Second) // let the monitors observe the load
	return r, cpu, wall, nil
}

// jobResult is one job's outcome.
type jobResult struct {
	app                string
	decide             time.Duration
	evals              int
	schedTime          time.Duration
	predicted          float64
	csActual, rsActual float64
	runWall            time.Duration // wall time of the CS run
	simWall            time.Duration // wall time of both runs and the advance
	cpu                time.Duration // the benchmark process's CPU time over the job
	digest             uint64        // (mappings, simulated runtimes)
}

// jobStats is what one loop of jobs measured.
type jobStats struct {
	jobs    []jobResult
	wall    time.Duration // spent in this run's jobs
	events  uint64        // DES events processed
	epochs  uint64        // monitor epochs turned
	simWall time.Duration // wall time spent in runs and advances
	sim     float64       // simulated seconds advanced
}

// job runs job j; tr, when non-nil, records each call as a span.
func (r *mapRun) job(j int, tr *tracer) (jobResult, error) {
	app := jobApp(r.seed, j)
	prog := r.progs[app]
	res := jobResult{app: app}
	root := tr.id()
	jobStart := time.Now()
	defer func() { tr.record(root, 0, "job", jobStart, time.Now()) }()

	t := time.Now()
	dec, err := r.sys.Schedule(app, cbes.AlgCS, r.pool, int64(j))
	res.decide = time.Since(t)
	tr.record(tr.id(), root, "schedule.cs", t, t.Add(res.decide))
	if err != nil {
		return res, fmt.Errorf("job %d %s: schedule cs: %w", j, app, err)
	}
	res.evals, res.schedTime = dec.Evaluations, dec.SchedulerTime

	var pred *core.Prediction
	tr.timed("core.predict", root, func() { pred, err = r.sys.Predict(app, dec.Mapping) })
	if err != nil {
		return res, fmt.Errorf("job %d %s: predict: %w", j, app, err)
	}
	res.predicted = pred.Seconds
	if math.Float64bits(pred.Seconds) != math.Float64bits(dec.Predicted) {
		return res, fmt.Errorf("job %d %s: Predict %v differs from the decision's %v", j, app, pred.Seconds, dec.Predicted)
	}

	t = time.Now()
	run := r.sys.Run(prog, dec.Mapping)
	res.runWall = time.Since(t)
	tr.record(tr.id(), root, "mpisim.run", t, t.Add(res.runWall))
	res.csActual = run.Elapsed.Seconds()

	var rs *schedule.Decision
	tr.timed("schedule.rs", root, func() { rs, err = r.sys.Schedule(app, cbes.AlgRS, r.pool, int64(j)) })
	if err != nil {
		return res, fmt.Errorf("job %d %s: schedule rs: %w", j, app, err)
	}
	t2 := time.Now()
	tr.timed("mpisim.run", root, func() { res.rsActual = r.sys.Run(prog, rs.Mapping).Elapsed.Seconds() })
	tr.timed("system.advance", root, func() { r.sys.Advance(jobGap) })
	res.simWall = res.runWall + time.Since(t2)

	h := fnv.New64a()
	fmt.Fprint(h, app, dec.Mapping, math.Float64bits(res.csActual), rs.Mapping, math.Float64bits(res.rsActual))
	res.digest = h.Sum64()
	return res, nil
}

// jobApp draws job j's application: jobs come in rounds that hold every
// application once, in an order shuffled by seed and round, so each run
// sees the same mix whatever its length.
func jobApp(seed int64, j int) string {
	round := int64(j / len(jobApps))
	perm := rand.New(rand.NewSource(seed*31 + round)).Perm(len(jobApps))
	return jobApps[perm[j%len(jobApps)]]
}

// loop runs jobs 0, 1, ... on every run in lockstep, job j on each run
// before job j+1 on any, until budget elapses (budget > 0) or n jobs
// have run (n > 0). tracers[i], when non-nil, traces runs[i]. Runs in
// lockstep meet the same machine conditions, so their times compare.
func loop(runs []*mapRun, tracers []*tracer, budget time.Duration, n int) ([]jobStats, error) {
	st := make([]jobStats, len(runs))
	ev0 := make([]uint64, len(runs))
	ep0 := make([]uint64, len(runs))
	sim0 := make([]des.Time, len(runs))
	for i, r := range runs {
		ev0[i], ep0[i], sim0[i] = r.sys.Eng.Processed(), r.sys.Monitor.Epoch(), r.sys.Eng.Now()
	}
	start := time.Now()
	for j := 0; ; j++ {
		if (budget > 0 && time.Since(start) >= budget) || (n > 0 && j >= n) {
			break
		}
		for i, r := range runs {
			t, c := time.Now(), selfCPU()
			jr, err := r.job(j, tracers[i])
			if err != nil {
				return st, err
			}
			jr.cpu = selfCPU() - c
			st[i].wall += time.Since(t)
			st[i].simWall += jr.simWall
			st[i].jobs = append(st[i].jobs, jr)
		}
	}
	for i, r := range runs {
		st[i].events = r.sys.Eng.Processed() - ev0[i]
		st[i].epochs = r.sys.Monitor.Epoch() - ep0[i]
		st[i].sim = (r.sys.Eng.Now() - sim0[i]).Seconds()
	}
	return st, nil
}

// quality is the mean prediction error of the CS mapping and the mean
// CS benefit over RS, both in percent.
func (st jobStats) quality() (predErrPct, gainPct float64) {
	for _, j := range st.jobs {
		predErrPct += 100 * math.Abs(j.predicted-j.csActual) / j.csActual
		gainPct += 100 * (j.rsActual - j.csActual) / j.rsActual
	}
	n := float64(len(st.jobs))
	return predErrPct / n, gainPct / n
}

// roundCPUMs is the mean CPU milliseconds per job of each complete round
// of jobs: a round holds every application once, so rounds cost alike
// whatever the run's length.
func (st jobStats) roundCPUMs() []float64 {
	var out []float64
	n := len(jobApps)
	for r := 0; (r+1)*n <= len(st.jobs); r++ {
		var sum time.Duration
		for _, j := range st.jobs[r*n : (r+1)*n] {
			sum += j.cpu
		}
		out = append(out, ms(sum)/float64(n))
	}
	return out
}

func (st jobStats) decideMs() []float64 {
	var out []float64
	for _, j := range st.jobs {
		out = append(out, ms(j.decide))
	}
	return out
}

// sameDigests checks that two loops over the same seed produced the same
// mappings and simulated runtimes for their common prefix of jobs.
func sameDigests(a, b []jobResult, chk *checker) {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].digest != b[i].digest {
			chk.failf("job %d (%s): runs with the same seed diverged", i, a[i].app)
			return
		}
	}
}

// runMapAndRun runs the map-and-run workload.
func runMapAndRun(opt options, res *result) error {
	chk := &checker{}
	var setups, walls []float64
	newRun := func() (*mapRun, error) {
		r, cpu, wall, err := newMapRun(opt.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpu.Seconds())
		walls = append(walls, wall.Seconds())
		return r, nil
	}

	// A second System replays the first jobs; both runs share the seed,
	// so their mappings and simulated runtimes must agree exactly.
	ref, err := newRun()
	if err != nil {
		return err
	}
	refStats, err := loop([]*mapRun{ref}, []*tracer{nil}, 0, replayJobs)
	ref.sys.Close()
	if err != nil {
		return err
	}
	if !opt.trace {
		// The other timed set-ups run before the measured System exists,
		// so their memory stays out of its peak RSS.
		for i := 2; i < setupCount; i++ { // the reference and main runs make two
			r, err := newRun()
			if err != nil {
				return err
			}
			r.sys.Close()
		}
	}
	main, err := newRun()
	if err != nil {
		return err
	}
	defer main.sys.Close()
	budget := time.Duration(opt.seconds * float64(time.Second))

	if opt.trace {
		err = traceMapAndRun(opt, res, main, refStats[0], newRun, budget, chk)
	} else {
		err = measureMapAndRun(res, main, refStats[0], budget, chk)
		logf("setup: CPU %v s, wall %v s", setups, walls)
		res.set("setup_s", median(setups))
	}
	if err != nil {
		return err
	}
	if !chk.ok() {
		res.violations = append(res.violations, chk.first...)
	}
	return nil
}

// measureMapAndRun runs jobs on main for the budget and reports the
// end-to-end figures: cpu_ms_per_op is the median over complete rounds
// of the CPU time per job. rss_mb is the process's peak RSS over the job
// loop alone: the garbage of earlier set-ups is returned to the system
// and the peak reset before the first job.
func measureMapAndRun(res *result, main *mapRun, ref jobStats, budget time.Duration, chk *checker) error {
	setupRSS, err := selfPeakRSSMB()
	if err != nil {
		return err
	}
	debug.FreeOSMemory()
	if err := resetSelfPeakRSS(); err != nil {
		return err
	}
	sts, err := loop([]*mapRun{main}, []*tracer{nil}, budget, 0)
	if err != nil {
		return err
	}
	rss, err := selfPeakRSSMB()
	if err != nil {
		return err
	}
	res.set("rss_mb", rss)
	logf("peak RSS %.1f MB through the set-ups, %.1f MB over the job loop", setupRSS, rss)
	st := sts[0]
	if len(st.jobs) < len(jobApps) {
		return fmt.Errorf("only %d jobs ran; need a round of %d", len(st.jobs), len(jobApps))
	}
	sameDigests(ref.jobs, st.jobs, chk)
	res.Attempted = len(st.jobs)
	rounds := st.roundCPUMs()
	res.set("cpu_ms_per_op", median(rounds))
	decide := st.decideMs()
	predErr, gain := st.quality()
	logf("%d jobs in %.2f s; CPU per job by round %.1f ms; decide p50 %.2f ms p90 %.2f ms; pred err %.2f%%; gain %.2f%%",
		len(st.jobs), st.wall.Seconds(), rounds, percentile(decide, 50), percentile(decide, 90), predErr, gain)
	checkGain(chk, gain)
	return nil
}

// checkGain fails the run unless CS beat RS on average: the paper's
// benefit must be positive.
func checkGain(chk *checker, gain float64) {
	if !(gain > 0) {
		chk.failf("CS gained %.2f%% over RS; the paper's benefit must be positive", gain)
	}
}

// traceMapAndRun runs the same jobs on main untraced and on a fresh
// System traced, in lockstep, and reports the per-layer figures.
func traceMapAndRun(opt options, res *result, main *mapRun, ref jobStats, newRun func() (*mapRun, error), budget time.Duration, chk *checker) error {
	traced, err := newRun()
	if err != nil {
		return err
	}
	defer traced.sys.Close()
	tr := &tracer{}
	sts, err := loop([]*mapRun{main, traced}, []*tracer{nil, tr}, budget/2, 0)
	if err != nil {
		return err
	}
	untraced, st := sts[0], sts[1]
	sameDigests(ref.jobs, st.jobs, chk)
	sameDigests(untraced.jobs, st.jobs, chk)
	res.Attempted = len(st.jobs)

	var evals int
	var schedTime time.Duration
	var runMs []float64
	for _, j := range st.jobs {
		evals += j.evals
		schedTime += j.schedTime
		runMs = append(runMs, ms(j.runWall))
	}
	predErr, gain := st.quality()
	checkGain(chk, gain)
	deltaNs, err := replayDelta(tr, traced, opt.seed)
	if err != nil {
		return err
	}
	setup, err := replaySetup(tr, traced.sys.Topo, jobApps)
	if err != nil {
		return err
	}
	res.set("pred_err_pct", predErr)
	res.set("gain_pct", gain)
	res.set("fail_pct", 0) // a failed job aborts the run
	res.set("p50_ms", percentile(st.decideMs(), 50))
	res.set("p99_ms", percentile(st.decideMs(), 99))
	res.set("schedule.evals", float64(evals))
	res.set("schedule.evals_per_s", float64(evals)/schedTime.Seconds())
	res.set("core.delta_ns", deltaNs)
	res.set("core.predict_us", meanSpanUs(tr, "core.predict"))
	res.set("core.predicts", float64(len(st.jobs)))
	res.set("mpisim.run_ms", mean(runMs))
	res.set("des.events", float64(st.events))
	res.set("des.events_per_s", float64(st.events)/st.simWall.Seconds())
	res.set("des.sim_per_wall", st.sim/st.simWall.Seconds())
	res.set("monitor.epochs", float64(st.epochs))
	setSetupLayers(res, setup)
	res.set("trace.overhead_pct", 100*(st.wall.Seconds()-untraced.wall.Seconds())/untraced.wall.Seconds())
	logf("%d jobs each: traced %.3f s, untraced %.3f s", len(st.jobs), st.wall.Seconds(), untraced.wall.Seconds())
	return finishTrace(tr, opt, res)
}

// meanSpanUs is the mean duration of the named spans in microseconds.
func meanSpanUs(tr *tracer, name string) float64 {
	var total time.Duration
	n := 0
	for _, s := range tr.spans {
		if s.Name == name {
			total += s.End.Sub(s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(time.Microsecond) / float64(n)
}

// replayDelta times Scorer.Apply plus Undo of random moves on every job
// application's profile, from a random start mapping, against the live
// snapshot; it returns nanoseconds per Apply/Undo pair.
func replayDelta(tr *tracer, r *mapRun, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed + 17))
	snap := r.sys.Snapshot()
	const moves = 2000
	var total time.Duration
	n := 0
	for _, app := range jobApps {
		ev, err := r.sys.Evaluator(app)
		if err != nil {
			return 0, err
		}
		sc := ev.Scorer()
		ranks := r.progs[app].Ranks
		if _, err := sc.Energy(core.Mapping(rng.Perm(len(r.pool))[:ranks]), snap); err != nil {
			return 0, err
		}
		mvs := make([]core.Move, moves)
		for i := range mvs {
			if rng.Intn(2) == 0 {
				mvs[i] = core.Move{Rank: rng.Intn(ranks), To: rng.Intn(len(r.pool))}
			} else {
				a := rng.Intn(ranks)
				mvs[i] = core.Move{Swap: true, A: a, B: (a + 1 + rng.Intn(ranks-1)) % ranks}
			}
		}
		t := time.Now()
		for _, mv := range mvs {
			sc.Apply(mv)
			sc.Undo()
		}
		d := time.Since(t)
		tr.record(tr.id(), 0, "core.scorer_delta", t, t.Add(d))
		total += d
		n += moves
	}
	return float64(total.Nanoseconds()) / float64(n), nil
}
