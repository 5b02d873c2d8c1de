package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cbes"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/db"
	"cbes/internal/monitor"
	"cbes/internal/service"
)

// evalSpec is one open-loop prediction-serving workload.
type evalSpec struct {
	mix
	app      string    // application every request targets
	poolSize int       // distinct mappings requests draw from
	nominal  float64   // offered rate of the measured segments, ops/s
	ladder   []float64 // offered rates of the capacity ladder, ascending
	// minHit and maxHit bound the cache hit ratio for the run to exercise
	// what the workload is for.
	minHit, maxHit float64
	verify         int // pool mappings checked bit for bit before the first Advance
}

// daemonApps are the applications every cbesd boot profiles.
const daemonApps = "lu.B.8,aztec.8,hpl.5000.8,phased.60.8"

var evalSpecs = map[string]evalSpec{
	// Hot: a 64-mapping pool far below the 4096-entry cache, and rare
	// small Advances, so nearly every lookup hits.
	"evaluate-hot": {
		mix:      mix{evaluate: 0.50, compare: 0.49, width: 8, advance: 0.01},
		app:      "phased.60.8",
		poolSize: 64,
		nominal:  3000,
		ladder:   []float64{4000, 6000, 8000, 11000, 14000, 18000},
		minHit:   0.95, maxHit: 1,
		verify: 64,
	},
	// Cold: a pool 8x the cache, and Advances that cross a sampling round
	// and bump the epoch, so nearly every lookup misses.
	"evaluate-cold": {
		mix:      mix{evaluate: 0.80, compare: 0.15, width: 2, advance: 1.0},
		app:      "phased.60.8",
		poolSize: 1 << 15,
		nominal:  1000,
		ladder:   []float64{1000, 1500, 2000, 3000, 4000, 5000},
		minHit:   0, maxHit: 0.2,
		verify: 256,
	},
}

const (
	boots       = 5   // daemon boots per run; setup_s is their median
	connections = 2   // client connections (the box has 2 cores)
	genWorkers  = 256 // open-loop workers shared by the connections
)

// oracle is an in-process System built from the daemon's stored model
// and profiles: the reference a served prediction must equal bit for
// bit while the daemon's clock has not moved.
type oracle struct {
	sys  *cbes.System
	eval *core.Evaluator
	snap *monitor.Snapshot
}

func loadOracle(dir, app string) (*oracle, error) {
	store, err := db.Open(dir)
	if err != nil {
		return nil, err
	}
	topo := cluster.NewOrangeGrove()
	model, err := store.LoadModel(topo.Name)
	if err != nil {
		return nil, fmt.Errorf("load stored model: %w", err)
	}
	sys := cbes.NewSystem(topo, cbes.Config{})
	if err := sys.UseModel(model); err != nil {
		sys.Close()
		return nil, err
	}
	prof, err := store.LoadProfile(app)
	if err != nil {
		sys.Close()
		return nil, fmt.Errorf("load stored profile: %w", err)
	}
	sys.RegisterProfile(prof)
	ev, err := sys.Evaluator(app)
	if err != nil {
		sys.Close()
		return nil, err
	}
	return &oracle{sys: sys, eval: ev, snap: sys.Snapshot()}, nil
}

// verifyBeforeAdvance checks served predictions against the oracle bit
// for bit, through Evaluate and Compare, before any Advance is sent.
func verifyBeforeAdvance(c *service.Client, o *oracle, app string, pool [][]int, chk *checker) error {
	want := make([]float64, len(pool))
	for i, m := range pool {
		p, err := o.eval.Predict(core.Mapping(m), o.snap)
		if err != nil {
			return fmt.Errorf("oracle predict: %w", err)
		}
		want[i] = p.Seconds
		rep, err := c.Evaluate(app, m)
		if err != nil {
			return fmt.Errorf("verify evaluate: %w", err)
		}
		checkEvaluate(chk, rep)
		if math.Float64bits(rep.Seconds) != math.Float64bits(want[i]) {
			chk.failf("Evaluate %v: served %v, oracle %v", m, rep.Seconds, want[i])
		}
	}
	for i := 0; i+2 <= len(pool); i += 2 {
		rep, err := c.Compare(app, pool[i:i+2])
		if err != nil {
			return fmt.Errorf("verify compare: %w", err)
		}
		checkCompare(chk, rep, 2)
		for j, s := range rep.Seconds {
			if math.Float64bits(s) != math.Float64bits(want[i+j]) {
				chk.failf("Compare %v: served %v, oracle %v", pool[i+j], s, want[i+j])
			}
		}
	}
	return nil
}

// runEvaluate runs one evaluate-* workload against a cbesd child.
func runEvaluate(spec evalSpec, opt options, res *result) error {
	d, bootTimes, err := bootDaemons(opt.cbesd, opt.workdir, daemonApps, boots)
	if err != nil {
		return err
	}
	defer d.stop()
	res.set("setup_s", median(bootTimes))

	var conns []*conn
	for i := 0; i < connections; i++ {
		c, err := service.Dial(d.addr)
		if err != nil {
			return err
		}
		defer c.Close()
		c.SetRetryPolicy(service.RetryPolicy{Max: -1}) // count failures, never hide them
		conns = append(conns, &conn{c: c})
	}

	rng := rand.New(rand.NewSource(opt.seed))
	pool := genPool(rng, spec.poolSize, 8, 28)
	orc, err := loadOracle(d.db, spec.app)
	if err != nil {
		return err
	}
	defer orc.sys.Close()
	chk := &checker{}
	st0, err := conns[0].c.Status()
	if err != nil {
		return err
	}
	if err := verifyBeforeAdvance(conns[0].c, orc, spec.app, pool[:spec.verify], chk); err != nil {
		return err
	}
	if st1, err := conns[0].c.Status(); err != nil {
		return err
	} else if st1.Epoch != st0.Epoch {
		chk.failf("epoch moved from %d to %d with no Advance sent", st0.Epoch, st1.Epoch)
	}

	gen := &loadGen{conns: conns, app: spec.app, pool: pool, mix: spec.mix, workers: genWorkers, chk: chk}
	if opt.trace {
		err = traceEvaluate(gen, d, spec, opt, res, orc, pool)
	} else {
		err = measureEvaluate(gen, spec, opt, d, res)
	}
	if err != nil {
		return err
	}
	if !chk.ok() {
		res.violations = append(res.violations, chk.first...)
	}
	return nil
}

// segments make up a measured run, each at the nominal rate for an equal
// share of it; the run reports the median over them, so a slow stretch
// of a shared host moves a segment, not the run.
const segments = 10

// opsFor draws the operations of one segment; each segment has its own
// stream, derived from the seed and the segment's key.
func opsFor(spec evalSpec, opt options, key int64, rate, secs float64) []op {
	r := rand.New(rand.NewSource(opt.seed*7919 + key))
	return genOps(r, spec.mix, int(rate*secs), spec.poolSize)
}

// validity gathers what the workload validity checks need over a run's
// nominal segments.
type validity struct {
	hits, misses float64
	late         []float64     // generator lateness, ms
	completed    int           // operations answered
	span         time.Duration // first due time to last reply, summed over segments
}

// check reports the run invalid unless, over all its nominal segments,
// it exercised what the workload is for: the cache hit ratio stayed in
// the workload's range and completions kept pace with the nominal rate,
// by the ladder's pace rule. Generator lateness is logged, not bounded:
// on a shared host the hypervisor steals the generator's CPU as it does
// the service's, and the per-operation CPU cost the run reports does
// not depend on when each operation went out.
func (v *validity) check(spec evalSpec, res *result) {
	hitRatio := v.hits / math.Max(1, v.hits+v.misses)
	pace := float64(v.completed) / v.span.Seconds()
	logf("nominal segments: hit ratio %.4f of %.0f lookups, pace %.0f/s, late p50 %.3f ms",
		hitRatio, v.hits+v.misses, pace, percentile(v.late, 50))
	if hitRatio < spec.minHit || hitRatio > spec.maxHit {
		res.invalid = append(res.invalid, fmt.Sprintf("cache hit ratio %.4f outside [%.2f, %.2f]", hitRatio, spec.minHit, spec.maxHit))
	}
	if !(pace >= defaultLadderRule.minPaceRatio*spec.nominal) {
		res.invalid = append(res.invalid, fmt.Sprintf("completions %.0f/s fell behind the nominal %.0f/s", pace, spec.nominal))
	}
}

// nominal runs one segment at the nominal rate, adds its cache lookups
// and generator lateness to v, and returns the daemon's CPU milliseconds
// per operation over it.
func nominal(gen *loadGen, d *daemon, spec evalSpec, ops []op, res *result, v *validity) (phaseRun, float64, error) {
	c := gen.conns[0].c
	m0, err := scrape(c)
	if err != nil {
		return phaseRun{}, 0, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return phaseRun{}, 0, err
	}
	pr := gen.run(ops, spec.nominal, nil)
	cpu1, err := d.cpu()
	if err != nil {
		return phaseRun{}, 0, err
	}
	m1, err := scrape(c)
	if err != nil {
		return phaseRun{}, 0, err
	}
	p := summarise(spec.nominal, pr.samples)
	res.Attempted += p.tally.attempted
	res.Failed += p.tally.failed
	hits := delta(m0, m1, "cbes_predcache_hits_total")
	misses := delta(m0, m1, "cbes_predcache_misses_total")
	v.hits += hits
	v.misses += misses
	v.late = append(v.late, p.late...)
	v.completed += p.tally.attempted - p.tally.failed
	v.span += p.span
	cpuMs := ms(cpu1-cpu0) / float64(max(1, p.tally.attempted))
	logf("nominal %.0f ops/s: %d ops, daemon CPU %.4f ms/op, p50 %.3f ms, p99 %.3f ms, failed %d, brownout %d, hit ratio %.4f of %.0f lookups, late p50 %.3f ms",
		spec.nominal, p.tally.attempted, cpuMs, percentile(p.latency, 50), percentile(p.latency, 99),
		p.tally.failed, p.tally.brownout, hits/math.Max(1, hits+misses), hits+misses, percentile(p.late, 50))
	return pr, cpuMs, nil
}

// measureEvaluate runs the end-to-end measurement: segments at the
// nominal rate, reporting the median over them of the daemon's CPU time
// per operation. The daemon's peak RSS is read after the first segment.
func measureEvaluate(gen *loadGen, spec evalSpec, opt options, d *daemon, res *result) error {
	secs := opt.seconds / segments
	var cpuMs []float64
	var v validity
	for k := int64(0); k < segments; k++ {
		_, c, err := nominal(gen, d, spec, opsFor(spec, opt, 10+k, spec.nominal, secs), res, &v)
		if err != nil {
			return err
		}
		cpuMs = append(cpuMs, c)
		if k == 0 {
			rss, err := d.peakRSSMB()
			if err != nil {
				return err
			}
			res.set("rss_mb", rss)
		}
	}
	v.check(spec, res)
	res.set("cpu_ms_per_op", median(cpuMs))
	return nil
}

// runLadder finds the highest rate that passes the ladder rule by
// offering the workload's ladder rates and then growing past the top
// one (see searchCapacity); each step lasts stepSecs.
func runLadder(gen *loadGen, spec evalSpec, opt options, stepSecs float64) float64 {
	k := int64(0)
	return searchCapacity(spec.ladder, func(rate float64) bool {
		k++
		r := rand.New(rand.NewSource(opt.seed*7919 + 100 + k))
		ops := genOps(r, spec.mix, int(rate*stepSecs), spec.poolSize)
		p := summarise(rate, gen.run(ops, rate, nil).samples)
		ok, why := defaultLadderRule.passes(p)
		logf("ladder %.0f ops/s: p99 %.3f ms, failed %d, brownout %d, pace %.0f/s, pass %v %s",
			rate, percentile(append([]float64(nil), p.latency...), 99), p.tally.failed, p.tally.brownout,
			p.completionRate(), ok, why)
		time.Sleep(50 * time.Millisecond) // let the step's stragglers drain
		return ok
	})
}

// traceEvaluate reruns the nominal phase with the same operations and
// tracing on, then replays the recorded stream through each layer.
func traceEvaluate(gen *loadGen, d *daemon, spec evalSpec, opt options, res *result, orc *oracle, pool [][]int) error {
	// The same operations run untraced, then traced.
	secs := 0.3 * opt.seconds
	var v validity
	upr, _, err := nominal(gen, d, spec, opsFor(spec, opt, 1, spec.nominal, secs), res, &v)
	if err != nil {
		return err
	}
	v.check(spec, res)
	untraced := summarise(spec.nominal, upr.samples)
	tr := &tracer{}
	c := gen.conns[0].c
	m0, err := scrape(c)
	if err != nil {
		return err
	}
	st0, err := c.Status()
	if err != nil {
		return err
	}
	pr := gen.run(opsFor(spec, opt, 1, spec.nominal, secs), spec.nominal, tr)
	m1, err := scrape(c)
	if err != nil {
		return err
	}
	st1, err := c.Status()
	if err != nil {
		return err
	}
	traced := summarise(spec.nominal, pr.samples)
	res.Attempted += traced.tally.attempted
	res.Failed += traced.tally.failed

	var reqs float64
	var serverSum float64
	for _, m := range []string{"Evaluate", "Compare"} {
		reqs += delta(m0, m1, `cbes_rpc_seconds_count{method="`+m+`"}`)
		serverSum += delta(m0, m1, `cbes_rpc_seconds_sum{method="`+m+`"}`)
	}
	serverUs := 1e6 * serverSum / math.Max(1, reqs)
	var clientSvc []float64
	for i, s := range pr.samples {
		if pr.kinds[i] != opAdvance && s.outcome != outcomeFailed {
			clientSvc = append(clientSvc, ms(s.service())*1e3)
		}
	}
	hits := delta(m0, m1, "cbes_predcache_hits_total")
	misses := delta(m0, m1, "cbes_predcache_misses_total")
	missFrac := misses / math.Max(1, hits+misses)

	codecUs, codecBytes, err := replayCodec(tr, pr.records)
	if err != nil {
		return err
	}
	admUs, err := replayAdmission(tr, pr.records, missFrac)
	if err != nil {
		return err
	}
	ledgerUs := replayLedger(tr, pr.records, spec.app)
	obsUs := replayObs(tr, pr.records, spec.app, missFrac)
	missed := pool
	if len(missed) > 512 {
		missed = missed[:512]
	}
	predictUs, err := replayPredict(tr, orc.eval, orc.snap, missed)
	if err != nil {
		return err
	}
	lookupsPerReq := (hits + misses) / math.Max(1, reqs)
	st, err := replaySetup(tr, cluster.NewOrangeGrove(), strings.Split(daemonApps, ","))
	if err != nil {
		return err
	}

	res.set("service.server_us", serverUs)
	res.set("service.transport_us", mean(clientSvc)-serverUs)
	res.set("codec.us_per_req", codecUs)
	res.set("codec.bytes_per_req", codecBytes)
	res.set("cache.hit_ratio", 1-missFrac)
	res.set("cache.lookups", hits+misses)
	res.set("core.predict_us", predictUs)
	res.set("core.predicts", delta(m0, m1, "cbes_core_predict_total"))
	res.set("admission.us_per_req", admUs)
	res.set("admission.shed", delta(m0, m1, `cbes_admission_shed_total{class="expensive"}`)+delta(m0, m1, `cbes_admission_shed_total{class="cheap"}`))
	res.set("admission.limit", m1["cbes_admission_limit"])
	res.set("accuracy.begin_us", ledgerUs)
	res.set("obs.us_per_req", obsUs)
	res.set("service.unattributed_us", serverUs-admUs-ledgerUs-obsUs-predictUs*missFrac*lookupsPerReq)
	res.set("service.advance_ms", mean(pr.advances))
	res.set("monitor.epochs", float64(st1.Epoch-st0.Epoch))
	res.set("gen.late_p99_ms", percentile(traced.late, 99))
	res.set("gen.late_max_ms", percentile(traced.late, 100))
	res.set("fail_pct", traced.tally.failPct())
	res.set("brownout_pct", traced.tally.brownoutPct())
	setSetupLayers(res, st)
	untracedP50 := percentile(untraced.latency, 50)
	res.set("trace.overhead_pct", 100*(percentile(traced.latency, 50)-untracedP50)/untracedP50)
	res.set("p50_ms", untracedP50)
	res.set("p99_ms", percentile(untraced.latency, 99))
	res.set("max_rps", runLadder(gen, spec, opt, 0.04*opt.seconds))
	logf("traced: server %.1f us/req (%.0f reqs), client %.1f us, lookups/req %.2f, miss %.4f",
		serverUs, reqs, mean(clientSvc), lookupsPerReq, missFrac)
	return finishTrace(tr, opt, res)
}

// setSetupLayers reports the set-up replay per stage.
func setSetupLayers(res *result, st setupTimes) {
	res.set("bench.calibrate_ms", ms(st.calibrate))
	res.set("profile.sim_ms", ms(st.sim))
	res.set("profile.speeds_ms", ms(st.speeds))
	res.set("profile.analyse_ms", ms(st.analyse))
}

// finishTrace writes the spans out and prints the self-time table.
func finishTrace(tr *tracer, opt options, res *result) error {
	res.set("trace.spans", float64(len(tr.spans)))
	printSelfTimes(os.Stderr, selfTimes(tr.spans))
	path := filepath.Join(opt.tracedir, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
	if err := tr.writeSpans(path); err != nil {
		return err
	}
	logf("spans written to %s", path)
	return nil
}
