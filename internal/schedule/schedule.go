// Package schedule implements the CBES-supported schedulers of §6:
//
//   - CS  — the default CBES scheduler: simulated annealing with the full
//     mapping-evaluation operation (eq. 4) as energy function;
//   - NCS — the same simulated annealing but with a cost function that
//     ignores the communication term (eq. 8): it scores mappings by
//     computation speed and CPU load only and cannot predict times;
//   - RS  — a simple random scheduler that picks any valid mapping from a
//     pool of nodes considered equivalent;
//   - GA  — a genetic-algorithm scheduler (the paper's future work);
//   - Exhaustive — full enumeration for small pools, used to establish
//     ground-truth best/worst mappings in the evaluation.
//
// All schedulers respect an administrative node pool and a per-node slot
// capacity, and are deterministic for a fixed seed.
//
// The search-based schedulers run on the core fast path: SA proposes typed
// moves scored by incremental delta-evaluation (core.Scorer), independent
// SA restarts run on a bounded worker pool, GA fitness uses the
// allocation-free full evaluation, and the exhaustive walk re-scores only
// the rank it reassigns at each level of its recursion.
package schedule

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cbes/internal/anneal"
	"cbes/internal/core"
	"cbes/internal/genetic"
	"cbes/internal/monitor"
	"cbes/internal/obs"
)

// Scheduler observability, split by algorithm name ("cs", "ncs", "rs",
// "ga", "exhaustive" — fixed cardinality). Children are resolved lazily
// per decision, which is far off the hot loop (the hot loop is the
// energy evaluation, instrumented in core).
var (
	metricRequests = obs.Default().CounterVec(
		"cbes_schedule_requests_total", "Scheduling decisions requested.", "alg")
	metricErrors = obs.Default().CounterVec(
		"cbes_schedule_errors_total", "Scheduling requests that returned an error.", "alg")
	metricEvals = obs.Default().CounterVec(
		"cbes_schedule_evals_total", "Cost-function evaluations spent by finished decisions.", "alg")
	metricSeconds = obs.Default().HistogramVec(
		"cbes_schedule_seconds", "Wall time of scheduling decisions.", nil, "alg")
	metricConstraintFailures = obs.Default().Counter(
		"cbes_schedule_constraint_failures_total",
		"Searches that found no constraint-satisfying mapping within their effort.")
	metricNodesFiltered = obs.Default().Counter(
		"cbes_schedule_unhealthy_nodes_filtered_total",
		"Down nodes removed from requested pools before searching.")
	metricInfeasible = obs.Default().Counter(
		"cbes_schedule_infeasible_total",
		"Requests rejected because the healthy pool cannot hold the application.")
	metricCancelled = obs.Default().Counter(
		"cbes_schedule_cancelled_total",
		"Searches abandoned because the request's deadline expired mid-search.")
)

// ErrInfeasible reports a request whose pool — after removing down nodes —
// cannot hold the application's ranks, or whose search space contains no
// valid mapping. Callers match it with errors.Is; the wrapped message
// carries the specifics.
var ErrInfeasible = errors.New("infeasible")

// begin opens one scheduling decision's span — eagerly, unlike the
// metrics (deferred in observe), because the search's anneal/GA child
// spans must parent under it while it is still active. The span joins
// the request's trace when Request.Ctx carries one (the service RPC
// path) and roots a fresh trace otherwise (experiments, direct calls).
func begin(ctx context.Context, alg string, req *Request) (*obs.ActiveSpan, context.Context) {
	span, ctx := obs.StartSpan(ctx, "schedule.decision")
	span.Attr("alg", alg)
	if span != nil && req.Eval != nil && req.Eval.Prof != nil {
		span.Attr("app", req.Eval.Prof.App).
			Attr("pool", len(req.Pool)).
			Attr("seed", req.Seed)
	}
	return span, ctx
}

// observe records one finished scheduling decision (deferred by every
// scheduler entry point; start is captured when the defer is declared).
func observe(alg string, start time.Time, span *obs.ActiveSpan, d **Decision, err *error) {
	secs := time.Since(start).Seconds()
	metricRequests.With(alg).Inc()
	metricSeconds.With(alg).Observe(secs)
	if *err != nil {
		metricErrors.With(alg).Inc()
		span.Error(*err).End()
		return
	}
	dec := *d
	metricEvals.With(alg).Add(uint64(dec.Evaluations))
	span.Attr("evals", dec.Evaluations).
		Attr("predicted_seconds", dec.Predicted).
		Attr("scheduler_seconds", secs).
		End()
}

// Request describes one scheduling problem.
type Request struct {
	// Eval is the full CBES evaluator for the application (CS). NCS derives
	// its communication-blind evaluator from it internally.
	Eval *core.Evaluator
	// Snap is the resource snapshot to schedule against.
	Snap *monitor.Snapshot
	// Pool lists candidate node IDs (administrative policy). Must be
	// non-empty.
	Pool []int
	// SlotsPerNode caps ranks per node. 0 means one rank per node (the
	// paper's usage); set to the node CPU count to allow co-scheduling.
	SlotsPerNode int
	// Seed drives scheduler randomness.
	Seed int64
	// Effort caps search effort: total energy evaluations
	// (default 4000 for SA and GA). SA distributes it exactly across
	// restarts and never exceeds it.
	Effort int
	// Restarts splits the SA effort across independent anneals from
	// different random initial mappings, keeping the best (default 4).
	// Deep local optima — e.g. a fast-architecture island behind a slow
	// uplink — trap single anneals occasionally; restarts recover most of
	// them, mirroring the ~90% hit rate of the paper's CS. Restarts run
	// concurrently on a bounded worker pool; the outcome is independent of
	// scheduling order.
	Restarts int
	// Maximize searches for the worst mapping instead of the best — used
	// by the worst-vs-best evaluation scenarios.
	Maximize bool
	// Ctx, when non-nil, carries the caller's active trace span
	// (obs.StartSpan): the decision span and its per-restart anneal child
	// spans join that trace, so one RPC's causal tree reaches from the
	// interceptor down to individual restarts. Nil roots a fresh trace.
	Ctx context.Context
	// Constraint, when non-nil, restricts the search to mappings for which
	// it returns true (e.g. "must include a SPARC node" to stay
	// representative of a node group). Unsatisfying mappings receive a
	// large energy penalty during the search; a scheduler whose final
	// answer still violates the constraint returns an error rather than a
	// penalty-polluted prediction. The function must be safe for
	// concurrent calls (SA restarts evaluate it from worker goroutines).
	Constraint func(core.Mapping) bool
}

// constraintPenalty dominates any realistic execution-time energy.
const constraintPenalty = 1e9

func (r *Request) effort() int {
	if r.Effort > 0 {
		return r.Effort
	}
	return 4000
}

func (r *Request) slots() int {
	if r.SlotsPerNode > 0 {
		return r.SlotsPerNode
	}
	return 1
}

func (r *Request) ranks() int { return r.Eval.Prof.Ranks }

func (r *Request) validate() error {
	if r.Eval == nil || r.Snap == nil {
		return fmt.Errorf("schedule: request needs Eval and Snap")
	}
	if len(r.Pool) == 0 {
		return fmt.Errorf("schedule: empty node pool")
	}
	if len(r.Pool)*r.slots() < r.ranks() {
		return fmt.Errorf("schedule: pool capacity %d < %d ranks: %w",
			len(r.Pool)*r.slots(), r.ranks(), ErrInfeasible)
	}
	return nil
}

// prepare validates the request and removes down nodes from the pool (a
// scheduler must never place work on a crashed node, and the energy
// function rejects such mappings anyway). It returns the request to
// search with — a shallow copy when filtering changed the pool — or a
// wrapped ErrInfeasible when the healthy pool cannot hold the ranks.
func (r *Request) prepare() (*Request, error) {
	if err := r.validate(); err != nil {
		if errors.Is(err, ErrInfeasible) {
			metricInfeasible.Inc()
		}
		return nil, err
	}
	if r.Snap.Health == nil {
		return r, nil
	}
	healthy := r.Pool // copy-on-write: allocate only if something is down
	filtered := 0
	for i, n := range r.Pool {
		if r.Snap.HealthOf(n) == monitor.HealthDown {
			if filtered == 0 {
				healthy = append([]int(nil), r.Pool[:i]...)
			}
			filtered++
		} else if filtered > 0 {
			healthy = append(healthy, n)
		}
	}
	if filtered == 0 {
		return r, nil
	}
	metricNodesFiltered.Add(uint64(filtered))
	if len(healthy)*r.slots() < r.ranks() {
		metricInfeasible.Inc()
		return nil, fmt.Errorf("schedule: healthy pool capacity %d < %d ranks (%d down nodes filtered): %w",
			len(healthy)*r.slots(), r.ranks(), filtered, ErrInfeasible)
	}
	rr := *r
	rr.Pool = healthy
	return &rr, nil
}

// Decision is a scheduler's answer.
type Decision struct {
	Mapping core.Mapping
	// Predicted is the full CBES execution-time prediction for the chosen
	// mapping (computed with the full evaluator even for NCS and RS, as the
	// paper does to normalize comparisons).
	Predicted float64
	// Score is the value of the scheduler's own cost function (equals
	// Predicted for CS; communication-blind for NCS; NaN for RS).
	Score float64
	// Evaluations counts cost-function calls. For SA it never exceeds the
	// requested Effort.
	Evaluations int
	// SchedulerTime is the real (host) time the search took — the
	// scheduling overhead column of tables 1 and 3.
	SchedulerTime time.Duration
}

// randomMapping draws a uniformly random valid mapping.
func randomMapping(req *Request, rng *rand.Rand) core.Mapping {
	slots := req.slots()
	m := make(core.Mapping, req.ranks())
	used := map[int]int{}
	for i := range m {
		for {
			n := req.Pool[rng.Intn(len(req.Pool))]
			if used[n] < slots {
				m[i] = n
				used[n]++
				break
			}
		}
	}
	return m
}

// proposeMove draws a small random modification of mapping m as a typed
// move: either swap the nodes of two ranks or move one rank to a pool node
// with spare capacity, where load reports how many ranks m places on a
// node. SA proposes against its scorer's state; the GA's mutation applies
// the move to a copy. ok=false means no non-degenerate move was found
// (saturated pool).
func proposeMove(req *Request, m core.Mapping, load func(node int) int, rng *rand.Rand) (core.Move, bool) {
	slots := req.slots()
	if rng.Intn(2) == 0 && len(m) >= 2 {
		// Retry past degenerate pairs (same rank or same node) that would
		// leave the mapping unchanged and waste an energy evaluation; if
		// every sampled swap is degenerate, fall through to a move.
		for attempt := 0; attempt < 8; attempt++ {
			i, j := rng.Intn(len(m)), rng.Intn(len(m))
			if i != j && m[i] != m[j] {
				return core.Move{Swap: true, A: i, B: j}, true
			}
		}
	}
	i := rng.Intn(len(m))
	for attempts := 0; attempts < 8*len(req.Pool); attempts++ {
		n := req.Pool[rng.Intn(len(req.Pool))]
		if n != m[i] && load(n) < slots {
			return core.Move{Rank: i, To: n}, true
		}
	}
	return core.Move{}, false
}

// Random is the RS scheduler: an arbitrary valid mapping, no evaluation.
func Random(req *Request) (d *Decision, err error) {
	span, _ := begin(req.Ctx, "rs", req)
	defer observe("rs", time.Now(), span, &d, &err)
	req, err = req.prepare()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(req.Seed))
	m := randomMapping(req, rng)
	for attempts := 0; req.Constraint != nil && !req.Constraint(m); attempts++ {
		if attempts > 10000 {
			metricConstraintFailures.Inc()
			return nil, fmt.Errorf("schedule: constraint unsatisfiable by random sampling")
		}
		m = randomMapping(req, rng)
	}
	predicted, err := req.Eval.Energy(m, req.Snap)
	if err != nil {
		return nil, err
	}
	d = &Decision{
		Mapping:       m,
		Predicted:     predicted,
		Score:         math.NaN(),
		SchedulerTime: time.Since(start),
	}
	return d, nil
}

// saRestartCap approximates the evaluations one anneal can usefully
// spend before the geometric cooling schedule freezes it (~83
// temperature steps × 60 proposals at the defaults).
const saRestartCap = 5000

// saResult is the outcome of one independent SA restart.
type saResult struct {
	m     core.Mapping
	e     float64 // penalized, sign-adjusted energy of m
	evals int
	err   error
}

// saRestart runs one anneal from a random initial mapping on the
// incremental fast path, spending at most budget energy evaluations.
// ctx carries the decision span so the restart's anneal.run span lands
// in the same trace (restarts run on worker goroutines; the span parent
// is immutable, so concurrent child creation is safe).
func saRestart(ctx context.Context, req *Request, sign float64, seed int64, budget int) saResult {
	rng := rand.New(rand.NewSource(seed))
	initial := randomMapping(req, rng)
	sc := req.Eval.Scorer()
	raw, err := sc.Energy(initial, req.Snap)
	if err != nil {
		return saResult{err: err}
	}
	penalize := func(e float64) float64 {
		if req.Constraint != nil && !req.Constraint(sc.Current()) {
			return e + constraintPenalty
		}
		return e
	}
	best := initial.Clone()
	bestE, st := anneal.MinimizeIncremental(anneal.Config{
		MaxEvaluations: budget,
		Seed:           seed + 1,
		Ctx:            ctx,
	}, anneal.IncrementalProblem[core.Move]{
		InitialEnergy: penalize(sign * raw),
		Propose: func(rr *rand.Rand) (core.Move, bool) {
			return proposeMove(req, sc.Current(), sc.NodeLoad, rr)
		},
		Apply: func(mv core.Move) float64 {
			return penalize(sign * sc.Apply(mv))
		},
		Undo:   sc.Undo,
		Commit: sc.Commit,
		OnBest: func() { copy(best, sc.Current()) },
	})
	return saResult{m: best, e: bestE, evals: st.Evaluations}
}

// saSchedule runs simulated annealing over mappings, distributing the
// effort budget exactly across independent restarts that execute
// concurrently on a bounded worker pool, and keeping the best result
// (ties broken by restart index, so the outcome is deterministic).
func saSchedule(ctx context.Context, req *Request) (core.Mapping, float64, int, error) {
	effort := req.effort()
	restarts := req.Restarts
	if restarts <= 0 {
		restarts = 4
		// One anneal freezes after ~saRestartCap evaluations (the cooling
		// schedule, not the budget, ends the walk): effort beyond
		// restarts×cap would be silently stranded, so a big budget widens
		// the restart fan instead — more independent walks, same per-walk
		// schedule. An explicit Restarts always wins.
		if wide := effort / saRestartCap; wide > restarts {
			restarts = wide
		}
	}
	if restarts > effort {
		restarts = effort
	}
	sign := 1.0
	if req.Maximize {
		sign = -1.0
	}
	// Distribute the budget exactly: the first effort%restarts anneals get
	// one extra evaluation, so Σ budgets == effort.
	base, rem := effort/restarts, effort%restarts

	results := make([]saResult, restarts)
	workers := runtime.GOMAXPROCS(0)
	if workers > restarts {
		workers = restarts
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for r := 0; r < restarts; r++ {
		budget := base
		if r < rem {
			budget++
		}
		wg.Add(1)
		go func(r, budget int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx != nil && ctx.Err() != nil {
				// The deadline expired while this restart queued behind the
				// worker pool: don't pay its init cost (a wide fan can hold
				// thousands of not-yet-started walks at cancellation time).
				results[r] = saResult{err: ctx.Err()}
				return
			}
			results[r] = saRestart(ctx, req, sign, req.Seed+int64(1000*r), budget)
		}(r, budget)
	}
	wg.Wait()

	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			// Deadline propagation: every restart already abandoned its walk
			// via the annealer's per-temperature cancellation check. The
			// partial bests are not comparable to a finished search, so
			// surface the cancellation (with the effort sunk) instead of a
			// mapping nobody asked to act on.
			spent := 0
			for r := range results {
				if results[r].err == nil {
					spent += results[r].evals
				}
			}
			metricCancelled.Inc()
			return nil, 0, 0, fmt.Errorf("schedule: search abandoned after %d evaluations: %w", spent, cerr)
		}
	}

	var best core.Mapping
	bestE := 0.0
	evals := 0
	for r := range results {
		res := &results[r]
		if res.err != nil {
			return nil, 0, 0, res.err
		}
		evals += res.evals
		if best == nil || res.e < bestE {
			best, bestE = res.m, res.e
		}
	}
	if req.Constraint != nil && !req.Constraint(best) {
		// No restart found a satisfying mapping: bestE still carries the
		// constraint penalty and is not an execution-time prediction —
		// surface that as an error instead of a nonsense Decision.
		metricConstraintFailures.Inc()
		return nil, 0, 0, fmt.Errorf("schedule: no constraint-satisfying mapping found within effort %d", effort)
	}
	return best, sign * bestE, evals, nil
}

// SimulatedAnnealing is the CS scheduler: SA with the full CBES
// mapping-evaluation operation as energy function, served by the
// incremental fast path (Scorer delta-evaluation per proposed move).
func SimulatedAnnealing(req *Request) (d *Decision, err error) {
	span, ctx := begin(req.Ctx, "cs", req)
	defer observe("cs", time.Now(), span, &d, &err)
	req, err = req.prepare()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	best, bestE, evals, err := saSchedule(ctx, req)
	if err != nil {
		return nil, err
	}
	return &Decision{
		Mapping:       best,
		Predicted:     bestE,
		Score:         bestE,
		Evaluations:   evals,
		SchedulerTime: time.Since(start),
	}, nil
}

// SimulatedAnnealingNoComm is the NCS scheduler: the same SA but its cost
// function drops the communication term, so its score is not a time
// prediction. The returned Decision's Predicted field is nevertheless
// computed with the full evaluation, mirroring the paper's normalization
// of NCS results.
func SimulatedAnnealingNoComm(req *Request) (d *Decision, err error) {
	span, ctx := begin(req.Ctx, "ncs", req)
	defer observe("ncs", time.Now(), span, &d, &err)
	req, err = req.prepare()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	blindReq := *req
	blindReq.Eval = req.Eval.CommBlind()
	best, bestE, evals, err := saSchedule(ctx, &blindReq)
	if err != nil {
		return nil, err
	}
	predicted, err := req.Eval.Energy(best, req.Snap)
	if err != nil {
		return nil, err
	}
	return &Decision{
		Mapping:       best,
		Predicted:     predicted,
		Score:         bestE,
		Evaluations:   evals,
		SchedulerTime: time.Since(start),
	}, nil
}

// Genetic is the GA scheduler (future-work algorithm): evolves mappings
// with uniform crossover repaired to respect slot capacities. Fitness runs
// on the allocation-free full evaluation of the fast path.
func Genetic(req *Request) (d *Decision, err error) {
	span, ctx := begin(req.Ctx, "ga", req)
	defer observe("ga", time.Now(), span, &d, &err)
	req, err = req.prepare()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sign := 1.0
	if req.Maximize {
		sign = -1.0
	}
	slots := req.slots()
	repair := func(m core.Mapping, rng *rand.Rand) core.Mapping {
		used := map[int]int{}
		for i, n := range m {
			if used[n] >= slots {
				for {
					c := req.Pool[rng.Intn(len(req.Pool))]
					if used[c] < slots {
						m[i] = c
						n = c
						break
					}
				}
			}
			used[n]++
		}
		return m
	}
	sc := req.Eval.Scorer()
	fitness := func(m core.Mapping) float64 {
		e, err := sc.Energy(m, req.Snap)
		if err != nil {
			panic(fmt.Sprintf("schedule: energy: %v", err))
		}
		f := sign * e
		if req.Constraint != nil && !req.Constraint(m) {
			f += constraintPenalty
		}
		return f
	}
	best, bestF, st := genetic.Minimize(genetic.Config{
		Seed:           req.Seed,
		MaxEvaluations: req.effort(),
		Ctx:            ctx,
	}, genetic.Ops[core.Mapping]{
		NewIndividual: func(rng *rand.Rand) core.Mapping { return randomMapping(req, rng) },
		Fitness:       fitness,
		Crossover: func(a, b core.Mapping, rng *rand.Rand) core.Mapping {
			child := a.Clone()
			for i := range child {
				if rng.Intn(2) == 0 {
					child[i] = b[i]
				}
			}
			return repair(child, rng)
		},
		Mutate: func(m core.Mapping, rng *rand.Rand) core.Mapping {
			nm := m.Clone()
			used := m.Multiplicity()
			mv, ok := proposeMove(req, m, func(node int) int { return used[node] }, rng)
			switch {
			case !ok:
			case mv.Swap:
				nm[mv.A], nm[mv.B] = nm[mv.B], nm[mv.A]
			default:
				nm[mv.Rank] = mv.To
			}
			return nm
		},
	})
	if st.Cancelled {
		metricCancelled.Inc()
		return nil, fmt.Errorf("schedule: search abandoned after %d evaluations: %w", st.Evaluations, ctx.Err())
	}
	if req.Constraint != nil && !req.Constraint(best) {
		metricConstraintFailures.Inc()
		return nil, fmt.Errorf("schedule: no constraint-satisfying mapping found within effort %d", req.effort())
	}
	return &Decision{
		Mapping:       best,
		Predicted:     sign * bestF,
		Score:         sign * bestF,
		Evaluations:   st.Evaluations,
		SchedulerTime: time.Since(start),
	}, nil
}

// Exhaustive enumerates every valid mapping (ranks placed on pool nodes,
// respecting slots) and returns the true optimum. Use only for small
// pools: the space is |Pool|^ranks before capacity pruning. The walk runs
// on the incremental fast path: entering a recursion level applies a
// single-rank move to the scorer and leaving it undoes the move, so each
// enumerated mapping costs one delta evaluation instead of a full one.
func Exhaustive(req *Request) (d *Decision, err error) {
	span, ctx := begin(req.Ctx, "exhaustive", req)
	defer observe("exhaustive", time.Now(), span, &d, &err)
	req, err = req.prepare()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	slots := req.slots()
	sc := req.Eval.Scorer()
	m := make(core.Mapping, req.ranks())
	for i := range m {
		m[i] = req.Pool[0]
	}
	if _, err := sc.Energy(m, req.Snap); err != nil {
		return nil, err
	}
	best := core.Mapping(nil)
	bestE := math.Inf(1)
	if req.Maximize {
		bestE = math.Inf(-1)
	}
	evals := 0
	used := make(map[int]int)
	done := ctx.Done()
	cancelled := false
	visits := 0
	var walk func(rank int)
	walk = func(rank int) {
		if cancelled {
			return
		}
		// Deadline propagation: poll the context every 1024 tree nodes so
		// a huge enumeration stays responsive without paying a select per
		// delta evaluation.
		if visits++; visits&1023 == 0 && done != nil {
			select {
			case <-done:
				cancelled = true
				return
			default:
			}
		}
		if rank == len(m) {
			if req.Constraint != nil && !req.Constraint(sc.Current()) {
				return
			}
			e := sc.EnergyNow()
			evals++
			better := e < bestE
			if req.Maximize {
				better = e > bestE
			}
			if better {
				bestE = e
				best = sc.Current().Clone()
			}
			return
		}
		for _, n := range req.Pool {
			if used[n] >= slots {
				continue
			}
			used[n]++
			sc.Apply(core.Move{Rank: rank, To: n})
			walk(rank + 1)
			sc.Undo()
			used[n]--
		}
	}
	walk(0)
	if cancelled {
		metricCancelled.Inc()
		return nil, fmt.Errorf("schedule: exhaustive walk abandoned after %d evaluations: %w", evals, ctx.Err())
	}
	if best == nil {
		metricInfeasible.Inc()
		return nil, fmt.Errorf("schedule: no feasible mapping: %w", ErrInfeasible)
	}
	return &Decision{
		Mapping:       best,
		Predicted:     bestE,
		Score:         bestE,
		Evaluations:   evals,
		SchedulerTime: time.Since(start),
	}, nil
}
