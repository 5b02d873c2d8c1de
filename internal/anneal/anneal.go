// Package anneal provides a generic simulated-annealing minimizer in the
// style of Metropolis et al. [19] and Numerical Recipes [20], the
// algorithm behind the default CBES scheduler (§6): the CBES mapping
// evaluation plays the role of the energy function, and the minimal-energy
// configuration corresponds to the estimated fastest mapping.
package anneal

import (
	"context"
	"math"
	"math/rand"

	"cbes/internal/obs"
)

// Annealing observability: counters aggregate across every run (and
// every concurrent restart); the gauges hold the most recently finished
// run's summary — with parallel restarts that is "last writer wins",
// which is the useful live view ("what is SA doing right now") without
// unbounded label cardinality. Each run also records one span with its
// temperature trajectory endpoints.
var (
	metricRuns = obs.Default().Counter(
		"cbes_sa_runs_total", "Completed annealing runs (one per restart).")
	metricEvals = obs.Default().Counter(
		"cbes_sa_evals_total", "Energy evaluations across all annealing runs.")
	metricAccepted = obs.Default().Counter(
		"cbes_sa_accepted_total", "Accepted Metropolis moves across all runs.")
	metricImproved = obs.Default().Counter(
		"cbes_sa_improved_total", "Moves that improved the best energy so far.")
	gaugeAcceptance = obs.Default().Gauge(
		"cbes_sa_acceptance_rate", "Accepted/evaluated ratio of the last finished run.")
	gaugeBestEnergy = obs.Default().Gauge(
		"cbes_sa_best_energy", "Best (lowest) energy of the last finished run.")
	gaugeInitialTemp = obs.Default().Gauge(
		"cbes_sa_initial_temp", "Starting temperature of the last finished run.")
	gaugeFinalTemp = obs.Default().Gauge(
		"cbes_sa_final_temp", "Final temperature of the last finished run.")
)

// convergence collects (evaluations, best-energy) samples while a run
// improves, bounded so a span attribute stays small. Only allocated
// when the run's span is recorded (tracer enabled), so the fast path
// never pays for it.
type convergence struct {
	samples [][2]float64
}

// convergenceCap bounds samples per run; improvements past the cap keep
// overwriting the last slot so the final best is always present.
const convergenceCap = 64

func (c *convergence) observe(evals int, bestE float64) {
	if c == nil {
		return
	}
	s := [2]float64{float64(evals), bestE}
	if len(c.samples) >= convergenceCap {
		c.samples[len(c.samples)-1] = s
		return
	}
	c.samples = append(c.samples, s)
}

func (c *convergence) attach(span *obs.ActiveSpan) {
	if c != nil && len(c.samples) > 0 {
		span.Attr("convergence", c.samples)
	}
}

// newConvergence returns a collector only when the span will record it.
func newConvergence(span *obs.ActiveSpan) *convergence {
	if span == nil {
		return nil
	}
	return &convergence{}
}

// observeRun publishes one finished run's statistics and span.
func observeRun(initialTemp, bestE float64, st Stats, span *obs.ActiveSpan) {
	metricRuns.Inc()
	metricEvals.Add(uint64(st.Evaluations))
	metricAccepted.Add(uint64(st.Accepted))
	metricImproved.Add(uint64(st.Improved))
	rate := 0.0
	if st.Evaluations > 0 {
		rate = float64(st.Accepted) / float64(st.Evaluations)
	}
	gaugeAcceptance.Set(rate)
	gaugeBestEnergy.Set(bestE)
	gaugeInitialTemp.Set(initialTemp)
	gaugeFinalTemp.Set(st.FinalTemp)
	span.Attr("evals", st.Evaluations).
		Attr("accepted", st.Accepted).
		Attr("improved", st.Improved).
		Attr("acceptance_rate", rate).
		Attr("initial_temp", initialTemp).
		Attr("final_temp", st.FinalTemp).
		Attr("best_energy", bestE).
		End()
}

// Config tunes the annealing schedule.
type Config struct {
	// InitialTemp is the starting temperature. Zero means "auto": the
	// standard deviation of energies over a short random walk.
	InitialTemp float64
	// Cooling is the geometric cooling factor per temperature step
	// (default 0.92).
	Cooling float64
	// StepsPerTemp is the number of proposals per temperature (default 60).
	StepsPerTemp int
	// MinTemp stops the schedule when temperature falls below
	// MinTemp × InitialTemp (default 1e-3).
	MinTemp float64
	// MaxEvaluations caps total energy evaluations (default 20000).
	MaxEvaluations int
	// Seed drives the proposal and acceptance randomness.
	Seed int64
	// Ctx, when non-nil, parents this run's trace span under the
	// context's active span (obs.StartSpan), so a scheduling decision's
	// restarts appear as children of its schedule.decision span, and
	// doubles as the run's cancellation signal: the walk checks
	// Ctx.Done() once per temperature step and abandons the run (setting
	// Stats.Cancelled, returning the best state seen so far) when the
	// context expires. Nil records the run as a root span and never
	// cancels, the pre-causal behaviour.
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.Cooling <= 0 || c.Cooling >= 1 {
		c.Cooling = 0.92
	}
	if c.StepsPerTemp <= 0 {
		c.StepsPerTemp = 60
	}
	if c.MinTemp <= 0 {
		c.MinTemp = 1e-3
	}
	if c.MaxEvaluations <= 0 {
		c.MaxEvaluations = 20000
	}
	return c
}

// Stats reports what the annealer did.
type Stats struct {
	Evaluations int
	Accepted    int
	Improved    int
	FinalTemp   float64
	// Cancelled reports that the run was abandoned early because
	// Config.Ctx expired; the returned best state covers only the
	// evaluations spent before the cancellation.
	Cancelled bool
}

// doneChan extracts the cancellation channel of a possibly-nil context.
// A nil channel never receives, so `case <-done` in a select with a
// default arm costs nothing when cancellation is disabled.
func doneChan(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Minimize anneals from the initial state, proposing neighbors and
// accepting by the Metropolis criterion, and returns the best state seen
// with its energy and run statistics. It is a thin adapter over
// MinimizeIncremental: every proposal replaces the current state, and a
// rejected one is undone by restoring the previous state.
//
// The state type S must be treated as immutable by the caller: neighbor
// must return a fresh state (or a modified copy).
func Minimize[S any](cfg Config, initial S, energy func(S) float64, neighbor func(S, *rand.Rand) S) (S, float64, Stats) {
	cur, prev, best := initial, initial, initial
	bestE, st := MinimizeIncremental(cfg, IncrementalProblem[S]{
		InitialEnergy: energy(initial),
		Propose:       func(rng *rand.Rand) (S, bool) { return neighbor(cur, rng), true },
		Apply:         func(s S) float64 { prev, cur = cur, s; return energy(s) },
		Undo:          func() { cur = prev },
		OnBest:        func() { best = cur },
	})
	return best, bestE, st
}

// autoTempProbes is the length of the auto-temperature sampling walk.
const autoTempProbes = 24

// tempFromSpread turns Welford accumulators into a starting temperature,
// falling back to a fraction of the initial energy for degenerate samples.
func tempFromSpread(mean, m2, n, curE float64) float64 {
	sd := math.Sqrt(m2 / math.Max(1, n-1))
	if sd <= 0 || math.IsNaN(sd) {
		sd = math.Abs(curE)*0.1 + 1e-12
	}
	return sd
}

// IncrementalProblem describes an annealing problem whose state lives
// outside the annealer and is perturbed by typed moves with delta
// evaluation — the core.Scorer fast path. The annealer never sees the
// state itself: it proposes, applies (receiving the new energy), and either
// keeps the move or undoes it.
type IncrementalProblem[M any] struct {
	// InitialEnergy is the energy of the current (initial) state. Its
	// computation is counted as the first evaluation.
	InitialEnergy float64
	// Propose draws a candidate move; ok=false means no move was available
	// (e.g. a saturated pool) and nothing was evaluated.
	Propose func(rng *rand.Rand) (mv M, ok bool)
	// Apply applies the move to the state and returns the new energy.
	Apply func(mv M) float64
	// Undo reverts the most recent Apply.
	Undo func()
	// Commit, when non-nil, is called after a move is accepted: the state
	// will never be undone past this point, so the problem may discard the
	// undo record (keeps the scorer's journal depth at one).
	Commit func()
	// OnBest is called whenever the current state is the best seen so far
	// (including once for the initial state); the callback should snapshot
	// whatever it needs — the annealer itself keeps no state copy.
	OnBest func()
}

// MinimizeIncremental anneals an incremental problem under the Metropolis
// criterion. It is the one SA loop, behind both Minimize and the CBES
// schedulers: rejected proposals cost one delta evaluation and an undo
// instead of a full re-evaluation, and the evaluation budget
// (Config.MaxEvaluations) is respected exactly — the initial evaluation,
// the auto-temperature walk, and every proposal all count against it, and
// the total never exceeds it.
func MinimizeIncremental[M any](cfg Config, p IncrementalProblem[M]) (float64, Stats) {
	cfg = cfg.withDefaults()
	span, _ := obs.StartSpan(cfg.Ctx, "anneal.run")
	conv := newConvergence(span)
	rng := rand.New(rand.NewSource(cfg.Seed))

	curE := p.InitialEnergy
	bestE := curE
	st := Stats{Evaluations: 1}
	conv.observe(st.Evaluations, bestE)
	if p.OnBest != nil {
		p.OnBest()
	}

	// proposalPatience bounds consecutive failed proposals so a problem
	// with no legal moves terminates.
	const proposalPatience = 64

	temp := cfg.InitialTemp
	if temp <= 0 {
		// Auto temperature: a short accepted walk from the initial state,
		// capped by the remaining budget. Improvements found during the
		// walk are kept as best like any other visit.
		probes := autoTempProbes
		if remaining := cfg.MaxEvaluations - st.Evaluations; probes > remaining {
			probes = remaining
		}
		mean, m2 := 0.0, 0.0
		n := 0.0
		for i, misses := 0, 0; i < probes && misses < proposalPatience; {
			mv, ok := p.Propose(rng)
			if !ok {
				misses++
				continue
			}
			misses = 0
			curE = p.Apply(mv)
			if p.Commit != nil {
				p.Commit()
			}
			st.Evaluations++
			i++
			n++
			d := curE - mean
			mean += d / n
			m2 += d * (curE - mean)
			if curE < bestE {
				bestE = curE
				st.Improved++
				conv.observe(st.Evaluations, bestE)
				if p.OnBest != nil {
					p.OnBest()
				}
			}
		}
		temp = tempFromSpread(mean, m2, n, p.InitialEnergy)
	}
	minTemp := temp * cfg.MinTemp

	done := doneChan(cfg.Ctx)
	misses := 0
	for temp > minTemp && st.Evaluations < cfg.MaxEvaluations && misses < proposalPatience {
		select {
		case <-done:
			// Caller's deadline expired: stop annealing. The problem state
			// already holds the best committed mapping (OnBest fired for it),
			// so the caller can still report the partial result.
			st.Cancelled = true
			st.FinalTemp = temp
			conv.attach(span)
			observeRun(minTemp/cfg.MinTemp, bestE, st, span)
			return bestE, st
		default:
		}
		for i := 0; i < cfg.StepsPerTemp && st.Evaluations < cfg.MaxEvaluations; i++ {
			mv, ok := p.Propose(rng)
			if !ok {
				if misses++; misses >= proposalPatience {
					break
				}
				continue
			}
			misses = 0
			candE := p.Apply(mv)
			st.Evaluations++
			d := candE - curE
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				curE = candE
				st.Accepted++
				if p.Commit != nil {
					p.Commit()
				}
				if curE < bestE {
					bestE = curE
					st.Improved++
					conv.observe(st.Evaluations, bestE)
					if p.OnBest != nil {
						p.OnBest()
					}
				}
			} else {
				p.Undo()
			}
		}
		temp *= cfg.Cooling
	}
	st.FinalTemp = temp
	conv.attach(span)
	observeRun(minTemp/cfg.MinTemp, bestE, st, span)
	return bestE, st
}
