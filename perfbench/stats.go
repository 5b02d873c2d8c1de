package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs is sorted in place. NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without modifying xs. NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome classifies one attempted operation.
type outcome int

const (
	outcomeOK       outcome = iota // full-service answer
	outcomeBrownout                // degraded answer served while shedding
	outcomeFailed                  // error: refused, shed, deadline, transport
)

// sample is one open-loop operation as the generator saw it. Latency is
// timed from when the operation was due, not from when it was sent, so
// a generator or server stall charges every request queued behind it.
type sample struct {
	due, sent, done time.Time
	outcome         outcome
}

// latency is the user-visible delay of the operation: due to done.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how far behind its schedule the generator sent it.
func (s sample) lateness() time.Duration { return s.sent.Sub(s.due) }

// service is the send-to-reply time (what a closed-loop client sees).
func (s sample) service() time.Duration { return s.done.Sub(s.sent) }

// tally counts attempted operations by outcome.
type tally struct {
	attempted, failed, brownout int
}

func (t *tally) add(o outcome) {
	t.attempted++
	switch o {
	case outcomeFailed:
		t.failed++
	case outcomeBrownout:
		t.brownout++
	}
}

// failPct is failed over attempted operations, in percent.
func (t tally) failPct() float64 { return pct(t.failed, t.attempted) }

// brownoutPct is degraded answers over attempted operations, in percent.
func (t tally) brownoutPct() float64 { return pct(t.brownout, t.attempted) }

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// phase summarises one open-loop run at a fixed offered rate.
type phase struct {
	rate    float64 // offered operations per second
	tally   tally
	latency []float64 // ms from due; failed operations count as +Inf
	late    []float64 // generator lateness, ms
	// span is from the first due time to the last completion.
	span time.Duration
}

// summarise folds samples into a phase. A failed operation counts as
// missing every latency limit, so it enters the latency sample as +Inf.
func summarise(rate float64, samples []sample) phase {
	p := phase{rate: rate}
	if len(samples) == 0 {
		return p
	}
	first, last := samples[0].due, samples[0].done
	for _, s := range samples {
		p.tally.add(s.outcome)
		p.late = append(p.late, ms(s.lateness()))
		if s.outcome == outcomeFailed {
			p.latency = append(p.latency, math.Inf(1))
		} else {
			p.latency = append(p.latency, ms(s.latency()))
		}
		if s.due.Before(first) {
			first = s.due
		}
		if s.done.After(last) {
			last = s.done
		}
	}
	p.span = last.Sub(first)
	return p
}

// completionRate is completed operations per second over the phase.
func (p phase) completionRate() float64 {
	if p.span <= 0 {
		return 0
	}
	return float64(p.tally.attempted-p.tally.failed) / p.span.Seconds()
}

// ladderRule is the pass condition of one ladder step.
type ladderRule struct {
	maxP99Ms     float64 // latency limit on the p99, from due time
	maxBadFrac   float64 // failed plus brownout over attempted
	minPaceRatio float64 // completion rate over offered rate
}

var defaultLadderRule = ladderRule{maxP99Ms: 25, maxBadFrac: 0.001, minPaceRatio: 0.97}

// passes reports whether the phase meets the rule, and if not, why.
func (r ladderRule) passes(p phase) (bool, string) {
	if p.tally.attempted == 0 {
		return false, "no operations"
	}
	if p99 := percentile(append([]float64(nil), p.latency...), 99); !(p99 <= r.maxP99Ms) {
		return false, "p99 over limit"
	}
	if bad := float64(p.tally.failed+p.tally.brownout) / float64(p.tally.attempted); bad > r.maxBadFrac {
		return false, "failed or brownout share over limit"
	}
	if p.completionRate() < r.minPaceRatio*p.rate {
		return false, "completions fell behind arrivals"
	}
	return true, ""
}

const (
	ladderGrowth = 1.3 // rate factor per step above the fixed ladder
	ladderExtra  = 4   // most steps above the fixed ladder
)

// searchCapacity returns the highest rate at which try passes. It
// offers the ascending fixed rates until one fails; while every fixed
// rate passes it keeps growing the rate by ladderGrowth, so the answer
// is not capped at the ladder's top step. 0 when the first rate fails.
func searchCapacity(fixed []float64, try func(rate float64) bool) float64 {
	pass := 0.0
	for _, rate := range fixed {
		if !try(rate) {
			return pass
		}
		pass = rate
	}
	for k := 0; k < ladderExtra; k++ {
		rate := math.Round(pass * ladderGrowth)
		if !try(rate) {
			break
		}
		pass = rate
	}
	return pass
}
