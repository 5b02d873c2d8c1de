package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cbes/internal/service"
)

// opKind is the RPC an open-loop operation issues.
type opKind uint8

const (
	opEvaluate opKind = iota
	opCompare
	opAdvance
)

var opNames = [...]string{"Evaluate", "Compare", "Advance"}

// op is one generated operation: a kind plus indices into the mapping
// pool (one for Evaluate, the batch for Compare, none for Advance).
type op struct {
	kind opKind
	idx  []int
}

// mix is an evaluate-* traffic mix over a shared mapping pool.
type mix struct {
	evaluate, compare float64 // shares; the remainder is Advance
	width             int     // Compare batch width
	advance           float64 // simulated seconds per Advance
}

// genPool draws n distinct-node mappings of ranks ranks over nodes nodes.
func genPool(rng *rand.Rand, n, ranks, nodes int) [][]int {
	pool := make([][]int, n)
	for i := range pool {
		pool[i] = rng.Perm(nodes)[:ranks]
	}
	return pool
}

// genOps draws n operations of the mix over a pool of poolSize mappings.
func genOps(rng *rand.Rand, m mix, n, poolSize int) []op {
	ops := make([]op, n)
	for i := range ops {
		u := rng.Float64()
		switch {
		case u < m.evaluate:
			ops[i] = op{kind: opEvaluate, idx: []int{rng.Intn(poolSize)}}
		case u < m.evaluate+m.compare:
			idx := make([]int, m.width)
			for j := range idx {
				idx[j] = rng.Intn(poolSize)
			}
			ops[i] = op{kind: opCompare, idx: idx}
		default:
			ops[i] = op{kind: opAdvance}
		}
	}
	return ops
}

// conn is one client connection with the epoch it has observed.
type conn struct {
	c        *service.Client
	maxEpoch atomic.Uint64 // highest epoch any reply on this conn carried
}

// observe raises the connection's epoch high-water mark.
func (c *conn) observe(epoch uint64) {
	for {
		cur := c.maxEpoch.Load()
		if epoch <= cur || c.maxEpoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// checker collects correctness violations from concurrent workers.
type checker struct {
	mu    sync.Mutex
	count int
	first []string
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	if len(c.first) < 5 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count == 0
}

// validSeconds reports whether a predicted runtime is finite and positive.
func validSeconds(s float64) bool { return s > 0 && !math.IsInf(s, 1) }

// firstArgmin is the index of the first minimum of xs, the server's
// tie-breaking rule for Compare.Best.
func firstArgmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// checkEvaluate checks one Evaluate reply and classifies it.
func checkEvaluate(chk *checker, rep *service.EvaluateReply) outcome {
	if !validSeconds(rep.Seconds) {
		chk.failf("Evaluate: non-finite or non-positive seconds %v", rep.Seconds)
	}
	if rep.Brownout {
		return outcomeBrownout
	}
	if rep.PredictionID == "" {
		chk.failf("Evaluate: full-service reply without a PredictionID")
	}
	return outcomeOK
}

// checkCompare checks one Compare reply of a width-wide batch.
func checkCompare(chk *checker, rep *service.CompareReply, width int) outcome {
	if len(rep.Seconds) != width {
		chk.failf("Compare: %d seconds for %d mappings", len(rep.Seconds), width)
		return outcomeOK
	}
	for _, s := range rep.Seconds {
		if !validSeconds(s) {
			chk.failf("Compare: non-finite or non-positive seconds %v", s)
		}
	}
	if want := firstArgmin(rep.Seconds); rep.Best != want {
		chk.failf("Compare: Best %d is not the argmin %d of %v", rep.Best, want, rep.Seconds)
	}
	if rep.Brownout {
		return outcomeBrownout
	}
	if len(rep.PredictionIDs) != width {
		chk.failf("Compare: %d PredictionIDs for %d mappings", len(rep.PredictionIDs), width)
	}
	for _, id := range rep.PredictionIDs {
		if id == "" {
			chk.failf("Compare: full-service reply without a PredictionID")
			break
		}
	}
	return outcomeOK
}

// record is what a traced phase keeps of one operation for the layer
// replays: the exact args and reply values that crossed the wire.
type record struct {
	args, reply any
}

// loadGen drives an open loop against the daemon: operations are due on
// a fixed schedule at the offered rate, whether or not earlier ones
// have completed. A fixed set of workers claims operations in order and
// sleeps until each is due; when every worker is busy the next
// operation is sent late, and its latency, timed from its due time,
// shows the stall.
type loadGen struct {
	conns   []*conn
	app     string
	pool    [][]int
	mix     mix
	workers int
	chk     *checker
}

// phaseRun is the raw outcome of one open-loop phase.
type phaseRun struct {
	samples  []sample
	kinds    []opKind
	advances []float64 // Advance send-to-reply, ms
	records  []record  // traced phases only
}

// run executes ops at rate operations per second. With tr non-nil every
// operation is recorded as a span tree and its wire values are kept.
func (g *loadGen) run(ops []op, rate float64, tr *tracer) phaseRun {
	n := len(ops)
	pr := phaseRun{samples: make([]sample, n), kinds: make([]opKind, n)}
	if tr != nil {
		pr.records = make([]record, n)
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s := &pr.samples[i]
				s.due = due
				s.sent = time.Now()
				var rec *record
				if tr != nil {
					rec = &pr.records[i]
				}
				s.outcome = g.do(g.conns[i%len(g.conns)], ops[i], rec)
				s.done = time.Now()
				pr.kinds[i] = ops[i].kind
				if tr != nil {
					root := tr.id()
					tr.record(tr.id(), root, "gen.wait", s.due, s.sent)
					tr.record(tr.id(), root, "client."+opNames[ops[i].kind], s.sent, s.done)
					tr.record(root, 0, "op", s.due, s.done)
				}
			}
		}()
	}
	wg.Wait()
	for i, s := range pr.samples {
		if pr.kinds[i] == opAdvance && s.outcome != outcomeFailed {
			pr.advances = append(pr.advances, ms(s.service()))
		}
	}
	return pr
}

// do issues one operation and checks its reply.
func (g *loadGen) do(c *conn, o op, rec *record) outcome {
	switch o.kind {
	case opEvaluate:
		m := g.pool[o.idx[0]]
		rep, err := c.c.Evaluate(g.app, m)
		if err != nil {
			return outcomeFailed
		}
		if rec != nil {
			*rec = record{args: &service.EvaluateArgs{App: g.app, Mapping: m}, reply: rep}
		}
		return checkEvaluate(g.chk, rep)
	case opCompare:
		ms := make([][]int, len(o.idx))
		for j, k := range o.idx {
			ms[j] = g.pool[k]
		}
		rep, err := c.c.Compare(g.app, ms)
		if err != nil {
			return outcomeFailed
		}
		if rec != nil {
			*rec = record{args: &service.CompareArgs{App: g.app, Mappings: ms}, reply: rep}
		}
		return checkCompare(g.chk, rep, len(ms))
	default:
		before := c.maxEpoch.Load()
		rep, err := c.c.Advance(g.mix.advance)
		if err != nil {
			return outcomeFailed
		}
		if rep.Epoch < before {
			g.chk.failf("Advance: epoch %d after %d was already seen on this connection", rep.Epoch, before)
		}
		c.observe(rep.Epoch)
		if rec != nil {
			*rec = record{args: &service.AdvanceArgs{Seconds: g.mix.advance}, reply: rep}
		}
		return outcomeOK
	}
}
