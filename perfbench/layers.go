package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net/rpc"
	"time"

	"cbes"
	"cbes/internal/accuracy"
	"cbes/internal/admission"
	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/mpisim"
	"cbes/internal/obs"
	"cbes/internal/profile"
	"cbes/internal/service"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// The replays below push a traced phase's recorded request stream
// through one layer's public functions at a time, so each layer's cost
// per request is measured in isolation from the others.

// replayCodec gob-encodes and decodes the exact wire values of every
// recorded operation on one persistent stream per direction, headers
// included, as net/rpc's gob codec does. It returns the mean time and
// bytes per operation.
func replayCodec(tr *tracer, recs []record) (usPerReq, bytesPerReq float64, err error) {
	var reqBuf, repBuf bytes.Buffer
	reqEnc, reqDec := gob.NewEncoder(&reqBuf), gob.NewDecoder(&reqBuf)
	repEnc, repDec := gob.NewEncoder(&repBuf), gob.NewDecoder(&repBuf)
	n, wire := 0, 0
	start := time.Now()
	tr.timed("codec.roundtrip", 0, func() {
		for i, r := range recs {
			if r.args == nil {
				continue
			}
			method := service.RPCName + "." + methodOf(r.args)
			seq := uint64(i)
			var reqH rpc.Request
			var repH rpc.Response
			if err = reqEnc.Encode(&rpc.Request{ServiceMethod: method, Seq: seq}); err != nil {
				return
			}
			if err = reqEnc.Encode(r.args); err != nil {
				return
			}
			if err = repEnc.Encode(&rpc.Response{ServiceMethod: method, Seq: seq}); err != nil {
				return
			}
			if err = repEnc.Encode(r.reply); err != nil {
				return
			}
			wire += reqBuf.Len() + repBuf.Len()
			args, reply := newWireValues(r.args)
			if err = reqDec.Decode(&reqH); err != nil {
				return
			}
			if err = reqDec.Decode(args); err != nil {
				return
			}
			if err = repDec.Decode(&repH); err != nil {
				return
			}
			if err = repDec.Decode(reply); err != nil {
				return
			}
			n++
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("codec replay: %w", err)
	}
	if n == 0 {
		return 0, 0, nil
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n), float64(wire) / float64(n), nil
}

func methodOf(args any) string {
	switch args.(type) {
	case *service.EvaluateArgs:
		return "Evaluate"
	case *service.CompareArgs:
		return "Compare"
	default:
		return "Advance"
	}
}

// newWireValues returns fresh decode targets matching a recorded args type.
func newWireValues(args any) (any, any) {
	switch args.(type) {
	case *service.EvaluateArgs:
		return new(service.EvaluateArgs), new(service.EvaluateReply)
	case *service.CompareArgs:
		return new(service.CompareArgs), new(service.CompareReply)
	default:
		return new(service.AdvanceArgs), new(service.AdvanceReply)
	}
}

// replayAdmission runs the limiter acquire/release pairs the server
// performs for the recorded stream on a fresh limiter: one per Compare
// and one per Evaluate cache miss (missFrac of them). It returns the
// mean cost per Evaluate or Compare.
func replayAdmission(tr *tracer, recs []record, missFrac float64) (float64, error) {
	lim := admission.New(admission.Config{})
	ctx := context.Background()
	n := 0
	var owed float64
	var err error
	start := time.Now()
	tr.timed("admission.acquire_release", 0, func() {
		for _, r := range recs {
			switch r.args.(type) {
			case *service.CompareArgs:
				owed++
			case *service.EvaluateArgs:
				owed += missFrac
			default:
				continue
			}
			n++
			for ; owed >= 1; owed-- {
				var tk *admission.Ticket
				if tk, err = lim.Acquire(ctx, admission.Expensive); err != nil {
					return
				}
				lim.Release(tk)
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("admission replay: %w", err)
	}
	if n == 0 {
		return 0, nil
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n), nil
}

// replayLedger registers every full-service prediction of the stream
// with a fresh accuracy ledger, as the server does per reply.
func replayLedger(tr *tracer, recs []record, app string) float64 {
	led := accuracy.New(accuracy.Config{})
	n := 0
	start := time.Now()
	tr.timed("accuracy.begin", 0, func() {
		for i, r := range recs {
			var secs []float64
			switch rep := r.reply.(type) {
			case *service.EvaluateReply:
				if !rep.Brownout {
					secs = []float64{rep.Seconds}
				}
			case *service.CompareReply:
				if !rep.Brownout {
					secs = rep.Seconds
				}
			default:
				continue
			}
			n++
			for _, s := range secs {
				led.Begin(accuracy.Prediction{
					App: app, AgeBucket: accuracy.AgeBucket(0), Epoch: uint64(i),
					Predicted: s, TraceID: obs.FormatID(uint64(i + 1)),
				})
			}
		}
	})
	if n == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
}

// replayObs builds, per recorded read request, the span tree the
// server's interceptor builds (rpc.<Method> with one cache.lookup child
// per lookup, plus core.predict under a miss) on a fresh tracer, and
// records the decision on a fresh flight recorder.
func replayObs(tr *tracer, recs []record, app string, missFrac float64) float64 {
	otr := obs.NewTracer(4096)
	rec := obs.NewRecorder(0)
	n := 0
	var owed float64
	start := time.Now()
	tr.timed("obs.spans_and_record", 0, func() {
		for _, r := range recs {
			var method, kind string
			lookups := 0
			switch a := r.args.(type) {
			case *service.EvaluateArgs:
				method, kind, lookups = "Evaluate", "evaluate", 1
			case *service.CompareArgs:
				method, kind, lookups = "Compare", "compare", len(a.Mappings)
			default:
				continue
			}
			n++
			span := otr.StartRemote("rpc."+method, obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewTraceID()})
			ctx := obs.ContextWithSpan(context.Background(), span)
			d := obs.Decision{TraceID: obs.FormatID(obs.TraceIDFromContext(ctx)), Kind: kind, App: app}
			for j := 0; j < lookups; j++ {
				ls, lctx := obs.StartSpan(ctx, "cache.lookup")
				owed += missFrac
				if owed >= 1 {
					owed--
					ps, _ := obs.StartSpan(lctx, "core.predict")
					ps.End()
					ls.Attr("hit", false)
				} else {
					ls.Attr("hit", true)
				}
				ls.End()
				d.CacheLookups++
			}
			span.End()
			rec.Record(d)
		}
	})
	if n == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
}

// replayPredict times Evaluator.Predict on each mapping against snap.
func replayPredict(tr *tracer, ev *core.Evaluator, snap *monitor.Snapshot, mappings [][]int) (float64, error) {
	var err error
	start := time.Now()
	tr.timed("core.predict", 0, func() {
		for _, m := range mappings {
			if _, err = ev.Predict(core.Mapping(m), snap); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("predict replay: %w", err)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(mappings)), nil
}

// setupTimes is the in-process replay of set-up: calibration, then per
// application the profiling run, the architecture speed measurement
// and the trace analysis.
type setupTimes struct {
	calibrate, sim, speeds, analyse time.Duration
	profiles                        int
}

// replaySetup calibrates topo and profiles every named application on
// the daemon's default profiling nodes, timing each stage.
func replaySetup(tr *tracer, topo *cluster.Topology, apps []string) (setupTimes, error) {
	var st setupTimes
	root := tr.id()
	t0 := time.Now()
	t := time.Now()
	model := bench.Calibrate(topo, bench.Options{})
	st.calibrate = time.Since(t)
	tr.record(tr.id(), root, "bench.calibrate", t, t.Add(st.calibrate))
	nodes := profilingNodes(topo)
	for _, name := range apps {
		prog, err := workloads.Lookup(name)
		if err != nil {
			return st, err
		}
		t = time.Now()
		eng := des.NewEngine()
		res := mpisim.Run(vcluster.New(eng, topo), simnet.New(eng, topo), nodes[:prog.Ranks], prog.Body, prog.Options())
		eng.Shutdown()
		d := time.Since(t)
		st.sim += d
		tr.record(tr.id(), root, "profile.sim", t, t.Add(d))

		t = time.Now()
		speeds := bench.MeasureArchSpeeds(topo, prog.ArchEff, 0.5)
		d = time.Since(t)
		st.speeds += d
		tr.record(tr.id(), root, "profile.speeds", t, t.Add(d))

		t = time.Now()
		prof, err := profile.FromTrace(res.Trace, topo, speeds)
		if err == nil {
			err = prof.ComputeLambdas(model)
		}
		d = time.Since(t)
		if err != nil {
			return st, fmt.Errorf("profile %s: %w", name, err)
		}
		st.analyse += d
		tr.record(tr.id(), root, "profile.analyse", t, t.Add(d))
		st.profiles++
	}
	tr.record(root, 0, "setup", t0, time.Now())
	return st, nil
}

// profilingNodes mirrors the daemon's profiling mapping: the fastest
// architecture's nodes first.
func profilingNodes(topo *cluster.Topology) []int {
	var nodes []int
	for _, a := range []cluster.Arch{cluster.ArchAlpha, cluster.ArchIntel, cluster.ArchSPARC} {
		nodes = append(nodes, topo.NodesByArch(a)...)
	}
	return nodes
}

// setupSystem builds a calibrated Orange Grove System with every named
// application profiled, the way the daemon and map-and-run set up.
func setupSystem(apps []string, seed int64) (*cbes.System, error) {
	topo := cluster.NewOrangeGrove()
	sys := cbes.NewSystem(topo, cbes.Config{Seed: seed})
	sys.Calibrate(bench.Options{})
	nodes := profilingNodes(topo)
	for _, name := range apps {
		prog, err := workloads.Lookup(name)
		if err != nil {
			sys.Close()
			return nil, err
		}
		if _, err := sys.Profile(prog, nodes[:prog.Ranks]); err != nil {
			sys.Close()
			return nil, fmt.Errorf("profile %s: %w", name, err)
		}
	}
	return sys, nil
}
