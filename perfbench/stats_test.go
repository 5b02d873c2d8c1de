package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"cbes/internal/service"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {95, 10}, {91, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("empty sample: %v, want NaN", got)
	}
	// A failed operation enters the sample as +Inf and so fills the tail.
	lat := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, math.Inf(1)}
	if got := percentile(lat, 90); got != 1 {
		t.Errorf("p90 with one failure in ten = %v, want 1", got)
	}
	if got := percentile(lat, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with one failure in ten = %v, want +Inf", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestLatencyTimedFromDue(t *testing.T) {
	due := time.Unix(100, 0)
	s := sample{due: due, sent: due.Add(5 * time.Millisecond), done: due.Add(6 * time.Millisecond)}
	if got := s.latency(); got != 6*time.Millisecond {
		t.Errorf("latency = %v, want 6ms: a late send counts against the request", got)
	}
	if got := s.lateness(); got != 5*time.Millisecond {
		t.Errorf("lateness = %v, want 5ms", got)
	}
	if got := s.service(); got != time.Millisecond {
		t.Errorf("send-to-reply = %v, want 1ms", got)
	}
	p := summarise(1000, []sample{s})
	if p.latency[0] != 6 || p.late[0] != 5 {
		t.Errorf("summarise: latency %v late %v", p.latency, p.late)
	}
}

func TestFailureAccounting(t *testing.T) {
	var tl tally
	for _, o := range []outcome{outcomeOK, outcomeFailed, outcomeBrownout, outcomeOK} {
		tl.add(o)
	}
	if tl.attempted != 4 || tl.failed != 1 || tl.brownout != 1 {
		t.Fatalf("tally = %+v", tl)
	}
	if tl.failPct() != 25 || tl.brownoutPct() != 25 {
		t.Errorf("failPct %v brownoutPct %v, want 25 and 25", tl.failPct(), tl.brownoutPct())
	}
	if (tally{}).failPct() != 0 {
		t.Error("failPct of nothing attempted is not 0")
	}
	due := time.Unix(0, 0)
	p := summarise(10, []sample{
		{due: due, sent: due, done: due.Add(time.Millisecond), outcome: outcomeOK},
		{due: due, sent: due, done: due.Add(time.Millisecond), outcome: outcomeFailed},
	})
	if p.latency[0] != 1 || !math.IsInf(p.latency[1], 1) {
		t.Errorf("latencies %v, want 1 and +Inf for the failed op", p.latency)
	}
}

// steadyPhase builds n operations at rate, each taking lat to complete.
func steadyPhase(rate float64, n int, lat time.Duration, o func(i int) outcome) phase {
	start := time.Unix(0, 0)
	interval := time.Duration(float64(time.Second) / rate)
	var ss []sample
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		ss = append(ss, sample{due: due, sent: due, done: due.Add(lat), outcome: o(i)})
	}
	return summarise(rate, ss)
}

func TestLadderRule(t *testing.T) {
	ok := func(int) outcome { return outcomeOK }
	r := defaultLadderRule
	if pass, why := r.passes(steadyPhase(1000, 2000, 2*time.Millisecond, ok)); !pass {
		t.Errorf("healthy step fails: %s", why)
	}
	if pass, _ := r.passes(steadyPhase(1000, 2000, 30*time.Millisecond, ok)); pass {
		t.Error("step with p99 30ms passes a 25ms limit")
	}
	shed := func(i int) outcome {
		if i%500 == 0 {
			return outcomeBrownout
		}
		return outcomeOK
	}
	if pass, _ := r.passes(steadyPhase(1000, 2000, time.Millisecond, shed)); pass {
		t.Error("step with 0.2% brownouts passes a 0.1% limit")
	}
	// Completions that fall behind arrivals: the last reply lands long
	// after the last operation was due.
	p := steadyPhase(1000, 2000, time.Millisecond, ok)
	p.span = 4 * time.Second
	if pass, _ := r.passes(p); pass {
		t.Error("step completing at half the offered rate passes")
	}
	if pass, _ := r.passes(phase{rate: 1000}); pass {
		t.Error("empty step passes")
	}
}

func TestSearchCapacity(t *testing.T) {
	ladder := []float64{1000, 2000, 4000}
	search := func(capacity float64) (float64, []float64) {
		var tried []float64
		got := searchCapacity(ladder, func(rate float64) bool {
			tried = append(tried, rate)
			return rate <= capacity
		})
		return got, tried
	}
	// Fails inside the ladder: the last passing rung, no further steps.
	if got, tried := search(3000); got != 2000 || len(tried) != 3 {
		t.Errorf("capacity 3000: got %v after %v", got, tried)
	}
	// Passes the whole ladder: grows past the top rung, never beyond capacity.
	if got, tried := search(6000); got != 5200 || len(tried) != 5 {
		t.Errorf("capacity 6000: got %v after %v", got, tried)
	}
	// Passes every step: stops after ladderExtra growth steps.
	if _, tried := search(1e9); len(tried) != len(ladder)+ladderExtra {
		t.Errorf("unbounded capacity: tried %v", tried)
	}
	// Fails the first step.
	if got, _ := search(300); got != 0 {
		t.Errorf("capacity 300: got %v", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// The name holds spaces and a ')'; utime 250 and stime 37 ticks.
	line := "4242 (cbes d) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 37 0 0 20 0 7 0 123 0\n"
	got, err := parseStatCPU(line)
	if err != nil || got != 2870*time.Millisecond {
		t.Errorf("parseStatCPU = %v, %v; want 2.87s", got, err)
	}
	if _, err := parseStatCPU("4242 (short) S 1 2"); err == nil {
		t.Error("a truncated stat line parsed")
	}
	own, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc")
	}
	if _, err := parseStatCPU(string(own)); err != nil {
		t.Errorf("own stat line: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "op", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "a", Start: at(1), End: at(4)},
		{ID: 3, Parent: 1, Name: "b", Start: at(3), End: at(6)},  // overlaps a
		{ID: 4, Parent: 1, Name: "b", Start: at(9), End: at(12)}, // runs past the parent
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// op: 10ms minus the union [1,6] and [9,10] = 10 - 5 - 1.
	if got["op"].Self != 4*time.Millisecond {
		t.Errorf("op self = %v, want 4ms", got["op"].Self)
	}
	if got["b"].Count != 2 || got["b"].Total != 6*time.Millisecond {
		t.Errorf("b = %+v", got["b"])
	}
}

func TestReplyChecks(t *testing.T) {
	chk := &checker{}
	good := &service.CompareReply{Seconds: []float64{3, 1, 1}, Best: 1, PredictionIDs: []string{"a", "b", "c"}}
	if o := checkCompare(chk, good, 3); o != outcomeOK || !chk.ok() {
		t.Fatalf("good reply: outcome %v, violations %v", o, chk.first)
	}
	for _, bad := range []*service.CompareReply{
		{Seconds: []float64{3, 1, 1}, Best: 2, PredictionIDs: []string{"a", "b", "c"}},
		{Seconds: []float64{3, math.Inf(1), 1}, Best: 2, PredictionIDs: []string{"a", "b", "c"}},
		{Seconds: []float64{3, 1, 1}, Best: 1, PredictionIDs: []string{"a", "", "c"}},
		{Seconds: []float64{3, 1}, Best: 1},
	} {
		chk := &checker{}
		checkCompare(chk, bad, 3)
		if chk.ok() {
			t.Errorf("bad reply %+v passed", bad)
		}
	}
	chk = &checker{}
	if o := checkCompare(chk, &service.CompareReply{Seconds: []float64{2, 1}, Best: 1, Brownout: true}, 2); o != outcomeBrownout || !chk.ok() {
		t.Errorf("brownout reply without IDs: outcome %v, violations %v", o, chk.first)
	}
	if o := checkEvaluate(chk, &service.EvaluateReply{Seconds: 1}); o != outcomeOK || chk.ok() {
		t.Error("full-service Evaluate without a PredictionID passed")
	}
}

func TestParseProm(t *testing.T) {
	m := parseProm("# HELP x\ncbes_a_total 3\ncbes_rpc_seconds_sum{method=\"Evaluate\"} 0.25\nbad line\n")
	if m["cbes_a_total"] != 3 || m[`cbes_rpc_seconds_sum{method="Evaluate"}`] != 0.25 || len(m) != 2 {
		t.Errorf("parsed %v", m)
	}
	if d := delta(promMetrics{"x": 1}, promMetrics{"x": 4}, "x"); d != 3 {
		t.Errorf("delta = %v", d)
	}
}

func TestJobMixIsBalanced(t *testing.T) {
	seen := map[string]int{}
	for j := 0; j < 3*len(jobApps); j++ {
		seen[jobApp(7, j)]++
	}
	for _, app := range jobApps {
		if seen[app] != 3 {
			t.Errorf("%s drawn %d times in 3 rounds, want 3", app, seen[app])
		}
	}
	if jobApp(7, 5) != jobApp(7, 5) {
		t.Error("job draw is not deterministic")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables perfbench
// prints in step with the benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []metricDef, names, units []string) {
		if len(names) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(names), len(want))
			return
		}
		for i, d := range want {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, perfbench %s/%s", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range def.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range def.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
	var workloads []string
	for _, w := range def.Workloads {
		workloads = append(workloads, w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		if _, ok := evalSpecs[w.Name]; !ok && w.Name != "map-and-run" {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(workloads) != len(evalSpecs)+1 {
		t.Errorf("BENCHMARK.json workloads %v", workloads)
	}
}
