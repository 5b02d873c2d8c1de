// Command perfbench is the CBES benchmark. It runs one workload for a
// fixed time, checks every output it gets, and prints one JSON result
// line last on standard output:
//
//	perfbench --workload evaluate-hot --seed 1 --seconds 25 --trace 0 \
//	    --cbesd .bench_build/bin/cbesd --workdir .bench_build/run
//
// Workloads: evaluate-hot and evaluate-cold drive an open loop of
// Evaluate/Compare/Advance RPCs against a cbesd child process;
// map-and-run runs the paper's schedule-predict-execute loop in
// process. With --trace 0 the result carries the end-to-end metrics,
// with --trace 1 the per-layer metrics of a traced rerun. perfbench/run.py
// builds both binaries and runs this command; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are reported with --trace 0 on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer are reported with --trace 1 on every workload; a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"service.server_us", "us"},
	{"service.transport_us", "us"},
	{"service.unattributed_us", "us"},
	{"service.advance_ms", "ms"},
	{"codec.us_per_req", "us"},
	{"codec.bytes_per_req", "B"},
	{"cache.hit_ratio", "ratio"},
	{"cache.lookups", "count"},
	{"core.predict_us", "us"},
	{"core.predicts", "count"},
	{"core.delta_ns", "ns"},
	{"admission.us_per_req", "us"},
	{"admission.shed", "count"},
	{"admission.limit", "count"},
	{"accuracy.begin_us", "us"},
	{"obs.us_per_req", "us"},
	{"monitor.epochs", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"schedule.evals_per_s", "1/s"},
	{"schedule.evals", "count"},
	{"mpisim.run_ms", "ms"},
	{"des.events", "count"},
	{"des.events_per_s", "1/s"},
	{"des.sim_per_wall", "ratio"},
	{"bench.calibrate_ms", "ms"},
	{"profile.sim_ms", "ms"},
	{"profile.speeds_ms", "ms"},
	{"profile.analyse_ms", "ms"},
	{"fail_pct", "%"},
	{"brownout_pct", "%"},
	{"pred_err_pct", "%"},
	{"gain_pct", "%"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"max_rps", "1/s"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	cbesd    string
	workdir  string
	tracedir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome; the JSON fields are the printed line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	values     map[string]float64
	violations []string // correctness checks that failed
	invalid    []string // workload validity checks that failed
}

func (r *result) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "evaluate-hot, evaluate-cold or map-and-run")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opt.seconds, "seconds", 25, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&opt.cbesd, "cbesd", "", "cbesd binary (evaluate-* workloads)")
	flag.StringVar(&opt.workdir, "workdir", "", "scratch directory for databases, logs and spans")
	flag.StringVar(&opt.tracedir, "tracedir", "", "directory the traced run writes its spans to (default --workdir)")
	flag.Parse()
	opt.trace = trace == 1
	if err := run(opt); err != nil {
		logf("error: %v", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	if opt.workdir == "" {
		return fmt.Errorf("--workdir is required")
	}
	if opt.tracedir == "" {
		opt.tracedir = opt.workdir
	}
	for _, dir := range []string{opt.workdir, opt.tracedir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	var res result
	var err error
	if spec, ok := evalSpecs[opt.workload]; ok {
		if opt.cbesd == "" {
			return fmt.Errorf("--cbesd is required for %s", opt.workload)
		}
		if opt.cbesd, err = filepath.Abs(opt.cbesd); err != nil {
			return err
		}
		err = runEvaluate(spec, opt, &res)
	} else if opt.workload == "map-and-run" {
		err = runMapAndRun(opt, &res)
	} else {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err != nil {
		return err
	}
	ok := emit(opt, &res)
	if !ok {
		os.Exit(1)
	}
	return nil
}

// emit prints the result line and reports whether the run was correct
// and valid.
func emit(opt options, res *result) bool {
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	res.Metrics = map[string]metric{}
	var missing []string
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.violations = append(res.violations, fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-26s %14.6g %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		logf("not exercised by %s (reported as 0): %s", opt.workload, strings.Join(missing, ", "))
	}
	for _, v := range res.violations {
		logf("CHECK FAILED: %s", v)
	}
	for _, v := range res.invalid {
		logf("INVALID RUN: %s", v)
	}
	res.Correct = len(res.violations) == 0 && len(res.invalid) == 0
	line, err := json.Marshal(res)
	if err != nil {
		logf("encode result: %v", err)
		return false
	}
	fmt.Println(string(line))
	return res.Correct
}
