// Package service exposes CBES as a network service: external clients
// (such as schedulers or workload managers) submit mapping-comparison and
// scheduling requests over TCP using Go's net/rpc, matching the paper's
// design of a core module that "accepts mapping comparison requests from
// external clients".
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbes"
	"cbes/internal/accuracy"
	"cbes/internal/admission"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/obs"
)

// RPC observability: every exported method runs through intercept, which
// maintains per-method request/error counters and latency histograms
// plus a cluster-wide in-flight gauge. Method names are a fixed set, so
// label cardinality is bounded.
var (
	rpcRequests = obs.Default().CounterVec(
		"cbes_rpc_requests_total", "RPC requests served, by method.", "method")
	rpcErrors = obs.Default().CounterVec(
		"cbes_rpc_errors_total", "RPC requests that returned an error, by method.", "method")
	rpcSeconds = obs.Default().HistogramVec(
		"cbes_rpc_seconds", "RPC handler latency, by method.", nil, "method")
	rpcInflight = obs.Default().Gauge(
		"cbes_rpc_inflight", "RPC requests currently being handled (or waiting on the engine lock).")
	rpcConnections = obs.Default().Counter(
		"cbes_rpc_connections_total", "Client connections accepted.")
	rpcActiveConns = obs.Default().Gauge(
		"cbes_rpc_active_connections", "Client connections currently open.")
	rpcPanics = obs.Default().Counter(
		"cbes_rpc_panics_recovered_total", "Handler panics recovered and returned as errors.")
	rpcBusy = obs.Default().Counter(
		"cbes_rpc_busy_total", "Requests rejected because the engine lock was not acquired in time.")
	// rpcBusySeconds records how long rejected requests queued before the
	// ErrBusy cutoff. Busy rejections are ALSO observed in cbes_rpc_seconds
	// (they are part of the latency a client experienced); this series
	// isolates them so saturation is visible on its own.
	rpcBusySeconds = obs.Default().Histogram(
		"cbes_rpc_busy_seconds", "Queue time of requests rejected with the busy error.", nil)
	clientRetries = obs.Default().Counter(
		"cbes_client_retries_total", "Client-side retries of transient RPC failures.")
	scheduleCoalesced = obs.Default().Counter(
		"cbes_schedule_coalesced_total",
		"Schedule requests served by joining an identical in-flight request instead of searching again.")
	rpcDeadlineExceeded = obs.Default().Counter(
		"cbes_rpc_deadline_exceeded_total",
		"Requests abandoned because the caller's propagated deadline expired server-side.")
	brownoutServed = obs.Default().Counter(
		"cbes_brownout_served_total",
		"Shed requests answered from the profile-only brownout fast path instead of being rejected.")
	clientBreakerOpen = obs.Default().Counter(
		"cbes_client_breaker_open_total",
		"Client calls refused locally because the circuit breaker was open.")
	clientBudgetExhausted = obs.Default().Counter(
		"cbes_client_retry_budget_exhausted_total",
		"Client retries suppressed because the retry budget was empty.")
)

// Stable error codes (DESIGN.md §15). net/rpc flattens server errors to
// bare strings, so remote callers cannot errors.Is against the sentinel
// values — instead every overload-class error carries a "cbes:" code
// prefix in its message, and the Is* helpers match either the sentinel
// (local callers) or the code substring (flattened rpc.ServerError).
// The codes are wire contract: never change them.
const (
	codeBusy     = "cbes:busy"
	codeShed     = "cbes:shed"
	codeDeadline = "cbes:deadline"
)

// ErrBusy is returned (wrapped) when a request could not acquire the
// engine serialization lock within the server's request timeout — e.g. a
// long-running Advance is hogging the engine. The condition is transient;
// the retrying client backs off and retries it.
var ErrBusy = errors.New(codeBusy + ": server busy (engine lock timeout)")

// ErrShed is returned when the admission limiter refused the request and
// no brownout answer was possible. Transient but load-driven: clients
// retry only within their retry budget. Aliased from internal/admission
// so both packages flatten to the same wire code.
var ErrShed = admission.ErrShed

// ErrDeadlineExceeded is returned (wrapped) when the caller's propagated
// deadline expired before or while the server worked on the request.
// Retrying is pointless — the caller is out of time by definition.
var ErrDeadlineExceeded = errors.New(codeDeadline + ": request deadline exceeded")

// hasCode matches err against a sentinel (local callers) or its stable
// wire code (errors flattened to strings by net/rpc).
func hasCode(err, sentinel error, code string) bool {
	return err != nil && (errors.Is(err, sentinel) || strings.Contains(err.Error(), code))
}

// IsBusy reports whether err is ErrBusy, either locally (errors.Is) or
// flattened to a string by net/rpc transport.
func IsBusy(err error) bool { return hasCode(err, ErrBusy, codeBusy) }

// IsShed reports whether err is ErrShed across the same two spellings.
func IsShed(err error) bool { return hasCode(err, ErrShed, codeShed) }

// IsDeadlineExceeded reports whether err is ErrDeadlineExceeded (wire or
// local) or a raw context.DeadlineExceeded that escaped unwrapped.
func IsDeadlineExceeded(err error) bool {
	return hasCode(err, ErrDeadlineExceeded, codeDeadline) || errors.Is(err, context.DeadlineExceeded)
}

// TraceMeta carries the caller's span context across the net/rpc wire.
// Embedded in every args struct so gob moves it transparently — older
// clients simply send the zero value, and the server mints a fresh
// trace instead of adopting one. The typed Client stamps it from its
// own rpc.client.* span, so one trace tree covers client retry loop →
// server interceptor → cache → search.
type TraceMeta struct {
	TraceID uint64
	SpanID  uint64
	// DeadlineUnixNano is the caller's absolute deadline (UnixNano), or 0
	// for none. Absolute rather than a duration so time spent queued —
	// client-side, on the wire, on the accept backlog — counts against
	// the budget; it assumes loosely synchronized clocks (DESIGN.md §15).
	// Gob moves added fields compatibly in both directions: older peers
	// simply see (or send) zero.
	DeadlineUnixNano int64
}

func (m *TraceMeta) setTrace(sc obs.SpanContext) { m.TraceID, m.SpanID = sc.TraceID, sc.SpanID }

func (m TraceMeta) spanContext() obs.SpanContext {
	return obs.SpanContext{TraceID: m.TraceID, SpanID: m.SpanID}
}

func (m *TraceMeta) setDeadline(t time.Time) { m.DeadlineUnixNano = t.UnixNano() }

// deadline decodes the wire deadline, reporting whether one was set.
func (m TraceMeta) deadline() (time.Time, bool) {
	if m.DeadlineUnixNano == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, m.DeadlineUnixNano), true
}

// traceCarrier is what Client.call stamps: any args struct embedding
// TraceMeta implements it via the promoted pointer method.
type traceCarrier interface{ setTrace(sc obs.SpanContext) }

// deadlineCarrier is the deadline-stamping counterpart of traceCarrier.
type deadlineCarrier interface{ setDeadline(t time.Time) }

// startRPCSpan opens the server-side span of one RPC, adopting the
// caller's wire-carried trace when present and minting a fresh one
// otherwise, and returns a context carrying it for the handler body —
// bounded by the caller's propagated deadline when the meta carries one.
// The returned cancel must run when the handler finishes (it releases
// the deadline timer).
func startRPCSpan(method string, meta TraceMeta) (*obs.ActiveSpan, context.Context, context.CancelFunc) {
	span := obs.DefaultTracer().StartRemote("rpc."+method, meta.spanContext())
	ctx := obs.ContextWithSpan(context.Background(), span)
	if dl, ok := meta.deadline(); ok {
		span.Attr("deadline_ms", time.Until(dl).Milliseconds())
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, dl)
		return span, ctx, cancel
	}
	return span, ctx, func() {}
}

// intercept wraps one writer RPC method body with instrumentation, panic
// recovery, and the engine serialization lock (mutations drive the
// single-threaded simulation engine, so every writer runs under the
// lock). Lock acquisition is deadline-bounded: a request that cannot
// start within the server's request timeout — e.g. queued behind a long
// Advance — fails fast with ErrBusy instead of piling up. Once a handler
// runs it is not preempted (Go offers no safe preemption), so the
// timeout bounds queueing time, not execution time. The in-flight gauge
// counts requests from arrival, i.e. including time spent queued on the
// lock. Busy rejections are observed in the latency histogram too —
// skipping them made p99 under saturation look better than reality.
func (s *Server) intercept(method string, meta TraceMeta, fn func(ctx context.Context) error) error {
	rpcInflight.Add(1)
	s.inflight.Add(1)
	defer rpcInflight.Add(-1)
	defer s.inflight.Add(-1)
	start := time.Now()
	span, ctx, cancel := startRPCSpan(method, meta)
	defer cancel()
	// A request arriving with its deadline already spent never gets to
	// touch the engine lock — the writer queue is precious.
	if ctx.Err() != nil {
		return failObserved(method, span, start, deadlineError(method, ctx.Err()))
	}
	timer := time.NewTimer(s.timeout)
	defer timer.Stop()
	select {
	case s.lock <- struct{}{}:
	case <-ctx.Done():
		// The caller's deadline expired while we queued behind another
		// writer (the stalled-engine case): give up its queue slot so a
		// wedged Advance cannot pile up doomed ReportOutcome/Advance
		// requests behind it.
		return failObserved(method, span, start, deadlineError(method, ctx.Err()))
	case <-timer.C:
		queued := time.Since(start).Seconds()
		rpcBusy.Inc()
		rpcBusySeconds.Observe(queued)
		rpcRequests.With(method).Inc()
		rpcSeconds.With(method).Observe(queued)
		rpcErrors.With(method).Inc()
		err := fmt.Errorf("service: %s queued %v on the engine lock: %w", method, s.timeout, ErrBusy)
		span.Error(err).End()
		return err
	}
	err := wireDeadline(s.invoke(method, ctx, fn))
	rpcRequests.With(method).Inc()
	rpcSeconds.With(method).Observe(time.Since(start).Seconds())
	if err != nil {
		rpcErrors.With(method).Inc()
	}
	span.Error(err).End()
	return err
}

// failObserved books one request that failed before (or instead of)
// running its handler into the standard per-method metrics and closes
// its span.
func failObserved(method string, span *obs.ActiveSpan, start time.Time, err error) error {
	rpcRequests.With(method).Inc()
	rpcSeconds.With(method).Observe(time.Since(start).Seconds())
	rpcErrors.With(method).Inc()
	span.Error(err).End()
	return err
}

// deadlineError wraps a context expiry into the stable wire-coded
// deadline error.
func deadlineError(method string, cause error) error {
	rpcDeadlineExceeded.Inc()
	return fmt.Errorf("service: %s: %v: %w", method, cause, ErrDeadlineExceeded)
}

// wireDeadline rewrites raw context errors escaping a handler into the
// stable wire-coded ErrDeadlineExceeded so remote callers can match them
// after net/rpc flattening. Other errors pass through untouched.
func wireDeadline(err error) error {
	if err == nil || hasCode(err, ErrDeadlineExceeded, codeDeadline) {
		return err
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		rpcDeadlineExceeded.Inc()
		return fmt.Errorf("service: %v: %w", err, ErrDeadlineExceeded)
	}
	return err
}

// interceptRead wraps one read-only RPC method body: same
// instrumentation and panic recovery as intercept, but no engine lock
// and no queueing — the body runs against the immutable published view,
// so any number of readers proceed concurrently with each other and
// with a writer assembling the next view. Under SingleLock (the legacy
// benchmark baseline) reads fall back to the serialized writer path.
func (s *Server) interceptRead(method string, meta TraceMeta, fn func(ctx context.Context) error) error {
	if s.singleLock {
		return s.intercept(method, meta, fn)
	}
	rpcInflight.Add(1)
	s.inflight.Add(1)
	defer rpcInflight.Add(-1)
	defer s.inflight.Add(-1)
	start := time.Now()
	span, ctx, cancel := startRPCSpan(method, meta)
	defer cancel()
	if ctx.Err() != nil {
		// The propagated deadline is already spent: fail fast instead of
		// computing an answer nobody will read.
		return failObserved(method, span, start, deadlineError(method, ctx.Err()))
	}
	err := wireDeadline(s.run(method, ctx, fn))
	rpcRequests.With(method).Inc()
	rpcSeconds.With(method).Observe(time.Since(start).Seconds())
	if err != nil {
		rpcErrors.With(method).Inc()
	}
	span.Error(err).End()
	return err
}

// invoke runs the handler body holding the engine lock, releasing it on
// every exit path.
func (s *Server) invoke(method string, ctx context.Context, fn func(ctx context.Context) error) (err error) {
	defer func() { <-s.lock }()
	return s.run(method, ctx, fn)
}

// run executes a handler body, converting a panic into an error so one
// poisoned request cannot kill the daemon (net/rpc would otherwise crash
// the whole process) — and, for writers, so the engine lock is still
// released for subsequent requests.
func (s *Server) run(method string, ctx context.Context, fn func(ctx context.Context) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			rpcPanics.Inc()
			err = fmt.Errorf("service: %s: internal error (recovered panic): %v", method, p)
		}
	}()
	return fn(ctx)
}

// RPCName is the registered net/rpc service name.
const RPCName = "CBES"

// EvaluateArgs asks for an execution-time prediction of one mapping.
type EvaluateArgs struct {
	TraceMeta
	App     string
	Mapping []int
}

// EvaluateReply carries the prediction. Degraded and StaleNodes mirror
// core.Prediction: they used to be computed server-side and silently
// dropped at the RPC boundary, leaving clients unable to tell a
// profile-only fallback prediction from a fully monitored one.
type EvaluateReply struct {
	// TraceID echoes the server-side trace of this request (hex), so the
	// caller can pull /debug/trace?id=... or filter decision records.
	TraceID  string
	Seconds  float64
	Critical int // rank attaining the per-segment max in the first segment
	// Degraded reports that at least one mapped node's monitoring data was
	// stale, so the prediction used profile-only fallback values.
	Degraded bool
	// StaleNodes lists the mapped nodes that triggered the fallback.
	StaleNodes []int
	// Brownout reports that the server was shedding load and answered
	// from the profile-only fast path (nominal resource conditions,
	// monitoring ignored) instead of rejecting — a cheaper, explicitly
	// labeled answer (DESIGN.md §15). Brownout replies carry no
	// PredictionID: their systematic bias must not feed calibration.
	Brownout bool
	// PredictionID keys this prediction in the accuracy ledger; reporting
	// the measured runtime back via ReportOutcome joins the pair and feeds
	// the calibration statistics (DESIGN.md §12).
	PredictionID string
	// ErrBand* annotate the prediction with the empirical signed
	// relative-error band (percent, roughly p10..p90) of its calibration
	// bucket — (app, scheduler, degraded, snapshot-age) — measured from
	// previously joined outcomes. ErrBandSamples == 0 means no band yet.
	ErrBandLowPct  float64
	ErrBandHighPct float64
	ErrBandSamples int
}

// ExplainArgs asks for a human-readable prediction breakdown.
type ExplainArgs struct {
	TraceMeta
	App     string
	Mapping []int
}

// ExplainReply carries the rendered breakdown.
type ExplainReply struct {
	TraceID string // hex server-side trace ID (see EvaluateReply)
	Seconds float64
	Text    string
}

// CompareArgs asks for predictions of several candidate mappings.
type CompareArgs struct {
	TraceMeta
	App      string
	Mappings [][]int
}

// CompareReply carries per-candidate predictions and the fastest index.
// Degraded and StaleNodes are per-mapping, aligned with Seconds.
type CompareReply struct {
	TraceID string // hex server-side trace ID (see EvaluateReply)
	Seconds []float64
	Best    int
	// Degraded[i] reports whether mapping i's prediction fell back to
	// profile-only values for stale nodes.
	Degraded []bool
	// StaleNodes[i] lists mapping i's stale nodes (nil when none).
	StaleNodes [][]int
	// Brownout reports that the whole batch was answered from the
	// profile-only fast path because the server was shedding load
	// (see EvaluateReply.Brownout); PredictionIDs stay empty.
	Brownout bool
	// PredictionIDs[i] is mapping i's accuracy-ledger key, aligned with
	// Seconds — report whichever candidate actually ran.
	PredictionIDs []string
	// ErrBand* describe the winning candidate's calibration bucket (see
	// EvaluateReply).
	ErrBandLowPct  float64
	ErrBandHighPct float64
	ErrBandSamples int
}

// ScheduleArgs asks the service to find a mapping.
type ScheduleArgs struct {
	TraceMeta
	App       string
	Algorithm string // "cs", "ncs", "rs", "ga"
	Pool      []int
	Seed      int64
	// Effort caps the search's energy evaluations; 0 selects the server
	// default. The cost/benefit knob: a caller in a hurry (or paying for
	// estimating service by the evaluation) bounds the search it buys.
	// Older clients send 0 via gob and keep the default.
	Effort int
}

// ScheduleReply carries the chosen mapping.
type ScheduleReply struct {
	// TraceID is the hex trace ID of the server-side causal tree for THIS
	// request. A coalesced follower reports its own trace here; the trace
	// that ran the shared search is in its decision record's LeaderTraceID.
	TraceID     string
	Mapping     []int
	Predicted   float64
	Evaluations int
	// SchedulerMillis is the search wall time in milliseconds. Kept for
	// compatibility with older clients, but it truncates fast-path runs
	// (often sub-millisecond) to 0 — prefer SchedulerMicros.
	SchedulerMillis int64
	// SchedulerMicros is the search wall time in microseconds.
	SchedulerMicros int64
	// Degraded reports that the chosen mapping's prediction rests on
	// profile-only fallback values for the listed StaleNodes — the client
	// may want a second opinion once monitoring recovers.
	Degraded   bool
	StaleNodes []int
	// PredictionID and the ErrBand* fields mirror EvaluateReply: the
	// ledger key to report the measured runtime against, and the bucket's
	// empirical signed-error band.
	PredictionID   string
	ErrBandLowPct  float64
	ErrBandHighPct float64
	ErrBandSamples int
}

// DecisionsArgs queries the decision flight recorder (DESIGN.md §11).
// Zero-valued filters match everything; N bounds the result to the N
// most recent matches.
type DecisionsArgs struct {
	TraceMeta
	N       int
	Kind    string // "schedule", "evaluate", "explain", "compare"
	App     string
	TraceID string // hex, as echoed in replies
}

// DecisionsReply carries matching records (newest first) and the
// recorder's lifetime total (so a caller can tell "no matches" from
// "recorder empty").
type DecisionsReply struct {
	Decisions []obs.Decision
	Total     uint64
}

// ReportOutcomeArgs joins a measured runtime back to a served prediction
// by its PredictionID, closing the predicted-vs-actual feedback loop
// (DESIGN.md §12). The join is one-shot: a second report for the same ID
// fails.
type ReportOutcomeArgs struct {
	TraceMeta
	PredictionID  string
	ActualSeconds float64
}

// ReportOutcomeReply echoes the joined pair and the resulting error.
type ReportOutcomeReply struct {
	App          string
	Scheduler    string
	Predicted    float64
	Actual       float64
	SignedErrPct float64 // (predicted−actual)/actual×100; positive = over-prediction
	AbsErrPct    float64
	// CalibrationOK is the drift detector's verdict after folding this
	// outcome in.
	CalibrationOK bool
}

// AccuracyArgs queries the accuracy ledger. Empty filters match every
// calibration bucket; Samples bounds the joined-pair list (<= 0 returns
// all resident pairs).
type AccuracyArgs struct {
	TraceMeta
	App       string
	Scheduler string
	Samples   int
}

// AccuracyReply carries the ledger status, the per-bucket calibration
// statistics, and recent joined predicted-vs-actual pairs.
type AccuracyReply struct {
	Status  accuracy.Status
	Buckets []accuracy.BucketStats
	Samples []accuracy.Sample
}

// Metrics formats accepted by the Metrics RPC.
const (
	FormatPrometheus = "prom" // Prometheus text exposition (the default)
	FormatJSON       = "json" // expvar-style JSON snapshot
)

// MetricsArgs selects the exposition format.
type MetricsArgs struct {
	Format string // FormatPrometheus (default) or FormatJSON
}

// MetricsReply carries the rendered metrics.
type MetricsReply struct {
	Text string
}

// StatusArgs requests service status.
type StatusArgs struct{ TraceMeta }

// StatusReply describes the service state.
type StatusReply struct {
	Cluster    string
	Nodes      int
	Apps       []string
	SimSeconds float64
	AvailCPU   []float64
	NICUtil    []float64
	// Epoch is the snapshot epoch of the published read-path view; it
	// advances whenever the monitored state changes (DESIGN.md §10).
	Epoch uint64
}

// AdvanceArgs moves simulated time forward (demo control).
type AdvanceArgs struct {
	TraceMeta
	Seconds float64
}

// AdvanceReply reports the new simulated time and the snapshot epoch of
// the view republished by the advance.
type AdvanceReply struct {
	SimSeconds float64
	Epoch      uint64
}

// DefaultRequestTimeout bounds how long a request may queue on the engine
// lock before failing fast with ErrBusy.
const DefaultRequestTimeout = 30 * time.Second

// Server serves CBES requests for one System under a single-writer /
// many-reader regime (DESIGN.md §10). Reads — Evaluate, Explain,
// Compare, Schedule, Status — run lock-free against the immutable
// published view; only Advance (and view republication) holds the
// engine lock, because only it drives the single-threaded simulation
// engine. Metrics reads atomics and bypasses both paths.
type Server struct {
	sys *cbes.System
	// lock is the engine serialization lock (writers only). A 1-slot
	// channel rather than a sync.Mutex so acquisition can race a deadline
	// (see intercept).
	lock    chan struct{}
	timeout time.Duration
	// inflight counts requests (not connections) for shutdown draining. A
	// counter polled by the drain, not a WaitGroup: requests still arrive
	// on open connections while the drain waits, and a WaitGroup may not
	// be re-Added while a Wait is in progress.
	inflight atomic.Int64
	// view is the epoch-stamped immutable state the read path runs
	// against; the writer republishes it after every mutation.
	view atomic.Pointer[view]
	// cache memoizes predictions by (app, mapping, epoch); nil disables.
	cache *predCache
	// flights coalesces concurrent identical Schedule requests.
	flights flightGroup
	// singleLock routes reads through the writer lock and disables the
	// cache — the pre-sharding behaviour, kept for A/B benchmarking.
	singleLock bool
	// rec is the decision flight recorder (DESIGN.md §11).
	rec *obs.Recorder
	// led is the prediction-accuracy ledger every served prediction
	// registers with (DESIGN.md §12).
	led *accuracy.Ledger
	// lim is the adaptive admission limiter (DESIGN.md §15); nil disables
	// admission control and brownout entirely.
	lim *admission.Limiter
	// brown caches profile-only brownout predictions keyed without an
	// epoch (they depend only on profile + topology, so they stay valid
	// for the process lifetime). Metric-silent: its hits and misses must
	// not pollute the epoch cache's hit-rate series.
	brown *predCache
}

// NewServer wraps a System with the default request timeout and cache
// size, and publishes the initial read-path view. The System's profiles
// must be registered before NewServer (RPC cannot add apps, so the view
// never needs to learn new evaluators).
func NewServer(sys *cbes.System) *Server {
	s := &Server{
		sys:     sys,
		lock:    make(chan struct{}, 1),
		timeout: DefaultRequestTimeout,
		cache:   newPredCache(DefaultCacheSize),
		rec:     obs.DefaultRecorder(),
		led:     accuracy.Default(),
		brown:   newBrownCache(DefaultCacheSize),
	}
	s.refreshView()
	return s
}

// SetAdmission installs the adaptive admission limiter; nil (the
// NewServer default) disables admission control and brownout — every
// request is admitted for full service. Must be called before the
// server starts handling requests.
func (s *Server) SetAdmission(l *admission.Limiter) { s.lim = l }

// SetRequestTimeout overrides the engine-lock queueing bound. Must be
// called before the server starts handling requests.
func (s *Server) SetRequestTimeout(d time.Duration) {
	if d > 0 {
		s.timeout = d
	}
}

// SetCacheCapacity resizes the prediction cache (dropping its contents);
// n <= 0 disables caching. Must be called before the server starts
// handling requests.
func (s *Server) SetCacheCapacity(n int) {
	if n <= 0 {
		s.cache = nil
		return
	}
	s.cache = newPredCache(n)
}

// SetSingleLock selects the legacy single-lock path: every request,
// reads included, serializes through the engine lock, and the prediction
// cache and Schedule coalescing are disabled. Exists so the service
// benchmark can measure the sharded read path against its predecessor;
// production callers should never enable it. Must be called before the
// server starts handling requests.
func (s *Server) SetSingleLock(on bool) {
	s.singleLock = on
	if on {
		s.cache = nil
	}
}

// fillDegraded copies a prediction's degraded-mode markers into reply
// fields. The StaleNodes copy matters: cached predictions are shared
// read-only across requests and net/rpc encodes replies concurrently.
func fillDegraded(pred *core.Prediction, degraded *bool, stale *[]int) {
	*degraded = pred.Degraded
	if len(pred.StaleNodes) > 0 {
		*stale = append([]int(nil), pred.StaleNodes...)
	}
}

// beginPrediction registers one served prediction with the accuracy
// ledger and returns its ID plus its calibration-bucket key (for the
// reply's error-band annotation). Invalid predictions (non-positive
// seconds) are not registered. Cheap enough for the hot path: one short
// ledger mutex section, comparable to a prediction-cache probe.
func (s *Server) beginPrediction(ctx context.Context, v *view, app, scheduler string, mapping []int, predicted float64, degraded bool) (string, accuracy.Key) {
	k := accuracy.Key{
		App:       app,
		Scheduler: scheduler,
		Degraded:  degraded,
		AgeBucket: accuracy.AgeBucket(v.snap.MaxAge(mapping)),
	}
	if !(predicted > 0) {
		return "", k
	}
	id := s.led.Begin(accuracy.Prediction{
		App: app, Scheduler: scheduler, Degraded: degraded,
		AgeBucket: k.AgeBucket, Epoch: v.epoch, Predicted: predicted,
		TraceID: obs.FormatID(obs.TraceIDFromContext(ctx)),
	})
	obs.SpanFromContext(ctx).Attr("prediction_id", id)
	return id, k
}

// fillBand copies a calibration band onto reply fields.
func fillBand(b accuracy.Band, lo, hi *float64, n *int) {
	*lo, *hi, *n = b.LowPct, b.HighPct, b.Samples
}

// Evaluate predicts the execution time of one mapping. Lock-free: served
// from the published view through the prediction cache.
func (s *Server) Evaluate(args *EvaluateArgs, reply *EvaluateReply) error {
	return s.interceptRead("Evaluate", args.TraceMeta, func(ctx context.Context) (err error) {
		v := s.view.Load()
		d := obs.Decision{
			TraceID: obs.FormatID(obs.TraceIDFromContext(ctx)),
			Kind:    "evaluate", App: args.App, Epoch: v.epoch,
		}
		defer func() { s.record(&d, err) }()
		eval, err := v.evaluator(args.App)
		if err != nil {
			return err
		}
		pred, hit, err := s.predict(ctx, v, args.App, eval, core.Mapping(args.Mapping), false)
		d.CacheLookups = 1
		if hit {
			d.CacheHits = 1
		}
		if errors.Is(err, admission.ErrShed) {
			// Brownout: the limiter refused the full-service compute, so
			// answer from the profile-only fast path — a labeled cheaper
			// answer instead of a rejection (DESIGN.md §15).
			d.Shed = true
			pred, err = s.predictBrownoutCached(ctx, eval, args.App, core.Mapping(args.Mapping))
			if err != nil {
				return err
			}
			d.Brownout = true
			brownoutServed.Inc()
			reply.TraceID = d.TraceID
			reply.Seconds = pred.Seconds
			if len(pred.Segments) > 0 {
				reply.Critical = pred.Segments[0].Critical
			}
			reply.Brownout = true
			d.Mapping = args.Mapping
			d.Predicted = pred.Seconds
			return nil
		}
		if err != nil {
			return err
		}
		reply.TraceID = d.TraceID
		reply.Seconds = pred.Seconds
		if len(pred.Segments) > 0 {
			reply.Critical = pred.Segments[0].Critical
		}
		fillDegraded(pred, &reply.Degraded, &reply.StaleNodes)
		id, k := s.beginPrediction(ctx, v, args.App, "", args.Mapping, pred.Seconds, pred.Degraded)
		reply.PredictionID = id
		fillBand(s.led.BandFor(k), &reply.ErrBandLowPct, &reply.ErrBandHighPct, &reply.ErrBandSamples)
		d.Mapping = args.Mapping
		d.Predicted = pred.Seconds
		d.PredictionID = id
		d.Degraded, d.StaleNodes = reply.Degraded, reply.StaleNodes
		return nil
	})
}

// record finalizes one decision record: stamps the error (forensics
// wants the denials too) and hands it to the flight recorder.
func (s *Server) record(d *obs.Decision, err error) {
	if err != nil {
		d.Err = err.Error()
	}
	s.rec.Record(*d)
}

// Explain predicts one mapping and returns the per-process breakdown. A
// cache miss is admitted like Evaluate's, but a shed Explain fails with
// ErrShed instead of browning out: the breakdown is the answer, and the
// brownout sketch has none.
func (s *Server) Explain(args *ExplainArgs, reply *ExplainReply) error {
	return s.interceptRead("Explain", args.TraceMeta, func(ctx context.Context) (err error) {
		v := s.view.Load()
		d := obs.Decision{
			TraceID: obs.FormatID(obs.TraceIDFromContext(ctx)),
			Kind:    "explain", App: args.App, Epoch: v.epoch,
		}
		defer func() { s.record(&d, err) }()
		eval, err := v.evaluator(args.App)
		if err != nil {
			return err
		}
		pred, hit, err := s.predict(ctx, v, args.App, eval, core.Mapping(args.Mapping), false)
		d.CacheLookups = 1
		if hit {
			d.CacheHits = 1
		}
		if err != nil {
			return err
		}
		reply.TraceID = d.TraceID
		reply.Seconds = pred.Seconds
		reply.Text = pred.Explain(s.sys.Topo)
		d.Mapping = args.Mapping
		d.Predicted = pred.Seconds
		d.Degraded, d.StaleNodes = pred.Degraded, pred.StaleNodes
		return nil
	})
}

// Compare predicts several mappings and selects the fastest. Each
// candidate is served through the prediction cache individually, so a
// batch repeated across clients costs one evaluation per novel mapping
// per epoch.
func (s *Server) Compare(args *CompareArgs, reply *CompareReply) error {
	return s.interceptRead("Compare", args.TraceMeta, func(ctx context.Context) (err error) {
		v := s.view.Load()
		d := obs.Decision{
			TraceID: obs.FormatID(obs.TraceIDFromContext(ctx)),
			Kind:    "compare", App: args.App, Epoch: v.epoch,
		}
		defer func() { s.record(&d, err) }()
		if len(args.Mappings) == 0 {
			return fmt.Errorf("service: no mappings")
		}
		eval, err := v.evaluator(args.App)
		if err != nil {
			return err
		}
		if s.lim != nil {
			// One expensive-class slot covers the whole batch (per-candidate
			// slots would let a wide Compare starve everyone else). Shed →
			// the brownout path answers the batch from the profile-only
			// fast path instead.
			tk, aerr := s.lim.Acquire(ctx, admission.Expensive)
			if aerr != nil {
				if errors.Is(aerr, admission.ErrShed) {
					return s.brownoutCompare(ctx, &d, eval, args, reply)
				}
				return aerr
			}
			defer s.lim.Release(tk)
		}
		reply.Seconds = make([]float64, len(args.Mappings))
		reply.Degraded = make([]bool, len(args.Mappings))
		reply.StaleNodes = make([][]int, len(args.Mappings))
		reply.PredictionIDs = make([]string, len(args.Mappings))
		keys := make([]accuracy.Key, len(args.Mappings))
		for i, m := range args.Mappings {
			pred, hit, err := s.predict(ctx, v, args.App, eval, core.Mapping(m), true)
			d.CacheLookups++
			if hit {
				d.CacheHits++
			}
			if err != nil {
				return err
			}
			reply.Seconds[i] = pred.Seconds
			fillDegraded(pred, &reply.Degraded[i], &reply.StaleNodes[i])
			reply.PredictionIDs[i], keys[i] = s.beginPrediction(ctx, v, args.App, "", m, pred.Seconds, pred.Degraded)
		}
		best := core.Argmin(reply.Seconds)
		reply.TraceID = d.TraceID
		reply.Best = best
		fillBand(s.led.BandFor(keys[best]), &reply.ErrBandLowPct, &reply.ErrBandHighPct, &reply.ErrBandSamples)
		d.Mapping = args.Mappings[best]
		d.Predicted = reply.Seconds[best]
		d.PredictionID = reply.PredictionIDs[best]
		d.Degraded, d.StaleNodes = reply.Degraded[best], reply.StaleNodes[best]
		return nil
	})
}

// brownoutCompare answers a shed Compare batch from the profile-only
// fast path: every candidate is predicted against nominal conditions
// (cache-assisted, computed under the cheap admission lane) and the
// whole reply is labeled Brownout. The ranking is still useful — the
// profile-only cost function is exactly the one degraded predictions
// use — but no candidate registers with the accuracy ledger.
func (s *Server) brownoutCompare(ctx context.Context, d *obs.Decision, eval *core.Evaluator, args *CompareArgs, reply *CompareReply) error {
	d.Shed = true
	reply.Seconds = make([]float64, len(args.Mappings))
	reply.Degraded = make([]bool, len(args.Mappings))
	reply.StaleNodes = make([][]int, len(args.Mappings))
	reply.PredictionIDs = nil // no ledger registration under brownout
	for i, m := range args.Mappings {
		pred, err := s.predictBrownoutCached(ctx, eval, args.App, core.Mapping(m))
		if err != nil {
			return err
		}
		reply.Seconds[i] = pred.Seconds
	}
	best := core.Argmin(reply.Seconds)
	d.Brownout = true
	brownoutServed.Inc()
	reply.TraceID = d.TraceID
	reply.Best = best
	reply.Brownout = true
	d.Mapping = args.Mappings[best]
	d.Predicted = reply.Seconds[best]
	return nil
}

// Schedule finds a mapping with the requested algorithm. Lock-free, and
// coalesced: concurrent requests with identical (app, algorithm, pool,
// seed) against the same epoch share one search — scheduling is
// deterministic in those inputs, so every follower receives the leader's
// decision, verbatim.
func (s *Server) Schedule(args *ScheduleArgs, reply *ScheduleReply) error {
	return s.interceptRead("Schedule", args.TraceMeta, func(ctx context.Context) error {
		v := s.view.Load()
		if s.singleLock {
			return s.scheduleOn(ctx, v, args, reply)
		}
		val, joined, err := s.flights.do(ctx, scheduleKey(v.epoch, args), func() (any, error) {
			// Admission inside the flight: followers ride the leader's
			// slot for free (a joined search costs nothing extra), and a
			// shed leader propagates ErrShed to every waiting follower.
			if s.lim != nil {
				tk, aerr := s.lim.Acquire(ctx, admission.Expensive)
				if aerr != nil {
					return nil, aerr
				}
				defer s.lim.Release(tk)
			}
			var r ScheduleReply
			if err := s.scheduleOn(ctx, v, args, &r); err != nil {
				return nil, err
			}
			return &r, nil
		})
		if joined {
			scheduleCoalesced.Inc()
		}
		if err != nil {
			if IsShed(err) {
				// The limiter refused the search before scheduleOn could
				// record anything; log the refusal so `cbesctl decisions`
				// shows why this request got no mapping. Schedule has no
				// brownout: a mapping nobody searched for is not a cheaper
				// answer, it is a wrong one.
				s.rec.Record(obs.Decision{
					TraceID: obs.FormatID(obs.TraceIDFromContext(ctx)),
					Kind:    "schedule", App: args.App,
					Algorithm: args.Algorithm, Seed: args.Seed, Epoch: v.epoch,
					Coalesced: joined, Shed: true, Err: err.Error(),
				})
			}
			return err
		}
		*reply = *val.(*ScheduleReply) // shared backing arrays, read-only
		if joined {
			// The follower's causal story is its own: its trace shows a
			// coalesced join, and its decision record names the leader's
			// trace — the one the shared search actually ran under. The
			// prediction ID is its own too: a ledger join is one-shot, and
			// each follower may independently run (and report) the mapping.
			leader := reply.TraceID
			reply.TraceID = obs.FormatID(obs.TraceIDFromContext(ctx))
			obs.SpanFromContext(ctx).
				Attr("coalesced", true).
				Attr("leader_trace", leader)
			id, k := s.beginPrediction(ctx, v, args.App, args.Algorithm, reply.Mapping, reply.Predicted, reply.Degraded)
			reply.PredictionID = id
			fillBand(s.led.BandFor(k), &reply.ErrBandLowPct, &reply.ErrBandHighPct, &reply.ErrBandSamples)
			s.rec.Record(obs.Decision{
				TraceID: reply.TraceID, Kind: "schedule", App: args.App,
				Algorithm: args.Algorithm, Seed: args.Seed, Epoch: v.epoch,
				Coalesced: true, LeaderTraceID: leader,
				Degraded: reply.Degraded, StaleNodes: reply.StaleNodes,
				Mapping: reply.Mapping, Predicted: reply.Predicted,
				Evaluations: reply.Evaluations, SchedulerMicros: reply.SchedulerMicros,
				PredictionID: id,
			})
		}
		return nil
	})
}

// scheduleKey builds the Schedule coalescing key. The epoch is part of
// it: two identical requests straddling a state transition must not
// share a decision.
func scheduleKey(epoch uint64, args *ScheduleArgs) string {
	var sb strings.Builder
	sb.Grow(len(args.App) + len(args.Algorithm) + 12*len(args.Pool) + 24)
	sb.WriteString(args.App)
	sb.WriteByte(0)
	sb.WriteString(args.Algorithm)
	fmt.Fprintf(&sb, "\x00%d\x00%d\x00%d\x00", args.Seed, epoch, args.Effort)
	for _, n := range args.Pool {
		fmt.Fprintf(&sb, "%d,", n)
	}
	return sb.String()
}

// scheduleOn runs one scheduling search against a view and fills the
// reply, including the degraded-prediction markers for the chosen
// mapping. That lookup runs under the admission ticket the search's
// flight already holds; it never acquires a second one.
func (s *Server) scheduleOn(ctx context.Context, v *view, args *ScheduleArgs, reply *ScheduleReply) (err error) {
	d := obs.Decision{
		TraceID: obs.FormatID(obs.TraceIDFromContext(ctx)),
		Kind:    "schedule", App: args.App,
		Algorithm: args.Algorithm, Seed: args.Seed, Epoch: v.epoch,
	}
	defer func() { s.record(&d, err) }()
	eval, err := v.evaluator(args.App)
	if err != nil {
		return err
	}
	dec, err := cbes.ScheduleOnCtxEffort(ctx, eval, v.snap, cbes.Algorithm(args.Algorithm), args.Pool, args.Seed, args.Effort)
	if err != nil {
		return err
	}
	reply.TraceID = d.TraceID
	reply.Mapping = []int(dec.Mapping)
	reply.Predicted = dec.Predicted
	reply.Evaluations = dec.Evaluations
	reply.SchedulerMillis = dec.SchedulerTime.Milliseconds()
	reply.SchedulerMicros = dec.SchedulerTime.Microseconds()
	if pred, hit, err := s.predict(ctx, v, args.App, eval, dec.Mapping, true); err == nil {
		fillDegraded(pred, &reply.Degraded, &reply.StaleNodes)
		d.CacheLookups = 1
		if hit {
			d.CacheHits = 1
		}
	}
	id, k := s.beginPrediction(ctx, v, args.App, args.Algorithm, reply.Mapping, reply.Predicted, reply.Degraded)
	reply.PredictionID = id
	fillBand(s.led.BandFor(k), &reply.ErrBandLowPct, &reply.ErrBandHighPct, &reply.ErrBandSamples)
	d.Mapping = reply.Mapping
	d.Predicted = reply.Predicted
	d.Evaluations = reply.Evaluations
	d.SchedulerMicros = reply.SchedulerMicros
	d.PredictionID = id
	d.Degraded, d.StaleNodes = reply.Degraded, reply.StaleNodes
	return nil
}

// Status reports the service and cluster state from the published view.
func (s *Server) Status(args *StatusArgs, reply *StatusReply) error {
	return s.interceptRead("Status", args.TraceMeta, func(_ context.Context) error {
		v := s.view.Load()
		reply.Cluster = v.cluster
		reply.Nodes = v.nodes
		reply.Apps = v.apps
		reply.SimSeconds = v.simSeconds
		reply.AvailCPU = v.snap.AvailCPU
		reply.NICUtil = v.snap.NICUtil
		reply.Epoch = v.epoch
		return nil
	})
}

// Advance moves simulated time forward so monitors resample. The only
// writer: it holds the engine lock for the simulation run and
// republishes the read-path view (snapshot, epoch, sim time) before
// releasing it, so a read issued after an Advance returns always sees
// the post-advance state.
func (s *Server) Advance(args *AdvanceArgs, reply *AdvanceReply) error {
	return s.intercept("Advance", args.TraceMeta, func(_ context.Context) error {
		if args.Seconds < 0 {
			return fmt.Errorf("service: negative advance")
		}
		s.sys.Advance(des.FromSeconds(args.Seconds))
		s.refreshView()
		v := s.view.Load()
		reply.SimSeconds = v.simSeconds
		reply.Epoch = v.epoch
		return nil
	})
}

// Decisions queries the decision flight recorder: the most recent
// matching records, newest first (DESIGN.md §11). Lock-free like the
// other reads — the recorder has its own short-held mutex.
func (s *Server) Decisions(args *DecisionsArgs, reply *DecisionsReply) error {
	return s.interceptRead("Decisions", args.TraceMeta, func(_ context.Context) error {
		reply.Decisions = s.rec.Decisions(obs.DecisionQuery{
			N: args.N, Kind: args.Kind, App: args.App, TraceID: args.TraceID,
		})
		reply.Total = s.rec.Total()
		return nil
	})
}

// ReportOutcome joins a measured runtime back to a served prediction,
// folding the error into the calibration statistics (DESIGN.md §12).
// Lock-free: the ledger has its own short-held mutex. The join is
// recorded in the decision flight recorder as kind "outcome", so the
// forensic trail covers both halves of the predicted-vs-actual pair.
func (s *Server) ReportOutcome(args *ReportOutcomeArgs, reply *ReportOutcomeReply) error {
	return s.interceptRead("ReportOutcome", args.TraceMeta, func(ctx context.Context) (err error) {
		span, _ := obs.StartSpan(ctx, "accuracy.join")
		defer func() { span.Error(err).End() }()
		span.Attr("prediction_id", args.PredictionID)
		d := obs.Decision{
			TraceID:      obs.FormatID(obs.TraceIDFromContext(ctx)),
			Kind:         "outcome",
			PredictionID: args.PredictionID, Actual: args.ActualSeconds,
		}
		defer func() { s.record(&d, err) }()
		sample, err := s.led.Report(args.PredictionID, args.ActualSeconds)
		if err != nil {
			return err
		}
		d.App = sample.App
		d.Predicted = sample.Predicted
		span.Attr("abs_err_pct", sample.AbsErrPct)
		reply.App = sample.App
		reply.Scheduler = sample.Scheduler
		reply.Predicted = sample.Predicted
		reply.Actual = sample.Actual
		reply.SignedErrPct = sample.SignedErrPct
		reply.AbsErrPct = sample.AbsErrPct
		reply.CalibrationOK = s.led.CalibrationOK()
		return nil
	})
}

// Accuracy reports the ledger's calibration statistics: overall status
// (counters + drift state), per-bucket stats, and recent joined pairs.
func (s *Server) Accuracy(args *AccuracyArgs, reply *AccuracyReply) error {
	return s.interceptRead("Accuracy", args.TraceMeta, func(_ context.Context) error {
		reply.Status = s.led.Status()
		reply.Buckets = s.led.Stats(accuracy.StatsQuery{App: args.App, Scheduler: args.Scheduler})
		reply.Samples = s.led.Samples(args.Samples)
		return nil
	})
}

// Metrics renders the process metrics registry. Unlike every other
// method it does not take the engine lock: the registry is atomic, and a
// scrape must not queue behind a long-running Schedule.
func (s *Server) Metrics(args *MetricsArgs, reply *MetricsReply) error {
	rpcInflight.Add(1)
	s.inflight.Add(1)
	defer rpcInflight.Add(-1)
	defer s.inflight.Add(-1)
	start := time.Now()
	defer func() {
		rpcRequests.With("Metrics").Inc()
		rpcSeconds.With("Metrics").Observe(time.Since(start).Seconds())
	}()
	switch args.Format {
	case "", FormatPrometheus:
		var buf bytes.Buffer
		obs.Default().WritePrometheus(&buf)
		reply.Text = buf.String()
	case FormatJSON:
		raw, err := json.MarshalIndent(obs.Default().Snapshot(), "", "  ")
		if err != nil {
			rpcErrors.With("Metrics").Inc()
			return err
		}
		reply.Text = string(raw)
	default:
		rpcErrors.With("Metrics").Inc()
		return fmt.Errorf("service: unknown metrics format %q (want %q or %q)",
			args.Format, FormatPrometheus, FormatJSON)
	}
	return nil
}

// ServeOptions tunes ServeWith. The zero value selects sane defaults.
type ServeOptions struct {
	// MaxClients bounds concurrently served connections; further accepts
	// wait (TCP backlog backpressure) until a slot frees. Default 64.
	MaxClients int
	// DrainTimeout bounds how long shutdown waits for in-flight requests
	// to finish before force-closing connections. Default 5s.
	DrainTimeout time.Duration
	// RequestTimeout bounds engine-lock queueing per request (ErrBusy on
	// expiry). Default DefaultRequestTimeout.
	RequestTimeout time.Duration
	// CacheSize bounds the prediction cache: 0 selects DefaultCacheSize,
	// negative disables caching.
	CacheSize int
	// SingleLock serializes every request through the engine lock and
	// disables the prediction cache and Schedule coalescing — the
	// pre-sharding behaviour, kept for A/B benchmarking only.
	SingleLock bool
	// MaxInflight pins the admission limiter's concurrency limit: > 0
	// fixes both the initial and maximum limit (AIMD may still shrink it
	// under latency pressure), 0 selects the adaptive defaults, and a
	// negative value disables admission control entirely (equivalent to
	// DisableAdmission).
	MaxInflight int
	// AdmissionTarget is the p99 latency the limiter steers toward
	// (default 500ms).
	AdmissionTarget time.Duration
	// DisableAdmission turns off the limiter and brownout mode — every
	// request is admitted for full service. The unprotected control for
	// overload experiments.
	DisableAdmission bool
	// Limiter, when non-nil, is installed instead of constructing one
	// from MaxInflight/AdmissionTarget — so a daemon can keep the handle
	// for readiness reporting (cbesd's /readyz shed-rate warning).
	Limiter *admission.Limiter
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.MaxClients <= 0 {
		o.MaxClients = 64
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	return o
}

// Serve accepts connections on l until the listener closes. It blocks.
// A deliberate close of the listener (the daemon's shutdown path) is a
// clean exit and returns nil; any other accept failure is returned.
// Equivalent to ServeWith with default options.
func Serve(sys *cbes.System, l net.Listener) error {
	return ServeWith(sys, l, ServeOptions{})
}

// ServeWith is Serve with explicit limits. Unlike the naive accept loop it
// (a) bounds the number of concurrently served connections, (b) tracks
// every open connection, and (c) drains on shutdown: once the listener
// closes, it waits up to DrainTimeout for in-flight requests to complete,
// lets replies flush, then force-closes whatever connections remain (idle
// keep-alive clients would otherwise pin their handler goroutines, and the
// old code leaked them outright). It returns only after every connection
// goroutine has exited or the drain budget is exhausted.
func ServeWith(sys *cbes.System, l net.Listener, opts ServeOptions) error {
	opts = opts.withDefaults()
	impl := NewServer(sys)
	impl.SetRequestTimeout(opts.RequestTimeout)
	if opts.CacheSize != 0 {
		impl.SetCacheCapacity(opts.CacheSize)
	}
	if opts.SingleLock {
		impl.SetSingleLock(true)
	}
	if !opts.DisableAdmission && opts.MaxInflight >= 0 {
		lim := opts.Limiter
		if lim == nil {
			lim = admission.New(admission.Config{
				Initial:   opts.MaxInflight,
				Max:       opts.MaxInflight,
				TargetP99: opts.AdmissionTarget,
			})
		}
		impl.SetAdmission(lim)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName(RPCName, impl); err != nil {
		return err
	}

	var (
		sem    = make(chan struct{}, opts.MaxClients)
		connMu sync.Mutex
		conns  = map[net.Conn]struct{}{}
		wg     sync.WaitGroup
	)
	var acceptErr error
	for {
		conn, err := l.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				acceptErr = err
			}
			break
		}
		sem <- struct{}{} // client-concurrency bound: backpressure on accept
		rpcConnections.Inc()
		rpcActiveConns.Add(1)
		connMu.Lock()
		conns[conn] = struct{}{}
		connMu.Unlock()
		wg.Add(1)
		go func(c net.Conn) {
			defer func() {
				connMu.Lock()
				delete(conns, c)
				connMu.Unlock()
				c.Close()
				rpcActiveConns.Add(-1)
				<-sem
				wg.Done()
			}()
			srv.ServeConn(c)
		}(conn)
	}

	// Drain: in-flight requests get DrainTimeout to finish...
	done := make(chan struct{})
	go func() {
		for impl.inflight.Load() > 0 {
			time.Sleep(time.Millisecond)
		}
		close(done)
	}()
	select {
	case <-done:
		// ...and their replies a moment to flush before we cut the wire. A
		// reply racing the close is retried by the client (methods retried
		// are idempotent), so this grace is a latency nicety, not a
		// correctness requirement.
		time.Sleep(20 * time.Millisecond)
	case <-time.After(opts.DrainTimeout):
	}
	connMu.Lock()
	for c := range conns {
		c.Close() // unblocks ServeConn's read; handler goroutine exits
	}
	connMu.Unlock()
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	select {
	case <-wgDone:
	case <-time.After(opts.DrainTimeout):
		// A handler is stuck mid-request past every budget; give up rather
		// than hang shutdown. The goroutine dies with the process.
	}
	return acceptErr
}

// DefaultDialTimeout is the connection timeout of Dial.
const DefaultDialTimeout = 5 * time.Second

// RetryPolicy configures the client's handling of transient failures on
// idempotent methods: up to Max retries with exponential backoff from
// BaseDelay (capped at MaxDelay) plus jitter.
type RetryPolicy struct {
	Max       int           // retries after the first attempt (default 3)
	BaseDelay time.Duration // first backoff step (default 25ms)
	MaxDelay  time.Duration // backoff cap (default 1s)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Max < 0 {
		p.Max = 0
	} else if p.Max == 0 {
		p.Max = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// delay computes the backoff before retry attempt (0-based) with full
// jitter: a uniform draw from (0, cappedExponential], so synchronized
// clients spread out instead of thundering back together.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay << uint(attempt)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	return time.Duration(1 + rand.Int63n(int64(d)))
}

// Client is a typed CBES RPC client. Idempotent methods (everything except
// Advance, which mutates simulated time) transparently retry transient
// failures — connection loss, server shutdown mid-flight, ErrBusy — with
// exponential backoff plus jitter, redialing as needed. A Client is safe
// for concurrent use.
type Client struct {
	addr        string
	dialTimeout time.Duration

	mu    sync.Mutex // guards rc across reconnects, and the knobs below
	rc    *rpc.Client
	retry RetryPolicy
	// callTimeout, when > 0, stamps every call with an absolute deadline
	// (now + callTimeout) propagated in TraceMeta; the whole retry loop
	// shares one budget. Zero (the default) propagates no deadline.
	callTimeout time.Duration
	// budget, when non-nil, bounds retry amplification (see
	// admission.RetryBudget). Nil (the default) leaves retries bounded
	// only by RetryPolicy.Max.
	budget *admission.RetryBudget
	// breaker, when non-nil, fails calls fast after consecutive
	// failures (see admission.Breaker). Nil (the default) disables it.
	breaker *admission.Breaker
}

// Dial connects to a CBES server with the default timeout.
func Dial(addr string) (*Client, error) { return DialTimeout(addr, DefaultDialTimeout) }

// DialTimeout connects to a CBES server, waiting at most timeout for the
// connection to establish.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return DialContext(ctx, addr)
}

// DialContext connects to a CBES server under the given context (deadline
// and cancellation apply to connection establishment only, not to calls).
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: dial %s: %w", addr, err)
	}
	timeout := DefaultDialTimeout
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); remain > 0 {
			timeout = remain
		}
	}
	return &Client{
		addr:        addr,
		dialTimeout: timeout,
		retry:       RetryPolicy{}.withDefaults(),
		rc:          rpc.NewClient(conn),
	}, nil
}

// SetRetryPolicy overrides the transient-failure retry behaviour.
// RetryPolicy{Max: -1} disables retries entirely. Safe to call
// concurrently with in-flight calls; those already started keep the
// policy they read at entry.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = p.withDefaults()
}

// retryPolicy snapshots the current retry policy.
func (c *Client) retryPolicy() RetryPolicy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retry
}

// SetCallTimeout sets the per-call deadline budget: every subsequent
// call stamps now+d as an absolute deadline into its TraceMeta (the
// server abandons work past it) and the client's own retry loop stops
// at the same instant. Zero disables deadline propagation (the
// default).
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.callTimeout = d
}

// SetRetryBudget installs a retry budget shared by all calls through
// this client: retries spend tokens, successes earn fractional tokens
// back, so under persistent overload the retry rate decays to the earn
// ratio instead of multiplying offered load. Nil removes the budget.
func (c *Client) SetRetryBudget(b *admission.RetryBudget) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = b
}

// SetBreaker installs a circuit breaker: after a run of consecutive
// failures the client fails fast with ErrCircuitOpen (no wire traffic)
// until a half-open probe succeeds, keeping a struggling server's
// recovery window free of this client's traffic. Nil removes it.
func (c *Client) SetBreaker(b *admission.Breaker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.breaker = b
}

// resilience snapshots the overload-protection knobs for one call.
func (c *Client) resilience() (time.Duration, *admission.RetryBudget, *admission.Breaker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.callTimeout, c.budget, c.breaker
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rc.Close()
}

func (c *Client) conn() *rpc.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rc
}

// reconnect replaces a broken connection, best-effort: on dial failure the
// old (dead) client stays, and the next call surfaces its error.
func (c *Client) reconnect(old *rpc.Client) {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return
	}
	c.mu.Lock()
	if c.rc == old { // still the broken client we saw fail: swap in the fresh one
		c.rc.Close()
		c.rc = rpc.NewClient(conn)
		conn = nil
	}
	c.mu.Unlock()
	if conn != nil {
		// Lost a race with another caller's reconnect: keep theirs, drop ours.
		conn.Close()
	}
}

// isTransient classifies errors worth retrying: the connection died (the
// request outcome is unknown — safe to resend only idempotent methods), or
// the server reported ErrBusy/ErrShed (definitely not executed). Deadline
// errors are NOT transient: the budget that expired covers retries too.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var nerr net.Error
	if errors.As(err, &nerr) {
		return true
	}
	if _, ok := err.(rpc.ServerError); ok {
		return IsBusy(err) || IsShed(err)
	}
	return IsBusy(err) || IsShed(err) || errors.Is(err, net.ErrClosed)
}

// connError reports whether err indicates the underlying connection is
// unusable (vs. a server-side transient like ErrBusy).
func connError(err error) bool {
	if _, ok := err.(rpc.ServerError); ok {
		return false
	}
	return true
}

// call performs one RPC, retrying transient failures when idempotent is
// true. Non-idempotent methods (Advance, ReportOutcome) never retry: a
// lost reply leaves the outcome unknown and a resend would double-apply
// it. When a call timeout is set the absolute deadline is stamped ONCE
// and shared by every retry — queue time and earlier attempts count
// against it, so retries cannot stretch a caller's latency budget. The
// breaker is consulted before any wire traffic and told the outcome of
// every allowed call; the retry budget gates each resend.
func (c *Client) call(method string, args, reply any, idempotent bool) (err error) {
	callTimeout, budget, breaker := c.resilience()
	if berr := breaker.Allow(); berr != nil {
		clientBreakerOpen.Inc()
		return berr
	}
	// One client-side span covers the whole retry loop; its context rides
	// the wire in the args' TraceMeta, so the server-side rpc.* span (and
	// everything under it — cache, search, anneal restarts) joins THIS
	// trace. Every retry re-sends the same trace: attempts of one logical
	// call are one causal story.
	span := obs.DefaultTracer().Start("rpc.client." + method)
	if tc, ok := args.(traceCarrier); ok {
		tc.setTrace(span.Context())
	}
	var deadline time.Time
	if callTimeout > 0 {
		deadline = time.Now().Add(callTimeout)
		if dc, ok := args.(deadlineCarrier); ok {
			dc.setDeadline(deadline)
		}
	}
	attempts := 0
	defer func() {
		span.Attr("attempts", attempts).Error(err).End()
		// The breaker counts overload signals (busy/shed/deadline) and dead
		// connections alike: both mean "stop hammering this server".
		breaker.Report(err != nil && (isTransient(err) || IsDeadlineExceeded(err)))
		if err == nil {
			budget.Earn()
		}
	}()
	retry := c.retryPolicy() // one coherent policy for the whole call
	for attempt := 0; ; attempt++ {
		attempts = attempt + 1
		rc := c.conn()
		err = rc.Call(RPCName+"."+method, args, reply)
		if err == nil || !idempotent || attempt >= retry.Max || !isTransient(err) {
			return err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return err // budget exhausted: surface the last real error
		}
		if !budget.Allow() {
			clientBudgetExhausted.Inc()
			return err
		}
		clientRetries.Inc()
		if connError(err) {
			c.reconnect(rc)
		}
		sleep := retry.delay(attempt)
		if !deadline.IsZero() {
			if until := time.Until(deadline); until < sleep {
				sleep = until
			}
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
	}
}

// Evaluate predicts one mapping's execution time.
func (c *Client) Evaluate(app string, mapping []int) (*EvaluateReply, error) {
	var reply EvaluateReply
	err := c.call("Evaluate", &EvaluateArgs{App: app, Mapping: mapping}, &reply, true)
	return &reply, err
}

// Explain fetches the per-process breakdown of one mapping's prediction.
func (c *Client) Explain(app string, mapping []int) (*ExplainReply, error) {
	var reply ExplainReply
	err := c.call("Explain", &ExplainArgs{App: app, Mapping: mapping}, &reply, true)
	return &reply, err
}

// Compare predicts several mappings.
func (c *Client) Compare(app string, mappings [][]int) (*CompareReply, error) {
	var reply CompareReply
	err := c.call("Compare", &CompareArgs{App: app, Mappings: mappings}, &reply, true)
	return &reply, err
}

// Schedule requests a mapping from the named algorithm. Retried on
// transient failure: scheduling is deterministic in (app, algorithm, pool,
// seed) and mutates nothing, so a resend is safe.
func (c *Client) Schedule(app, algorithm string, pool []int, seed int64) (*ScheduleReply, error) {
	return c.ScheduleEffort(app, algorithm, pool, seed, 0)
}

// ScheduleEffort is Schedule with an explicit search-effort cap (energy
// evaluations; 0 selects the server default).
func (c *Client) ScheduleEffort(app, algorithm string, pool []int, seed int64, effort int) (*ScheduleReply, error) {
	var reply ScheduleReply
	err := c.call("Schedule", &ScheduleArgs{App: app, Algorithm: algorithm, Pool: pool, Seed: seed, Effort: effort}, &reply, true)
	return &reply, err
}

// Status fetches service status.
func (c *Client) Status() (*StatusReply, error) {
	var reply StatusReply
	err := c.call("Status", &StatusArgs{}, &reply, true)
	return &reply, err
}

// Advance moves simulated time forward on the server. Never retried: the
// call is not idempotent, and resending after a lost reply would advance
// the clock twice.
func (c *Client) Advance(seconds float64) (*AdvanceReply, error) {
	var reply AdvanceReply
	err := c.call("Advance", &AdvanceArgs{Seconds: seconds}, &reply, false)
	return &reply, err
}

// Decisions queries the server's decision flight recorder: up to n most
// recent records (n <= 0 for all resident), optionally filtered by
// decision kind, application, and hex trace ID.
func (c *Client) Decisions(n int, kind, app, traceID string) (*DecisionsReply, error) {
	var reply DecisionsReply
	err := c.call("Decisions", &DecisionsArgs{N: n, Kind: kind, App: app, TraceID: traceID}, &reply, true)
	return &reply, err
}

// ReportOutcome joins a measured runtime (seconds) back to the served
// prediction identified by predictionID. Never retried: the join is
// one-shot on the server, so a resend after a lost reply would surface a
// misleading unknown-ID error for a join that actually landed.
func (c *Client) ReportOutcome(predictionID string, actualSeconds float64) (*ReportOutcomeReply, error) {
	var reply ReportOutcomeReply
	err := c.call("ReportOutcome", &ReportOutcomeArgs{PredictionID: predictionID, ActualSeconds: actualSeconds}, &reply, false)
	return &reply, err
}

// Accuracy fetches the server's prediction-accuracy ledger: status,
// per-bucket calibration stats (optionally filtered by app and
// scheduler), and up to samples recent joined pairs (<= 0 for all).
func (c *Client) Accuracy(app, scheduler string, samples int) (*AccuracyReply, error) {
	var reply AccuracyReply
	err := c.call("Accuracy", &AccuracyArgs{App: app, Scheduler: scheduler, Samples: samples}, &reply, true)
	return &reply, err
}

// Metrics fetches the server's metrics in the given format ("" or
// FormatPrometheus for text exposition, FormatJSON for JSON).
func (c *Client) Metrics(format string) (*MetricsReply, error) {
	var reply MetricsReply
	err := c.call("Metrics", &MetricsArgs{Format: format}, &reply, true)
	return &reply, err
}
