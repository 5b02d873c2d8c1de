package service

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"sync"

	"cbes/internal/admission"
	"cbes/internal/core"
	"cbes/internal/obs"
)

// Prediction-cache observability. Hit rate = hits / (hits + misses); the
// entries gauge tracks live (current plus not-yet-evicted stale) entries.
var (
	cacheHits = obs.Default().Counter(
		"cbes_predcache_hits_total", "Prediction-cache hits on the RPC read path.")
	cacheMisses = obs.Default().Counter(
		"cbes_predcache_misses_total", "Prediction-cache misses (full evaluation performed).")
	cacheEvictions = obs.Default().Counter(
		"cbes_predcache_evictions_total", "Prediction-cache entries evicted by LRU capacity.")
	cacheEntries = obs.Default().Gauge(
		"cbes_predcache_entries", "Prediction-cache entries currently resident.")
)

// DefaultCacheSize bounds the prediction cache when ServeOptions leaves
// CacheSize zero.
const DefaultCacheSize = 4096

// predCache is a bounded LRU cache of *core.Prediction keyed by
// (application, mapping signature, snapshot epoch). The epoch inside the
// key is the invalidation mechanism: any state transition bumps the
// monitor epoch, so stale entries become unreachable instantly — they
// can never be returned for a newer epoch — and are recycled by LRU
// pressure rather than swept. Cached predictions are shared read-only
// across requests; callers must copy anything they intend to modify.
type predCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *cacheEntry
	byK map[string]*list.Element
	// silent suppresses the cache metrics — the brownout cache shares
	// this implementation but must not pollute the epoch cache's
	// hit-rate and occupancy series.
	silent bool
}

type cacheEntry struct {
	key  string
	pred *core.Prediction
}

// newPredCache builds a cache bounded to capacity entries (min 1).
func newPredCache(capacity int) *predCache {
	if capacity < 1 {
		capacity = 1
	}
	return &predCache{cap: capacity, ll: list.New(), byK: map[string]*list.Element{}}
}

// newBrownCache builds a metric-silent cache for brownout predictions
// (keyed with predKey(app, m, 0) — epoch-less, see Server.brown).
func newBrownCache(capacity int) *predCache {
	c := newPredCache(capacity)
	c.silent = true
	return c
}

// get returns the cached prediction for key, refreshing its recency.
func (c *predCache) get(key string) (*core.Prediction, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok {
		if !c.silent {
			cacheMisses.Inc()
		}
		return nil, false
	}
	c.ll.MoveToFront(el)
	if !c.silent {
		cacheHits.Inc()
	}
	return el.Value.(*cacheEntry).pred, true
}

// put inserts (or refreshes) a prediction, evicting the LRU tail past
// capacity.
func (c *predCache) put(key string, pred *core.Prediction) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[key]; ok {
		el.Value.(*cacheEntry).pred = pred
		c.ll.MoveToFront(el)
		return
	}
	c.byK[key] = c.ll.PushFront(&cacheEntry{key: key, pred: pred})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byK, tail.Value.(*cacheEntry).key)
		if !c.silent {
			cacheEvictions.Inc()
		}
	}
	if !c.silent {
		cacheEntries.Set(float64(c.ll.Len()))
	}
}

// len reports the resident entry count.
func (c *predCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// predKey builds the cache key for (app, mapping, epoch). The mapping is
// varint-packed rather than formatted: keys are built on every read-path
// request and must stay cheap.
func predKey(app string, mapping []int, epoch uint64) string {
	buf := make([]byte, 0, len(app)+1+10*(len(mapping)+1))
	buf = append(buf, app...)
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, epoch)
	for _, n := range mapping {
		buf = binary.AppendVarint(buf, int64(n))
	}
	return string(buf)
}

// predict serves one full prediction through the epoch cache. A hit
// returns the shared cached prediction without touching the admission
// limiter — the cached answer IS the full answer. A miss must hold an
// expensive-class slot (DESIGN.md §15) before evaluating: admitted=true
// says the caller already holds one covering this lookup (a Compare
// batch, a Schedule flight); otherwise, with a limiter installed, the
// miss acquires its own and returns the limiter's error — ErrShed when
// refused — without evaluating. The second return value reports a cache
// hit (feeding the decision record's cache outcome). The caller supplies
// the view so the epoch in the key matches the snapshot being evaluated
// against, and a context whose active span parents the lookup and
// evaluation spans.
func (s *Server) predict(ctx context.Context, v *view, app string, eval *core.Evaluator, m core.Mapping, admitted bool) (*core.Prediction, bool, error) {
	span, ctx := obs.StartSpan(ctx, "cache.lookup")
	key := ""
	if s.cache != nil {
		key = predKey(app, m, v.epoch)
		if pred, ok := s.cache.get(key); ok {
			span.Attr("hit", true).End()
			return pred, true, nil
		}
	}
	span.Attr("hit", false)
	if s.lim != nil && !admitted {
		tk, err := s.lim.Acquire(ctx, admission.Expensive)
		if err != nil {
			span.Attr("shed", errors.Is(err, admission.ErrShed)).End()
			return nil, false, err
		}
		defer s.lim.Release(tk)
	}
	pspan, _ := obs.StartSpan(ctx, "core.predict")
	pred, err := eval.Predict(m, v.snap)
	if err != nil {
		pspan.Error(err).End()
		span.Error(err).End()
		return nil, false, err
	}
	pspan.End()
	if s.cache != nil {
		s.cache.put(key, pred)
	}
	span.End()
	return pred, false, nil
}

// predictBrownoutCached serves one profile-only brownout prediction
// through the metric-silent brownout cache. The key is epoch-less:
// brownout answers depend only on profile + topology, so repeats are
// free for the process lifetime — that cacheability is what lets a
// saturated server keep answering at all. A cache miss computes under a
// cheap-class admission slot (the serial brownout lane); when even that
// lane is busy the request finally sheds with ErrShed.
func (s *Server) predictBrownoutCached(ctx context.Context, eval *core.Evaluator, app string, m core.Mapping) (*core.Prediction, error) {
	key := predKey(app, m, 0)
	if pred, ok := s.brown.get(key); ok {
		return pred, nil
	}
	tk, aerr := s.lim.Acquire(ctx, admission.Cheap)
	if aerr != nil {
		return nil, aerr
	}
	defer s.lim.Release(tk)
	pred, err := eval.PredictBrownout(m)
	if err != nil {
		return nil, err
	}
	s.brown.put(key, pred)
	return pred, nil
}
