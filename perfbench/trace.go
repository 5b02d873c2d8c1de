package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share a root; Parent is 0 for roots.
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// disabled: every method is a no-op, so untraced runs pay one nil check.
type tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// id allocates a span ID (0 when disabled).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span with a preallocated ID.
func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// timed runs fn inside a span named name under parent.
func (t *tracer) timed(name string, parent uint64, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.id()
	start := time.Now()
	fn()
	t.record(id, parent, name, start, time.Now())
}

// layerTime is the time spans of one name took, in total and net of
// the intervals their child spans cover.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes groups spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span.
func selfTimes(spans []span) []layerTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerTime{}
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := s.End.Sub(s.Start)
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals
// inside the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeSpans writes the spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "%-26s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, lt := range lts {
		fmt.Fprintf(w, "%-26s %8d %12.3f %12.3f %12.3f\n", lt.Name, lt.Count,
			ms(lt.Total), ms(lt.Self), float64(lt.Self)/float64(time.Microsecond)/float64(lt.Count))
	}
}
