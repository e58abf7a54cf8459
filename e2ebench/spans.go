package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer's origin; Parent indexes the span that
// caused this one (-1 for an op's root span); Op is the op id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// spanRef is an open span. id is -1 when the span was not kept (the
// tracer's limit was reached); its duration still counts in the totals.
type spanRef struct {
	id    int
	name  string
	start time.Duration
}

// noSpan is the parent of a root span.
var noSpan = spanRef{id: -1}

// spanTotal accumulates every span of one name, kept or not.
type spanTotal struct {
	Count int
	Total time.Duration
}

// tracer records spans in memory. It is safe for concurrent use. A nil
// *tracer records nothing, so untraced code paths can share callers.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	limit   int
	spans   []span
	dropped int
	totals  map[string]*spanTotal
}

func newTracer(limit int) *tracer {
	return &tracer{origin: time.Now(), limit: limit, totals: map[string]*spanTotal{}}
}

// begin opens a span named name, caused by parent, for op.
func (t *tracer) begin(name string, parent spanRef, op int) spanRef {
	if t == nil {
		return noSpan
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return spanRef{id: -1, name: name, start: start}
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start), Parent: parent.id, Op: op})
	return spanRef{id: len(t.spans) - 1, name: name, start: start}
}

// end closes s and returns its duration.
func (t *tracer) end(s spanRef) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	d := now - s.start
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.id >= 0 {
		t.spans[s.id].End = int64(now)
	}
	tot := t.totals[s.name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[s.name] = tot
	}
	tot.Count++
	tot.Total += d
	return d
}

// total returns the accumulated duration and count of spans named name.
func (t *tracer) total(name string) spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[name]; tot != nil {
		return *tot
	}
	return spanTotal{}
}

// layerTime is the time spent under one span name among kept spans.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates kept spans by name. A span's self time is its
// duration minus the part of its interval its child spans cover.
func selfTimes(spans []span) []layerTime {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range spans {
		dur := s.End - s.Start
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(spans, children[i], s.Start, s.End))
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the union of the given spans
// covers. Children of concurrent callers may overlap, so the intervals
// are merged before summing.
func covered(spans []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			sum += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// writeSpans writes the kept spans as one JSON document.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	doc := struct {
		Spans   []span `json:"spans"`
		Dropped int    `json:"dropped"`
	}{t.spans, t.dropped}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
