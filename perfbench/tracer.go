package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Parent is the span that
// caused it (-1 for none) and Group the serve round (or -1) it belongs to,
// so the spans of one round can be gathered.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Group  int32  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a traced run in memory; they are written out
// only when the run has ended.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

// begin opens a span whose children need its ID; close it with end.
func (t *tracer) begin(name string, parent, group int32) int32 {
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int32) {
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call records a finished call that began at start, under the span (and
// round) that ctx carries.
func (t *tracer) call(ctx context.Context, name string, start time.Time) {
	parent, group := spanOf(ctx)
	s, e := t.at(start), t.at(time.Now())
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Group: group, Name: name, Start: s, End: e})
	t.mu.Unlock()
}

type spanKey struct{}

type spanRef struct{ id, group int32 }

// withSpan makes id (of round group) the parent of calls made under ctx.
func withSpan(ctx context.Context, id, group int32) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, group})
}

func spanOf(ctx context.Context) (int32, int32) {
	if r, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return r.id, r.group
	}
	return -1, -1
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
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

// spanSet is a read-only view over a run's spans for computing figures.
type spanSet []span

// named returns the spans called name, or whose name continues name with a
// dot ("upstream" matches "upstream.hlr"), started within [from, to).
func (ss spanSet) named(name string, from, to int64) spanSet {
	var out spanSet
	for _, s := range ss {
		if s.Start < from || s.Start >= to {
			continue
		}
		if s.Name == name || (len(s.Name) > len(name) && s.Name[:len(name)] == name && s.Name[len(name)] == '.') {
			out = append(out, s)
		}
	}
	return out
}

// ms returns every span's duration in milliseconds.
func (ss spanSet) ms() []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.dur())
	}
	return out
}

// total sums the spans' durations.
func (ss spanSet) total() time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d
}

// covered is the length of the union of the spans' intervals, so
// overlapping children are not counted twice.
func (ss spanSet) covered() time.Duration {
	if len(ss) == 0 {
		return 0
	}
	iv := append(spanSet(nil), ss...)
	sort.Slice(iv, func(a, b int) bool { return iv[a].Start < iv[b].Start })
	var d int64
	curS, curE := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > curE {
			d += curE - curS
			curS, curE = s.Start, s.End
			continue
		}
		if s.End > curE {
			curE = s.End
		}
	}
	d += curE - curS
	return time.Duration(d)
}
