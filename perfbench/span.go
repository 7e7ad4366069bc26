package main

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one traced interval at a layer boundary: a call from the
// benchmark into one of the program's layers. Spans of one job share its
// Job id (-1 outside any job); Parent is the index of the enclosing span
// (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	Parent int           `json:"parent"`
	Job    int           `json:"job"`
	AllocB uint64        `json:"allocB"` // heap bytes allocated during the span
	Self   time.Duration `json:"self"`   // duration minus children's coverage; filled by write
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// It is not safe for concurrent use: the traced run executes its jobs
// sequentially, which is also what makes each span's allocation delta
// belong to that span alone.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open span indices
	job    int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), job: -1,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Job: t.job,
		AllocB: t.allocated(), Start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	end := time.Since(t.t0)
	s := &t.spans[id]
	s.End = end
	s.AllocB = t.allocated() - s.AllocB
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("perfbench: span " + s.Name + " closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) time.Duration {
	id := t.begin(name)
	f()
	t.end(id)
	return t.spans[id].dur()
}

// write emits the spans as JSON lines, each with its self time.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i, self := range selfTimes(t.spans) {
		s := t.spans[i]
		s.Self = self
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - coverage(s, spans, children[i])
	}
	return self
}

// coverage is the length of the union of the child intervals, clipped to
// the parent's interval.
func coverage(parent span, spans []span, kids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curA, curB, started = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if started {
		total += curB - curA
	}
	return total
}
