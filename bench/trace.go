package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval at a layer boundary. Spans of one op share Op;
// Parent is the span that caused this one (0 for none). Times are
// microseconds since the recorder started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) durMS() float64 { return (s.EndUS - s.StartUS) / 1e3 }

// recorder keeps spans in memory until the segment ends. A nil recorder
// records nothing, so call sites need no tracing-on test.
type recorder struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

// newRecorder reserves ids 1..reserved for spans whose id the caller
// computes itself (train.step of op k is k+1), so children can name
// their parent before the parent has ended.
func newRecorder(reserved int) *recorder {
	r := &recorder{t0: time.Now()}
	r.next.Store(int64(reserved))
	return r
}

func (r *recorder) newID() int {
	if r == nil {
		return 0
	}
	return int(r.next.Add(1))
}

// add records a finished span; id 0 takes a fresh one.
func (r *recorder) add(id, parent, op int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.newID()
	}
	s := span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartUS: float64(start.Sub(r.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(r.t0).Nanoseconds()) / 1e3,
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func writeTrace(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimesMS returns, per span id, the span's duration minus the part
// of its interval that its child spans cover. Overlapping children are
// counted once and a child reaching outside its parent is clipped, so an
// asynchronous child (a send that outlives the step that launched it)
// takes away only what it overlaps.
func selfTimesMS(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, cursor := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := k.StartUS, k.EndUS
			if lo < cursor {
				lo = cursor
			}
			if hi > s.EndUS {
				hi = s.EndUS
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.EndUS - s.StartUS - covered) / 1e3
	}
	return self
}

// sumByOp adds up the durations (ms) of the spans called name, per op.
func sumByOp(spans []span, name string) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range spans {
		if s.Name == name {
			out[s.Op] += s.durMS()
		}
	}
	return out
}

// selfMSPerOp totals self time by span name and divides by the number of
// ops traced: where an op's wall-clock goes, layer by layer, with nothing
// counted twice.
func selfMSPerOp(spans []span, ops int) map[string]float64 {
	if ops == 0 {
		return nil
	}
	self := selfTimesMS(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += self[s.ID] / float64(ops)
	}
	return out
}
