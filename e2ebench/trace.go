package main

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// program's exported functions. Lane 0 is the benchmark's own goroutine;
// lanes 1..n are the worker goroutines it starts.
type span struct {
	ID, Parent int
	Name       string
	Layer      string
	Run        string
	Lane       int
	Start, End time.Duration // since the tracer's origin
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, so the timed path and the traced path share their code.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	run    string
	spans  []span
}

func newTracer(run string) *tracer {
	return &tracer{origin: time.Now(), run: run}
}

// begin opens a span and returns its id (0 for a nil tracer; ids start at 1).
func (t *tracer) begin(name, layer string, parent, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Run: t.run, Lane: lane, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// get returns a copy of a closed span.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers. Children running in
// parallel on several lanes are covered once, so a span that waits for its
// workers has almost no self time of its own.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range ch {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeChrome emits the spans as Chrome trace-event JSON, the object form
// phasetrace.WriteChrome and blocks.WriteTimeline already produce, so the
// same viewers (Perfetto, chrome://tracing) open all three.
func writeChrome(w io.Writer, label string, spans []span) error {
	type event struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat,omitempty"`
		Phase string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Dur   float64        `json:"dur,omitempty"`
		Pid   int            `json:"pid"`
		Tid   int            `json:"tid"`
		Args  map[string]any `json:"args,omitempty"`
	}
	evs := []event{{Name: "process_name", Phase: "M", Pid: 1, Args: map[string]any{"name": label}}}
	lanes := map[int]bool{}
	for _, s := range spans {
		if !lanes[s.Lane] {
			lanes[s.Lane] = true
			name := "benchmark"
			if s.Lane > 0 {
				name = "worker " + strconv.Itoa(s.Lane-1)
			}
			evs = append(evs, event{Name: "thread_name", Phase: "M", Pid: 1, Tid: s.Lane, Args: map[string]any{"name": name}})
		}
		evs = append(evs, event{
			Name: s.Name, Cat: s.Layer, Phase: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{"span": s.ID, "parent": s.Parent, "run": s.Run},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		TraceEvents     []event `json:"traceEvents"`
	}{"ms", evs})
}
