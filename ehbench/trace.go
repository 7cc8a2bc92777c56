package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one device (or
// one fleetd job) share Dev (or Job). Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Part   string `json:"part"`
	Name   string `json:"name"`
	Dev    int    `json:"dev"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Folded is time spent in calls too frequent to record one span
	// each (harvest.Draw inside an engine boot); it counts as child
	// time of this span. FoldedCalls is how many calls it covers.
	Folded      int64 `json:"folded_ns,omitempty"`
	FoldedCalls int64 `json:"folded_calls,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. It is
// safe for concurrent use; a nil tracer records nothing, which is how
// the untraced stepper runs the same code.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	part  string
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), part: "pipeline"} }

// now is the trace clock.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// setPart labels the spans recorded from now on.
func (t *tracer) setPart(part string) {
	t.mu.Lock()
	t.part = part
	t.mu.Unlock()
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, dev int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Part: t.part, Name: name, Dev: dev, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) { t.endFolded(id, 0, 0) }

// endFolded closes span id, crediting it with folded child time.
func (t *tracer) endFolded(id int, folded, calls int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Folded, s.FoldedCalls = end, folded, calls
	t.mu.Unlock()
}

// record adds a finished span of a fleetd job, timed by its client.
func (t *tracer) record(name, job string, start time.Time, d time.Duration) {
	s := int64(start.Sub(t.base))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Part: t.part, Name: name, Dev: -1, Job: job, Start: s, End: s + int64(d)})
	t.mu.Unlock()
}

// layer sums the spans of one name within one part.
type layer struct {
	count int
	total int64 // summed duration, ns
	self  int64 // summed self time: duration minus children and folded time
}

// perCall is the mean duration of one span, ns (0 when none ran).
func (l layer) perCall() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.total) / float64(l.count)
}

// selfPerCall is the mean self time of one span, ns.
func (l layer) selfPerCall() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.self) / float64(l.count)
}

// layers aggregates the part's spans by name. A span's self time is
// its duration minus the part of it its child spans and folded calls
// cover; children of one span never overlap, since every traced call
// below a span runs on the span's goroutine.
func (t *tracer) layers(part string) map[string]layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layer{}
	for _, s := range t.spans {
		if s.Part != part {
			continue
		}
		l := out[s.Name]
		l.count++
		l.total += s.End - s.Start
		l.self += s.End - s.Start - child[s.ID] - s.Folded
		out[s.Name] = l
	}
	return out
}

// write stores every span as one JSON line in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
