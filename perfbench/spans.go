package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// Span is one traced interval: a call from the benchmark into a layer of
// the program. Spans nest by Parent (0 for a root span).
type Span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer records spans in memory for one goroutine: Begin pushes onto an
// open-span stack, so a span begun inside another becomes its child. The
// spans are read once the traced work is over (SelfTimes, WriteChrome).
// A nil *Tracer records nothing, so code shared by the timed and the
// traced runs spans unconditionally.
type Tracer struct {
	epoch time.Time
	spans []Span
	open  []int // indexes into spans of the spans not yet ended
}

// NewTracer starts a tracer whose clock reads zero now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span named name (conventionally "layer.operation") as a
// child of the innermost open span and returns its ID.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return 0
	}
	s := Span{ID: len(t.spans) + 1, Name: name, Start: time.Since(t.epoch)}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, len(t.spans)-1)
	return s.ID
}

// End closes the innermost open span, which must be id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	n := len(t.open)
	if n == 0 || t.spans[t.open[n-1]].ID != id {
		panic("perfbench: span ended out of order")
	}
	t.spans[t.open[n-1]].End = time.Since(t.epoch)
	t.open = t.open[:n-1]
}

// Spans returns every recorded span in the order it began.
func (t *Tracer) Spans() []Span { return t.spans }

// LayerTime is the traced time of one span name.
type LayerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of span durations less the time children cover
}

// SelfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by its children; children that
// overlap one another (concurrent calls) are counted once, and a child
// reaching outside its parent counts only inside it.
func SelfTimes(spans []Span) map[string]LayerTime {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]LayerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.Dur()
		lt.Self += s.Dur() - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// WriteChrome writes the spans as a Chrome trace (complete "X" events,
// microsecond timestamps) that ui.perfetto.dev and chrome://tracing load.
func WriteChrome(path string, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks; NaN for no samples. xs is not
// modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }
