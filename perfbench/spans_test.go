package main

import (
	"math"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimesHandMadeSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "sim.run", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "driver.record", Start: ms(10), End: ms(20)},
		{ID: 3, Parent: 1, Name: "daemon.poll", Start: ms(30), End: ms(45)},
		{ID: 4, Parent: 3, Name: "profiledb.update", Start: ms(35), End: ms(40)},
		{ID: 5, Parent: 1, Name: "driver.record", Start: ms(50), End: ms(52)},
		{ID: 6, Name: "analysis.proc", Start: ms(100), End: ms(130)},
	}
	got := SelfTimes(spans)
	want := map[string]LayerTime{
		"sim.run":          {Count: 1, Total: ms(100), Self: ms(73)},
		"driver.record":    {Count: 2, Total: ms(12), Self: ms(12)},
		"daemon.poll":      {Count: 1, Total: ms(15), Self: ms(10)},
		"profiledb.update": {Count: 1, Total: ms(5), Self: ms(5)},
		"analysis.proc":    {Count: 1, Total: ms(30), Self: ms(30)},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestSelfTimesOverlappingAndOverhangingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "collect.round", Start: ms(0), End: ms(100)},
		// Two concurrent children overlapping on [30,40]: covered once.
		{ID: 2, Parent: 1, Name: "tsdb.append", Start: ms(20), End: ms(40)},
		{ID: 3, Parent: 1, Name: "tsdb.append", Start: ms(30), End: ms(50)},
		// A child nested inside another child adds no extra coverage.
		{ID: 4, Parent: 1, Name: "tsdb.append", Start: ms(22), End: ms(25)},
		// A child overhanging the parent's end counts only inside it.
		{ID: 5, Parent: 1, Name: "tsdb.append", Start: ms(90), End: ms(120)},
	}
	got := SelfTimes(spans)["collect.round"]
	if got.Self != ms(60) { // 100 - [20,50] - [90,100]
		t.Errorf("self = %v, want 60ms", got.Self)
	}
}

func TestTracerNestsByStack(t *testing.T) {
	tr := NewTracer()
	outer := tr.Begin("sim.run")
	inner := tr.Begin("driver.record")
	tr.End(inner)
	tr.End(outer)
	root := tr.Begin("analysis.proc")
	tr.End(root)
	sp := tr.Spans()
	if len(sp) != 3 || sp[0].Parent != 0 || sp[1].Parent != sp[0].ID || sp[2].Parent != 0 {
		t.Fatalf("unexpected parents: %+v", sp)
	}
	for _, s := range sp {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ending a span out of order did not panic")
		}
	}()
	a := tr.Begin("a")
	tr.Begin("b")
	tr.End(a)
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {0.99, 4.96},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("Quantile sorted its input in place")
	}
	if got := Median([]float64{2, 8}); got != 5 {
		t.Errorf("Median of two = %v, want 5", got)
	}
	if got := Median([]float64{7}); got != 7 {
		t.Errorf("Median of one = %v, want 7", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median of no samples is not NaN")
	}
}
