package main

// In-memory spans of the traced run. Spans are recorded by the benchmark
// around its calls into each layer's public functions (the program itself
// carries no spans yet), kept in memory, and written out as JSONL when the
// run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call. Parent is the id of the span that caused it
// (0 for a root); every span of one traced request shares Request.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// spanLog records spans from one goroutine; the traced run is sequential.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span and returns its id (its index + 1).
func (l *spanLog) start(name string, parent, request int64) int64 {
	l.spans = append(l.spans, span{
		ID: int64(len(l.spans) + 1), Parent: parent, Request: request,
		Name: name, StartNs: int64(time.Since(l.t0)),
	})
	return int64(len(l.spans))
}

// end closes the span and returns its duration.
func (l *spanLog) end(id int64) time.Duration {
	s := &l.spans[id-1]
	s.EndNs = int64(time.Since(l.t0))
	return s.dur()
}

// timed runs fn inside a span and returns the span's duration.
func (l *spanLog) timed(name string, parent, request int64, fn func()) time.Duration {
	id := l.start(name, parent, request)
	fn()
	return l.end(id)
}

// durations returns the durations of every span with the given name.
func (l *spanLog) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, per span name, the total self time: each span's
// duration minus the part of its interval that its children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range l.spans {
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
