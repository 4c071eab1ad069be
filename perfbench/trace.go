package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// req; parent indexes the causing span in the same client's slice (-1 for
// a root).
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer's base
	parent     int32
	req        int64
}

// tracer records spans in memory for one client goroutine.
type tracer struct {
	base  time.Time
	req   int64
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.base)), parent: parent, req: t.req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.base)) }

// call times f as a span named name under parent. A nil tracer just
// runs f.
func (t *tracer) call(name string, parent int32, f func()) {
	if t == nil {
		f()
		return
	}
	i := t.begin(name, parent)
	f()
	t.end(i)
}

// spanStats aggregates spans of one name.
type spanStats struct {
	calls int
	total int64 // summed duration, ns
	self  int64 // summed self time, ns
}

func (s spanStats) meanMs() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(s.calls) / 1e6
}

func (s spanStats) meanSelfMs() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.self) / float64(s.calls) / 1e6
}

// aggregate derives each span's self time — its duration minus the
// durations of its child spans — and sums durations and self times by
// name. A replayed layer call is a child of the server span it replays,
// so the server span's self time is its ServeHTTP time minus the time of
// the same request's public layer calls.
func aggregate(perClient [][]span) map[string]spanStats {
	out := make(map[string]spanStats)
	for _, spans := range perClient {
		child := make([]int64, len(spans))
		for _, sp := range spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range spans {
			st := out[sp.name]
			st.calls++
			st.total += sp.end - sp.start
			st.self += sp.end - sp.start - child[i]
			out[sp.name] = st
		}
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, perClient [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Client int    `json:"client"`
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Req    int64  `json:"req"`
	}
	for ci, spans := range perClient {
		for i, sp := range spans {
			if err := enc.Encode(line{ci, i, sp.name, sp.start, sp.end, sp.parent, sp.req}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
