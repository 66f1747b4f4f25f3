package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Times are nanoseconds since the tracer started; Parent is
// the enclosing span (0 for none) and Req groups the spans of one
// session or request.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer, or
// one switched off, records nothing and costs one branch per call.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// started is an open span: its id, known up front so that children
// can name it as their parent, and its start time. The zero value
// (tracing off) records nothing.
type started struct {
	id uint64
	at time.Time
}

func (t *tracer) begin() started {
	if !t.enabled() {
		return started{}
	}
	return started{id: t.ids.Add(1), at: time.Now()}
}

// end records the span s under name.
func (t *tracer) end(name string, s started, parent, req uint64) {
	if s.id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: s.id, Parent: parent, Req: req, Name: name,
		Start: int64(s.at.Sub(t.t0)), End: int64(now.Sub(t.t0))})
	t.mu.Unlock()
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// durationsSince returns the durations, in microseconds, of the spans
// named name recorded after the first mark spans.
func (t *tracer) durationsSince(mark int, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans[min(mark, len(t.spans)):] {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}
