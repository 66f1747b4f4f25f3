package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return v
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantQ  float64
		wantOK bool
	}{
		// 1000 samples: p99 is rank 990, with exactly 10 samples above.
		{1000, 0.99, 990, 0.99, true},
		// 500 samples: p99 would leave 5 beyond; it falls to rank 490.
		{500, 0.99, 490, 0.98, true},
		// 30 samples: the tail figure is the 20th value, q = 2/3.
		{30, 0.99, 20, 20.0 / 30, true},
		// The median of 100 is unaffected.
		{100, 0.5, 50, 0.5, true},
		// Ten samples cannot support any percentile.
		{10, 0.5, 10, 1, false},
	}
	for _, c := range cases {
		got, q, ok := percentile(seq(c.n), c.q)
		if got != c.want || q != c.wantQ || ok != c.wantOK {
			t.Errorf("percentile(n=%d, q=%v) = %v, q=%v, ok=%v; want %v, q=%v, ok=%v",
				c.n, c.q, got, q, ok, c.want, c.wantQ, c.wantOK)
		}
		if ok {
			beyond := 0
			for _, v := range seq(c.n) {
				if v > got {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d q=%v: only %d samples beyond the reported value", c.n, c.q, beyond)
			}
		}
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestScheduleDueTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newSchedule(t0, 10*time.Millisecond)
	for k := 0; k < 3; k++ {
		if due := s.take(); !due.Equal(t0.Add(time.Duration(k) * 10 * time.Millisecond)) {
			t.Fatalf("op %d due at %v, want %v", k, due, t0.Add(time.Duration(k)*10*time.Millisecond))
		}
	}
	// A stall does not move later due times: after 35ms, ops 3 is due
	// (30ms) and has not been taken, so the backlog is 1; the next due
	// time is still 30ms, so a sample taken now is 5ms late.
	now := t0.Add(35 * time.Millisecond)
	if got := s.backlog(now); got != 1 {
		t.Errorf("backlog at 35ms = %d, want 1", got)
	}
	due := s.take()
	if late := now.Sub(due); late != 5*time.Millisecond {
		t.Errorf("lateness = %v, want 5ms", late)
	}
	// A long stall piles up a backlog instead of skipping operations.
	if got := s.backlog(t0.Add(100 * time.Millisecond)); got != 7 {
		t.Errorf("backlog at 100ms = %d, want 7 (ops 4..10)", got)
	}
	if got := s.backlog(t0.Add(-time.Second)); got != 0 {
		t.Errorf("backlog before the start = %d, want 0", got)
	}
}

func TestSamplesKeepOnlyTheWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var s samples
	for i := 0; i < 10; i++ {
		s.add(t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	got := s.in(window{start: t0.Add(2 * time.Second), end: t0.Add(5 * time.Second)})
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Errorf("window [2s,5s) kept %v, want [2 3 4]", got)
	}
}

func TestOpCounterCountsFailures(t *testing.T) {
	c := newOpCounter()
	boom := errors.New("boom")
	for i := 0; i < 5; i++ {
		_ = c.done(opBatch, nil)
	}
	if err := c.done(opBatch, boom); !errors.Is(err, boom) {
		t.Errorf("done returned %v, want the failure", err)
	}
	_ = c.done(opRead, nil)
	_ = c.done(opOracle, errors.New("mismatch"))
	attempted, failed := c.totals()
	if attempted != 8 || failed != 2 {
		t.Errorf("totals = %d attempted, %d failed; want 8, 2", attempted, failed)
	}
	if s := c.String(); !strings.Contains(s, "batch 6/1") || !strings.Contains(s, "oracle 1/1") || !strings.Contains(s, "read 1/0") {
		t.Errorf("String() = %q", s)
	}
	if f := c.failures(); len(f) != 2 || !strings.Contains(f[0], "boom") {
		t.Errorf("failures() = %v", f)
	}
}
