package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one unlucky sample, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples, lowered to
// the highest rank that still leaves minBeyond samples above it when
// there are too few samples for q itself, together with the quantile
// actually reported. ok is false when no rank has minBeyond samples
// above it. samples is sorted in place.
func percentile(samples []float64, q float64) (value, usedQ float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if maxRank := n - 1 - minBeyond; rank > maxRank {
		rank = maxRank
	}
	if rank < 0 {
		return samples[n-1], 1, false
	}
	return samples[rank], float64(rank+1) / float64(n), true
}

// samples is a mutex-guarded list of observations, each stamped with
// the time it belongs to (an operation's due time), filled from several
// goroutines and filtered to the measured window at the end.
type samples struct {
	mu sync.Mutex
	at []time.Time
	v  []float64
}

func (s *samples) add(at time.Time, v float64) {
	s.mu.Lock()
	s.at = append(s.at, at)
	s.v = append(s.v, v)
	s.mu.Unlock()
}

// in returns the observations stamped inside w.
func (s *samples) in(w window) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for i, at := range s.at {
		if w.contains(at) {
			out = append(out, s.v[i])
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Operation kinds counted against failures. Every operation the
// generator issues is attempted exactly once and either succeeds or
// counts as failed; oracle mismatches count as failed "oracle" checks.
const (
	opOpen   = "open"
	opBatch  = "batch"
	opSeal   = "seal"
	opFlush  = "flush"
	opRead   = "read"
	opResume = "resume"
	opOracle = "oracle"
)

var opKinds = []string{opOpen, opBatch, opSeal, opFlush, opRead, opResume, opOracle}

// opCounter counts attempts and failures per operation kind, and keeps
// the first few failure messages for the report.
type opCounter struct {
	attempted map[string]*atomic.Int64
	failed    map[string]*atomic.Int64

	mu    sync.Mutex
	first []string
}

func newOpCounter() *opCounter {
	c := &opCounter{attempted: map[string]*atomic.Int64{}, failed: map[string]*atomic.Int64{}}
	for _, k := range opKinds {
		c.attempted[k] = new(atomic.Int64)
		c.failed[k] = new(atomic.Int64)
	}
	return c
}

// done records one attempt of kind; a non-nil err also records a
// failure. It returns err so call sites can count and propagate.
func (c *opCounter) done(kind string, err error) error {
	c.attempted[kind].Add(1)
	if err != nil {
		c.failed[kind].Add(1)
		c.mu.Lock()
		if len(c.first) < 8 {
			c.first = append(c.first, fmt.Sprintf("%s: %v", kind, err))
		}
		c.mu.Unlock()
	}
	return err
}

// totals returns attempts and failures over every kind.
func (c *opCounter) totals() (attempted, failed int64) {
	for _, k := range opKinds {
		attempted += c.attempted[k].Load()
		failed += c.failed[k].Load()
	}
	return attempted, failed
}

// String renders "open 12/0 batch 3000/0 ..." (attempted/failed).
func (c *opCounter) String() string {
	var b strings.Builder
	for i, k := range opKinds {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s %d/%d", k, c.attempted[k].Load(), c.failed[k].Load())
	}
	return b.String()
}

func (c *opCounter) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.first...)
}

// schedule is an open-loop timetable: operation k is due at
// start + k*every, whatever happened to operation k-1. The caller
// waits for each due time, issues the operation, and times it from the
// due time, so a stall shows up as latency on every operation it
// delayed. Lateness (issue time minus due time) is kept separately: it
// says how far the generator itself fell behind.
type schedule struct {
	start time.Time
	every time.Duration
	next  int64
}

func newSchedule(start time.Time, every time.Duration) *schedule {
	return &schedule{start: start, every: every}
}

// due returns the due time of the next operation.
func (s *schedule) due() time.Time { return s.start.Add(time.Duration(s.next) * s.every) }

// take consumes the next operation and returns its due time.
func (s *schedule) take() time.Time {
	d := s.due()
	s.next++
	return d
}

// backlog is how many operations were due by now but not yet taken.
func (s *schedule) backlog(now time.Time) int64 {
	if now.Before(s.start) {
		return 0
	}
	dueBy := int64(now.Sub(s.start)/s.every) + 1
	if dueBy <= s.next {
		return 0
	}
	return dueBy - s.next
}

// window is the measured interval; observations are kept only when
// their due (or completion) time falls inside it.
type window struct {
	start, end time.Time
}

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }
