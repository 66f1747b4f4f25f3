package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/stream"
)

// run is one workload execution: the stack under test, the generator's
// state, and everything it measured.
type run struct {
	w    workload
	seed int64
	// bulkPrefix names bulk sessions; each ladder rung uses its own.
	bulkPrefix string
	st         *stack
	// parent is the span the run's calls nest under (a ladder rung).
	parent uint64
	ops    *opCounter
	tr     *tracer

	bulkAcked atomic.Int64 // bulk events acked so far
	resumes   atomic.Int64 // Pool.Resume calls
	sessions  atomic.Int64 // session name counter

	// probeDue holds the due times of probe batches sent but not yet
	// acked, oldest first: acks of one producer arrive in send order.
	probeMu  sync.Mutex
	probeDue []time.Time

	probeLat samples // ms from due to ack, keyed by due time
	readLat  samples // ms from due to response, keyed by due time
	late     samples // ms the generator issued an open-loop op after its due time

	mu        sync.Mutex
	records   []sessionRecord // sessions sealed and acked, for the oracle
	kept      int             // events held by in-memory records
	unchecked int             // in-memory sessions evicted before the oracle
	live      []string        // bulk sessions in flight (read targets)
	// probeSealed holds probe sessions whose seal was sent; their acks
	// are collected after the window.
	probeSealed []*bulkSession

	hw      chan struct{} // closed at the workload's high-water point
	heapMB  float64
	backlog int64 // open-loop operations due but not issued at the window's end

	maxReads    int          // reads a run can issue; sizes the pipe's queue
	rp          *pipeConn    // opened by the generator on its first read
	outstanding atomic.Int64 // reads issued and not yet answered
}

func newRun(w workload, seed int64) *run {
	return &run{w: w, seed: seed, bulkPrefix: "b", ops: newOpCounter(), hw: make(chan struct{})}
}

// trafficSeed derives session k's generator seed from the run seed.
func (r *run) trafficSeed(k int64) int64 { return r.seed*1_000_003 + k }

func (r *run) newRecord(prefix string, events int) sessionRecord {
	k := r.sessions.Add(1)
	return sessionRecord{id: fmt.Sprintf("%s%d", prefix, k), req: uint64(k), shape: r.w.shape, procs: r.w.procs,
		seed: r.trafficSeed(k), events: events}
}

// onAck is the stream clients' ack observer. Probe batches have a size
// no bulk batch has; seal acks carry no events.
func (r *run) onAck(events int, _ time.Duration) {
	switch {
	case events == probeBatch:
		now := time.Now()
		r.probeMu.Lock()
		if len(r.probeDue) == 0 {
			r.probeMu.Unlock()
			return
		}
		due := r.probeDue[0]
		r.probeDue = r.probeDue[1:]
		r.probeMu.Unlock()
		r.probeLat.add(due, ms(now.Sub(due)))
	case events > 0:
		r.bulkAcked.Add(int64(events))
	}
}

// open binds a channel to a fresh session.
func (r *run) open(rec sessionRecord, producer string) (*stream.Chan, error) {
	t := r.tr.begin()
	ch, _, err := r.st.pool.Open(rec.id, rec.procs, producer)
	r.tr.end("stream.Pool.Open", t, r.parent, rec.req)
	return ch, r.ops.done(opOpen, err)
}

// resume re-opens a failed channel on the session's current owner and
// replays its unacked frames. Mid-handoff the covering copy may still be
// moving, so a failed resume is retried for a while before it counts.
func (r *run) resume(ch **stream.Chan, req uint64) error {
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		t := r.tr.begin()
		var fresh *stream.Chan
		fresh, _, err = r.st.pool.Resume(*ch)
		r.tr.end("stream.Pool.Resume", t, r.parent, req)
		r.resumes.Add(1)
		if err == nil {
			*ch = fresh
			return r.ops.done(opResume, nil)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return r.ops.done(opResume, err)
}

// send transmits one batch, resuming on the owner when the channel died
// (a cluster moved the session). A frame the dead channel had recorded
// is replayed by the resume; one it had not is sent again.
func (r *run) send(ch **stream.Chan, req uint64, events []service.Event) error {
	for {
		pre := (*ch).NextSeq()
		t := r.tr.begin()
		err := (*ch).Send(events)
		r.tr.end("stream.Chan.Send", t, r.parent, req)
		if err == nil || r.w.members == 1 {
			return r.ops.done(opBatch, err)
		}
		recorded := (*ch).NextSeq() > pre
		if rerr := r.resume(ch, req); rerr != nil {
			return r.ops.done(opBatch, rerr)
		}
		if recorded {
			return r.ops.done(opBatch, nil)
		}
	}
}

func (r *run) seal(ch **stream.Chan, req uint64) error {
	for {
		pre := (*ch).NextSeq()
		t := r.tr.begin()
		err := (*ch).Seal()
		r.tr.end("stream.Chan.Seal", t, r.parent, req)
		if err == nil || r.w.members == 1 {
			return r.ops.done(opSeal, err)
		}
		recorded := (*ch).NextSeq() > pre
		if rerr := r.resume(ch, req); rerr != nil {
			return r.ops.done(opSeal, rerr)
		}
		if recorded {
			return r.ops.done(opSeal, nil)
		}
	}
}

// flush waits for every frame of the channel to be acked. A cancelled
// ctx returns its error without counting an attempt.
func (r *run) flush(ctx context.Context, ch **stream.Chan, req uint64) error {
	for {
		t := r.tr.begin()
		err := (*ch).Flush(ctx)
		r.tr.end("stream.Chan.Flush", t, r.parent, req)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil || r.w.members == 1 {
			return r.ops.done(opFlush, err)
		}
		if rerr := r.resume(ch, req); rerr != nil {
			return r.ops.done(opFlush, rerr)
		}
	}
}

type bulkSession struct {
	rec sessionRecord
	ch  *stream.Chan
}

// startBulk opens a bulk session and sends all of it, then its seal:
// the credit window holds a whole session, so the sends never wait.
func (r *run) startBulk() (*bulkSession, error) {
	rec := r.newRecord(r.bulkPrefix, r.w.sessionEvents)
	ch, err := r.open(rec, "bulk")
	if err != nil {
		return nil, err
	}
	tr, err := stream.NewTraffic(rec.shape, rec.procs, rec.seed)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.live = append(r.live, rec.id)
	r.mu.Unlock()
	for sent := 0; sent < rec.events; sent += r.w.batch {
		// Each batch gets its own slice: the channel keeps it for replay
		// until the frame is acked.
		if err := r.send(&ch, rec.req, tr.Next(nil, min(r.w.batch, rec.events-sent))); err != nil {
			return nil, err
		}
	}
	if err := r.seal(&ch, rec.req); err != nil {
		return nil, err
	}
	return &bulkSession{rec: rec, ch: ch}, nil
}

// keepEvents bounds the events held by completed in-memory sessions
// kept for the oracle. Keeping every one would cost about 0.5 MB per
// 2048-event session, most of a gigabyte per run; the oldest are
// evicted unchecked instead, keeping about 25 MB. The bound also keeps
// the collector's mark phases short: with 400k events kept they ran
// 40-50 ms and set the probe and read tails.
const keepEvents = 100_000

// complete files a sealed, acked session for the oracle.
func (r *run) complete(s *bulkSession) {
	r.mu.Lock()
	r.records = append(r.records, s.rec)
	for i, id := range r.live {
		if id == s.rec.id {
			r.live = append(r.live[:i], r.live[i+1:]...)
			break
		}
	}
	var evict []string
	if !r.w.durable {
		r.kept += s.rec.events
		for r.kept > keepEvents {
			old := r.records[0]
			r.records = r.records[1:]
			r.kept -= old.events
			r.unchecked++
			evict = append(evict, old.id)
		}
	}
	r.mu.Unlock()
	for _, id := range evict {
		r.st.members[0].svc.Evict(id, "explicit")
	}
	_ = s.ch.Close()
}

// bulk is the closed loop: bulkSessions sessions in flight, each
// replaced as soon as its seal is acked (oldest first). The first
// generation is held at the high-water point — every session fully
// applied and sealed — while the heap is measured.
func (r *run) bulk(ctx context.Context) error {
	var fifo []*bulkSession
	for i := 0; i < r.w.bulkSessions; i++ {
		s, err := r.startBulk()
		if err != nil {
			return err
		}
		fifo = append(fifo, s)
	}
	for _, s := range fifo {
		if err := r.flush(context.Background(), &s.ch, s.rec.req); err != nil {
			return err
		}
	}
	r.heapMB = float64(liveHeap()) / (1 << 20)
	close(r.hw)

	for i, s := range fifo {
		r.complete(s)
		next, err := r.startBulk()
		if err != nil {
			return err
		}
		fifo[i] = next
	}
	for ctx.Err() == nil {
		s := fifo[0]
		if err := r.flush(ctx, &s.ch, s.rec.req); err != nil {
			if ctx.Err() != nil {
				break
			}
			return err
		}
		r.complete(s)
		next, err := r.startBulk()
		if err != nil {
			return err
		}
		fifo = append(fifo[1:], next)
	}
	drain, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, s := range fifo {
		if err := r.flush(drain, &s.ch, s.rec.req); err != nil {
			return err
		}
		r.complete(s)
	}
	return nil
}

// probe is the open-loop producer's state: pre-opened short sessions,
// so a session rotation never waits for an OPENOK behind bulk frames.
type probe struct {
	ready   []*bulkSession
	cur     *bulkSession
	tr      *stream.Traffic
	batches int
}

// preopenProbes opens enough probe sessions for the whole run.
func (r *run) preopenProbes(seconds int) (*probe, error) {
	perSession := time.Duration(r.w.probeSessionBatches) * r.w.probeEvery
	n := int(time.Duration(seconds+20)*time.Second/perSession) + 1
	p := &probe{}
	for len(p.ready) < n {
		rec := r.newRecord("p", 0)
		ch, err := r.open(rec, "probe")
		if err != nil {
			return nil, err
		}
		p.ready = append(p.ready, &bulkSession{rec: rec, ch: ch})
	}
	return p, nil
}

// probeStep sends one probe batch due at due, rotating sessions.
func (r *run) probeStep(p *probe, due time.Time) error {
	if p.cur == nil {
		if len(p.ready) == 0 {
			return errors.New("probe: ran out of pre-opened sessions")
		}
		p.cur, p.ready = p.ready[0], p.ready[1:]
		tr, err := stream.NewTraffic(p.cur.rec.shape, p.cur.rec.procs, p.cur.rec.seed)
		if err != nil {
			return err
		}
		p.tr, p.batches = tr, 0
	}
	r.probeMu.Lock()
	r.probeDue = append(r.probeDue, due)
	r.probeMu.Unlock()
	if err := r.send(&p.cur.ch, p.cur.rec.req, p.tr.Next(nil, probeBatch)); err != nil {
		return err
	}
	p.cur.rec.events += probeBatch
	p.batches++
	if p.batches == r.w.probeSessionBatches {
		if err := r.sealProbe(p); err != nil {
			return err
		}
	}
	return nil
}

// sealProbe seals the current probe session. Its seal ack is collected
// at the end of the run.
func (r *run) sealProbe(p *probe) error {
	if p.cur == nil {
		return nil
	}
	if err := r.seal(&p.cur.ch, p.cur.rec.req); err != nil {
		return err
	}
	sealed := p.cur
	p.cur = nil
	r.mu.Lock()
	r.probeSealed = append(r.probeSealed, sealed)
	r.mu.Unlock()
	return nil
}

// generate is the open-loop generator: probe batches every probeEvery
// and reads every readEvery, each issued at its due time without
// waiting for earlier ones to complete.
func (r *run) generate(ctx context.Context, p *probe, start time.Time) error {
	probes := newSchedule(start, r.w.probeEvery)
	reads := newSchedule(start.Add(r.w.readEvery/2), r.w.readEvery)
	timer := time.NewTimer(0)
	defer timer.Stop()
	// stopAt is when the window closed; operations already due by then
	// are still issued (late), so the window keeps every sample it owes.
	var stopAt time.Time
	for k := 0; ; {
		next := probes.due()
		isRead := reads.due().Before(next)
		if isRead {
			next = reads.due()
		}
		if !stopAt.IsZero() && !next.Before(stopAt) {
			return r.sealProbe(p)
		}
		if wait := time.Until(next); wait > 0 && stopAt.IsZero() {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				stopAt = time.Now()
				r.backlog = probes.backlog(stopAt) + reads.backlog(stopAt)
				continue
			case <-timer.C:
			}
		} else if stopAt.IsZero() && ctx.Err() != nil {
			stopAt = time.Now()
			r.backlog = probes.backlog(stopAt) + reads.backlog(stopAt)
		}
		now := time.Now()
		if isRead {
			due := reads.take()
			r.late.add(due, ms(now.Sub(due)))
			if err := r.issueRead(due, k); err != nil {
				return err
			}
			k++
			continue
		}
		due := probes.take()
		r.late.add(due, ms(now.Sub(due)))
		if err := r.probeStep(p, due); err != nil {
			return err
		}
	}
}

// readTarget picks the session the k-th read hits.
func (r *run) readTarget(k int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.live) == 0 {
		return ""
	}
	// Consecutive reads go through the kinds on one session, then move
	// on: every session sees every kind, whatever the two counts are.
	return r.live[k/len(r.w.readKinds)%len(r.live)]
}

// pendingRead is one GET written to a pipelined connection and not yet
// answered.
type pendingRead struct {
	id, kind string
	due      time.Time
	span     started
}

// pipeConn is the one HTTP/1.1 keep-alive connection to the daemon,
// used with pipelining: requests are written when due and their
// responses read in order by a reader goroutine, so the generator never
// waits on a read. The server still answers them one at a time.
type pipeConn struct {
	r    *run
	host string
	c    net.Conn
	// queue holds requests in write order. It is sized for every read a
	// run can issue, so a write never waits on the reader.
	queue chan pendingRead
	done  chan struct{} // closed when the reader has returned
}

// pipe returns the run's read connection, dialling it on first use.
func (r *run) pipe() (*pipeConn, error) {
	if r.rp != nil {
		return r.rp, nil
	}
	host := r.st.members[0].hsrv.Addr()
	c, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	r.rp = &pipeConn{r: r, host: host, c: c, queue: make(chan pendingRead, r.maxReads), done: make(chan struct{})}
	go r.rp.readLoop()
	return r.rp, nil
}

func (p *pipeConn) issue(pr pendingRead) error {
	if _, err := fmt.Fprintf(p.c, "GET /v1/sessions/%s/%s HTTP/1.1\r\nHost: %s\r\n\r\n", pr.id, pr.kind, p.host); err != nil {
		return err
	}
	p.queue <- pr
	return nil
}

func (p *pipeConn) readLoop() {
	defer close(p.done)
	br := bufio.NewReader(p.c)
	for pr := range p.queue {
		resp, err := http.ReadResponse(br, nil)
		status := 0
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			status = resp.StatusCode
		}
		p.r.readDone(pr, status, err)
	}
}

// issueRead writes the k-th read, due at due.
func (r *run) issueRead(due time.Time, k int) error {
	id := r.readTarget(k)
	if id == "" {
		return nil // nothing readable yet (first moments of the run)
	}
	pr := pendingRead{id: id, kind: r.w.readKinds[k%len(r.w.readKinds)], due: due, span: r.tr.begin()}
	p, err := r.pipe()
	if err != nil {
		return r.ops.done(opRead, err)
	}
	r.outstanding.Add(1)
	if err := p.issue(pr); err != nil {
		r.outstanding.Add(-1)
		return r.ops.done(opRead, err)
	}
	return nil
}

// readDone completes a read and records its latency from the due time.
func (r *run) readDone(pr pendingRead, status int, err error) {
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s of %s: status %d", pr.kind, pr.id, status)
	}
	now := time.Now()
	r.tr.end("http.GET "+pr.kind, pr.span, r.parent, pr.span.id)
	r.readLat.add(pr.due, ms(now.Sub(pr.due)))
	_ = r.ops.done(opRead, err)
	r.outstanding.Add(-1)
}

// closePipe waits for every outstanding read and stops the reader.
func (r *run) closePipe() {
	deadline := time.Now().Add(120 * time.Second)
	for r.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if r.rp == nil {
		return
	}
	close(r.rp.queue)
	_ = r.rp.c.Close()
	<-r.rp.done
}
