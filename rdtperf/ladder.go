package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/stream"
)

// rgraphSizes is the session-length axis of the checker rung. 64k is
// left out: one such session costs tens of seconds with today's checker.
var rgraphSizes = []int{2048, 16384, 32768}

// ladder runs the layer rungs after the traced workload and returns
// the per-layer metrics. Each rung replays the workload's traffic shape
// one layer further out: rgraph → service → wal → stream, with JSON
// over HTTP as the stream rung's sibling and a two-member shard rung.
// A rung's self cost is its CPU per event minus the rung below.
func ladder(w workload, seed int64, seconds int, root string, tr *tracer, m measurement, out io.Writer) (map[string]metric, error) {
	dur := time.Duration(seconds) * time.Second / 4
	dur = min(max(dur, time.Second), 3*time.Second)
	res := map[string]metric{}
	put := func(name, unit string, v float64) { res[name] = metric{Value: v, Unit: unit} }

	// The traced workload itself.
	put("trace.ingest_eps_untraced", "events/s", m.untracedEPS)
	put("trace.ingest_eps_traced", "events/s", m.tracedEPS)
	if m.tracedEPS > 0 {
		put("trace.overhead_frac", "ratio", m.untracedEPS/m.tracedEPS-1)
	}
	put("gen.late_ms_p99", "ms", m.lateP99)
	put("read_p99_q", "ratio", m.readP99Q)
	put("error_frac", "ratio", m.errorFrac)
	put("disk_bytes_per_event", "B/event", m.diskPerEvent)

	start := time.Now()
	// rung runs one rung under a span of its own, the parent of every
	// call span the rung records.
	rung := func(name string, f func(parent uint64) error) error {
		s := tr.begin()
		err := f(s.id)
		tr.end("ladder."+name, s, 0, 0)
		if err != nil {
			return fmt.Errorf("%s rung: %w", name, err)
		}
		return nil
	}
	var cpuRgraph, cpuService, cpuWAL, cpuStream float64
	err := rung("rgraph", func(parent uint64) (err error) {
		cpuRgraph, err = rgraphRung(w, seed, tr, parent, put)
		return err
	})
	if err == nil {
		err = rung("service", func(parent uint64) (err error) {
			cpuService, err = serviceRung(w, seed, "", dur, tr, parent, put, "service")
			return err
		})
	}
	if err == nil {
		err = rung("wal", func(parent uint64) (err error) {
			cpuWAL, err = serviceRung(w, seed, filepath.Join(root, "wal-rung"), dur, tr, parent, put, "wal")
			return err
		})
	}
	if err == nil {
		err = rung("stream", func(parent uint64) (err error) {
			cpuStream, err = streamRung(w, seed, filepath.Join(root, "stream-rung"), dur, tr, parent, put)
			return err
		})
	}
	if err == nil {
		err = rung("http", func(parent uint64) error {
			return httpRung(w, seed, filepath.Join(root, "http-rung"), dur, tr, parent, put)
		})
	}
	if err == nil {
		err = rung("shard", func(parent uint64) error {
			return shardRung(w, seed, filepath.Join(root, "shard-rung"), dur, tr, parent, put)
		})
	}
	if err != nil {
		return nil, err
	}
	put("service.self_cpu_us_per_event", "us/event", cpuService-cpuRgraph)
	put("wal.self_cpu_us_per_event", "us/event", cpuWAL-cpuService)
	// The stream rung runs in memory, like every gated workload, so the
	// rung below it is the in-memory service rung.
	put("stream.self_cpu_us_per_event", "us/event", cpuStream-cpuService)
	fmt.Fprintf(out, "ladder done in %s\n", time.Since(start).Round(time.Millisecond))
	return res, nil
}

// liveHeap returns the bytes of live heap objects after a full
// collection. HeapInuse would include span fragmentation, which moved
// by 40% between runs of one seed.
func liveHeap() uint64 {
	runtime.GC()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	return mst.HeapAlloc
}

// rgraphRung feeds the workload's traffic straight into
// rgraph.Incremental along the session-length axis. It returns the
// checker's CPU per event at the workload's own session length.
func rgraphRung(w workload, seed int64, tr *tracer, parent uint64, put func(string, string, float64)) (float64, error) {
	var own float64
	for i, size := range rgraphSizes {
		gen, err := stream.NewTraffic(w.shape, w.procs, seed*1_000_003+int64(9_000_000+i))
		if err != nil {
			return 0, err
		}
		events := gen.Next(nil, size)
		heap0 := liveHeap()
		inc, err := rgraph.NewIncremental(w.procs)
		if err != nil {
			return 0, err
		}
		handles := make(map[int]int)
		tail := size - size/4
		var tailStart time.Time
		cpu0 := cpuTime()
		begin := time.Now()
		for lo := 0; lo < size; lo += w.batch {
			if lo >= tail && tailStart.IsZero() {
				tailStart = time.Now()
			}
			t := tr.begin()
			for _, ev := range events[lo:min(lo+w.batch, size)] {
				if err := applyInc(inc, handles, ev); err != nil {
					return 0, err
				}
			}
			tr.end("rgraph.Incremental.Checkpoint|Send|Deliver", t, parent, uint64(size))
		}
		elapsed := time.Since(begin)
		cpu := cpuTime() - cpu0
		label := fmt.Sprintf("%dk", size/1024)
		put("rgraph.ns_per_event."+label, "ns/event", float64(elapsed.Nanoseconds())/float64(size))
		if size == w.sessionEvents {
			own = us(cpu) / float64(size)
		}
		if size == 16384 {
			put("rgraph.tail_ns_per_event.16k", "ns/event", float64(time.Since(tailStart).Nanoseconds())/float64(size-tail))
			put("rgraph.heap_bytes_per_event.16k", "B/event", (float64(liveHeap())-float64(heap0))/float64(size))
			var reports []float64
			for k := 0; k < 3; k++ {
				t := tr.begin()
				t0 := time.Now()
				inc.Report(0)
				reports = append(reports, ms(time.Since(t0)))
				tr.end("rgraph.Incremental.Report", t, parent, uint64(size))
			}
			put("rgraph.report_ms.16k", "ms", median(reports))
		}
		runtime.KeepAlive(inc)
	}
	put("rgraph.cpu_us_per_event", "us/event", own)
	return own, nil
}

// applyInc applies one generated event to the checker the way a
// session does, mapping client message ids to checker handles.
func applyInc(inc *rgraph.Incremental, handles map[int]int, ev service.Event) error {
	switch ev.Op {
	case service.OpCheckpoint:
		_, _, err := inc.Checkpoint(model.ProcID(ev.Proc))
		return err
	case service.OpSend:
		h, err := inc.Send(model.ProcID(ev.Proc), model.ProcID(ev.Peer))
		handles[ev.Msg] = h
		return err
	case service.OpDeliver:
		h := handles[ev.Msg]
		delete(handles, ev.Msg)
		return inc.Deliver(h)
	}
	return fmt.Errorf("unknown op %q", ev.Op)
}

// serviceRung drives the workload's sessions through CreateSession and
// EnqueueNotify with no wire, in memory (dir == "") or durable, as a
// closed loop: bulkSessions sessions enqueued whole, each sealed and
// replaced oldest first. It returns the CPU per applied event.
func serviceRung(w workload, seed int64, dir string, dur time.Duration, tr *tracer, parent uint64, put func(string, string, float64), layer string) (float64, error) {
	reg := obs.NewRegistry()
	svc, err := service.New(service.Config{DataDir: dir, Registry: reg})
	if err != nil {
		return 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	}()

	var (
		mu        sync.Mutex
		applyUS   []float64
		enqueueUS []float64
		applied   atomic.Int64
		attempts  int64
		refused   int64
		k         int64
	)
	wake := make(chan struct{}, 1)
	startSession := func() (*service.Session, error) {
		k++
		id := fmt.Sprintf("%s%d", layer, k)
		t := tr.begin()
		sess, err := svc.CreateSession(id, w.procs)
		tr.end("service.Service.CreateSession", t, parent, uint64(k))
		if err != nil {
			return nil, err
		}
		gen, err := stream.NewTraffic(w.shape, w.procs, seed*1_000_003+int64(8_000_000)+k)
		if err != nil {
			return nil, err
		}
		for sent := 0; sent < w.sessionEvents; sent += w.batch {
			evs := gen.Next(nil, min(w.batch, w.sessionEvents-sent))
			for {
				t := tr.begin()
				t0 := time.Now()
				err := sess.EnqueueNotify(evs, func(error) {
					d := time.Since(t0)
					applied.Add(int64(len(evs)))
					mu.Lock()
					applyUS = append(applyUS, us(d))
					mu.Unlock()
					select {
					case wake <- struct{}{}:
					default:
					}
				})
				enqueueUS = append(enqueueUS, us(time.Since(t0)))
				tr.end("service.Session.EnqueueNotify", t, parent, uint64(k))
				attempts++
				if errors.Is(err, service.ErrBackpressure) {
					refused++
					select {
					case <-wake:
					case <-time.After(time.Millisecond):
					}
					continue
				}
				if err != nil {
					return nil, err
				}
				break
			}
		}
		return sess, nil
	}

	// keepDone sealed sessions stay for the read and reactivation
	// timings; older ones are evicted (passivated when durable).
	const keepDone = 32
	evictReason := "explicit"
	if dir != "" {
		evictReason = "passivate"
	}
	var fifo []*service.Session
	var done []*service.Session
	cpu0 := cpuTime()
	begin := time.Now()
	for i := 0; i < w.bulkSessions; i++ {
		s, err := startSession()
		if err != nil {
			return 0, err
		}
		fifo = append(fifo, s)
	}
	var appliedAtEnd int64
	var cpu time.Duration
	var elapsed time.Duration
	for {
		s := fifo[0]
		t := tr.begin()
		err := s.Seal(context.Background())
		tr.end("service.Session.Seal", t, parent, 0)
		if err != nil {
			return 0, err
		}
		done = append(done, s)
		if len(done) > keepDone {
			// Bound memory: a sealed session holds its whole history.
			svc.Evict(done[0].ID, evictReason)
			done = done[1:]
		}
		if time.Since(begin) >= dur {
			elapsed, appliedAtEnd, cpu = time.Since(begin), applied.Load(), cpuTime()-cpu0
			break
		}
		next, err := startSession()
		if err != nil {
			return 0, err
		}
		fifo = append(fifo[1:], next)
	}
	eps := float64(appliedAtEnd) / elapsed.Seconds()
	cpuPer := us(cpu) / float64(appliedAtEnd)
	put(layer+".eps", "events/s", eps)
	put(layer+".cpu_us_per_event", "us/event", cpuPer)

	if layer == "service" {
		p99, _, _ := percentile(enqueueUS, 0.99)
		put("service.enqueue_us_p99", "us", p99)
		mu.Lock()
		p50, _, _ := percentile(applyUS, 0.5)
		mu.Unlock()
		put("service.apply_us_p50", "us", p50)
		put("service.backpressure_frac", "ratio", float64(refused)/float64(attempts))
		last := done[len(done)-1]
		for _, kind := range []string{"verdict", "line", "explain"} {
			var v []float64
			for i := 0; i < 3; i++ {
				t := tr.begin()
				t0 := time.Now()
				var err error
				switch kind {
				case "verdict":
					last.Verdict(0)
				case "line":
					_, err = last.Line()
				case "explain":
					_, _, err = last.Explain(0)
				}
				v = append(v, ms(time.Since(t0)))
				tr.end("service.Session."+kind, t, parent, 0)
				if err != nil {
					return 0, err
				}
			}
			put("service."+kind+"_ms_p50", "ms", median(v))
		}
		return cpuPer, nil
	}

	snap := reg.Snapshot()
	// The service counts WAL appends, not fsyncs. Today each append is
	// synced once, so the two agree; batching syncs (group commit) would
	// need a sync counter in the service to show up here.
	appends := float64(snap.CounterValue("rdt_wal_appends_total"))
	put("wal.appends_per_event", "1/event", appends/float64(applied.Load()))
	put("wal.bytes_per_event", "B/event", float64(dirBytes(dir))/float64(applied.Load()))
	put("wal.snapshots_per_kevent", "1/kevent", float64(snap.CounterValue("rdt_wal_snapshots_total"))/(float64(applied.Load())/1000))
	if h, ok := snap.Get("rdt_wal_append_seconds"); ok {
		put("wal.append_ms_p50", "ms", 1000*histQuantile(h, 0.5))
		put("wal.append_ms_p99", "ms", 1000*histQuantile(h, 0.99))
	}

	// Reactivation: passivate the sealed sessions, then time Session on
	// each, round after round, until p99 has minBeyond samples beyond it
	// or the budget is spent. Long sessions reactivate slowly, so their
	// p99 is taken at a lower quantile, reported alongside.
	const reactivations = 100 * minBeyond
	var react []float64
	deadline := time.Now().Add(8 * time.Second)
	for len(react) < reactivations && time.Now().Before(deadline) {
		for _, s := range done {
			svc.Evict(s.ID, "passivate")
		}
		// Let the workers write their final snapshots and exit, so the
		// timings below hold the reactivation alone.
		time.Sleep(20 * time.Millisecond)
		for _, s := range done {
			if len(react) == reactivations || time.Now().After(deadline) {
				break
			}
			t := tr.begin()
			t0 := time.Now()
			_, err := svc.Session(s.ID)
			react = append(react, ms(time.Since(t0)))
			tr.end("service.Service.Session(reactivate)", t, parent, 0)
			if err != nil {
				return 0, err
			}
		}
	}
	// The median is no tail: it is taken from every sample, however few.
	put("service.reactivate_ms_p50", "ms", median(react))
	p99, q, _ := percentile(react, 0.99)
	put("service.reactivate_ms_p99", "ms", p99)
	put("service.reactivate_p99_q", "ratio", q)
	return cpuPer, nil
}

// histQuantile estimates a quantile of a registry histogram by linear
// interpolation inside the bucket holding the rank.
func histQuantile(h obs.Metric, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Counts {
		if seen+float64(c) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := lo * 10
			if i < len(h.Bounds) {
				hi = h.Bounds[i]
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// sumHist adds up a histogram over several registries.
func sumHist(regs []*obs.Registry, name string) obs.Metric {
	var out obs.Metric
	for _, reg := range regs {
		h, ok := reg.Snapshot().Get(name)
		if !ok {
			continue
		}
		if out.Counts == nil {
			out.Bounds = h.Bounds
			out.Counts = make([]int64, len(h.Counts))
		}
		for i, c := range h.Counts {
			out.Counts[i] += c
		}
		out.Count += h.Count
	}
	return out
}

// streamRung drives the bulk closed loop over the RDTSTRM1 wire alone,
// with the workload's durability. It returns the CPU per acked event.
func streamRung(w workload, seed int64, root string, dur time.Duration, tr *tracer, parent uint64, put func(string, string, float64)) (float64, error) {
	w.members = 1
	dirs, err := memberDirs(w, root)
	if err != nil {
		return 0, err
	}
	r := newRun(w, seed+2_000_000)
	r.tr, r.bulkPrefix, r.parent = tr, "s", parent
	var rtt samples
	st, err := startStack(w, dirs, func(events int, d time.Duration) {
		r.onAck(events, d)
		rtt.add(time.Now(), us(d))
	})
	if err != nil {
		return 0, err
	}
	r.st = st
	defer st.stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bulkErr error
	finished := make(chan struct{})
	go func() { defer close(finished); bulkErr = r.bulk(ctx) }()
	select {
	case <-r.hw:
	case <-finished:
		return 0, bulkErr
	}
	mark := tr.count()
	win := window{start: time.Now()}
	cpu0, a0 := cpuTime(), r.bulkAcked.Load()
	time.Sleep(dur)
	win.end = time.Now()
	cpu, acked := cpuTime()-cpu0, r.bulkAcked.Load()-a0
	cancel()
	<-finished
	if bulkErr != nil {
		return 0, bulkErr
	}
	cpuPer := us(cpu) / float64(acked)
	put("stream.eps", "events/s", float64(acked)/win.end.Sub(win.start).Seconds())
	put("stream.cpu_us_per_event", "us/event", cpuPer)
	rtts := rtt.in(win)
	p50, _, _ := percentile(rtts, 0.5)
	p99, _, _ := percentile(append([]float64(nil), rtts...), 0.99)
	put("stream.ack_rtt_us_p50", "us", p50)
	put("stream.ack_rtt_us_p99", "us", p99)
	sends := tr.durationsSince(mark, "stream.Chan.Send")
	block, _, _ := percentile(sends, 0.99)
	put("stream.send_block_us_p99", "us", block)
	frames := st.members[0].reg.Snapshot().SumCounters("rdt_stream_frames_total")
	put("stream.frames_per_kevent", "1/kevent", float64(frames)/(float64(r.bulkAcked.Load())/1000))
	return cpuPer, nil
}

// httpRung is the JSON sibling of the stream rung: the same sessions
// posted as JSON batches over one keep-alive connection.
func httpRung(w workload, seed int64, root string, dur time.Duration, tr *tracer, parent uint64, put func(string, string, float64)) error {
	w.members = 1
	dirs, err := memberDirs(w, root)
	if err != nil {
		return err
	}
	m, err := startMember("h", dirs[0], false)
	if err != nil {
		return err
	}
	defer m.stop()
	hc := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	base := "http://" + m.hsrv.Addr()
	post := func(path string, body []byte) (int, error) {
		t := tr.begin()
		resp, err := hc.Post(base+path, "application/json", bytes.NewReader(body))
		tr.end("http.POST "+path, t, parent, 0)
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, nil
	}
	var accepted, attempts, refused int64
	begin := time.Now()
	for k := int64(1); time.Since(begin) < dur; k++ {
		id := fmt.Sprintf("h%d", k)
		body, _ := json.Marshal(map[string]any{"id": id, "n": w.procs})
		if code, err := post("/v1/sessions", body); err != nil || code != http.StatusCreated {
			return fmt.Errorf("create %s: status %d: %v", id, code, err)
		}
		gen, err := stream.NewTraffic(w.shape, w.procs, seed*1_000_003+int64(7_000_000)+k)
		if err != nil {
			return err
		}
		for sent := 0; sent < w.sessionEvents && time.Since(begin) < dur; sent += w.batch {
			evs := gen.Next(nil, min(w.batch, w.sessionEvents-sent))
			payload, err := json.Marshal(evs)
			if err != nil {
				return err
			}
			for {
				attempts++
				code, err := post("/v1/sessions/"+id+"/events", payload)
				if err != nil {
					return err
				}
				if code == http.StatusTooManyRequests {
					refused++
					time.Sleep(time.Millisecond)
					continue
				}
				if code != http.StatusAccepted {
					return fmt.Errorf("ingest %s: status %d", id, code)
				}
				accepted += int64(len(evs))
				break
			}
		}
		if code, err := post("/v1/sessions/"+id+"/seal", nil); err != nil || code != http.StatusOK {
			return fmt.Errorf("seal %s: status %d: %v", id, code, err)
		}
	}
	put("http.eps", "events/s", float64(accepted)/time.Since(begin).Seconds())
	put("http.refused_frac", "ratio", float64(refused)/float64(attempts))
	return nil
}

// shardRung runs the workload's bulk shape on two durable members with
// shard agents and times one member's removal and re-addition.
func shardRung(w workload, seed int64, root string, dur time.Duration, tr *tracer, parent uint64, put func(string, string, float64)) error {
	w.members, w.durable = 2, true
	dirs, err := memberDirs(w, root)
	if err != nil {
		return err
	}
	r := newRun(w, seed+3_000_000)
	r.tr, r.bulkPrefix, r.parent = tr, "c", parent
	st, err := startStack(w, dirs, r.onAck)
	if err != nil {
		return err
	}
	r.st = st
	defer st.stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bulkErr error
	finished := make(chan struct{})
	go func() { defer close(finished); bulkErr = r.bulk(ctx) }()
	select {
	case <-r.hw:
	case <-finished:
		return bulkErr
	}
	var rebalance []float64
	for _, in := range [][]*member{st.members[:1], st.members} {
		time.Sleep(dur / 3)
		t := tr.begin()
		d, err := st.adopt(in...)
		tr.end("shard.Node.AdoptRing+WaitRebalance", t, parent, 0)
		if err != nil {
			return err
		}
		rebalance = append(rebalance, ms(d))
	}
	time.Sleep(dur / 3)
	cancel()
	<-finished
	if bulkErr != nil {
		return bulkErr
	}
	regs := []*obs.Registry{st.members[0].reg, st.members[1].reg}
	var redirects, pulls, moved int64
	for _, reg := range regs {
		snap := reg.Snapshot()
		redirects += snap.CounterValue("rdt_shard_redirects_total")
		pulls += snap.CounterValue("rdt_shard_pulls_total")
		moved += snap.CounterValue("rdt_shard_handoffs_total", "direction", "out")
	}
	h := sumHist(regs, "rdt_shard_handoff_seconds")
	put("shard.rebalance_ms", "ms", (rebalance[0]+rebalance[1])/2)
	put("shard.handoff_ms_p50", "ms", 1000*histQuantile(h, 0.5))
	put("shard.handoff_ms_p99", "ms", 1000*histQuantile(h, 0.99))
	put("shard.redirects", "count", float64(redirects))
	put("shard.pulls", "count", float64(pulls))
	put("shard.resumes", "count", float64(r.resumes.Load()))
	put("shard.moved_sessions", "count", float64(moved))
	return nil
}
