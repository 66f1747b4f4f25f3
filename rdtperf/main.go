// Command rdtperf is the repository benchmark: it starts the serving
// stack in-process through its public constructors, drives it from
// outside with seeded stream.Traffic, checks every sealed session
// against the batch checker, and prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash rdtperf/run.sh --workload short-mem --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the
// workload with call spans recorded, then the layer ladder
// (rgraph → service → wal → stream, the JSON sibling rung, and shard),
// and reports the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// setupRounds is how many times set-up is timed; the median is reported.
const setupRounds = 25

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdtperf:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rdtperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	fmt.Fprintln(out, w.describe())
	fmt.Fprintf(out, "seed %d, measured window %ds, trace %d\n", *seed, *seconds, *traced)

	root, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	res := result{Correct: true, Metrics: map[string]metric{}}
	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	m, r, err := measure(w, *seed, *seconds, root, tr, out)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = r.ops.totals()
	if *traced == 1 {
		layers, err := ladder(w, *seed, *seconds, root, tr, m, out)
		if err != nil {
			return err
		}
		res.Metrics = layers
		path := filepath.Join(buildDir(), fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", tr.count(), path)
	} else {
		res.Metrics = m.endToEnd()
	}
	if !m.valid {
		res.Correct = false
	}
	if res.Failed > 0 {
		res.Correct = false
		for _, f := range r.ops.failures() {
			fmt.Fprintln(out, "failure:", f)
		}
	}
	printMetrics(out, res.Metrics)
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// buildDir is where runs keep their data directories and span files.
func buildDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// measurement is what one workload execution measured.
type measurement struct {
	valid        bool
	ingestEPS    float64
	ackP50       float64
	ackP99       float64
	readP50      float64
	readP99      float64
	readP99Q     float64 // quantile read_p99_ms was taken at (percentile rule)
	cpuPerEvent  float64
	heapMB       float64
	setupS       float64
	diskPerEvent float64
	lateP99      float64
	errorFrac    float64

	// Traced runs split the window: the first half untraced, the second
	// traced, for the overhead figure.
	untracedEPS, tracedEPS float64
}

func (m measurement) endToEnd() map[string]metric {
	return map[string]metric{
		"ingest_eps":       {m.ingestEPS, "events/s"},
		"ack_p50_ms":       {m.ackP50, "ms"},
		"ack_p99_ms":       {m.ackP99, "ms"},
		"read_p50_ms":      {m.readP50, "ms"},
		"read_p99_ms":      {m.readP99, "ms"},
		"cpu_us_per_event": {m.cpuPerEvent, "us/event"},
		"heap_mb":          {m.heapMB, "MB"},
		"setup_s":          {m.setupS, "s"},
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

// measure runs the workload: timed set-up, warm-up to the high-water
// point, the measured window, drain, and the oracle.
func measure(w workload, seed int64, seconds int, root string, tr *tracer, out io.Writer) (measurement, *run, error) {
	var m measurement
	dirs, err := memberDirs(w, root)
	if err != nil {
		return m, nil, err
	}
	r := newRun(w, seed)
	r.tr = tr

	var setups []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		st, err := startStack(w, dirs, r.onAck)
		if err != nil {
			return m, nil, err
		}
		if err := st.firstAck(fmt.Sprintf("setup%d", i)); err != nil {
			_ = st.stop()
			return m, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRounds-1 {
			if err := st.stop(); err != nil {
				return m, nil, err
			}
			continue
		}
		r.st = st
	}
	m.setupS = median(setups)
	defer r.st.stop()

	r.maxReads = int(time.Duration(seconds+60)*time.Second/w.readEvery) + 1
	p, err := r.preopenProbes(seconds)
	if err != nil {
		return m, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var bulkErr, genErr error
	bulkDone := make(chan struct{})
	wg.Add(1)
	go func() { defer wg.Done(); defer close(bulkDone); bulkErr = r.bulk(ctx) }()

	// Warm-up: the first bulk generation reaches its high-water point
	// before the open-loop generator starts, so the heap is measured
	// with no read or probe in flight; then a second passes.
	select {
	case <-r.hw:
	case <-bulkDone:
		return m, nil, fmt.Errorf("bulk: %w", bulkErr)
	case <-time.After(120 * time.Second):
		cancel()
		wg.Wait()
		return m, nil, errors.New("no high-water point after 120s")
	}
	start := time.Now()
	wg.Add(1)
	go func() { defer wg.Done(); genErr = r.generate(ctx, p, start) }()
	time.Sleep(time.Second)
	m.heapMB = r.heapMB

	win := window{start: time.Now()}
	cpu0, acked0 := cpuTime(), r.bulkAcked.Load()
	total := time.Duration(seconds) * time.Second
	if tr != nil {
		// A traced run reports per-layer figures only; half the window
		// is enough for the overhead comparison and leaves time for the
		// ladder.
		total /= 2
	}
	var halfAt time.Time
	var ackedHalf int64
	if tr != nil {
		time.Sleep(total / 2)
		halfAt, ackedHalf = time.Now(), r.bulkAcked.Load()
		m.untracedEPS = float64(ackedHalf-acked0) / halfAt.Sub(win.start).Seconds()
		tr.on.Store(true)
	}
	time.Sleep(time.Until(win.start.Add(total)))
	win.end = time.Now()
	cpu1, acked1 := cpuTime(), r.bulkAcked.Load()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	fmt.Fprintf(out, "heap at window end: %.1f MB allocated, %.1f MB from the OS\n", float64(mst.HeapAlloc)/(1<<20), float64(mst.Sys)/(1<<20))
	if tr != nil {
		m.tracedEPS = float64(acked1-ackedHalf) / win.end.Sub(halfAt).Seconds()
	}
	cancel()
	wg.Wait()
	r.closePipe()
	if bulkErr != nil {
		return m, r, fmt.Errorf("bulk: %w", bulkErr)
	}
	if genErr != nil {
		return m, r, fmt.Errorf("generator: %w", genErr)
	}
	if err := r.collectProbes(); err != nil {
		return m, r, err
	}

	events := acked1 - acked0
	fmt.Fprintf(out, "bulk events acked in window: %d\n", events)
	m.valid = events > 0
	if m.valid {
		m.ingestEPS = float64(events) / win.end.Sub(win.start).Seconds()
		m.cpuPerEvent = us(cpu1-cpu0) / float64(events)
	}
	probes := r.probeLat.in(win)
	var q float64
	m.ackP50, _, _ = percentile(probes, 0.5)
	m.ackP99, q, _ = percentile(probes, 0.99)
	fmt.Fprintf(out, "probe batches in window: %d (ack p99 reported at q=%.4f)\n", len(probes), q)
	if len(probes) < 1000 {
		fmt.Fprintln(out, "invalid: fewer than 1000 probe batches, so p99 has fewer than 10 samples beyond it")
		m.valid = false
	}
	reads := r.readLat.in(win)
	m.readP50, _, _ = percentile(reads, 0.5)
	m.readP99, m.readP99Q, _ = percentile(reads, 0.99)
	fmt.Fprintf(out, "reads in window: %d (read p99 reported at q=%.4f)\n", len(reads), m.readP99Q)
	lates := r.late.in(win)
	m.lateP99, _, _ = percentile(lates, 0.99)
	scheduled := len(lates)
	fmt.Fprintf(out, "gen.late_ms_p99 %.4f ms over %d open-loop operations; backlog at window end %d\n", m.lateP99, scheduled, r.backlog)
	if r.backlog > int64(scheduled/20)+2 {
		fmt.Fprintln(out, "invalid: the open-loop generator fell behind its schedule")
		m.valid = false
	}

	var ingested int64 = setupRounds
	r.mu.Lock()
	for _, rec := range r.records {
		ingested += int64(rec.events)
	}
	r.mu.Unlock()
	m.diskPerEvent = float64(dirBytes(root)) / float64(ingested)

	r.oracle(out)
	attempted, failed := r.ops.totals()
	m.errorFrac = float64(failed) / float64(attempted)
	fmt.Fprintf(out, "error_frac %.6f (%d failed of %d attempted: %s)\n", m.errorFrac, failed, attempted, r.ops)
	fmt.Fprintf(out, "disk_bytes_per_event %.4f B/event (%d events ingested)\n", m.diskPerEvent, ingested)
	return m, r, nil
}

// collectProbes waits for the seal acks of the probe sessions and files
// them for the oracle.
func (r *run) collectProbes() error {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, s := range r.probeSealed {
		if err := r.flush(ctx, &s.ch, s.rec.req); err != nil {
			return fmt.Errorf("probe %s: %w", s.rec.id, err)
		}
		r.records = append(r.records, s.rec)
		_ = s.ch.Close()
	}
	return nil
}

// oracle checks every sealed session against the batch checker, two
// sessions at a time, evicting each once checked so memory stays
// bounded.
func (r *run) oracle(out io.Writer) {
	start := time.Now()
	next := make(chan sessionRecord)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range next {
				_ = r.ops.done(opOracle, r.check(rec))
			}
		}()
	}
	for _, rec := range r.records {
		next <- rec
	}
	close(next)
	wg.Wait()
	fmt.Fprintf(out, "oracle: %d sessions checked against batch CheckRDT in %s (%d older in-memory sessions evicted unchecked to bound memory)\n",
		len(r.records), time.Since(start).Round(time.Millisecond), r.unchecked)
}

// check compares one sealed session with the batch oracle.
func (r *run) check(rec sessionRecord) error {
	m := r.st.members[0]
	sess, err := m.svc.Session(rec.id)
	if err != nil {
		return err
	}
	defer m.svc.Evict(rec.id, "passivate")
	got, err := observed(sess)
	if err != nil {
		return err
	}
	want, err := expected(rec)
	if err != nil {
		return err
	}
	return compare(rec.id, got, want)
}
