package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix. Every session's events come from
// stream.NewTraffic(shape, procs, seed) with a seed derived from the
// run's --seed, so the same seed drives the same events.
type workload struct {
	name string
	why  string

	durable bool // sessions live under a data directory (WAL + fsync)
	members int  // daemons; 2 means a sharded cluster with shard.Node

	// Bulk: a closed loop keeping every open session's credit window
	// full. Sessions run to sessionEvents, are sealed, and are replaced.
	shape         string
	procs         int
	bulkSessions  int
	sessionEvents int
	batch         int

	// Probe: an open loop sending probeBatch events every probeEvery on
	// its own short sessions (probeSessionBatches batches each) over the
	// same stream connection as the bulk load.
	probeEvery          time.Duration
	probeSessionBatches int

	// Readers: an open loop issuing one GET verdict|line|explain every
	// readEvery on live bulk sessions, cycling through readKinds.
	readEvery time.Duration
	readKinds []string
}

// probeBatch sizes differ from every bulk batch size: the ack observer
// tells probe frames from bulk frames by their event count.
const probeBatch = 5

var workloads = []workload{
	{
		name:    "short-mem",
		why:     "in-memory 8-proc random sessions of 2048 events, batches of 128: wire, admission and session bookkeeping dominate; the checker stays cheap and no disk is touched",
		members: 1,
		shape:   "random", procs: 8, bulkSessions: 8, sessionEvents: 2048, batch: 128,
		probeEvery: 5 * time.Millisecond, probeSessionBatches: 64,
		readEvery: 10 * time.Millisecond, readKinds: []string{"verdict", "line", "explain"},
	},
	{
		name:    "long-mem",
		why:     "in-memory, 4 concurrent 8-proc sessions driven to 16384 events: checker closure growth is most of the CPU, reads contend for the session lock, the probe sees head-of-line blocking",
		members: 1,
		shape:   "random", procs: 8, bulkSessions: 4, sessionEvents: 16384, batch: 128,
		probeEvery: 5 * time.Millisecond, probeSessionBatches: 64,
		readEvery: 300 * time.Millisecond, readKinds: []string{"verdict", "line", "explain", "line"},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// describe is the provenance line printed at the start of every run.
func (w workload) describe() string {
	return fmt.Sprintf("workload %s: in memory; closed-loop bulk %d x %s/%d-proc sessions of %d events in batches of %d (credit window full); "+
		"probe open loop %d events every %s, %d batches per session; readers open loop every %s over %v on live bulk sessions",
		w.name, w.bulkSessions, w.shape, w.procs, w.sessionEvents, w.batch,
		probeBatch, w.probeEvery, w.probeSessionBatches, w.readEvery, w.readKinds)
}
