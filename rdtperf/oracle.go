package main

import (
	"fmt"
	"slices"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/stream"
)

// sessionRecord is everything needed to regenerate a session's events:
// the generator's parameters and how many events were sent.
type sessionRecord struct {
	id     string
	req    uint64 // request id of the session's spans
	shape  string
	procs  int
	seed   int64
	events int
}

// outcome is the part of a sealed session's state the oracle compares.
type outcome struct {
	rdt            bool
	rpathPairs     int
	trackablePairs int
	first          string // first violation, "" when RDT holds
	line           []int  // recovery line
}

func (o outcome) String() string {
	return fmt.Sprintf("rdt=%v rpaths=%d trackable=%d first=%q line=%v",
		o.rdt, o.rpathPairs, o.trackablePairs, o.first, o.line)
}

// expected replays the record's events into a model.Builder mirror,
// finalizes it the way seal does (in-flight messages dropped, event-
// bearing intervals closed), and asks the batch checker for the
// verdict and the recovery line below each process's last checkpoint.
func expected(rec sessionRecord) (outcome, error) {
	tr, err := stream.NewTraffic(rec.shape, rec.procs, rec.seed)
	if err != nil {
		return outcome{}, err
	}
	b := model.NewBuilder(rec.procs)
	handles := make(map[int]int)
	for _, ev := range tr.Next(nil, rec.events) {
		switch ev.Op {
		case service.OpCheckpoint:
			b.Checkpoint(model.ProcID(ev.Proc), model.KindBasic, nil)
		case service.OpSend:
			handles[ev.Msg] = b.Send(model.ProcID(ev.Proc), model.ProcID(ev.Peer))
		case service.OpDeliver:
			if err := b.Deliver(handles[ev.Msg]); err != nil {
				return outcome{}, err
			}
			delete(handles, ev.Msg)
		}
	}
	p, _, err := b.FinalizeLossy()
	if err != nil {
		return outcome{}, err
	}
	rep, err := rgraph.CheckRDT(p, 1)
	if err != nil {
		return outcome{}, err
	}
	bounds := make(model.GlobalCheckpoint, p.N)
	for i := range bounds {
		bounds[i] = len(p.Checkpoints[i]) - 1
	}
	line, err := rgraph.RecoveryLine(p, bounds)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{rdt: rep.RDT, rpathPairs: rep.RPathPairs, trackablePairs: rep.TrackablePairs, line: line}
	if len(rep.Violations) > 0 {
		o.first = rep.Violations[0].String()
	}
	return o, nil
}

// observed reads a sealed session's verdict and recovery line.
func observed(sess *service.Session) (outcome, error) {
	v := sess.Verdict(1)
	if v.State != service.StateSealed {
		return outcome{}, fmt.Errorf("session %s is %s, not sealed (%s)", sess.ID, v.State, v.Error)
	}
	plan, err := sess.Line()
	if err != nil {
		return outcome{}, err
	}
	o := outcome{rdt: v.RDT, rpathPairs: v.RPathPairs, trackablePairs: v.TrackablePairs, line: plan.Line}
	if v.FirstViolation != nil {
		o.first = v.FirstViolation.String
	}
	return o, nil
}

// compare returns an error naming the first field where the service
// disagrees with the batch oracle.
func compare(id string, got, want outcome) error {
	if got.rdt != want.rdt || got.rpathPairs != want.rpathPairs ||
		got.trackablePairs != want.trackablePairs || got.first != want.first ||
		!slices.Equal(got.line, want.line) {
		return fmt.Errorf("session %s: service %v, batch oracle %v", id, got, want)
	}
	return nil
}
