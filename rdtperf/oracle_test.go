package main

import (
	"context"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/stream"
)

// sealedSession feeds rec's events to a fresh in-memory service and
// seals the session.
func sealedSession(t *testing.T, rec sessionRecord) *service.Session {
	t.Helper()
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	sess, err := svc.CreateSession(rec.id, rec.procs)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := stream.NewTraffic(rec.shape, rec.procs, rec.seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Enqueue(gen.Next(nil, rec.events)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestOracleAgreesWithService(t *testing.T) {
	for _, rec := range []sessionRecord{
		{id: "a", shape: "random", procs: 4, seed: 7, events: 300},
		{id: "b", shape: "ring", procs: 3, seed: 8, events: 200},
		{id: "c", shape: "random", procs: 8, seed: 9, events: 0},
	} {
		got, err := observed(sealedSession(t, rec))
		if err != nil {
			t.Fatal(err)
		}
		want, err := expected(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := compare(rec.id, got, want); err != nil {
			t.Error(err)
		}
	}
}

func TestOracleCatchesCorruptVerdict(t *testing.T) {
	rec := sessionRecord{id: "v", shape: "random", procs: 4, seed: 11, events: 400}
	got, err := observed(sealedSession(t, rec))
	if err != nil {
		t.Fatal(err)
	}
	want, err := expected(rec)
	if err != nil {
		t.Fatal(err)
	}
	if want.rdt || want.first == "" {
		t.Fatalf("seed chosen for a violating pattern, got %v", want)
	}
	corruptions := map[string]func(o *outcome){
		"verdict":         func(o *outcome) { o.rdt = !o.rdt },
		"rpath pairs":     func(o *outcome) { o.rpathPairs++ },
		"trackable pairs": func(o *outcome) { o.trackablePairs-- },
		"first violation": func(o *outcome) { o.first = "C{0,1} ~> C{1,1} untrackable" },
		"recovery line":   func(o *outcome) { o.line = append([]int(nil), o.line...); o.line[0]-- },
	}
	for name, corrupt := range corruptions {
		bad := got
		corrupt(&bad)
		if compare(rec.id, bad, want) == nil {
			t.Errorf("a corrupted %s went unnoticed", name)
		}
	}
	// A session fed other events than the record names disagrees too.
	other := rec
	other.events = 399
	wantOther, err := expected(other)
	if err != nil {
		t.Fatal(err)
	}
	if compare(rec.id, got, wantOther) == nil {
		t.Error("a session one event short of its record went unnoticed")
	}
}
