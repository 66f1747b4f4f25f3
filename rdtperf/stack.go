package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/shard"
	"github.com/rdt-go/rdt/internal/stream"
)

// member is one in-process daemon: a service with its HTTP API and
// stream listener, plus a shard agent when the stack is a cluster.
type member struct {
	name string
	dir  string
	reg  *obs.Registry
	svc  *service.Service
	node *shard.Node
	hsrv *service.Server
	ssrv *stream.Server
}

func startMember(name, dir string, sharded bool) (*member, error) {
	reg := obs.NewRegistry()
	svc, err := service.New(service.Config{DataDir: dir, Registry: reg})
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	m := &member{name: name, dir: dir, reg: reg, svc: svc}
	if dir != "" {
		if _, err := svc.Recover(); err != nil {
			m.stop()
			return nil, fmt.Errorf("recover %s: %w", name, err)
		}
	}
	if sharded {
		node, err := shard.NewNode(shard.NodeConfig{Self: name, Service: svc, Registry: reg})
		if err != nil {
			m.stop()
			return nil, err
		}
		m.node = node
		mux := http.NewServeMux()
		node.Register(mux)
		mux.Handle("/", service.NewHandler(svc))
		m.hsrv, err = service.ServeHandler("127.0.0.1:0", mux)
	} else {
		m.hsrv, err = service.Serve("127.0.0.1:0", svc)
	}
	if err != nil {
		m.stop()
		return nil, err
	}
	if m.ssrv, err = stream.Serve("127.0.0.1:0", stream.Config{Service: svc, Registry: reg}); err != nil {
		m.stop()
		return nil, err
	}
	return m, nil
}

func (m *member) shardMember() shard.Member {
	return shard.Member{Name: m.name, HTTP: m.hsrv.Addr(), Stream: m.ssrv.Addr()}
}

// stop closes the listeners and drains the service, which releases the
// data directory for the next start.
func (m *member) stop() error {
	if m.node != nil {
		m.node.WaitRebalance()
	}
	if m.ssrv != nil {
		_ = m.ssrv.Close()
	}
	if m.hsrv != nil {
		_ = m.hsrv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return m.svc.Drain(ctx)
}

// stack is the serving side of one run plus the client's stream pool,
// one connection per daemon. The run's reads use one more, an HTTP
// keep-alive connection (pipeConn).
type stack struct {
	members []*member
	pool    *stream.Pool
	epoch   uint64
}

// startStack builds the workload's daemons on dirs (one per member;
// "" for in-memory) and adopts a ring naming every member.
func startStack(w workload, dirs []string, ackObs func(int, time.Duration)) (*stack, error) {
	st := &stack{}
	for i := 0; i < w.members; i++ {
		m, err := startMember(fmt.Sprintf("m%d", i), dirs[i], w.members > 1)
		if err != nil {
			st.stop()
			return nil, err
		}
		st.members = append(st.members, m)
	}
	if w.members > 1 {
		if _, err := st.adopt(st.members...); err != nil {
			st.stop()
			return nil, err
		}
	}
	endpoints := make([]string, len(st.members))
	for i, m := range st.members {
		endpoints[i] = m.ssrv.Addr()
	}
	st.pool = stream.NewPool(endpoints, stream.WithAckObserver(ackObs))
	return st, nil
}

// adopt installs a new ring epoch naming the given members on every
// member of the stack, waits for the resulting handoffs, and returns
// how long that took.
func (st *stack) adopt(in ...*member) (time.Duration, error) {
	st.epoch++
	ms := make([]shard.Member, len(in))
	for i, m := range in {
		ms[i] = m.shardMember()
	}
	ring, err := shard.New(st.epoch, 0, ms)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, m := range st.members {
		if _, err := m.node.AdoptRing(ring); err != nil {
			return 0, fmt.Errorf("adopt ring on %s: %w", m.name, err)
		}
	}
	for _, m := range st.members {
		m.node.WaitRebalance()
	}
	return time.Since(start), nil
}

func (st *stack) stop() error {
	if st.pool != nil {
		_ = st.pool.Close()
	}
	var first error
	for _, m := range st.members {
		if err := m.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// firstAck opens a session and waits for one event's ack: the moment
// the stack demonstrably accepts work.
func (st *stack) firstAck(id string) error {
	ch, _, err := st.pool.Open(id, 2, "setup")
	if err != nil {
		return fmt.Errorf("setup open: %w", err)
	}
	if err := ch.Send([]service.Event{{Op: service.OpCheckpoint, Proc: 0}}); err != nil {
		return fmt.Errorf("setup send: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ch.Flush(ctx); err != nil {
		return fmt.Errorf("setup flush: %w", err)
	}
	return ch.Close()
}

// memberDirs returns the data directories for the workload's members
// under root ("" each when the workload is in memory).
func memberDirs(w workload, root string) ([]string, error) {
	dirs := make([]string, w.members)
	if !w.durable {
		return dirs, nil
	}
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("m%d", i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	_ = filepath.WalkDir(root, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
