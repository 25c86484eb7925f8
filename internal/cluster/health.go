package cluster

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
)

// State is a shard's health as the coordinator sees it.
type State int32

const (
	// StateUp: last probe (or query) succeeded.
	StateUp State = iota
	// StateSuspect: recent failures, but not enough to write the shard off;
	// it is still queried.
	StateSuspect
	// StateDown: failures past the threshold. While the health loop is
	// running, queries skip Down shards outright (they count as missed
	// without burning the retry budget); the loop keeps probing so a
	// revived shard comes back automatically.
	StateDown
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// gaugeValue is what the esidb_cluster_shard_up gauge publishes: 1 up,
// 0.5 suspect, 0 down.
func (s State) gaugeValue() float64 {
	switch s {
	case StateUp:
		return 1
	case StateSuspect:
		return 0.5
	default:
		return 0
	}
}

// Consecutive-failure thresholds: one failure makes a shard suspect,
// three make it down.
const (
	suspectAfter = 1
	downAfter    = 3
)

// stateMachine tracks consecutive failures and derives the health state.
// It is written from query goroutines and the health loop concurrently,
// so everything is atomic.
type stateMachine struct {
	fails atomic.Int32
	state atomic.Int32
}

func newStateMachine() *stateMachine { return &stateMachine{} }

func (m *stateMachine) current() State { return State(m.state.Load()) }

func (m *stateMachine) success() {
	m.fails.Store(0)
	m.state.Store(int32(StateUp))
}

func (m *stateMachine) failure() {
	n := m.fails.Add(1)
	switch {
	case n >= downAfter:
		m.state.Store(int32(StateDown))
	case n >= suspectAfter:
		m.state.Store(int32(StateSuspect))
	}
}

func (c *shardConn) noteSuccess() {
	c.state.success()
	c.publish()
}

func (c *shardConn) noteFailure() {
	c.state.failure()
	c.publish()
}

func (c *shardConn) publish() {
	c.up.Set(c.state.current().gaugeValue())
}

// healthState is the coordinator-wide flag: Down-shard skipping only
// activates once a health loop is probing, so a coordinator without one
// can never permanently write a shard off.
type healthState struct{ on atomic.Bool }

func newHealthState() *healthState      { return &healthState{} }
func (h *healthState) active() bool     { return h.on.Load() }
func (h *healthState) setActive(v bool) { h.on.Store(v) }

// nowFunc is stubbed in tests.
var nowFunc = time.Now

// Health reports every shard's current state, keyed by shard id.
func (c *Coordinator) Health() map[string]State {
	out := make(map[string]State, len(c.conns))
	for _, cc := range c.conns {
		out[cc.shard.ID()] = cc.state.current()
	}
	return out
}

// CheckNow pings every shard once (concurrently) and folds the outcomes
// into their health states. It returns the post-probe states.
func (c *Coordinator) CheckNow(ctx context.Context) map[string]State {
	done := make(chan struct{})
	for _, cc := range c.conns {
		go func(cc *shardConn) {
			defer func() { done <- struct{}{} }()
			pctx, cancel := context.WithTimeout(ctx, c.pol.Timeout)
			defer cancel()
			if err := cc.shard.Ping(pctx); err != nil {
				cc.noteFailure()
			} else {
				cc.noteSuccess()
			}
		}(cc)
	}
	for range c.conns {
		<-done
	}
	return c.Health()
}

// StartHealth runs the background checker: an immediate probe, then one
// every interval until ctx is canceled. While it runs, queries skip Down
// shards (reported as missed). Call it once per coordinator.
func (c *Coordinator) StartHealth(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	c.health.setActive(true)
	c.CheckNow(ctx)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				c.health.setActive(false)
				return
			case <-t.C:
				c.CheckNow(ctx)
			}
		}
	}()
}

// DownShards lists shards currently considered down, sorted.
func (c *Coordinator) DownShards() []string {
	var out []string
	for id, st := range c.Health() {
		if st == StateDown {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
