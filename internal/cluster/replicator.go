package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	mmdb "repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// WAL shipping, node side. A Replicator owns one database's replication
// role: as a follower it runs the tail loop — pull durable frames from the
// leader's log, apply them through the idempotent redo machinery, advance
// the applied cursor — and as a leader it is passive (the database's own
// WAL serves tails). The same runtime backs both transports: in-process
// replica sets hand it the leader node directly, `esidb serve -replica-of`
// hands it an HTTP connection to the leader process.
//
// LSN contract: LSNs are per-leader. A follower's applied LSN is a cursor
// into the *current* leader's log, nothing more. When the leader changes
// (promotion) or the cursor falls below the leader's checkpoint floor
// (ErrWALTruncated), the follower re-seeds: snapshot-copy the leader's
// objects, then tail from the floor sampled before the copy began. The
// copy/replay overlap is harmless because every record carries its full
// post-state and replays idempotently.

// LeaderConn is what a follower needs from its leader: the snapshot read
// surface plus the log tail. Both transports provide it — an in-process
// replica node directly, an HTTP replica via internal/client.
type LeaderConn interface {
	Shard
	// WALTail serves durable log frames above the cursor (long-polling up
	// to wait), mmdb.ErrWALTruncated below the checkpoint floor.
	WALTail(ctx context.Context, from uint64, max int, wait time.Duration) (mmdb.WALTailResult, error)
	// WALStatus snapshots the leader's log counters (durable horizon,
	// checkpoint floor).
	WALStatus(ctx context.Context) (mmdb.WALStats, error)
}

// ReplStatus is one replica's replication state, served over
// /v1/replication and folded into routing and promotion decisions.
type ReplStatus struct {
	ID string `json:"id,omitempty"`
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// Leader names the leader this replica follows (followers only).
	Leader string `json:"leader,omitempty"`
	// AppliedLSN is the last leader LSN applied locally (followers); for a
	// leader it equals DurableLSN.
	AppliedLSN uint64 `json:"applied_lsn"`
	// LeaderLSN is the leader's durable horizon as of the last tail page —
	// Lag = LeaderLSN - AppliedLSN.
	LeaderLSN uint64 `json:"leader_lsn"`
	Lag       uint64 `json:"lag"`
	// DurableLSN and BaseLSN describe this replica's *own* log (the tail
	// surface it would serve if promoted).
	DurableLSN uint64 `json:"durable_lsn"`
	BaseLSN    uint64 `json:"base_lsn"`
	// Resyncs counts snapshot re-seeds (bootstrap, truncation, retarget).
	Resyncs int64 `json:"resyncs"`
	// Epoch increments on every role or leader change.
	Epoch int64 `json:"epoch"`
}

// RoleLeader and RoleFollower are the ReplStatus.Role values.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
)

// Replicator drives one database's replication role. Safe for concurrent
// use; the tail loop runs on its own goroutine per Follow call, retired by
// epoch when the role changes.
type Replicator struct {
	id string
	db *mmdb.DB

	// Tunables (set before the first Follow; tests shrink them).
	PollWait time.Duration // leader long-poll window per tail call
	Backoff  time.Duration // sleep after a leader error

	ctx    context.Context
	cancel context.CancelFunc

	mu         sync.Mutex
	leader     LeaderConn    // guarded by mu; nil while leader
	leaderName string        // guarded by mu
	epoch      int64         // guarded by mu; bumps retire old loops
	cursor     uint64        // guarded by mu; published via advanceCursor, Follow
	wake       chan struct{} // guarded by mu

	// applied mirrors cursor for lock-free readers.
	// published via advanceCursor, Follow
	applied atomic.Uint64
	// leaderLSN is the leader durable horizon from the last tail page.
	// published via storeLeaderLSN, Follow
	leaderLSN atomic.Uint64
	// resyncs counts snapshot re-seeds.
	// published via resync
	resyncs atomic.Int64
	paused  atomic.Bool

	lagGauge  *obs.Gauge
	roleGauge *obs.Gauge
}

// NewReplicator wraps db as replica id, initially in the leader role
// (following nobody). ctx bounds every background loop the replicator ever
// starts.
func NewReplicator(ctx context.Context, id string, db *mmdb.DB) *Replicator {
	rctx, cancel := context.WithCancel(ctx)
	reg := obs.Default()
	r := &Replicator{
		id:        id,
		db:        db,
		PollWait:  2 * time.Second,
		Backoff:   50 * time.Millisecond,
		ctx:       rctx,
		cancel:    cancel,
		wake:      make(chan struct{}),
		lagGauge:  reg.Gauge(fmt.Sprintf("esidb_replica_lag{replica=%q}", id)),
		roleGauge: reg.Gauge(fmt.Sprintf("esidb_replica_role{replica=%q}", id)),
	}
	r.roleGauge.Set(1)
	return r
}

// ID returns the replica id.
func (r *Replicator) ID() string { return r.id }

// DB exposes the replicated database.
func (r *Replicator) DB() *mmdb.DB { return r.db }

// Stop retires every loop. The database itself stays open.
func (r *Replicator) Stop() { r.cancel() }

// Follow (re)targets the replicator at a leader and starts the tail loop.
// The previous loop, if any, retires at its next epoch check. The cursor
// resets: against a new leader the old cursor means nothing (LSNs are
// per-leader), and tailing from zero either replays the new leader's
// retained log idempotently or trips ErrWALTruncated into a full resync.
func (r *Replicator) Follow(leaderName string, conn LeaderConn) {
	r.mu.Lock()
	r.epoch++
	e := r.epoch
	r.leader, r.leaderName = conn, leaderName
	r.cursor = 0
	r.applied.Store(0)
	r.leaderLSN.Store(0) // the old leader's horizon means nothing here
	r.roleGauge.Set(0)
	r.mu.Unlock()
	go r.tailLoop(e, conn)
}

// Promote makes this replica a leader: the tail loop retires and the
// database's own WAL becomes the authoritative log. Idempotent.
func (r *Replicator) Promote() {
	r.mu.Lock()
	if r.leader != nil {
		r.epoch++
		r.leader, r.leaderName = nil, ""
	}
	r.roleGauge.Set(1)
	r.lagGauge.Set(0)
	r.mu.Unlock()
	r.notify()
}

// Pause suspends the tail loop without retargeting it — the follower
// stops applying and falls behind the leader. Fault-injection hook for
// freshness-bound tests; Resume lets it catch back up.
func (r *Replicator) Pause() { r.paused.Store(true) }

// Resume undoes Pause.
func (r *Replicator) Resume() { r.paused.Store(false) }

// notify wakes WaitApplied callers after the applied cursor (or role)
// changes.
func (r *Replicator) notify() {
	r.mu.Lock()
	close(r.wake)
	r.wake = make(chan struct{})
	r.mu.Unlock()
}

// current reports whether epoch e is still the live loop.
func (r *Replicator) current(e int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch == e && r.ctx.Err() == nil
}

// Status snapshots the replica's replication state.
func (r *Replicator) Status() ReplStatus {
	r.mu.Lock()
	leaderName := r.leaderName
	follower := r.leader != nil
	r.mu.Unlock()
	st := ReplStatus{ID: r.id, Role: RoleLeader, Resyncs: r.resyncs.Load()}
	if wst, ok := r.db.WALStats(); ok {
		st.DurableLSN, st.BaseLSN = wst.DurableLSN, wst.BaseLSN
	}
	r.mu.Lock()
	st.Epoch = r.epoch
	r.mu.Unlock()
	if !follower {
		st.AppliedLSN, st.LeaderLSN = st.DurableLSN, st.DurableLSN
		return st
	}
	st.Role, st.Leader = RoleFollower, leaderName
	st.AppliedLSN = r.applied.Load()
	st.LeaderLSN = r.leaderLSN.Load()
	if st.LeaderLSN > st.AppliedLSN {
		st.Lag = st.LeaderLSN - st.AppliedLSN
	}
	return st
}

// WaitApplied blocks until the replica has applied at least lsn of its
// leader's log, the wait elapses, or ctx is done. It returns the status at
// return time; the caller checks AppliedLSN — an elapsed wait is not an
// error. A leader returns immediately, but its AppliedLSN is its *own*
// durable LSN — a different LSN space from the lsn argument — so callers
// comparing against another leader's LSN must check Role before trusting
// the comparison (ReplicaSet.ackWrite does). This is the semi-synchronous
// ack seam: a replicated write is acknowledged once some follower's
// WaitApplied(write LSN) returns satisfied.
func (r *Replicator) WaitApplied(ctx context.Context, lsn uint64, wait time.Duration) (ReplStatus, error) {
	var deadline <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		deadline = t.C
	}
	for {
		st := r.Status()
		if st.Role == RoleLeader || st.AppliedLSN >= lsn {
			return st, nil
		}
		r.mu.Lock()
		wake := r.wake
		r.mu.Unlock()
		// Re-check after capturing the channel so an advance between the
		// status read and the capture cannot be missed.
		if r.applied.Load() >= lsn {
			return r.Status(), nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-r.ctx.Done():
			return st, r.ctx.Err()
		case <-deadline:
			return r.Status(), nil
		case <-wake:
		}
	}
}

// tailLoop is the follower's life: pull a page, apply it, advance, repeat.
// Truncation (and any apply failure) heals through a full resync. The loop
// retires silently when its epoch is superseded or the replicator stops.
func (r *Replicator) tailLoop(e int64, leader LeaderConn) {
	for r.current(e) {
		if r.paused.Load() {
			// Keep the lag view honest while applying is suspended: poll
			// the leader's durable horizon without consuming frames.
			if wst, err := leader.WALStatus(r.ctx); err == nil {
				if !r.storeLeaderLSN(e, wst.DurableLSN) {
					return
				}
				r.publishLag()
			}
			r.sleep()
			continue
		}
		r.mu.Lock()
		cursor := r.cursor
		r.mu.Unlock()
		res, err := leader.WALTail(r.ctx, cursor, store.DefaultTailBatch, r.PollWait)
		if !r.current(e) {
			return
		}
		switch {
		case err == nil:
			if applyErr := r.applyPage(e, res); applyErr != nil {
				// A record that does not apply cleanly means the cursor and
				// the snapshot disagree; re-seed rather than diverge.
				if !r.resyncOrBackoff(e, leader) {
					return
				}
			}
		case errors.Is(err, store.ErrWALTruncated):
			if !r.resyncOrBackoff(e, leader) {
				return
			}
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			if r.ctx.Err() != nil {
				return
			}
			r.sleep()
		default:
			// Leader unreachable (or closed): keep trying until promotion
			// retires this epoch.
			r.sleep()
		}
	}
}

// applyPage applies one tail page and advances the cursor. Partial
// progress is kept — the cursor moves per frame, so a failure resumes (or
// resyncs) from the exact frame that failed.
func (r *Replicator) applyPage(e int64, res mmdb.WALTailResult) error {
	if !r.storeLeaderLSN(e, res.DurableLSN) {
		return nil
	}
	for _, fr := range res.Frames {
		if !r.current(e) {
			return nil
		}
		if r.paused.Load() {
			// Frame-granular pause: unapplied frames stay behind the
			// cursor and re-read on resume.
			r.publishLag()
			return nil
		}
		if err := r.db.ApplyRedoRecord(r.ctx, fr.Payload); err != nil {
			r.publishLag()
			return err
		}
		if !r.advanceCursor(e, fr.LSN) {
			return nil
		}
		r.notify()
	}
	r.publishLag()
	return nil
}

// advanceCursor publishes one applied frame for epoch e. The epoch check
// and the stores share the critical section, so a retired loop (or a
// resync racing a Follow) can never publish its cursor or applied counter
// into the next epoch's state. Reports whether the advance ran.
func (r *Replicator) advanceCursor(e int64, lsn uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.epoch != e {
		return false
	}
	r.cursor = lsn
	r.applied.Store(lsn)
	return true
}

// storeLeaderLSN publishes the leader's durable horizon for epoch e under
// the same guard (a retired loop must not overwrite the live epoch's lag
// view). Reports whether the store ran.
func (r *Replicator) storeLeaderLSN(e int64, lsn uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.epoch != e {
		return false
	}
	r.leaderLSN.Store(lsn)
	return true
}

func (r *Replicator) publishLag() {
	applied, leader := r.applied.Load(), r.leaderLSN.Load()
	if leader > applied {
		r.lagGauge.Set(float64(leader - applied))
	} else {
		r.lagGauge.Set(0)
	}
}

// resyncOrBackoff runs a snapshot resync, sleeping on failure. Returns
// false when the loop should retire.
func (r *Replicator) resyncOrBackoff(e int64, leader LeaderConn) bool {
	if err := r.resync(e, leader); err != nil {
		if !r.current(e) {
			return false
		}
		r.sleep()
	}
	return r.current(e)
}

func (r *Replicator) sleep() {
	select {
	case <-r.ctx.Done():
	case <-time.After(r.Backoff):
	}
}

// resync re-seeds the follower from a leader snapshot: sample the
// checkpoint floor first, copy every object, then tail from the floor.
// Records between the floor sample and the copy's reads are either visible
// to the copy or replayed from the log afterwards — both end in the same
// state because records are idempotent and carry their full post-state.
func (r *Replicator) resync(e int64, leader LeaderConn) error {
	if !r.current(e) {
		return nil
	}
	ctx := r.ctx
	wst, err := leader.WALStatus(ctx)
	if err != nil {
		return err
	}
	from := wst.BaseLSN
	metas, err := leader.List(ctx)
	if err != nil {
		return err
	}
	onLeader := make(map[uint64]bool, len(metas))
	for _, m := range metas {
		onLeader[m.ID] = true
	}
	// Drop every local edited object: UpdateSeq mutations below the floor
	// are invisible to the tail, so a kept edited object could be stale.
	// (Binaries are immutable after insert — present means current.)
	for _, id := range r.db.EditedIDs() {
		if err := r.db.DeleteCtx(ctx, id); err != nil {
			return fmt.Errorf("cluster: resync drop edited %d: %w", id, err)
		}
	}
	for _, id := range r.db.Binaries() {
		if !onLeader[id] {
			if err := r.db.DeleteCtx(ctx, id); err != nil {
				return fmt.Errorf("cluster: resync drop binary %d: %w", id, err)
			}
		}
	}
	// Copy binaries first (edited sequences reference them), each kind in
	// ascending id order for determinism. An object deleted on the leader
	// mid-copy reads as not-found; skipping it is correct — its delete
	// record is above the floor and replays from the tail.
	sort.Slice(metas, func(i, j int) bool {
		bi, bj := metas[i].Kind == "binary", metas[j].Kind == "binary"
		if bi != bj {
			return bi
		}
		return metas[i].ID < metas[j].ID
	})
	local := make(map[uint64]bool)
	for _, id := range r.db.Binaries() {
		local[id] = true
	}
	for _, m := range metas {
		if !r.current(e) {
			return nil
		}
		if m.Kind == "binary" {
			if local[m.ID] {
				continue
			}
			img, err := leader.Image(ctx, m.ID)
			if err != nil {
				if isQueryError(err) {
					continue // deleted on the leader mid-copy
				}
				return err
			}
			if _, err := r.db.InsertImageCtx(ctx, m.Name, img, mmdb.WithID(m.ID), mmdb.WithNoAugment()); err != nil {
				return fmt.Errorf("cluster: resync binary %d: %w", m.ID, err)
			}
			continue
		}
		meta, seq, err := leader.Object(ctx, m.ID)
		if err != nil {
			if isQueryError(err) {
				continue
			}
			return err
		}
		if seq == nil {
			return fmt.Errorf("cluster: resync edited %d: leader returned no sequence", m.ID)
		}
		if _, err := r.db.InsertEditedCtx(ctx, meta.Name, seq, mmdb.WithID(m.ID)); err != nil {
			return fmt.Errorf("cluster: resync edited %d: %w", m.ID, err)
		}
	}
	// A Follow or Promote superseding this resync mid-copy retires it here:
	// publishing its counters would let the retired leader's floor LSN
	// satisfy WaitApplied against the new epoch's log.
	if !r.advanceCursor(e, from) || !r.storeLeaderLSN(e, wst.DurableLSN) {
		return nil
	}
	r.resyncs.Add(1)
	mResyncs.Inc()
	r.notify()
	return nil
}
