package cluster

import (
	"context"
	"errors"
	"sync/atomic"

	mmdb "repro"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/store"
)

// InProc is the embedded transport: the shard is a *mmdb.DB in this
// process. It backs single-binary cluster deployments, the coordinator
// tests and the benchmark harness's replicated cluster. Calls are
// synchronous; the context is honored at call boundaries (an embedded query
// is not interruptible mid-walk, same as single-node).
type InProc struct {
	id     string
	db     *mmdb.DB
	killed atomic.Bool
}

// NewInProc wraps db as the shard named id.
func NewInProc(id string, db *mmdb.DB) *InProc {
	return &InProc{id: id, db: db}
}

// DB exposes the embedded database (bench harnesses seed shards directly).
func (s *InProc) DB() *mmdb.DB { return s.db }

// Kill marks the shard dead: every subsequent call fails with
// store.ErrClosed, exactly how a closed database presents. Tests use it to
// exercise degraded mode without tearing down real processes.
func (s *InProc) Kill() { s.killed.Store(true) }

// Revive undoes Kill (health-recovery tests).
func (s *InProc) Revive() { s.killed.Store(false) }

func (s *InProc) check(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.killed.Load() {
		return store.ErrClosed
	}
	return nil
}

// ID implements Shard.
func (s *InProc) ID() string { return s.id }

// Ping implements Shard.
func (s *InProc) Ping(ctx context.Context) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	_, err := s.db.Stats()
	return err
}

// InsertImage implements Shard.
func (s *InProc) InsertImage(ctx context.Context, id uint64, name string, img *mmdb.Image) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	_, err := s.db.InsertImageCtx(ctx, name, img, mmdb.WithID(id), mmdb.WithNoAugment())
	return markQueryError(err)
}

// InsertSequence implements Shard.
func (s *InProc) InsertSequence(ctx context.Context, id uint64, name string, seq *mmdb.Sequence) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	_, err := s.db.InsertEditedCtx(ctx, name, seq, mmdb.WithID(id))
	return markQueryError(err)
}

// HasObject implements Shard.
func (s *InProc) HasObject(ctx context.Context, id uint64) (bool, error) {
	if err := s.check(ctx); err != nil {
		return false, err
	}
	_, err := s.db.Get(id)
	if errors.Is(err, catalog.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, markQueryError(err)
	}
	return true, nil
}

// Object implements Shard.
func (s *InProc) Object(ctx context.Context, id uint64) (*ObjectMeta, *mmdb.Sequence, error) {
	if err := s.check(ctx); err != nil {
		return nil, nil, err
	}
	obj, err := s.db.Get(id)
	if err != nil {
		return nil, nil, markQueryError(err)
	}
	meta := &ObjectMeta{ID: obj.ID, Kind: obj.Kind.String(), Name: obj.Name}
	var seq *mmdb.Sequence
	if obj.Kind == mmdb.KindEdited {
		meta.BaseID = obj.Seq.BaseID
		seq = obj.Seq.Clone()
	}
	return meta, seq, nil
}

// Image implements Shard.
func (s *InProc) Image(ctx context.Context, id uint64) (*mmdb.Image, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	img, err := s.db.Image(id)
	return img, markQueryError(err)
}

// List implements Shard.
func (s *InProc) List(ctx context.Context) ([]ObjectMeta, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	var out []ObjectMeta
	for _, id := range append(s.db.Binaries(), s.db.EditedIDs()...) {
		obj, err := s.db.Get(id)
		if errors.Is(err, catalog.ErrNotFound) {
			continue // deleted between listing and lookup
		}
		if err != nil {
			return nil, markQueryError(err)
		}
		m := ObjectMeta{ID: obj.ID, Kind: obj.Kind.String(), Name: obj.Name}
		if obj.Kind == mmdb.KindEdited {
			m.BaseID = obj.Seq.BaseID
		}
		out = append(out, m)
	}
	return out, nil
}

// Delete implements Shard.
func (s *InProc) Delete(ctx context.Context, id uint64) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	return markQueryError(s.db.DeleteCtx(ctx, id))
}

// Query implements Shard. A non-nil sp records the engine's span tree
// directly under the coordinator's shard span — no serialization hop.
func (s *InProc) Query(ctx context.Context, text, mode string, sp *obs.Span) (*ShardAnswer, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	m, err := ParseMode(mode)
	if err != nil {
		return nil, queryError{err}
	}
	res, err := s.db.QueryCompoundCtx(ctx, text, m, mmdb.WithTrace(obs.TraceForSpan(sp)))
	if err != nil {
		return nil, markQueryError(err)
	}
	return &ShardAnswer{IDs: res.IDs, Stats: res.Stats}, nil
}

// MultiRange implements Shard.
func (s *InProc) MultiRange(ctx context.Context, bins []int, pctMin, pctMax float64, mode string, sp *obs.Span) (*ShardAnswer, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	m, err := ParseMode(mode)
	if err != nil {
		return nil, queryError{err}
	}
	res, err := s.db.RangeQueryMultiCtx(ctx, mmdb.MultiRange{Bins: bins, PctMin: pctMin, PctMax: pctMax}, m, mmdb.WithTrace(obs.TraceForSpan(sp)))
	if err != nil {
		return nil, markQueryError(err)
	}
	return &ShardAnswer{IDs: res.IDs, Stats: res.Stats}, nil
}

// Similar implements Shard.
func (s *InProc) Similar(ctx context.Context, probe *mmdb.Image, k int, metric string, sp *obs.Span) ([]mmdb.Match, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	m, err := ParseMetric(metric)
	if err != nil {
		return nil, queryError{err}
	}
	matches, _, err := s.db.QueryByExampleCtx(ctx, probe, k, m, mmdb.WithTrace(obs.TraceForSpan(sp)))
	if err != nil {
		return nil, markQueryError(err)
	}
	return matches, nil
}

// Stats implements Shard.
func (s *InProc) Stats(ctx context.Context) (*mmdb.Stats, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	st, err := s.db.Stats()
	if err != nil {
		return nil, err
	}
	return &st, nil
}
