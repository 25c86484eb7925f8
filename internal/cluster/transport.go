package cluster

import (
	"context"
	"errors"
	"strconv"
	"time"

	mmdb "repro"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/store"
)

// ShardAnswer is one shard's contribution to a set-style (range, compound,
// multirange) query.
type ShardAnswer struct {
	// IDs is the shard's answer in strictly ascending id order, as every
	// mode delivers it (the scans walk id windows, the S-tree descent sorts
	// once); the coordinator's one-pass merge relies on it.
	IDs   []uint64
	Stats mmdb.QueryStats
}

// ObjectMeta is the shard-agnostic slice of catalog metadata the
// coordinator needs for routing and id allocation: ids, kinds and the base
// link of edited objects.
type ObjectMeta struct {
	ID     uint64
	Kind   string // "binary" or "edited"
	Name   string
	BaseID uint64 // 0 for binaries
}

// Shard is one partition of the database as the coordinator sees it. Two
// implementations exist: InProc (embedded *mmdb.DB) and HTTPShard
// (internal/client against an `esidb serve` process). Mode and metric
// travel as their wire strings ("bwm", "l1", ...) exactly as the HTTP API
// takes them; the in-process transport parses them with the same tables.
type Shard interface {
	ID() string
	// Ping is the health probe; nil means the shard is serving.
	Ping(ctx context.Context) error

	InsertImage(ctx context.Context, id uint64, name string, img *mmdb.Image) error
	InsertSequence(ctx context.Context, id uint64, name string, seq *mmdb.Sequence) error
	HasObject(ctx context.Context, id uint64) (bool, error)
	// Object returns metadata plus, for edited objects, the parsed script.
	Object(ctx context.Context, id uint64) (*ObjectMeta, *mmdb.Sequence, error)
	Image(ctx context.Context, id uint64) (*mmdb.Image, error)
	List(ctx context.Context) ([]ObjectMeta, error)
	Delete(ctx context.Context, id uint64) error

	// The read-query methods take an optional parent span (nil disables
	// tracing): transports attach the shard-side span tree under it — the
	// in-process transport records directly, the HTTP transport propagates
	// the trace context via a traceparent header and adopts the span tree
	// the shard returns. Either way the coordinator ends up holding one
	// merged tree under a single trace id.
	Query(ctx context.Context, text, mode string, sp *obs.Span) (*ShardAnswer, error)
	MultiRange(ctx context.Context, bins []int, pctMin, pctMax float64, mode string, sp *obs.Span) (*ShardAnswer, error)
	Similar(ctx context.Context, probe *mmdb.Image, k int, metric string, sp *obs.Span) ([]mmdb.Match, error)
	Stats(ctx context.Context) (*mmdb.Stats, error)
}

// Policy is the per-shard call discipline the coordinator wraps every
// transport call in.
type Policy struct {
	// Timeout bounds each attempt (not the whole retry loop).
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried (so attempts
	// = Retries+1). Only infra failures retry; query errors (bad request,
	// not found) surface immediately.
	Retries int
	// Backoff is the sleep before the first retry; it doubles per retry.
	Backoff time.Duration
}

// DefaultPolicy is the coordinator default: tight enough that a dead
// loopback shard is declared missed in well under a second.
func DefaultPolicy() Policy {
	return Policy{Timeout: 5 * time.Second, Retries: 2, Backoff: 50 * time.Millisecond}
}

func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.Timeout <= 0 {
		p.Timeout = d.Timeout
	}
	if p.Retries < 0 {
		p.Retries = 0
	}
	if p.Backoff <= 0 {
		p.Backoff = d.Backoff
	}
	return p
}

// queryError marks failures that are the query's (or caller's) fault —
// parse errors, unknown modes, missing objects. They are deterministic, so
// retrying is useless and degrading to a partial result would turn a user
// error into silent data loss; the coordinator fails the whole request.
type queryError struct{ err error }

func (e queryError) Error() string { return e.err.Error() }
func (e queryError) Unwrap() error { return e.err }

// asQueryError classifies an error: HTTP 4xx responses and local
// validation failures are query errors; transport faults, 5xx and a
// closed shard database are shard failures (retryable, then degradable).
func isQueryError(err error) bool {
	var qe queryError
	if errors.As(err, &qe) {
		return true
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status >= 400 && ae.Status < 500
	}
	return false
}

// markQueryError wraps local (in-process) errors that cannot heal with a
// retry, except a closed store, which is how a killed in-process shard
// presents — that must look like a shard failure so degraded mode kicks
// in, mirroring a dead HTTP shard.
func markQueryError(err error) error {
	if err == nil || errors.Is(err, store.ErrClosed) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return queryError{err}
}

// callShard is callShardSpan without tracing — the form the management
// paths (inserts, id sync) use, since only queries are traced.
func callShard[T any](ctx context.Context, pol Policy, fn func(context.Context) (T, error)) (T, error) {
	return callShardSpan(ctx, pol, nil, func(actx context.Context, _ *obs.Span) (T, error) {
		return fn(actx)
	})
}

// callShardSpan runs fn under the policy: per-attempt timeout and bounded
// retries with doubling backoff for shard failures. The context governs the
// whole loop — once it is done, no more attempts start. sp (nil-safe)
// collects one child span per attempt, so a traced query shows its retries
// and timeouts.
func callShardSpan[T any](ctx context.Context, pol Policy, sp *obs.Span, fn func(context.Context, *obs.Span) (T, error)) (T, error) {
	var zero T
	var err error
	backoff := pol.Backoff
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			mRetries.Inc()
			sp.Count(obs.TClusterRetries, 1)
			select {
			case <-ctx.Done():
				return zero, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		var v T
		v, err = attemptShard(ctx, pol, sp, attempt, fn)
		if err == nil {
			return v, nil
		}
		if ctx.Err() != nil {
			return zero, err
		}
		if isQueryError(err) || attempt >= pol.Retries {
			return zero, err
		}
	}
}

// attemptShard is one policy attempt: fn under the per-attempt timeout, in
// an "attempt" span recording the try number and any error.
func attemptShard[T any](ctx context.Context, pol Policy, sp *obs.Span, attempt int, fn func(context.Context, *obs.Span) (T, error)) (T, error) {
	actx, cancel := context.WithTimeout(ctx, pol.Timeout)
	defer cancel()
	asp := sp.StartChild("attempt")
	asp.SetAttr("try", strconv.Itoa(attempt+1))
	v, err := fn(actx, asp)
	if err != nil {
		asp.SetAttr("error", err.Error())
		if errors.Is(actx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			asp.SetAttr("timeout", pol.Timeout.String())
		}
	}
	asp.End()
	return v, err
}
