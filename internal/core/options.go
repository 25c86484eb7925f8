package core

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/rbm"
)

// Query options — the one query surface. Every query method takes a
// context and variadic QueryOption, mirroring the insert path's
// InsertOption; the mode, tracing and paging are options, not method
// variants:
//
//	db.RangeQueryCtx(ctx, q)                                  // default: indexed, or bwm under a limit
//	db.RangeQueryCtx(ctx, q, core.ModeIndexed)                // Mode is an option
//	db.RangeQueryCtx(ctx, q, core.WithMode(m), core.WithTrace(tr), core.WithLimit(10))
//	db.RangeQueryCtx(ctx, q, core.WithLimit(10), core.WithAfter(lastID))   // next page
//
// Mode implements QueryOption directly, so a bare mode reads as one.

// QueryConfig is the resolved set of query options.
type QueryConfig struct {
	// Mode selects the execution strategy. The zero value is unset and
	// resolves per query (ResolveMode): ModeBWM under a positive Limit,
	// ModeIndexed without one.
	Mode Mode
	// Trace, when non-nil, receives per-phase timings and decision counts.
	Trace *obs.Trace
	// Limit, when positive, caps the result at the first Limit ids in
	// ascending id order (a stable prefix of the unlimited answer).
	Limit int
	// After, when positive, is a keyset cursor: only ids greater than After
	// are returned. Passing a page's last id yields the next page.
	After uint64
}

// QueryOption configures one query execution.
type QueryOption interface {
	ApplyQuery(*QueryConfig)
}

// queryOptionFunc adapts a function to the QueryOption interface.
type queryOptionFunc func(*QueryConfig)

func (f queryOptionFunc) ApplyQuery(c *QueryConfig) { f(c) }

// ApplyQuery makes Mode itself a QueryOption: passing a Mode value selects
// the execution strategy.
func (m Mode) ApplyQuery(c *QueryConfig) { c.Mode = m }

// WithMode selects the execution strategy.
func WithMode(m Mode) QueryOption {
	return queryOptionFunc(func(c *QueryConfig) { c.Mode = m })
}

// WithTrace records per-phase timings and decision counts into tr. A nil tr
// is valid and disables tracing (every trace method is nil-safe).
func WithTrace(tr *obs.Trace) QueryOption {
	return queryOptionFunc(func(c *QueryConfig) { c.Trace = tr })
}

// WithLimit caps the result id list at the first n ids in ascending id
// order. Zero or negative means unlimited. Range, compound and multi-bin
// queries stop evaluating candidates once n ids are confirmed (see
// paged.go); for k-NN queries the limit applies on top of K (the smaller
// wins).
func WithLimit(n int) QueryOption {
	return queryOptionFunc(func(c *QueryConfig) { c.Limit = n })
}

// WithAfter is the keyset cursor beside WithLimit: the result holds only ids
// greater than id, so passing each page's last id walks the whole answer
// without re-evaluating earlier pages. Zero means "from the start". Pages are
// read-committed with respect to each other: an object inserted or deleted
// between two pages shows up (or not) by its id alone. k-NN queries ignore
// it.
func WithAfter(id uint64) QueryOption {
	return queryOptionFunc(func(c *QueryConfig) { c.After = id })
}

// buildQueryConfig resolves options in order; later options win.
func buildQueryConfig(opts []QueryOption) QueryConfig {
	var c QueryConfig
	for _, o := range opts {
		if o != nil {
			o.ApplyQuery(&c)
		}
	}
	return c
}

// applyPage cuts the configured page out of a complete, ascending result —
// the descend-then-filter-then-truncate path ModeIndexed keeps because the
// tree does not deliver ids in order.
func applyPage(res *rbm.Result, cfg QueryConfig) *rbm.Result {
	if cfg.After > 0 {
		i := sort.Search(len(res.IDs), func(i int) bool { return res.IDs[i] > cfg.After })
		res.IDs = res.IDs[i:]
	}
	if cfg.Limit > 0 && len(res.IDs) > cfg.Limit {
		res.IDs = res.IDs[:cfg.Limit:cfg.Limit]
	}
	return res
}
