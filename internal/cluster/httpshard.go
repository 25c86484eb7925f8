package cluster

import (
	"context"
	"errors"
	"net/http"
	"strings"

	mmdb "repro"
	"repro/internal/client"
	"repro/internal/obs"
)

// HTTPShard is the network transport: the shard is an `esidb serve`
// process reached through internal/client. All calls thread the context
// into the HTTP request, so coordinator deadlines cancel in-flight shard
// work.
type HTTPShard struct {
	id string
	c  *client.Client
}

// NewHTTPShard returns a shard named id at baseURL. httpClient may be nil
// for http.DefaultClient.
func NewHTTPShard(id, baseURL string, httpClient *http.Client) *HTTPShard {
	return &HTTPShard{id: id, c: client.New(baseURL, httpClient)}
}

// ID implements Shard.
func (s *HTTPShard) ID() string { return s.id }

// Ping implements Shard.
func (s *HTTPShard) Ping(ctx context.Context) error {
	return s.c.Health(ctx)
}

// InsertImage implements Shard.
func (s *HTTPShard) InsertImage(ctx context.Context, id uint64, name string, img *mmdb.Image) error {
	_, err := s.c.InsertImageCtx(ctx, id, name, img)
	return err
}

// InsertSequence implements Shard.
func (s *HTTPShard) InsertSequence(ctx context.Context, id uint64, name string, seq *mmdb.Sequence) error {
	_, err := s.c.InsertSequenceCtx(ctx, id, name, seq)
	return err
}

// HasObject implements Shard.
func (s *HTTPShard) HasObject(ctx context.Context, id uint64) (bool, error) {
	_, err := s.c.GetCtx(ctx, id)
	var ae *client.APIError
	if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Object implements Shard.
func (s *HTTPShard) Object(ctx context.Context, id uint64) (*ObjectMeta, *mmdb.Sequence, error) {
	obj, err := s.c.GetCtx(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	meta := &ObjectMeta{ID: obj.ID, Kind: obj.Kind, Name: obj.Name, BaseID: obj.BaseID}
	var seq *mmdb.Sequence
	if obj.Kind == "edited" {
		seq, err = mmdb.ParseSequence(strings.NewReader(obj.Script))
		if err != nil {
			return nil, nil, err
		}
	}
	return meta, seq, nil
}

// Image implements Shard.
func (s *HTTPShard) Image(ctx context.Context, id uint64) (*mmdb.Image, error) {
	return s.c.ImageCtx(ctx, id)
}

// List implements Shard.
func (s *HTTPShard) List(ctx context.Context) ([]ObjectMeta, error) {
	objs, err := s.c.ListCtx(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]ObjectMeta, len(objs))
	for i, o := range objs {
		out[i] = ObjectMeta{ID: o.ID, Kind: o.Kind, Name: o.Name, BaseID: o.BaseID}
	}
	return out, nil
}

// Delete implements Shard.
func (s *HTTPShard) Delete(ctx context.Context, id uint64) error {
	return s.c.DeleteCtx(ctx, id)
}

// Query implements Shard. A non-nil sp rides to the shard as a traceparent
// header (plus ?trace=1); the span tree the shard returns is adopted under
// sp so the coordinator holds one merged tree.
func (s *HTTPShard) Query(ctx context.Context, text, mode string, sp *obs.Span) (*ShardAnswer, error) {
	res, err := s.c.QueryCtx(obs.ContextWithSpan(ctx, sp), text, mode, false)
	if err != nil {
		return nil, err
	}
	if res.Trace != nil {
		sp.Adopt(res.Trace.Root())
	}
	return toAnswer(res), nil
}

// MultiRange implements Shard.
func (s *HTTPShard) MultiRange(ctx context.Context, bins []int, pctMin, pctMax float64, mode string, sp *obs.Span) (*ShardAnswer, error) {
	res, err := s.c.MultiRangeCtx(obs.ContextWithSpan(ctx, sp), bins, pctMin, pctMax, mode)
	if err != nil {
		return nil, err
	}
	if res.Trace != nil {
		sp.Adopt(res.Trace.Root())
	}
	return toAnswer(res), nil
}

// Similar implements Shard.
func (s *HTTPShard) Similar(ctx context.Context, probe *mmdb.Image, k int, metric string, sp *obs.Span) ([]mmdb.Match, error) {
	matches, tr, err := s.c.SimilarTracedCtx(obs.ContextWithSpan(ctx, sp), probe, k, metric)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		sp.Adopt(tr.Root())
	}
	out := make([]mmdb.Match, len(matches))
	for i, m := range matches {
		out[i] = mmdb.Match{ID: m.ID, Dist: m.Dist}
	}
	return out, nil
}

// Stats implements Shard.
func (s *HTTPShard) Stats(ctx context.Context) (*mmdb.Stats, error) {
	return s.c.StatsCtx(ctx)
}

func toAnswer(res *client.QueryResult) *ShardAnswer {
	return &ShardAnswer{IDs: res.IDs, Stats: mmdb.QueryStats(res.Stats)}
}
