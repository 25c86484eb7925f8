// Package client is a Go client for the ESIDB HTTP API (internal/server):
// remote tools insert rasters and scripts, run range/compound queries and
// similarity searches, and administer the database without linking the
// engine. The client speaks the versioned /v1 surface and decodes the
// server's uniform error envelope into typed *APIError values. Wire formats
// match the server exactly and are covered by tests that run both ends
// in-process.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	mmdb "repro"
	"repro/internal/api"
	"repro/internal/obs"
)

// Client talks to one ESIDB server.
type Client struct {
	baseURL string
	http    *http.Client
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8765"). httpClient may be nil for http.DefaultClient.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{baseURL: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// Object is the wire form of a catalog entry.
type Object = api.Object

// QueryResult is the wire form of a range-query answer. Trace is non-nil
// only when the request carried trace context (a span in the ctx) or asked
// for ?trace=1 — it is the server-side span tree for the query.
type QueryResult = api.Answer

// Match is one similarity-search result.
type Match struct {
	ID   uint64  `json:"id"`
	Dist float64 `json:"dist"`
}

// APIError carries a non-2xx response, decoded from the server's uniform
// error envelope. Code is the stable machine-readable slug — one of the
// approved set in internal/api (api.CodeNotFound, api.CodeConflict, ...);
// RequestID correlates the failure with the server's access log.
type APIError struct {
	Status    int
	Code      string
	Message   string
	RequestID string
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("client: server returned %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// IsNotFound reports whether err is an APIError with code api.CodeNotFound.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == api.CodeNotFound
}

// apiError decodes the error envelope from a non-2xx body, falling back to
// the raw body for non-JSON responses (e.g. a proxy in the way).
func apiError(resp *http.Response) *APIError {
	var env struct {
		Error     string `json:"error"`
		Code      string `json:"code"`
		RequestID string `json:"request_id"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(raw, &env) != nil || env.Error == "" {
		env.Error = strings.TrimSpace(string(raw))
	}
	if env.RequestID == "" {
		env.RequestID = resp.Header.Get("X-Request-ID")
	}
	return &APIError{Status: resp.StatusCode, Code: env.Code, Message: env.Error, RequestID: env.RequestID}
}

// do is the context-free legacy path; every request really goes through
// doCtx so coordinator deadlines can cancel in-flight shard calls.
func (c *Client) do(method, path string, body io.Reader, contentType string, out any) error {
	return c.doCtx(context.Background(), method, path, body, contentType, out)
}

// send issues one request and returns its 2xx response, whose body the
// caller closes; any other status comes back as an *APIError.
func (c *Client) send(ctx context.Context, method, path string, body io.Reader, contentType string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	// Propagate observability context: a span in the ctx becomes a
	// traceparent header (the server continues the same trace id), and a
	// request id rides along so one id correlates coordinator and shard
	// access logs.
	if sp := obs.SpanFromContext(ctx); sp != nil {
		req.Header.Set("traceparent", sp.Traceparent())
	}
	if rid := obs.RequestIDFromContext(ctx); rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		err := apiError(resp)
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// doCtx sends one request and decodes its JSON response into out (nil
// discards the body).
func (c *Client) doCtx(ctx context.Context, method, path string, body io.Reader, contentType string, out any) error {
	resp, err := c.send(ctx, method, path, body, contentType)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Query answers and object lists — the bodies that grow with the
	// database — are decoded by internal/api's codec from one buffer; every
	// other shape is small and stays on encoding/json.
	switch out := out.(type) {
	case nil:
		return nil
	case *QueryResult:
		return decodeBody(resp, func(body []byte) error { return api.DecodeAnswer(body, out) })
	case *[]Object:
		return decodeBody(resp, func(body []byte) (err error) {
			*out, err = api.DecodeObjects(body)
			return err
		})
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// bodyBufs recycles the buffers decodeBody reads into. The codec copies out
// every byte it keeps, so a buffer is free again when decode returns.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxBodyPrealloc caps what decodeBody allocates on a peer's word, and what
// it keeps pooled. A longer body is still read whole; its buffer grows as
// the bytes arrive and is let go afterwards.
const maxBodyPrealloc = 8 << 20

// decodeBody reads a response body into one buffer, sized from
// Content-Length when the server declared one, and hands it to decode.
func decodeBody(resp *http.Response, decode func(body []byte) error) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxBodyPrealloc+bytes.MinRead {
			bodyBufs.Put(buf)
		}
	}()
	buf.Reset()
	if n := resp.ContentLength; n > 0 {
		// ReadFrom asks for bytes.MinRead of free space before every read,
		// the one that finds EOF included.
		buf.Grow(int(min(n, maxBodyPrealloc)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	return decode(buf.Bytes())
}

// InsertImage uploads a raster (as binary PPM) and returns the new object.
func (c *Client) InsertImage(name string, img *mmdb.Image) (*Object, error) {
	return c.InsertImageCtx(context.Background(), 0, name, img)
}

// InsertImageCtx is InsertImage with a context and an optional explicit
// object id (0 means "let the server allocate"); cluster coordinators push
// globally assigned ids down to shards this way.
func (c *Client) InsertImageCtx(ctx context.Context, id uint64, name string, img *mmdb.Image) (*Object, error) {
	var buf bytes.Buffer
	if err := mmdb.EncodePPM(&buf, img); err != nil {
		return nil, err
	}
	var obj Object
	err := c.doCtx(ctx, "POST", "/v1/objects?"+insertParams(id, name), &buf, "image/x-portable-pixmap", &obj)
	if err != nil {
		return nil, err
	}
	return &obj, nil
}

// InsertSequence uploads an edited image's text script.
func (c *Client) InsertSequence(name string, seq *mmdb.Sequence) (*Object, error) {
	return c.InsertSequenceCtx(context.Background(), 0, name, seq)
}

// InsertSequenceCtx is InsertSequence with a context and an optional
// explicit object id (see InsertImageCtx).
func (c *Client) InsertSequenceCtx(ctx context.Context, id uint64, name string, seq *mmdb.Sequence) (*Object, error) {
	var obj Object
	err := c.doCtx(ctx, "POST", "/v1/sequences?"+insertParams(id, name),
		strings.NewReader(mmdb.FormatSequence(seq)), "text/plain", &obj)
	if err != nil {
		return nil, err
	}
	return &obj, nil
}

func insertParams(id uint64, name string) string {
	q := url.Values{}
	q.Set("name", name)
	if id != 0 {
		q.Set("id", strconv.FormatUint(id, 10))
	}
	return q.Encode()
}

// List returns every object's metadata.
func (c *Client) List() ([]Object, error) {
	return c.ListCtx(context.Background())
}

// ListCtx is List with a context.
func (c *Client) ListCtx(ctx context.Context) ([]Object, error) {
	var out []Object
	if err := c.doCtx(ctx, "GET", "/v1/objects", nil, "", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Get returns one object's metadata (including the script for edited
// images).
func (c *Client) Get(id uint64) (*Object, error) {
	return c.GetCtx(context.Background(), id)
}

// GetCtx is Get with a context.
func (c *Client) GetCtx(ctx context.Context, id uint64) (*Object, error) {
	var obj Object
	if err := c.doCtx(ctx, "GET", fmt.Sprintf("/v1/objects/%d", id), nil, "", &obj); err != nil {
		return nil, err
	}
	return &obj, nil
}

// Image downloads an object's raster, instantiating edited images
// server-side.
func (c *Client) Image(id uint64) (*mmdb.Image, error) {
	return c.ImageCtx(context.Background(), id)
}

// ImageCtx is Image with a context.
func (c *Client) ImageCtx(ctx context.Context, id uint64) (*mmdb.Image, error) {
	resp, err := c.send(ctx, "GET", fmt.Sprintf("/v1/objects/%d/image", id), nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return mmdb.DecodePPM(resp.Body)
}

// Augment asks the server to generate edited versions of a base image.
func (c *Client) Augment(baseID uint64, opts mmdb.AugmentOptions) ([]uint64, error) {
	q := url.Values{}
	if opts.PerBase > 0 {
		q.Set("per", strconv.Itoa(opts.PerBase))
	}
	if opts.OpsPerImage > 0 {
		q.Set("ops", strconv.Itoa(opts.OpsPerImage))
	}
	if opts.NonWideningFrac > 0 {
		q.Set("nonwidening", strconv.FormatFloat(opts.NonWideningFrac, 'f', -1, 64))
	}
	q.Set("seed", strconv.FormatInt(opts.Seed, 10))
	var out struct {
		Edited []uint64 `json:"edited"`
	}
	err := c.do("POST", fmt.Sprintf("/v1/objects/%d/augment?%s", baseID, q.Encode()), nil, "", &out)
	if err != nil {
		return nil, err
	}
	return out.Edited, nil
}

// Delete removes an object.
func (c *Client) Delete(id uint64) error {
	return c.DeleteCtx(context.Background(), id)
}

// DeleteCtx is Delete with a context.
func (c *Client) DeleteCtx(ctx context.Context, id uint64) error {
	return c.doCtx(ctx, "DELETE", fmt.Sprintf("/v1/objects/%d", id), nil, "", nil)
}

// Param adds one URL query parameter to a query call — the client-side
// mirror of the library's QueryOption surface.
type Param func(url.Values)

// Limit asks the server to truncate the result to the first n ids
// (?limit=n). Zero or negative means unlimited.
func Limit(n int) Param {
	return func(v url.Values) {
		if n > 0 {
			v.Set("limit", strconv.Itoa(n))
		}
	}
}

// After asks the server for ids greater than id only (?after=id) — the
// keyset cursor beside Limit: pass each page's last id to fetch the next
// page. Zero means "from the start".
func After(id uint64) Param {
	return func(v url.Values) {
		if id > 0 {
			v.Set("after", strconv.FormatUint(id, 10))
		}
	}
}

// Query runs a textual (possibly compound) range query. mode may be empty
// for BWM ("indexed" selects the bounds S-tree strategy); expandBases adds
// each match's base image.
func (c *Client) Query(text, mode string, expandBases bool) (*QueryResult, error) {
	return c.QueryCtx(context.Background(), text, mode, expandBases)
}

// QueryCtx is Query with a context. A span in the ctx upgrades the call to
// a traced one: the server returns its span tree in QueryResult.Trace.
func (c *Client) QueryCtx(ctx context.Context, text, mode string, expandBases bool, params ...Param) (*QueryResult, error) {
	q := url.Values{}
	q.Set("q", text)
	if mode != "" {
		q.Set("mode", mode)
	}
	if expandBases {
		q.Set("bases", "1")
	}
	if obs.SpanFromContext(ctx) != nil {
		q.Set("trace", "1")
	}
	for _, p := range params {
		if p != nil {
			p(q)
		}
	}
	var out QueryResult
	if err := c.doCtx(ctx, "GET", "/v1/query?"+q.Encode(), nil, "", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MultiRangeCtx runs a structured multi-range query (sum of the given bins'
// percentages within [pctMin, pctMax]) via GET /multirange. MultiRange has
// no text form, so unlike Query this endpoint takes the bins directly.
func (c *Client) MultiRangeCtx(ctx context.Context, bins []int, pctMin, pctMax float64, mode string, params ...Param) (*QueryResult, error) {
	q := url.Values{}
	strs := make([]string, len(bins))
	for i, b := range bins {
		strs[i] = strconv.Itoa(b)
	}
	q.Set("bins", strings.Join(strs, ","))
	q.Set("min", strconv.FormatFloat(pctMin, 'f', -1, 64))
	q.Set("max", strconv.FormatFloat(pctMax, 'f', -1, 64))
	if mode != "" {
		q.Set("mode", mode)
	}
	if obs.SpanFromContext(ctx) != nil {
		q.Set("trace", "1")
	}
	for _, p := range params {
		if p != nil {
			p(q)
		}
	}
	var out QueryResult
	if err := c.doCtx(ctx, "GET", "/v1/multirange?"+q.Encode(), nil, "", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Explain fetches a query's plan without running it.
func (c *Client) Explain(text string) (*mmdb.Plan, error) {
	var out mmdb.Plan
	if err := c.do("GET", "/v1/explain?q="+url.QueryEscape(text), nil, "", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Similar uploads a probe image and returns its k nearest neighbors.
// metric may be empty for L1.
func (c *Client) Similar(probe *mmdb.Image, k int, metric string) ([]Match, error) {
	return c.SimilarCtx(context.Background(), probe, k, metric)
}

// SimilarCtx is Similar with a context.
func (c *Client) SimilarCtx(ctx context.Context, probe *mmdb.Image, k int, metric string) ([]Match, error) {
	matches, _, err := c.SimilarTracedCtx(ctx, probe, k, metric)
	return matches, err
}

// SimilarTracedCtx is SimilarCtx returning the server-side span tree as
// well; the trace is non-nil only when the ctx carries a span (which turns
// on ?trace=1 and the traceparent header).
func (c *Client) SimilarTracedCtx(ctx context.Context, probe *mmdb.Image, k int, metric string) ([]Match, *mmdb.Trace, error) {
	var buf bytes.Buffer
	if err := mmdb.EncodePPM(&buf, probe); err != nil {
		return nil, nil, err
	}
	q := url.Values{}
	q.Set("k", strconv.Itoa(k))
	if metric != "" {
		q.Set("metric", metric)
	}
	if obs.SpanFromContext(ctx) != nil {
		q.Set("trace", "1")
	}
	var out struct {
		Matches []Match     `json:"matches"`
		Trace   *mmdb.Trace `json:"trace,omitempty"`
	}
	err := c.doCtx(ctx, "POST", "/v1/similar?"+q.Encode(), &buf, "image/x-portable-pixmap", &out)
	if err != nil {
		return nil, nil, err
	}
	return out.Matches, out.Trace, nil
}

// Stats returns the server's database statistics.
func (c *Client) Stats() (*mmdb.Stats, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx is Stats with a context.
func (c *Client) StatsCtx(ctx context.Context) (*mmdb.Stats, error) {
	var out mmdb.Stats
	if err := c.doCtx(ctx, "GET", "/v1/stats", nil, "", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health pings GET /healthz; a nil error means the server is serving.
func (c *Client) Health(ctx context.Context) error {
	return c.doCtx(ctx, "GET", "/healthz", nil, "", nil)
}

// Compact asks the server to rewrite its store file.
func (c *Client) Compact() error {
	return c.do("POST", "/v1/compact", nil, "", nil)
}

// WALStats fetches write-ahead-log statistics; enabled is false when the
// server's database is in-memory (no log).
func (c *Client) WALStats(ctx context.Context) (stats *mmdb.WALStats, enabled bool, err error) {
	var out struct {
		Enabled bool           `json:"enabled"`
		Stats   *mmdb.WALStats `json:"stats"`
	}
	if err := c.doCtx(ctx, "GET", "/v1/wal", nil, "", &out); err != nil {
		return nil, false, err
	}
	return out.Stats, out.Enabled, nil
}

// Checkpoint forces a durability checkpoint on the server (persist +
// fsync + WAL truncate).
func (c *Client) Checkpoint(ctx context.Context) error {
	return c.doCtx(ctx, "POST", "/v1/checkpoint", nil, "", nil)
}
