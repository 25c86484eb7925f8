package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	mmdb "repro"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

// nClients is the whole load: two closed-loop client goroutines, one
// connection each.
const nClients = 2

// doFunc executes one op and returns the id it created, if any.
type doFunc func(ctx context.Context, o *op) (uint64, error)

// node is the single-node deployment under test: a segmented database behind
// server.New on a loopback port, driven by internal/client.
type node struct {
	db         *mmdb.DB
	srv        *server.Server
	hs         *http.Server
	served     chan error
	url        string
	clients    []*client.Client
	transports []*http.Transport
}

func openNode(dir string) (*node, error) {
	db, err := openSegmented(dir, true)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	n := &node{
		db:     db,
		srv:    server.New(db).WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	n.hs = &http.Server{Handler: n.srv}
	go func() { n.served <- n.hs.Serve(ln) }()
	for i := 0; i < nClients; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		n.transports = append(n.transports, tr)
		n.clients = append(n.clients, client.New(n.url, &http.Client{Transport: tr}))
	}
	return n, nil
}

// close stops the server, waits for its goroutine and closes the database.
func (n *node) close() error {
	for _, tr := range n.transports {
		tr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, n.db.Close())
}

// doers returns one doFunc per client.
func (n *node) doers() []doFunc {
	out := make([]doFunc, len(n.clients))
	for i, c := range n.clients {
		c := c
		out[i] = func(ctx context.Context, o *op) (uint64, error) { return doHTTP(ctx, c, o) }
	}
	return out
}

// doHTTP sends one op over the socket. The shape checks are the part of
// verification that is cheap enough to sit beside the call; everything that
// costs time is checked after the timed phases.
func doHTTP(ctx context.Context, c *client.Client, o *op) (uint64, error) {
	switch o.Kind {
	case opQuery:
		res, err := c.QueryCtx(ctx, o.Text, o.Mode, false, client.Limit(o.Limit))
		if err != nil {
			return 0, err
		}
		return 0, checkAnswer(res, o.Limit)
	case opMultiRange:
		res, err := c.MultiRangeCtx(ctx, o.Bins, o.Lo, o.Hi, o.Mode, client.Limit(o.Limit))
		if err != nil {
			return 0, err
		}
		return 0, checkAnswer(res, o.Limit)
	case opSimilar:
		matches, err := c.SimilarCtx(ctx, o.Image, knnK, "l1")
		if err != nil {
			return 0, err
		}
		if len(matches) != knnK {
			return 0, fmt.Errorf("similar: %d matches, want %d", len(matches), knnK)
		}
		return 0, nil
	case opInsertImage:
		obj, err := c.InsertImageCtx(ctx, 0, o.Name, o.Image)
		if err != nil {
			return 0, err
		}
		return obj.ID, nil
	case opInsertSeq:
		obj, err := c.InsertSequenceCtx(ctx, 0, o.Name, o.Seq)
		if err != nil {
			return 0, err
		}
		return obj.ID, nil
	}
	return 0, fmt.Errorf("unknown op kind %d", o.Kind)
}

func checkAnswer(res *client.QueryResult, limit int) error {
	if len(res.Objects) != len(res.IDs) {
		return fmt.Errorf("query: %d objects for %d ids", len(res.Objects), len(res.IDs))
	}
	if limit > 0 && len(res.IDs) > limit {
		return fmt.Errorf("query: %d ids over limit %d", len(res.IDs), limit)
	}
	return nil
}

// clusterNode is the cluster deployment under test: three shards of two
// replicas each in this process, driven through the coordinator.
type clusterNode struct {
	rc     *cluster.InProcReplicaCluster
	cancel context.CancelFunc
}

func openCluster(dir string) (*clusterNode, error) {
	ctx, cancel := context.WithCancel(context.Background())
	rc, err := cluster.NewReplicatedInProcCluster(ctx, cluster.ReplicatedClusterConfig{Dir: dir, Shards: 3, Replicas: 2})
	if err != nil {
		cancel()
		return nil, err
	}
	return &clusterNode{rc: rc, cancel: cancel}, nil
}

func (cn *clusterNode) close() error {
	err := cn.rc.Close()
	cn.cancel()
	return err
}

func (cn *clusterNode) inserter() inserter {
	return inserter{
		image: func(ctx context.Context, _ uint64, name string, img *mmdb.Image) (uint64, error) {
			id, _, err := cn.rc.Coord.InsertImage(ctx, name, img)
			return id, err
		},
		seq: func(ctx context.Context, _ uint64, name string, seq *mmdb.Sequence) (uint64, error) {
			id, _, err := cn.rc.Coord.InsertSequence(ctx, name, seq)
			return id, err
		},
	}
}

var errPartial = errors.New("cluster: partial answer")

// do sends one op through the coordinator; a partial answer is a failure.
func (cn *clusterNode) do(ctx context.Context, o *op) (uint64, error) {
	coord := cn.rc.Coord
	switch o.Kind {
	case opQuery:
		res, err := coord.Query(ctx, o.Text, o.Mode, nil)
		if err == nil && res.Partial {
			err = errPartial
		}
		return 0, err
	case opMultiRange:
		res, err := coord.MultiRange(ctx, o.Bins, o.Lo, o.Hi, o.Mode, nil)
		if err == nil && res.Partial {
			err = errPartial
		}
		return 0, err
	case opInsertImage:
		id, _, err := coord.InsertImage(ctx, o.Name, o.Image)
		return id, err
	case opInsertSeq:
		id, _, err := coord.InsertSequence(ctx, o.Name, o.Seq)
		return id, err
	}
	return 0, fmt.Errorf("cluster: unsupported op kind %d", o.Kind)
}

func (cn *clusterNode) doers() []doFunc {
	out := make([]doFunc, nClients)
	for i := range out {
		out[i] = cn.do
	}
	return out
}
