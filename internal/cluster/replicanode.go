package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	mmdb "repro"
)

// ReplicaNode is the in-process replica transport: an InProc shard (the
// read/write surface, with the same Kill/Revive fault injection) plus a
// Replicator (the role runtime). It implements ReplicaConn, so in-process
// replica sets and the failover tests run the exact replication code paths
// the HTTP deployment does, minus the wire.
type ReplicaNode struct {
	*InProc
	rep *Replicator
}

// NewReplicaNode wraps db as replica id. ctx bounds the replication loops.
func NewReplicaNode(ctx context.Context, id string, db *mmdb.DB) *ReplicaNode {
	return &ReplicaNode{InProc: NewInProc(id, db), rep: NewReplicator(ctx, id, db)}
}

// Replicator exposes the node's replication runtime (tests tune and pause
// it).
func (n *ReplicaNode) Replicator() *Replicator { return n.rep }

// WALTail implements LeaderConn. A killed node refuses — followers of a
// dead leader see the same connection failure an HTTP follower would.
func (n *ReplicaNode) WALTail(ctx context.Context, from uint64, max int, wait time.Duration) (mmdb.WALTailResult, error) {
	if err := n.check(ctx); err != nil {
		return mmdb.WALTailResult{}, err
	}
	return n.DB().WALTail(ctx, from, max, wait)
}

// WALStatus implements LeaderConn.
func (n *ReplicaNode) WALStatus(ctx context.Context) (mmdb.WALStats, error) {
	if err := n.check(ctx); err != nil {
		return mmdb.WALStats{}, err
	}
	st, ok := n.DB().WALStats()
	if !ok {
		return mmdb.WALStats{}, fmt.Errorf("cluster: replica %s has no write-ahead log", n.ID())
	}
	return st, nil
}

// ReplStatus implements ReplicaConn.
func (n *ReplicaNode) ReplStatus(ctx context.Context) (ReplStatus, error) {
	if err := n.check(ctx); err != nil {
		return ReplStatus{}, err
	}
	return n.rep.Status(), nil
}

// WaitApplied implements ReplicaConn.
func (n *ReplicaNode) WaitApplied(ctx context.Context, lsn uint64, wait time.Duration) (ReplStatus, error) {
	if err := n.check(ctx); err != nil {
		return ReplStatus{}, err
	}
	return n.rep.WaitApplied(ctx, lsn, wait)
}

// Promote implements ReplicaConn.
func (n *ReplicaNode) Promote(ctx context.Context) error {
	if err := n.check(ctx); err != nil {
		return err
	}
	n.rep.Promote()
	return nil
}

// Follow implements ReplicaConn. The in-process transport follows the
// connection directly; the address is only meaningful over HTTP.
func (n *ReplicaNode) Follow(ctx context.Context, leaderID, leaderAddr string, conn LeaderConn) error {
	if err := n.check(ctx); err != nil {
		return err
	}
	if conn == nil {
		return fmt.Errorf("cluster: in-process follow needs a leader connection")
	}
	n.rep.Follow(leaderID, conn)
	return nil
}

// ReplicatedClusterConfig sizes an in-process replicated cluster.
type ReplicatedClusterConfig struct {
	// Dir is where the backing databases live (replication requires
	// persistent databases — the WAL is the replication stream).
	Dir string
	// Shards is the number of replica sets; Replicas is members per set
	// including the leader (1 = unreplicated).
	Shards   int
	Replicas int
	// Coord is the coordinator policy.
	Coord Options
	// Tune and TuneSet, when set, adjust each Replicator / ReplicaSet
	// before anything starts (tests shrink timeouts here).
	Tune    func(*Replicator)
	TuneSet func(*ReplicaSet)
}

// InProcReplicaCluster is a fully in-process replicated cluster: a
// coordinator over Shards replica sets of Replicas members each.
type InProcReplicaCluster struct {
	Coord *Coordinator
	Sets  []*ReplicaSet
	Nodes map[string]*ReplicaNode // "s0-r0", "s0-r1", ...
}

// NewReplicatedInProcCluster builds the cluster: one persistent database
// per replica under cfg.Dir, node r0 of each set leading, every follower
// bootstrapped and tailing. ctx bounds all replication loops.
func NewReplicatedInProcCluster(ctx context.Context, cfg ReplicatedClusterConfig) (*InProcReplicaCluster, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	c := &InProcReplicaCluster{Nodes: make(map[string]*ReplicaNode)}
	m := &ShardMap{}
	shards := make(map[string]Shard, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		sid := fmt.Sprintf("s%d", s)
		members := make([]ReplicaMember, 0, cfg.Replicas)
		for r := 0; r < cfg.Replicas; r++ {
			nid := fmt.Sprintf("%s-r%d", sid, r)
			db, err := mmdb.Open(mmdb.WithPath(filepath.Join(cfg.Dir, nid+".db")))
			if err != nil {
				return nil, fmt.Errorf("cluster: open %s: %w", nid, err)
			}
			node := NewReplicaNode(ctx, nid, db)
			if cfg.Tune != nil {
				cfg.Tune(node.Replicator())
			}
			c.Nodes[nid] = node
			members = append(members, ReplicaMember{ID: nid, Conn: node})
		}
		rs, err := NewReplicaSet(sid, members...)
		if err != nil {
			return nil, err
		}
		if cfg.TuneSet != nil {
			cfg.TuneSet(rs)
		}
		if err := rs.Bootstrap(ctx); err != nil {
			return nil, err
		}
		c.Sets = append(c.Sets, rs)
		m.Shards = append(m.Shards, ShardInfo{ID: sid})
		shards[sid] = rs
	}
	coord, err := New(m, shards, cfg.Coord)
	if err != nil {
		return nil, err
	}
	c.Coord = coord
	return c, nil
}

// Set returns the replica set for shard id (nil if unknown).
func (c *InProcReplicaCluster) Set(shardID string) *ReplicaSet {
	for _, rs := range c.Sets {
		if rs.ID() == shardID {
			return rs
		}
	}
	return nil
}

// StartMonitors starts every set's probe/promote loop.
func (c *InProcReplicaCluster) StartMonitors(ctx context.Context, interval time.Duration) {
	for _, rs := range c.Sets {
		rs.StartMonitor(ctx, interval)
	}
}

// Close stops replication and closes every database.
func (c *InProcReplicaCluster) Close() error {
	var firstErr error
	for _, n := range c.Nodes {
		n.Replicator().Stop()
	}
	for _, n := range c.Nodes {
		if err := n.DB().Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
