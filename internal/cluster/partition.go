package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
)

// DefaultVNodes is the virtual-node count per shard on the hash ring.
// Enough points that every shard of a small cluster owns close to its fair
// 1/n share of base-clusters, cheap enough that ShardFor stays a
// binary search over a few hundred points.
const DefaultVNodes = 64

// ShardInfo names one shard. Addr is the HTTP base URL for network
// transports and may be empty for in-process deployments.
type ShardInfo struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
	// Replicas lists the shard's followers (the entry itself is the
	// initial leader). Replica ids must be unique cluster-wide; nested
	// replicas are not allowed.
	Replicas []ShardInfo `json:"replicas,omitempty"`
}

// ShardMap is the explicit cluster layout, serialized as JSON for the
// -shard-map flag and the `esidb cluster` commands.
type ShardMap struct {
	// VNodes overrides DefaultVNodes when > 0. All members of a cluster
	// must agree on it, which is why it lives in the map file.
	VNodes int         `json:"vnodes,omitempty"`
	Shards []ShardInfo `json:"shards"`
}

// Validate checks the map is usable: at least one shard, non-empty unique
// ids.
func (m *ShardMap) Validate() error {
	if m == nil || len(m.Shards) == 0 {
		return errors.New("cluster: shard map has no shards")
	}
	seen := make(map[string]bool, len(m.Shards))
	for _, s := range m.Shards {
		if s.ID == "" {
			return errors.New("cluster: shard with empty id")
		}
		if seen[s.ID] {
			return fmt.Errorf("cluster: duplicate shard id %q", s.ID)
		}
		seen[s.ID] = true
		for _, r := range s.Replicas {
			if r.ID == "" {
				return fmt.Errorf("cluster: shard %q has a replica with empty id", s.ID)
			}
			if seen[r.ID] {
				return fmt.Errorf("cluster: duplicate replica id %q", r.ID)
			}
			seen[r.ID] = true
			if len(r.Replicas) > 0 {
				return fmt.Errorf("cluster: replica %q of shard %q has nested replicas", r.ID, s.ID)
			}
		}
	}
	return nil
}

// Shard returns the info for an id, or false.
func (m *ShardMap) Shard(id string) (ShardInfo, bool) {
	for _, s := range m.Shards {
		if s.ID == id {
			return s, true
		}
	}
	return ShardInfo{}, false
}

// LoadShardMap reads and validates a JSON shard-map file.
func LoadShardMap(path string) (*ShardMap, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m ShardMap
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("cluster: parse shard map %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Save writes the map as indented JSON.
func (m *ShardMap) Save(path string) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Ring is a consistent-hash ring over a shard map. Objects are placed by
// their *routing key*: a binary image routes by its own id, an edited
// sequence by its base's id — so a BWM main-component cluster (base plus
// every edited derivative) always lands on one shard, and bound caching
// and cluster walks never cross the network.
type Ring struct {
	points []ringPoint // sorted by hash
	vnodes int
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds the ring for a validated shard map.
func NewRing(m *ShardMap) (*Ring, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	vnodes := m.VNodes
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, points: make([]ringPoint, 0, vnodes*len(m.Shards))}
	for _, s := range m.Shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashVNode(s.ID, v), shard: s.ID})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical hashes (vanishingly rare) tie-break by shard id so
		// every coordinator agrees on the assignment.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// ShardFor maps a routing key (a base-image id) to its home shard: the
// first vnode clockwise from the key's hash.
func (r *Ring) ShardFor(baseID uint64) string {
	h := hashID(baseID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// RouteKey returns the id an object is placed by: edited sequences follow
// their base (base-affine partitioning), binaries route by themselves.
func RouteKey(id uint64, baseID uint64) uint64 {
	if baseID != 0 {
		return baseID
	}
	return id
}

func hashVNode(shardID string, replica int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(shardID))
	var buf [9]byte
	buf[0] = '#'
	binary.BigEndian.PutUint64(buf[1:], uint64(replica))
	h.Write(buf[:])
	return mix64(h.Sum64())
}

func hashID(id uint64) uint64 {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], id)
	h := fnv.New64a()
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// mix64 is the MurmurHash3 finalizer. FNV over inputs this short leaves
// the high bits of the sum nearly constant, which would collapse the ring
// into one band (one shard owning every key); the avalanche pass spreads
// points and keys across the whole 64-bit circle.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
