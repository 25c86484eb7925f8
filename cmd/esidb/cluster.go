package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	mmdb "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// cmdCluster dispatches the cluster subcommands: scatter-gather queries
// against the shards named in a shard-map file.
//
//	esidb cluster query    -map map.json [-mode bwm] [-ids] "at least 25% blue"
//	esidb cluster similar  -map map.json [-k 5] [-metric l1] probe.(ppm|png)
//	esidb cluster load     -map map.json -in dumpdir
//	esidb cluster stats    -map map.json
//	esidb cluster health   -map map.json
//	esidb cluster replicas -map map.json
//	esidb cluster promote  -map map.json -shard s0
func cmdCluster(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing cluster subcommand (query | similar | load | stats | health | replicas | promote)")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "query":
		return cmdClusterQuery(rest)
	case "similar":
		return cmdClusterSimilar(rest)
	case "load":
		return cmdClusterLoad(rest)
	case "stats":
		return cmdClusterStats(rest)
	case "health":
		return cmdClusterHealth(rest)
	case "replicas":
		return cmdClusterReplicas(rest)
	case "promote":
		return cmdClusterPromote(rest)
	default:
		return fmt.Errorf("unknown cluster subcommand %q", sub)
	}
}

// clusterFlags are the flags every cluster subcommand shares.
func clusterFlags(fs *flag.FlagSet) (mapPath *string, timeout *time.Duration, retries *int) {
	mapPath = fs.String("map", "", "shard-map file (JSON)")
	timeout = fs.Duration("timeout", 5*time.Second, "per-shard attempt timeout")
	retries = fs.Int("retries", 2, "per-shard retries before the shard counts as missed")
	return
}

// clusterHandles is everything a subcommand may need from a shard-map
// file: the map itself, a scatter-gather coordinator, and the replica
// sets keyed by shard id (only shards whose map entry lists replicas).
type clusterHandles struct {
	m     *cluster.ShardMap
	coord *cluster.Coordinator
	sets  map[string]*cluster.ReplicaSet
}

// openCluster builds an HTTP-transport coordinator from a shard-map file.
// Every shard in the map needs an addr.
func openCluster(mapPath string, timeout time.Duration, retries int) (*cluster.Coordinator, error) {
	h, err := openClusterHandles(mapPath, timeout, retries)
	if err != nil {
		return nil, err
	}
	return h.coord, nil
}

// openClusterHandles loads a shard map and builds the coordinator over
// it. A shard entry with replicas becomes a ReplicaSet of HTTP replicas
// (writes to the leader, reads to fresh followers); a plain entry stays a
// single HTTPShard.
func openClusterHandles(mapPath string, timeout time.Duration, retries int) (*clusterHandles, error) {
	if mapPath == "" {
		return nil, fmt.Errorf("missing -map flag")
	}
	m, err := cluster.LoadShardMap(mapPath)
	if err != nil {
		return nil, err
	}
	shards := make(map[string]cluster.Shard, len(m.Shards))
	sets := make(map[string]*cluster.ReplicaSet)
	for _, info := range m.Shards {
		if info.Addr == "" {
			return nil, fmt.Errorf("shard %q has no addr in %s", info.ID, mapPath)
		}
		if len(info.Replicas) == 0 {
			shards[info.ID] = cluster.NewHTTPShard(info.ID, info.Addr, nil)
			continue
		}
		members := make([]cluster.ReplicaMember, 0, len(info.Replicas)+1)
		members = append(members, cluster.ReplicaMember{
			ID: info.ID, Addr: info.Addr,
			Conn: cluster.NewHTTPReplica(info.ID, info.Addr, nil),
		})
		for _, r := range info.Replicas {
			if r.Addr == "" {
				return nil, fmt.Errorf("replica %q of shard %q has no addr in %s", r.ID, info.ID, mapPath)
			}
			members = append(members, cluster.ReplicaMember{
				ID: r.ID, Addr: r.Addr,
				Conn: cluster.NewHTTPReplica(r.ID, r.Addr, nil),
			})
		}
		rs, err := cluster.NewReplicaSet(info.ID, members...)
		if err != nil {
			return nil, err
		}
		shards[info.ID] = rs
		sets[info.ID] = rs
	}
	pol := cluster.DefaultPolicy()
	pol.Timeout = timeout
	pol.Retries = retries
	coord, err := cluster.New(m, shards, cluster.Options{Policy: pol})
	if err != nil {
		return nil, err
	}
	return &clusterHandles{m: m, coord: coord, sets: sets}, nil
}

// reportMissed warns on stderr when an answer is partial, so scripts that
// parse stdout still see it.
func reportMissed(partial bool, missed []string) {
	if partial {
		fmt.Fprintf(os.Stderr, "WARNING: partial result; missed shards: %v\n", missed)
	}
}

func cmdClusterQuery(args []string) error {
	fs := flag.NewFlagSet("cluster query", flag.ExitOnError)
	mapPath, timeout, retries := clusterFlags(fs)
	modeStr := fs.String("mode", "", modeFlagHelp())
	idsOnly := fs.Bool("ids", false, "print bare matching ids, one per line")
	trace := fs.Bool("trace", false, "collect and print the merged distributed span tree")
	traceJSON := fs.Bool("trace-json", false, "print the merged trace as raw JSON (implies -trace)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("missing query text")
	}
	coord, err := openCluster(*mapPath, *timeout, *retries)
	if err != nil {
		return err
	}
	var tr *mmdb.Trace
	if *trace || *traceJSON {
		tr = mmdb.NewTrace()
	}
	res, err := coord.Query(context.Background(), joinArgs(fs), *modeStr, tr)
	if err != nil {
		return err
	}
	reportMissed(res.Partial, res.Missed)
	if *traceJSON {
		// Machine-readable mode: the whole stdout is one JSON document
		// (the merged trace), so scripts can parse it without stripping
		// the id listing.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(tr)
	}
	if *idsOnly {
		for _, id := range res.IDs {
			fmt.Println(id)
		}
		return nil
	}
	for _, id := range res.IDs {
		fmt.Printf("%6d\n", id)
	}
	fmt.Printf("%d matches across %d shards (%d rule evaluations, %d edited skipped)\n",
		len(res.IDs), len(coord.ShardIDs()), res.Stats.OpsEvaluated, res.Stats.EditedSkipped)
	if *trace {
		printSpanTree(tr)
	}
	return nil
}

// printSpanTree renders a distributed trace as an indented tree: one line
// per span with its duration and attributes, then the whole-tree counters.
// Remote subtrees adopted from shards appear inline because every span in
// the tree shares the coordinator's trace id.
func printSpanTree(tr *mmdb.Trace) {
	root := tr.Root()
	if root == nil {
		return
	}
	fmt.Printf("trace %s:\n", tr.TraceID())
	var walk func(sp *obs.Span, depth int)
	walk = func(sp *obs.Span, depth int) {
		attrs := ""
		for _, a := range sp.Attrs() {
			attrs += fmt.Sprintf(" %s=%s", a.Key, a.Value)
		}
		fmt.Printf("  %s%-*s %10s%s\n",
			strings.Repeat("  ", depth), 32-2*depth, sp.Name(), sp.Duration().Round(time.Microsecond), attrs)
		for _, c := range sp.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	counters := tr.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  #%-33s %10d\n", name, counters[name])
	}
}

func cmdClusterSimilar(args []string) error {
	fs := flag.NewFlagSet("cluster similar", flag.ExitOnError)
	mapPath, timeout, retries := clusterFlags(fs)
	k := fs.Int("k", 5, "number of neighbors")
	metric := fs.String("metric", "l1", "l1 | l2 | intersection")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one probe image")
	}
	probe, err := readImage(fs.Arg(0))
	if err != nil {
		return err
	}
	coord, err := openCluster(*mapPath, *timeout, *retries)
	if err != nil {
		return err
	}
	res, err := coord.Similar(context.Background(), probe, *k, *metric, nil)
	if err != nil {
		return err
	}
	reportMissed(res.Partial, res.Missed)
	for _, m := range res.Matches {
		fmt.Printf("%6d  dist=%.4f\n", m.ID, m.Dist)
	}
	return nil
}

// cmdClusterLoad imports a dump directory through the coordinator, exactly
// like `esidb load` does for one node: objects are inserted in manifest
// order (binaries before edited) so the cluster assigns the same ids a
// single node loading the same dump would.
func cmdClusterLoad(args []string) error {
	fs := flag.NewFlagSet("cluster load", flag.ExitOnError)
	mapPath, timeout, retries := clusterFlags(fs)
	in := fs.String("in", "", "dump directory")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("missing -in flag")
	}
	coord, err := openCluster(*mapPath, *timeout, *retries)
	if err != nil {
		return err
	}
	entries, err := mmdb.ReadDump(*in)
	if err != nil {
		return err
	}
	ctx := context.Background()
	idMap := make(map[uint64]uint64, len(entries))
	perShard := make(map[string]int)
	for _, e := range entries {
		var newID uint64
		var home string
		switch e.Kind {
		case "binary":
			img, err := mmdb.ReadDumpImage(*in, e)
			if err != nil {
				return err
			}
			newID, home, err = coord.InsertImage(ctx, e.Name, img)
			if err != nil {
				return fmt.Errorf("insert binary %q: %w", e.Name, err)
			}
		default:
			seq, err := mmdb.ReadDumpSequence(*in, e)
			if err != nil {
				return err
			}
			seq, err = mmdb.RemapSequence(seq, idMap)
			if err != nil {
				return fmt.Errorf("remap sequence %q: %w", e.Name, err)
			}
			newID, home, err = coord.InsertSequence(ctx, e.Name, seq)
			if err != nil {
				return fmt.Errorf("insert sequence %q: %w", e.Name, err)
			}
		}
		idMap[e.ID] = newID
		perShard[home]++
	}
	shards := make([]string, 0, len(perShard))
	for s := range perShard {
		shards = append(shards, s)
	}
	sort.Strings(shards)
	fmt.Printf("loaded %d objects from %s\n", len(entries), *in)
	for _, s := range shards {
		fmt.Printf("  %-8s %d objects\n", s, perShard[s])
	}
	return nil
}

func cmdClusterStats(args []string) error {
	fs := flag.NewFlagSet("cluster stats", flag.ExitOnError)
	mapPath, timeout, retries := clusterFlags(fs)
	fs.Parse(args)
	coord, err := openCluster(*mapPath, *timeout, *retries)
	if err != nil {
		return err
	}
	st, err := coord.Stats(context.Background())
	if err != nil {
		return err
	}
	reportMissed(st.Partial, st.Missed)
	ids := make([]string, 0, len(st.PerShard))
	for id := range st.PerShard {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var images, binaries, edited int
	for _, id := range ids {
		s := st.PerShard[id]
		fmt.Printf("%-8s %d images (%d binary, %d edited), %d bwm clusters\n",
			id, s.Catalog.Images, s.Catalog.Binaries, s.Catalog.Edited, s.BWMClusters)
		images += s.Catalog.Images
		binaries += s.Catalog.Binaries
		edited += s.Catalog.Edited
	}
	fmt.Printf("total    %d images (%d binary, %d edited) on %d shards\n",
		images, binaries, edited, len(ids))
	return nil
}

func cmdClusterHealth(args []string) error {
	fs := flag.NewFlagSet("cluster health", flag.ExitOnError)
	mapPath, timeout, retries := clusterFlags(fs)
	fs.Parse(args)
	coord, err := openCluster(*mapPath, *timeout, *retries)
	if err != nil {
		return err
	}
	states := coord.CheckNow(context.Background())
	ids := make([]string, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	down := 0
	for _, id := range ids {
		fmt.Printf("%-8s %s\n", id, states[id])
		if states[id] != cluster.StateUp {
			down++
		}
	}
	if down > 0 {
		return fmt.Errorf("%d of %d shards not up", down, len(ids))
	}
	return nil
}

// cmdClusterReplicas probes every replica in the map and prints each
// set's view: role, reachability, applied LSN and lag.
func cmdClusterReplicas(args []string) error {
	fs := flag.NewFlagSet("cluster replicas", flag.ExitOnError)
	mapPath, timeout, retries := clusterFlags(fs)
	fs.Parse(args)
	h, err := openClusterHandles(*mapPath, *timeout, *retries)
	if err != nil {
		return err
	}
	stale := 0
	for _, info := range h.m.Shards {
		rs, ok := h.sets[info.ID]
		if !ok {
			fmt.Printf("%-8s unreplicated  %s\n", info.ID, info.Addr)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		infos := rs.Probe(ctx)
		cancel()
		fmt.Printf("%-8s leader=%s\n", info.ID, rs.LeaderID())
		for _, ri := range infos {
			state := "up"
			if !ri.Up {
				state = "DOWN"
				stale++
			}
			// ri.Role is the set's view from the map; self= is what the
			// node itself reports, so a promoted-but-not-yet-remapped
			// follower is visible.
			fmt.Printf("  %-10s %-8s %-4s self=%-8s applied=%-8d lag=%-6d resyncs=%-3d %s\n",
				ri.ID, ri.Role, state, ri.Status.Role, ri.Status.AppliedLSN, ri.Status.Lag, ri.Status.Resyncs, ri.Addr)
		}
	}
	if stale > 0 {
		return fmt.Errorf("%d replicas unreachable", stale)
	}
	return nil
}

// cmdClusterPromote fails a replicated shard over by hand: the
// most-caught-up reachable follower becomes leader and the rest retarget.
func cmdClusterPromote(args []string) error {
	fs := flag.NewFlagSet("cluster promote", flag.ExitOnError)
	mapPath, timeout, retries := clusterFlags(fs)
	shard := fs.String("shard", "", "replicated shard id to fail over")
	fs.Parse(args)
	if *shard == "" {
		return fmt.Errorf("missing -shard flag")
	}
	h, err := openClusterHandles(*mapPath, *timeout, *retries)
	if err != nil {
		return err
	}
	rs, ok := h.sets[*shard]
	if !ok {
		return fmt.Errorf("shard %q has no replicas in %s", *shard, *mapPath)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	newLeader, err := rs.PromoteNow(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("shard %s: promoted %s to leader\n", *shard, newLeader)
	// Rewrite the map so later invocations route writes at the new
	// leader. The old leader leaves the entry entirely — it must rejoin
	// as a follower (it may hold unacked writes the new leader never saw).
	for i := range h.m.Shards {
		info := &h.m.Shards[i]
		if info.ID != *shard {
			continue
		}
		rest := make([]cluster.ShardInfo, 0, len(info.Replicas))
		for _, r := range info.Replicas {
			if r.ID == newLeader {
				info.Addr = r.Addr
			} else {
				rest = append(rest, r)
			}
		}
		info.Replicas = rest
	}
	if err := h.m.Save(*mapPath); err != nil {
		return fmt.Errorf("promoted, but rewriting %s failed: %w", *mapPath, err)
	}
	fmt.Printf("map %s updated: shard %s served by %s\n", *mapPath, *shard, newLeader)
	return nil
}

func joinArgs(fs *flag.FlagSet) string {
	out := ""
	for i, a := range fs.Args() {
		if i > 0 {
			out += " "
		}
		out += a
	}
	return out
}
