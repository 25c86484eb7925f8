// Command esidb is the database CLI: create and inspect databases, insert
// rasters, augment them with edited versions, store hand-written edit
// scripts, run color range queries and similarity searches, and export any
// object (instantiating edited images on demand).
//
// Usage:
//
//	esidb create  -db path        (objects go to path.segments/, the log to path.wal)
//	esidb insert  -db file -name label image.(ppm|png)
//	esidb edit    -db file -name label script.txt
//	esidb augment -db file -id N [-per 3] [-ops 4] [-nonwidening 0.2] [-seed 1]
//	esidb query   -db file [-mode MODE] [-limit N] [-after ID] [-bases] [-trace] [-parallelism N] "at least 25% blue"
//	              (compound: "at least 20% red and at most 10% blue";
//	              MODE is one of mmdb.ModeNames(), listed by "esidb query -h";
//	              -limit returns the N lowest matching ids and stops evaluating
//	              there, -after ID resumes past a page's last id)
//	esidb similar -db file [-k 5] [-metric l1|l2|intersection] probe.(ppm|png)
//	esidb delete  -db file -id N
//	esidb export  -db file -id N -o out.(ppm|png)
//	esidb show    -db file -id N
//	esidb ls      -db file
//	esidb compact -db file
//	esidb wal     stats|checkpoint -db file
//	esidb stats   -db file
//	esidb metrics -db file [-q "at least 25% blue"] [-mode bwm] [-json]
//	esidb fsck    -db file
//	esidb store   segments -db file
//	esidb serve   -db file [-addr :8765] [-log-json] [-parallelism N] [-slow-query-threshold 100ms] [-segment-size BYTES] [-compaction-rate BYTES/S] [-shard-id s0 -shard-map map.json] [-replica-of http://leader:8765 -replica-id s0-r1]
//	esidb querylog [-addr http://localhost:8765] [-threshold 100ms] [-json]
//	esidb cluster query|similar|stats|health|load -map map.json ...
//	esidb colors
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	mmdb "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store/segment"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "create":
		err = cmdCreate(args)
	case "insert":
		err = cmdInsert(args)
	case "edit":
		err = cmdEdit(args)
	case "augment":
		err = cmdAugment(args)
	case "query":
		err = cmdQuery(args)
	case "explain":
		err = cmdExplain(args)
	case "similar":
		err = cmdSimilar(args)
	case "delete":
		err = cmdDelete(args)
	case "export":
		err = cmdExport(args)
	case "show":
		err = cmdShow(args)
	case "ls":
		err = cmdLs(args)
	case "dump":
		err = cmdDump(args)
	case "load":
		err = cmdLoad(args)
	case "compact":
		err = cmdCompact(args)
	case "fsck":
		err = cmdFsck(args)
	case "store":
		err = cmdStore(args)
	case "stats":
		err = cmdStats(args)
	case "metrics":
		err = cmdMetrics(args)
	case "wal":
		err = cmdWAL(args)
	case "serve":
		err = cmdServe(args)
	case "querylog":
		err = cmdQueryLog(args)
	case "cluster":
		err = cmdCluster(args)
	case "colors":
		err = cmdColors()
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "esidb: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "esidb %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `esidb — edit-sequence image database CLI

commands:
  create   create an empty database (<db>.segments/ and <db>.wal)
  insert   insert a raster image (PPM or PNG)
  edit     insert an edited image from a text script
  augment  generate and insert edited versions of a base image
  query    run a color range query ("at least 25% blue"; -limit N -after ID pages through it)
  explain  show a query's plan (BWM skips vs rule walks) without running it
  similar  query by example (k nearest neighbors)
  delete   remove an object (edited first, then unreferenced binaries)
  export   materialize an object to a PPM/PNG file
  show     print one object's details
  ls       list all objects
  dump     export all objects to a portable directory (PPM + scripts)
  load     import a dump directory (ids remapped)
  compact  seal and merge segments, reclaiming deleted and superseded space
  fsck     verify every segment's frames, footer, index and bloom filter
  store    storage-engine operations: segments (list the stack off disk)
  wal      write-ahead-log operations: stats, checkpoint
  stats    print database statistics
  metrics  run a workload probe and print the process metrics registry
  serve    expose the database over HTTP (optionally as one cluster shard)
  querylog fetch a serving node's slow-query log
  cluster  query N shards through a scatter-gather coordinator
  colors   list the query color vocabulary`)
}

func openDB(path string) (*mmdb.DB, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -db flag")
	}
	return mmdb.Open(mmdb.WithPath(path))
}

func readImage(path string) (*mmdb.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".png":
		return mmdb.DecodePNG(f)
	default:
		return mmdb.DecodePPM(f)
	}
}

func writeImage(path string, img *mmdb.Image) error {
	if strings.ToLower(filepath.Ext(path)) == ".png" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := mmdb.EncodePNG(f, img); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return mmdb.WritePPMFile(path, img)
}

func cmdCreate(args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	quant := fs.String("quantizer", "", "color quantizer (rgb4, hsv18x3x3, luv4x6, ...)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("missing -db flag")
	}
	opts := []mmdb.Option{mmdb.WithPath(*path)}
	if *quant != "" {
		opts = append(opts, mmdb.WithQuantizerName(*quant))
	}
	db, err := mmdb.Open(opts...)
	if err != nil {
		return err
	}
	if err := db.Sync(); err != nil {
		db.Close()
		return err
	}
	fmt.Printf("created %s (quantizer %s)\n", *path, db.Quantizer().Name())
	return db.Close()
}

func cmdInsert(args []string) error {
	fs := flag.NewFlagSet("insert", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	name := fs.String("name", "", "object label")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one image file")
	}
	img, err := readImage(fs.Arg(0))
	if err != nil {
		return err
	}
	if *name == "" {
		*name = strings.TrimSuffix(filepath.Base(fs.Arg(0)), filepath.Ext(fs.Arg(0)))
	}
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	id, err := db.InsertImageCtx(context.Background(), *name, img)
	if err != nil {
		return err
	}
	fmt.Printf("inserted %s as id %d (%dx%d)\n", *name, id, img.W, img.H)
	return nil
}

func cmdEdit(args []string) error {
	fs := flag.NewFlagSet("edit", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	name := fs.String("name", "edited", "object label")
	optimize := fs.Bool("optimize", false, "optimize the script before storing")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one script file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	seq, err := mmdb.ParseSequence(f)
	f.Close()
	if err != nil {
		return err
	}
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	if *optimize {
		before := len(seq.Ops)
		seq, err = db.OptimizeSequence(seq)
		if err != nil {
			return err
		}
		fmt.Printf("optimized script: %d -> %d ops\n", before, len(seq.Ops))
	}
	id, err := db.InsertEditedCtx(context.Background(), *name, seq)
	if err != nil {
		return err
	}
	obj, err := db.Get(id)
	if err != nil {
		return err
	}
	fmt.Printf("inserted edited image %d (base %d, %d ops, widening=%v)\n",
		id, seq.BaseID, len(seq.Ops), obj.Widening)
	return nil
}

func cmdAugment(args []string) error {
	fs := flag.NewFlagSet("augment", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	id := fs.Uint64("id", 0, "base image id")
	per := fs.Int("per", 3, "edited versions to generate")
	ops := fs.Int("ops", 4, "average operations per version")
	nonW := fs.Float64("nonwidening", 0, "fraction containing a non-widening op")
	seed := fs.Int64("seed", 1, "generation seed")
	fs.Parse(args)
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	ids, err := db.Augment(*id, mmdb.AugmentOptions{
		PerBase: *per, OpsPerImage: *ops, NonWideningFrac: *nonW, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("augmented base %d with %d edited versions: %v\n", *id, len(ids), ids)
	return nil
}

// parseMode delegates to the core mode registry; a mode registered there
// (see core.AllModes) is immediately usable from every CLI command, and
// the error lists every valid name.
func parseMode(s string) (mmdb.Mode, error) {
	m, err := mmdb.ParseMode(s)
	if err != nil {
		return 0, fmt.Errorf("unknown mode %q (valid: %s)", s, strings.Join(mmdb.ModeNames(), ", "))
	}
	return m, nil
}

// modeFlagHelp is the -mode flag usage string, derived from the registry.
func modeFlagHelp() string { return strings.Join(mmdb.ModeNames(), " | ") }

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	modeStr := fs.String("mode", "bwm", modeFlagHelp())
	bases := fs.Bool("bases", false, "also return the base image of each edited match")
	trace := fs.Bool("trace", false, "print per-phase timings and decision counts")
	idsOnly := fs.Bool("ids", false, "print bare matching ids, one per line")
	parallelism := fs.Int("parallelism", 0, "candidate-evaluation workers (0 = all CPUs, 1 = serial)")
	limit := fs.Int("limit", 0, "return at most this many matches, lowest ids first (0 = all)")
	after := fs.Uint64("after", 0, "return only ids greater than this one: pass a page's last id to get the next page")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("missing query text")
	}
	mode, err := parseMode(*modeStr)
	if err != nil {
		return err
	}
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetParallelism(*parallelism)
	var tr *mmdb.Trace
	if *trace {
		tr = mmdb.NewTrace()
	}
	res, err := db.QueryCompoundCtx(context.Background(), strings.Join(fs.Args(), " "), mode,
		mmdb.WithTrace(tr), mmdb.WithLimit(*limit), mmdb.WithAfter(*after))
	if err != nil {
		return err
	}
	ids := res.IDs
	if *bases {
		ids = db.ExpandToBases(ids)
	}
	if *idsOnly {
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil
	}
	for _, id := range ids {
		obj, err := db.Get(id)
		if err != nil {
			return err
		}
		fmt.Printf("%6d  %-8s %s\n", id, obj.Kind, obj.Name)
	}
	fmt.Printf("%d matches (%d rule evaluations, %d edited skipped)\n",
		len(ids), res.Stats.OpsEvaluated, res.Stats.EditedSkipped)
	if tr != nil {
		printTrace(tr)
	}
	return nil
}

// printTrace renders a query trace: phases in completion order with their
// share of the total, then decision counters sorted by name.
func printTrace(tr *mmdb.Trace) {
	phases := tr.Phases()
	var total int64
	for _, p := range phases {
		total += p.Duration.Nanoseconds()
	}
	fmt.Println("trace:")
	for _, p := range phases {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(p.Duration.Nanoseconds()) / float64(total)
		}
		fmt.Printf("  %-28s %10s  %5.1f%%\n", p.Name, p.Duration, pct)
	}
	counters := tr.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-28s %10d\n", name, counters[name])
	}
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("missing query text")
	}
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	plan, err := db.Explain(strings.Join(fs.Args(), " "))
	if err != nil {
		return err
	}
	fmt.Print(plan)
	return nil
}

func cmdSimilar(args []string) error {
	fs := flag.NewFlagSet("similar", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	k := fs.Int("k", 5, "number of neighbors")
	metricStr := fs.String("metric", "l1", "l1 | l2 | intersection")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one probe image")
	}
	var metric mmdb.Metric
	switch *metricStr {
	case "l1":
		metric = mmdb.MetricL1
	case "l2":
		metric = mmdb.MetricL2
	case "intersection":
		metric = mmdb.MetricIntersection
	default:
		return fmt.Errorf("unknown metric %q", *metricStr)
	}
	probe, err := readImage(fs.Arg(0))
	if err != nil {
		return err
	}
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	matches, st, err := db.QueryByExample(probe, *k, metric)
	if err != nil {
		return err
	}
	for _, m := range matches {
		obj, err := db.Get(m.ID)
		if err != nil {
			return err
		}
		fmt.Printf("%6d  %-8s %-24s dist=%.4f\n", m.ID, obj.Kind, obj.Name, m.Dist)
	}
	fmt.Printf("(%d edited pruned without instantiation, %d instantiated)\n",
		st.EditedPruned, st.EditedInstantiated)
	return nil
}

func cmdDelete(args []string) error {
	fs := flag.NewFlagSet("delete", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	id := fs.Uint64("id", 0, "object id")
	fs.Parse(args)
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.Delete(*id); err != nil {
		return err
	}
	fmt.Printf("deleted object %d\n", *id)
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	id := fs.Uint64("id", 0, "object id")
	out := fs.String("o", "out.ppm", "output file (.ppm or .png)")
	fs.Parse(args)
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	img, err := db.Image(*id)
	if err != nil {
		return err
	}
	if err := writeImage(*out, img); err != nil {
		return err
	}
	fmt.Printf("exported object %d (%dx%d) to %s\n", *id, img.W, img.H, *out)
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	id := fs.Uint64("id", 0, "object id")
	fs.Parse(args)
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	obj, err := db.Get(*id)
	if err != nil {
		return err
	}
	fmt.Printf("id:   %d\nkind: %s\nname: %s\n", obj.ID, obj.Kind, obj.Name)
	if obj.Kind == mmdb.KindBinary {
		fmt.Printf("dims: %dx%d\n", obj.W, obj.H)
		fmt.Printf("edited versions: %v\n", db.EditedOf(obj.ID))
		return nil
	}
	fmt.Printf("widening-only: %v\nscript:\n%s", obj.Widening, mmdb.FormatSequence(obj.Seq))
	return nil
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(args)
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	for _, id := range append(db.Binaries(), db.EditedIDs()...) {
		obj, err := db.Get(id)
		if err != nil {
			return err
		}
		extra := ""
		if obj.Kind == mmdb.KindBinary {
			extra = fmt.Sprintf("%dx%d", obj.W, obj.H)
		} else {
			extra = fmt.Sprintf("base=%d ops=%d widening=%v", obj.Seq.BaseID, len(obj.Seq.Ops), obj.Widening)
		}
		fmt.Printf("%6d  %-8s %-24s %s\n", id, obj.Kind, obj.Name, extra)
	}
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	out := fs.String("out", "", "output directory")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("missing -out flag")
	}
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.DumpTo(*out); err != nil {
		return err
	}
	nb, ne := len(db.Binaries()), len(db.EditedIDs())
	fmt.Printf("dumped %d binary + %d edited objects to %s\n", nb, ne, *out)
	return nil
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	in := fs.String("in", "", "dump directory")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("missing -in flag")
	}
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	n, err := db.LoadFrom(*in)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d objects from %s\n", n, *in)
	return nil
}

// cmdWAL groups write-ahead-log operations: `wal stats` prints log
// activity, `wal checkpoint` forces a durability checkpoint (persist +
// fsync + log truncation).
func cmdWAL(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: esidb wal stats|checkpoint -db file")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("wal "+sub, flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(rest)
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	switch sub {
	case "stats":
		st, ok := db.WALStats()
		if !ok {
			return fmt.Errorf("database has no write-ahead log")
		}
		fmt.Printf("log size:          %d bytes\n", st.SizeBytes)
		fmt.Printf("live records:      %d\n", st.Records)
		fmt.Printf("last lsn:          %d\n", st.LastLSN)
		fmt.Printf("fsyncs:            %d\n", st.Fsyncs)
		fmt.Printf("checkpoints:       %d\n", st.Checkpoints)
		fmt.Printf("replayed on open:  %d\n", st.Replayed)
		fmt.Printf("torn tail dropped: %d bytes\n", st.TornBytes)
		if st.Fsyncs > 0 {
			fmt.Printf("records per fsync: %.2f\n", float64(st.LastLSN)/float64(st.Fsyncs))
		}
		return nil
	case "checkpoint":
		if err := db.WALCheckpoint(); err != nil {
			return err
		}
		st, _ := db.WALStats()
		fmt.Printf("checkpointed; log size now %d bytes\n", st.SizeBytes)
		return nil
	default:
		return fmt.Errorf("unknown wal subcommand %q (want stats or checkpoint)", sub)
	}
}

func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(args)
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	before, _ := db.SegmentStats()
	if err := db.Compact(); err != nil {
		return err
	}
	after, _ := db.SegmentStats()
	fmt.Printf("compacted %s: %d -> %d bytes, %d -> %d segments\n",
		*path, before.LiveBytes, after.LiveBytes, before.Segments, after.Segments)
	return nil
}

func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(args)
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	res, err := db.CheckStore()
	if err != nil {
		return err
	}
	fmt.Printf("segments: %d\nentries: %d\nbytes: %d\nproblems: %d\n",
		res.Segments, res.Entries, res.Bytes, len(res.Problems))
	if !res.Ok() {
		for _, p := range res.Problems {
			fmt.Printf("PROBLEM: %s\n", p)
		}
		return fmt.Errorf("%d problems found", len(res.Problems))
	}
	fmt.Println("clean")
	return nil
}

// cmdStore inspects the storage engine. "segments" reads the segment
// manifest directly off disk — no database open, no locks — so it works on
// a store that is being served or that fails to open.
func cmdStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: esidb store segments -db file")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("store "+sub, flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(rest)
	if *path == "" {
		return fmt.Errorf("missing -db flag")
	}
	switch sub {
	case "segments":
		dir := *path + ".segments"
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return fmt.Errorf("%s is not a database (no %s)", *path, dir)
		}
		m, err := segment.ReadManifest(dir)
		if err != nil {
			return err
		}
		fmt.Printf("generation: %d, %d live segments\n", m.Gen, len(m.Segments))
		var totalBytes int64
		var totalEntries int
		for _, s := range m.Segments {
			fmt.Printf("  seg %-4d %-20s ids [%d..%d]  %d entries (%d puts, %d tombstones)  %d bytes  bloom %d bits\n",
				s.ID, s.File, s.MinID, s.MaxID, s.Entries, s.Puts, s.Tombstones, s.Bytes, s.BloomBits)
			totalBytes += s.Bytes
			totalEntries += s.Entries
		}
		fmt.Printf("total: %d entries, %d bytes\n", totalEntries, totalBytes)
		return nil
	default:
		return fmt.Errorf("unknown store subcommand %q (want segments)", sub)
	}
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(args)
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	st, err := db.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("images:        %d (%d binary, %d edited)\n",
		st.Catalog.Images, st.Catalog.Binaries, st.Catalog.Edited)
	fmt.Printf("edited split:  %d widening-only, %d non-widening (avg %.2f ops)\n",
		st.Catalog.WideningOnly, st.Catalog.NonWidening, st.Catalog.AvgOpsPerEdited)
	fmt.Printf("bwm structure: %d clusters, %d clustered, %d unclassified\n",
		st.BWMClusters, st.BWMClustered, st.BWMUnclassified)
	if st.Persistent {
		res, err := db.CheckStore()
		if err != nil {
			return err
		}
		fmt.Printf("store:         %d segments, %d entries, %d bytes, %d problems\n",
			res.Segments, res.Entries, res.Bytes, len(res.Problems))
	}
	binB, edB, err := db.StorageFootprint()
	if err != nil {
		return err
	}
	fmt.Printf("footprint:     %d raster bytes, %d sequence bytes\n", binB, edB)
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	addr := fs.String("addr", ":8765", "listen address")
	logJSON := fs.Bool("log-json", false, "emit access logs as JSON instead of logfmt text")
	parallelism := fs.Int("parallelism", 0, "candidate-evaluation workers (0 = all CPUs, 1 = serial)")
	slowThreshold := fs.Duration("slow-query-threshold", 0, "latency at which a query enters the slow-query log (0 = every query is slow-eligible)")
	shardID := fs.String("shard-id", "", "serve as this shard of a cluster (requires -shard-map)")
	shardMap := fs.String("shard-map", "", "cluster shard-map file (JSON)")
	replicaOf := fs.String("replica-of", "", "start as a follower tailing this leader's base URL")
	replicaID := fs.String("replica-id", "", "this replica's name in status output (default: the listen addr)")
	segmentSize := fs.Int64("segment-size", 0, "seal the memtable into a segment at this many bytes (0 = 4 MiB)")
	compactionRate := fs.Int64("compaction-rate", 0, "cap compaction writes at this many bytes/sec (0 = unlimited)")
	fs.Parse(args)
	if *slowThreshold < 0 {
		return fmt.Errorf("-slow-query-threshold must not be negative")
	}
	if *path == "" {
		return fmt.Errorf("missing -db flag")
	}
	obs.DefaultQueryLog().SetThreshold(*slowThreshold)
	// A server seals and compacts in the background; the one-shot commands
	// seal at Close instead.
	db, err := mmdb.Open(mmdb.WithPath(*path), mmdb.WithSegmentStore(mmdb.SegmentOptions{
		TargetBytes:     *segmentSize,
		RateBytesPerSec: *compactionRate,
		Background:      true,
	}))
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetParallelism(*parallelism)
	if (*shardID == "") != (*shardMap == "") {
		return fmt.Errorf("-shard-id and -shard-map must be used together")
	}
	if *shardMap != "" {
		m, err := cluster.LoadShardMap(*shardMap)
		if err != nil {
			return err
		}
		info, ok := m.Shard(*shardID)
		if !ok {
			return fmt.Errorf("shard %q is not in %s", *shardID, *shardMap)
		}
		fmt.Printf("shard %s of %d (map %s, addr %s)\n", info.ID, len(m.Shards), *shardMap, info.Addr)
	}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	fmt.Printf("serving %s on %s\n", *path, *addr)
	srv := server.New(db).WithLogger(slog.New(handler))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every serving node carries a replication runtime so it can be
	// promoted, retargeted with POST /v1/follow, or queried for status —
	// -replica-of only decides whether it starts out tailing a leader.
	rid := *replicaID
	if rid == "" {
		if *shardID != "" {
			rid = *shardID
		} else {
			rid = *addr
		}
	}
	rep := cluster.NewReplicator(ctx, rid, db)
	srv.WithReplication(cluster.ServeReplication{R: rep})
	if *replicaOf != "" {
		fmt.Printf("replica %s following %s\n", rid, *replicaOf)
		rep.Follow(*replicaOf, cluster.NewHTTPReplica(*replicaOf, *replicaOf, nil))
	}
	return server.Run(ctx, *addr, srv)
}

// cmdMetrics prints the process metrics registry, optionally after running
// a query so the engine counters are non-zero for a cold process.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	queryText := fs.String("q", "", "optional query to run before printing")
	modeStr := fs.String("mode", "bwm", modeFlagHelp())
	asJSON := fs.Bool("json", false, "print JSON instead of Prometheus text")
	fs.Parse(args)
	db, err := openDB(*path)
	if err != nil {
		return err
	}
	defer db.Close()
	if *queryText != "" {
		mode, err := parseMode(*modeStr)
		if err != nil {
			return err
		}
		if _, err := db.QueryCompound(*queryText, mode); err != nil {
			return err
		}
	}
	if *asJSON {
		return obs.Default().WriteJSON(os.Stdout)
	}
	return obs.Default().WritePrometheus(os.Stdout)
}

func cmdColors() error {
	for _, name := range mmdb.ColorNames() {
		c, _ := mmdb.LookupColor(name)
		fmt.Printf("%-10s %s\n", name, c)
	}
	return nil
}
