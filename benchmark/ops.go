package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	mmdb "repro"
	"repro/internal/colorspace"
	"repro/internal/dataset"
)

type opKind uint8

const (
	opQuery       opKind = iota // GET /v1/query: a range or compound text query
	opMultiRange                // GET /v1/multirange: a colour family's bins
	opSimilar                   // POST /v1/similar: k-NN from an uploaded probe
	opInsertImage               // POST /v1/objects: a PPM upload
	opInsertSeq                 // POST /v1/sequences: an edit script on an existing base
)

const knnK = 10

// op is one request. Only the fields its kind uses are set.
type op struct {
	Kind   opKind
	Text   string // opQuery
	Mode   string // "" leaves the server default
	Limit  int    // 0 = unlimited
	Bins   []int  // opMultiRange
	Lo, Hi float64
	Image  *mmdb.Image // probe or upload
	Name   string
	Seq    *mmdb.Sequence
}

func (o *op) isWrite() bool { return o.Kind == opInsertImage || o.Kind == opInsertSeq }

// flagColors is the palette dataset.Flags draws from, so every query names a
// colour the corpus contains.
var flagColors = []string{"red", "white", "blue", "green", "yellow", "gold", "orange", "navy", "black", "sky"}

// pctRange draws one of the paper's three phrasings with the distribution of
// dataset.RangeWorkload: thresholds of 5-40%, bands 5-40% wide starting
// below 30%. which is 0 "at least", 1 "at most", 2 "between"; phrasings
// limits the draw to the first so many.
func pctRange(rng *rand.Rand, phrasings int) (which, lo, hi int) {
	which = rng.Intn(phrasings)
	p := 5 + rng.Intn(36)
	switch which {
	case 0:
		return which, p, 100
	case 1:
		return which, 0, p
	default:
		lo = rng.Intn(31)
		return which, lo, lo + p
	}
}

func rangeText(rng *rand.Rand, phrasings int) string {
	color := flagColors[rng.Intn(len(flagColors))]
	switch which, lo, hi := pctRange(rng, phrasings); which {
	case 0:
		return fmt.Sprintf("at least %d%% %s", lo, color)
	case 1:
		return fmt.Sprintf("at most %d%% %s", hi, color)
	default:
		return fmt.Sprintf("between %d%% and %d%% %s", lo, hi, color)
	}
}

// compoundText joins two threshold terms. The grammar cannot tell a band's
// "and" from the connective next to an "or", so compound terms leave the
// "between" phrasing out.
func compoundText(rng *rand.Rand) string {
	conn := " and "
	if rng.Intn(2) == 1 {
		conn = " or "
	}
	return rangeText(rng, 2) + conn + rangeText(rng, 2)
}

func rangeOps(rng *rand.Rand, n int, mode string, limit int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Kind: opQuery, Text: rangeText(rng, 3), Mode: mode, Limit: limit}
	}
	return ops
}

func knnOps(rng *rand.Rand, n int, c *corpus) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Kind: opSimilar, Image: c.bases[rng.Intn(len(c.bases))].Img}
	}
	return ops
}

// writeGen draws the paper's augmentation pattern: one new raster for every
// four edit scripts on bases the database already holds.
type writeGen struct {
	rng *rand.Rand
	aug *dataset.Augmenter
	c   *corpus
	ids []uint64
	n   int
}

func newWriteGen(rng *rand.Rand, c *corpus) *writeGen {
	g := &writeGen{rng: rng, c: c, ids: make([]uint64, len(c.bases))}
	for i := range g.ids {
		g.ids[i] = baseID(i)
	}
	g.aug = dataset.NewAugmenter(dataset.AugmentConfig{
		PerBase: 1, OpsPerImage: opsPerImage, NonWideningFrac: nonWideningFrac, Seed: rng.Int63(),
	})
	return g
}

func (g *writeGen) next(imageShare float64) op {
	g.n++
	b := g.rng.Intn(len(g.c.bases))
	if g.rng.Float64() < imageShare {
		return op{Kind: opInsertImage, Name: fmt.Sprintf("upload-%05d", g.n), Image: g.c.bases[b].Img}
	}
	seq := g.aug.ScriptsFor(g.ids[b], g.c.bases[b].Img, g.ids)[0]
	return op{Kind: opInsertSeq, Name: fmt.Sprintf("script-%05d", g.n), Seq: seq}
}

func ingestOps(rng *rand.Rand, n int, c *corpus) []op {
	g := newWriteGen(rng, c)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next(0.2)
	}
	return ops
}

// clusterOps is the mixed list: 50% range, 20% compound, 20% colour-family
// multi-range, 8% script inserts, 2% raster inserts.
func clusterOps(rng *rand.Rand, n int, c *corpus) ([]op, error) {
	g := newWriteGen(rng, c)
	q := quantizer()
	ops := make([]op, n)
	for i := range ops {
		switch r := rng.Intn(100); {
		case r < 50:
			ops[i] = op{Kind: opQuery, Text: rangeText(rng, 3)}
		case r < 70:
			ops[i] = op{Kind: opQuery, Text: compoundText(rng)}
		case r < 90:
			bins, err := colorspace.FamilyForName(flagColors[rng.Intn(len(flagColors))], q)
			if err != nil {
				return nil, err
			}
			_, lo, hi := pctRange(rng, 3)
			ops[i] = op{Kind: opMultiRange, Bins: bins, Lo: float64(lo) / 100, Hi: float64(hi) / 100}
		case r < 98:
			ops[i] = g.next(0)
		default:
			ops[i] = g.next(1)
		}
	}
	return ops, nil
}

// verifyOps samples range and compound texts for the cross-mode check.
func verifyOps(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		text := rangeText(rng, 3)
		if i%3 == 2 {
			text = compoundText(rng)
		}
		ops[i] = op{Kind: opQuery, Text: text}
	}
	return ops
}

// digestOps identifies an op list byte for byte.
func digestOps(ops []op) string {
	h := sha256.New()
	for i := range ops {
		o := &ops[i]
		fmt.Fprintf(h, "%d|%s|%s|%d|%v|%g|%g|%s|", o.Kind, o.Text, o.Mode, o.Limit, o.Bins, o.Lo, o.Hi, o.Name)
		if o.Image != nil {
			hashImage(h, o.Image)
		}
		if o.Seq != nil {
			fmt.Fprint(h, mmdb.FormatSequence(o.Seq))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workload is one seeded traffic mix.
type workload struct {
	name    string
	why     string
	cluster bool
	// writeLed says which op class the latency metrics are taken over:
	// inserts on ingest, queries everywhere else. The other class, where a
	// workload has one, is reported among the client. diagnostics.
	writeLed bool
	ops      []op // cycled by the two clients for the timed phase
	verify   []op // sampled queries for the cross-mode check
}

// workloadWhy is the one-line reason each workload exists; BENCHMARK.json
// repeats it.
var workloadWhy = map[string]string{
	"range_page":    "the paper's experiment as a user sees it: a page of 20 answers, so the strategy scan is nearly all of the latency and a server change does not show",
	"range_full":    "the same queries with mode=indexed and no limit: hydration, JSON and the socket dominate, so a server or encoding gain shows and a core gain does not",
	"similar_knn":   "the only path that walks BoundsAll over every edited image and decodes an upload: where k-NN served from the S-tree must not lose",
	"ingest":        "the write path beside the reads: upload decode, insert under the database lock, WAL group commit, segment seals and background compaction",
	"cluster_mixed": "scatter-gather, merge, id allocation and semi-sync acks through the coordinator, with reads and writes contending in one run",
}

var workloadNames = []string{"range_page", "range_full", "similar_knn", "ingest", "cluster_mixed"}

// buildWorkload derives every op list of one workload from the seed. Each
// list has its own generator, so changing one list's length leaves the
// others as they were.
func buildWorkload(name string, sc scale, seed int64, c *corpus) (*workload, error) {
	n, ok := sc.listLen[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	rng := func(stream int64) *rand.Rand { return rand.New(rand.NewSource(seed*1000 + stream)) }
	w := &workload{name: name, why: workloadWhy[name], verify: verifyOps(rng(2), sc.verifyOps)}
	switch name {
	case "range_page":
		w.ops = rangeOps(rng(1), n, "", 20)
	case "range_full":
		w.ops = rangeOps(rng(1), n, "indexed", 0)
	case "similar_knn":
		w.ops = knnOps(rng(1), n, c)
	case "ingest":
		w.writeLed = true
		w.ops = ingestOps(rng(1), n, c)
	case "cluster_mixed":
		w.cluster = true
		ops, err := clusterOps(rng(1), n, c.prefix(sc.clusterBases, sc.perBase))
		if err != nil {
			return nil, err
		}
		w.ops = ops
	}
	return w, nil
}
