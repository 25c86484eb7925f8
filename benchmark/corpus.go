package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	mmdb "repro"
	"repro/internal/dataset"
)

// Corpus constants of paper_mix: flag rasters at the size the paper's flag
// data set is rebuilt at, five operations per script and a 30% non-widening
// share (close to Table 2's flag column).
const (
	imgW, imgH      = 48, 32
	opsPerImage     = 5
	nonWideningFrac = 0.3
	quantizerDivs   = 4
)

// scale sizes the corpus and the op lists. paper is what BENCHMARK.json
// measures; smoke is the same code on a corpus small enough for go test.
type scale struct {
	name         string
	bases        int // binary images on the single node
	perBase      int // edited sequences per base
	clusterBases int // the cluster loads the first clusterBases bases and their sequences
	reps         int // repetitions per run, each from a fresh copy of the template
	listLen      map[string]int
	verifyOps    int // sampled range/compound ops checked across modes
	instantiate  int // how many of those are also checked against ModeInstantiate with tracing off
	twinReads    int // cluster reads compared with the single-node twin
	boundsIDs    int // edited ids walked for rules.walk_us
}

var scales = map[string]scale{
	"paper": {
		name: "paper", bases: 4000, perBase: 4, clusterBases: 400, reps: 3,
		listLen: map[string]int{
			"range_page": 1200, "range_full": 600, "similar_knn": 160,
			"ingest": 4000, "cluster_mixed": 2000,
		},
		verifyOps: 12, instantiate: 4, twinReads: 50, boundsIDs: 1000,
	},
	"smoke": {
		name: "smoke", bases: 40, perBase: 4, clusterBases: 20, reps: 1,
		listLen: map[string]int{
			"range_page": 50, "range_full": 50, "similar_knn": 50,
			"ingest": 50, "cluster_mixed": 50,
		},
		verifyOps: 12, instantiate: 12, twinReads: 50, boundsIDs: 100,
	},
}

// corpus is the seeded data set. Bases are inserted first and sequences
// after them, so on a database loaded in that order bases[i] has id i+1 and
// seqs[j] has id len(bases)+j+1. A sequence's Merge targets are drawn from
// the bases before its own, so every prefix of bases with its sequences is
// closed, which is what lets the cluster load a prefix.
type corpus struct {
	bases []dataset.NamedImage
	seqs  []*mmdb.Sequence
}

func baseID(i int) uint64 { return uint64(i + 1) }

func buildCorpus(sc scale, seed int64) *corpus {
	c := &corpus{bases: dataset.Flags(sc.bases, imgW, imgH, seed)}
	aug := dataset.NewAugmenter(dataset.AugmentConfig{
		PerBase: sc.perBase, OpsPerImage: opsPerImage, NonWideningFrac: nonWideningFrac, Seed: seed,
	})
	ids := make([]uint64, sc.bases)
	for i := range ids {
		ids[i] = baseID(i)
	}
	for i, b := range c.bases {
		c.seqs = append(c.seqs, aug.ScriptsFor(ids[i], b.Img, ids[:i])...)
	}
	return c
}

// prefix returns the corpus restricted to the first n bases.
func (c *corpus) prefix(n, perBase int) *corpus {
	return &corpus{bases: c.bases[:n], seqs: c.seqs[:n*perBase]}
}

func hashImage(h io.Writer, img *mmdb.Image) {
	var dims [8]byte
	binary.LittleEndian.PutUint32(dims[:4], uint32(img.W))
	binary.LittleEndian.PutUint32(dims[4:], uint32(img.H))
	h.Write(dims[:])
	for _, p := range img.Pix {
		h.Write([]byte{p.R, p.G, p.B})
	}
}

// digest identifies the corpus content and, through the insertion order, its
// ids.
func (c *corpus) digest() string {
	h := sha256.New()
	for _, b := range c.bases {
		io.WriteString(h, b.Name)
		hashImage(h, b.Img)
	}
	for _, s := range c.seqs {
		io.WriteString(h, mmdb.FormatSequence(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inserter is the part of a database the loader needs; the facade and the
// cluster coordinator both fit behind it. id is the id the object must end
// up with: the facade pins it, the coordinator allocates its own and the
// loader checks that the two agree.
type inserter struct {
	image func(ctx context.Context, id uint64, name string, img *mmdb.Image) (uint64, error)
	seq   func(ctx context.Context, id uint64, name string, seq *mmdb.Sequence) (uint64, error)
}

// load inserts the bases and then the sequences, each with the given number
// of goroutines, and checks that the ids come out as the op lists assume.
// More than one goroutine needs an inserter that pins ids.
func (c *corpus) load(ctx context.Context, ins inserter, workers int) error {
	err := parallel(len(c.bases), workers, func(i int) error {
		id, err := ins.image(ctx, baseID(i), c.bases[i].Name, c.bases[i].Img)
		if err == nil && id != baseID(i) {
			err = fmt.Errorf("got id %d, want %d", id, baseID(i))
		}
		if err != nil {
			return fmt.Errorf("load base %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return parallel(len(c.seqs), workers, func(j int) error {
		want := uint64(len(c.bases) + j + 1)
		id, err := ins.seq(ctx, want, fmt.Sprintf("edit-%05d", j), c.seqs[j])
		if err == nil && id != want {
			err = fmt.Errorf("got id %d, want %d", id, want)
		}
		if err != nil {
			return fmt.Errorf("load sequence %d: %w", j, err)
		}
		return nil
	})
}

// parallel calls f(0..n-1) from the given number of goroutines, worker w
// taking w, w+workers, ..., and returns the first error.
func parallel(n, workers int, f func(i int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += workers {
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func facadeInserter(db *mmdb.DB) inserter {
	return inserter{
		image: func(ctx context.Context, id uint64, name string, img *mmdb.Image) (uint64, error) {
			return db.InsertImageCtx(ctx, name, img, mmdb.WithID(id))
		},
		seq: func(ctx context.Context, id uint64, name string, seq *mmdb.Sequence) (uint64, error) {
			return db.InsertEditedCtx(ctx, name, seq, mmdb.WithID(id))
		},
	}
}

func quantizer() mmdb.Quantizer { return mmdb.NewRGBQuantizer(quantizerDivs) }

func dbPath(dir string) string { return filepath.Join(dir, "esidb") }

// openSegmented opens the deployment under test's database: the segmented
// engine with its background sealer and compactor, everything else at its
// default (`esidb serve -segments`). Only the template is loaded with the
// background goroutine off, so that its one segment comes from one seal.
func openSegmented(dir string, background bool) (*mmdb.DB, error) {
	return mmdb.Open(
		mmdb.WithPath(dbPath(dir)),
		mmdb.WithQuantizer(quantizer()),
		mmdb.WithSegmentStore(mmdb.SegmentOptions{Background: background}),
	)
}

// templateLoaders is how many goroutines load the template. Loading is not
// measured; the extra writers only let the WAL's group commit share fsyncs.
const templateLoaders = 16

// buildTemplate loads the corpus once through the facade into dir, seals it
// into segments and checkpoints, so every repetition can start from a copy
// whose WAL is empty.
func buildTemplate(ctx context.Context, dir string, c *corpus) error {
	db, err := openSegmented(dir, false)
	if err != nil {
		return err
	}
	if err := c.load(ctx, facadeInserter(db), templateLoaders); err != nil {
		db.Close()
		return err
	}
	if err := db.Compact(); err != nil {
		db.Close()
		return fmt.Errorf("template compact: %w", err)
	}
	if err := db.Sync(); err != nil {
		db.Close()
		return fmt.Errorf("template checkpoint: %w", err)
	}
	return db.Close()
}

// copyDir copies the regular files under src into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
