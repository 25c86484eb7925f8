package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	mmdb "repro"
)

// warmShare of the main list is replayed untimed before the timed phases.
const warmShare = 0.05

// ack is one acknowledged write: the id the system returned for the op.
type ack struct {
	id uint64
	op *op
}

// phaseResult is what the clients saw in one closed-loop phase.
type phaseResult struct {
	readMS, writeMS []float64
	failed          int
	firstErr        error
	acked           []ack
	wall            time.Duration
}

func (p *phaseResult) attempted() int { return len(p.readMS) + len(p.writeMS) + p.failed }

func (p *phaseResult) add(q phaseResult) {
	p.readMS = append(p.readMS, q.readMS...)
	p.writeMS = append(p.writeMS, q.writeMS...)
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.acked = append(p.acked, q.acked...)
}

// runPhase drives ops as a closed loop: client c takes ops c, c+n, c+2n, ...
// and sends its next only when the previous one has answered. With d > 0 the
// clients cycle through the list until d has passed; with d == 0 they go
// through it once.
func runPhase(ctx context.Context, ops []op, clients []doFunc, d time.Duration) phaseResult {
	if len(ops) == 0 {
		return phaseResult{}
	}
	parts := make([]phaseResult, len(clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for i := c; d > 0 || i < len(ops); i += len(clients) {
				o := &ops[i%len(ops)]
				t := time.Now()
				if d > 0 && !t.Before(deadline) {
					return
				}
				id, err := clients[c](ctx, o)
				ms := float64(time.Since(t)) / 1e6
				switch {
				case err != nil:
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				case o.isWrite():
					p.writeMS = append(p.writeMS, ms)
					p.acked = append(p.acked, ack{id, o})
				default:
					p.readMS = append(p.readMS, ms)
				}
			}
		}(c)
	}
	wg.Wait()
	out := phaseResult{wall: time.Since(start)}
	for _, p := range parts {
		out.add(p)
	}
	return out
}

// storeStats are the write-path numbers one repetition reads from WALStats
// and SegmentStats deltas and from the directory after close.
type storeStats struct {
	writes       int
	fsyncs       int64
	checkpoints  int64
	seals        int64
	compactions  int64
	backlogEnd   int
	stallMS      float64
	userBytes    int64
	diskBytes    int64
	reopenS      float64
	replayed     int64
	followerLag  uint64
	orderReports int
}

// repResult is one repetition from a fresh copy of the template.
type repResult struct {
	setupS     float64
	memMB      float64
	throughput float64
	timed      phaseResult // the timed phase; acked also holds the warm-up's writes
	store      storeStats
	checks     int // verification checks made after the timed phases
	checkFails []string
	precision  float64 // |instantiated answer| / |bounds answer| on the verification sample
}

// bench holds what one invocation shares between workloads and repetitions.
type bench struct {
	sc       scale
	seed     int64
	seconds  float64
	corpus   *corpus
	tmp      string // every temporary directory lives under here
	template string // "" until a single-node workload needs it
}

func (b *bench) mkdir(pattern string) (string, error) { return os.MkdirTemp(b.tmp, pattern) }

func (b *bench) templateDir(ctx context.Context) (string, error) {
	if b.template != "" {
		return b.template, nil
	}
	dir, err := b.mkdir("template-")
	if err != nil {
		return "", err
	}
	if err := buildTemplate(ctx, dir, b.corpus); err != nil {
		return "", err
	}
	b.template = dir
	return dir, nil
}

// heapInUseMB forces a collection and returns the live heap.
func heapInUseMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

func userBytes(acked []ack) int64 {
	var n int64
	for _, a := range acked {
		if a.op.Kind == opInsertImage {
			n += int64(len(a.op.Image.Pix) * 3)
		} else {
			n += int64(len(mmdb.FormatSequence(a.op.Seq)))
		}
	}
	return n
}

// warmAndRun replays the warm-up outside the clock, measures the heap, and
// then runs the timed phase for repSeconds.
func warmAndRun(ctx context.Context, w *workload, clients []doFunc, repSeconds float64, setupStart time.Time) (repResult, error) {
	var r repResult
	warm := runPhase(ctx, w.ops[:warmLen(len(w.ops))], clients, 0)
	if warm.firstErr != nil {
		return r, fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	r.setupS = time.Since(setupStart).Seconds()
	r.memMB = heapInUseMB()

	r.timed = runPhase(ctx, w.ops, clients, time.Duration(repSeconds*float64(time.Second)))
	r.throughput = float64(r.timed.attempted()-r.timed.failed) / r.timed.wall.Seconds()
	r.timed.acked = append(warm.acked, r.timed.acked...)
	return r, nil
}

func warmLen(n int) int { return max(int(float64(n)*warmShare), 1) }

// singleNodeRep is one repetition on the single node: copy the template,
// open it behind the server, warm up, run the timed phase, then close and
// check from disk that every acknowledged write survived.
func (b *bench) singleNodeRep(ctx context.Context, w *workload, repSeconds float64, crossMode int) (repResult, error) {
	template, err := b.templateDir(ctx)
	if err != nil {
		return repResult{}, err
	}
	templateBytes, err := dirBytes(template)
	if err != nil {
		return repResult{}, err
	}
	dir, err := b.mkdir("node-")
	if err != nil {
		return repResult{}, err
	}
	defer os.RemoveAll(dir)

	setupStart := time.Now()
	if err := copyDir(template, dir); err != nil {
		return repResult{}, err
	}
	n, err := openNode(dir)
	if err != nil {
		return repResult{}, err
	}
	wal0, _ := n.db.WALStats()
	seg0, _ := n.db.SegmentStats()
	r, err := warmAndRun(ctx, w, n.doers(), repSeconds, setupStart)
	if err != nil {
		n.close()
		return r, err
	}
	wal1, _ := n.db.WALStats()
	seg1, _ := n.db.SegmentStats()
	if err := n.close(); err != nil {
		return r, fmt.Errorf("close: %w", err)
	}
	r.store = storeStats{
		writes:      len(r.timed.acked),
		fsyncs:      wal1.Fsyncs - wal0.Fsyncs,
		checkpoints: wal1.Checkpoints - wal0.Checkpoints,
		seals:       seg1.Seals - seg0.Seals,
		compactions: seg1.Compactions - seg0.Compactions,
		backlogEnd:  seg1.CompactionBacklog,
		stallMS:     float64(seg1.RateLimitStallNanos-seg0.RateLimitStallNanos) / 1e6,
		userBytes:   userBytes(r.timed.acked),
	}
	after, err := dirBytes(dir)
	if err != nil {
		return r, err
	}
	r.store.diskBytes = after - templateBytes
	if err := verifyFromDisk(ctx, dir, w, &r, crossMode); err != nil {
		return r, err
	}
	return r, nil
}

// clusterRep is one repetition on the cluster: build it, load the corpus
// prefix through the coordinator, warm up, run the mix, then compare sampled
// reads with a single-node twin holding the same objects.
func (b *bench) clusterRep(ctx context.Context, w *workload, repSeconds float64) (repResult, error) {
	dir, err := b.mkdir("cluster-")
	if err != nil {
		return repResult{}, err
	}
	defer os.RemoveAll(dir)
	part := b.corpus.prefix(b.sc.clusterBases, b.sc.perBase)

	setupStart := time.Now()
	cn, err := openCluster(dir)
	if err != nil {
		return repResult{}, err
	}
	if err := part.load(ctx, cn.inserter(), 1); err != nil {
		cn.close()
		return repResult{}, err
	}
	r, err := warmAndRun(ctx, w, cn.doers(), repSeconds, setupStart)
	if err != nil {
		cn.close()
		return r, err
	}
	r.store.writes = len(r.timed.acked)
	err = b.verifyCluster(ctx, cn, part, w, &r)
	if cerr := cn.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	return r, err
}

func (b *bench) rep(ctx context.Context, w *workload, repSeconds float64, crossMode int) (repResult, error) {
	if w.cluster {
		return b.clusterRep(ctx, w, repSeconds)
	}
	return b.singleNodeRep(ctx, w, repSeconds, crossMode)
}

// tally counts what was attempted and what failed: timed ops plus the
// verification checks made after them.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
}

func (t *tally) addRep(r *repResult) {
	t.Attempted += r.timed.attempted() + r.checks
	t.Failed += r.timed.failed + len(r.checkFails)
	t.Problems = append(t.Problems, r.checkFails...)
	if r.timed.firstErr != nil {
		t.Problems = append(t.Problems, fmt.Sprintf("first op error: %v", r.timed.firstErr))
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Problems = append(t.Problems, o.Problems...)
}

func (t *tally) correct() bool { return t.Failed == 0 && len(t.Problems) == 0 }

// runResult is one workload's end-to-end pass. It keeps no repetition's
// samples or op pointers, so that a report held across workloads does not
// show up in the next workload's heap measurement.
type runResult struct {
	Workload string             `json:"workload"`
	Metrics  map[string]float64 `json:"metrics"`
	Spread   map[string]float64 `json:"quartile_distance"`
	Samples  int                `json:"latency_samples"`
	Reps     int                `json:"repetitions"`
	tally
}

// latencies returns the samples of the op class the workload's latency
// metrics are taken over.
func (w *workload) latencies(p *phaseResult) []float64 {
	if w.writeLed {
		return p.writeMS
	}
	return p.readMS
}

// endToEndPass runs the repetitions of one workload with tracing off. The
// latency percentiles are taken over the samples of all repetitions pooled,
// because one repetition of the slow workloads is too short to support p90;
// every other metric is the median of the per-repetition values.
func (b *bench) endToEndPass(ctx context.Context, w *workload) (*runResult, error) {
	res := &runResult{
		Workload: w.name,
		Metrics:  make(map[string]float64),
		Spread:   make(map[string]float64),
	}
	repSeconds := b.seconds / float64(b.sc.reps)
	var pooled phaseResult
	perRep := make(map[string][]float64)
	for i := 0; i < b.sc.reps; i++ {
		crossMode := 0
		if i == b.sc.reps-1 {
			crossMode = b.sc.instantiate
		}
		r, err := b.rep(ctx, w, repSeconds, crossMode)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, i+1, err)
		}
		res.Reps++
		pooled.readMS = append(pooled.readMS, r.timed.readMS...)
		pooled.writeMS = append(pooled.writeMS, r.timed.writeMS...)
		res.addRep(&r)
		lat := sorted(w.latencies(&r.timed))
		perRep["setup_s"] = append(perRep["setup_s"], r.setupS)
		perRep["throughput_ops_s"] = append(perRep["throughput_ops_s"], r.throughput)
		perRep["mem_after_warm_mb"] = append(perRep["mem_after_warm_mb"], r.memMB)
		perRep["latency_p50_ms"] = append(perRep["latency_p50_ms"], percentile(lat, 50))
		perRep["latency_p90_ms"] = append(perRep["latency_p90_ms"], percentile(lat, 90))
	}
	for name, xs := range perRep {
		res.Metrics[name] = median(xs)
		res.Spread[name] = quartileDistance(xs)
	}
	lat := sorted(w.latencies(&pooled))
	res.Metrics["latency_p50_ms"], res.Metrics["latency_p90_ms"] = percentile(lat, 50), percentile(lat, 90)
	res.Samples = len(lat)
	if highestSupported(len(lat)) < 90 {
		fmt.Fprintf(os.Stderr, "warning: %s: %d latency samples do not support p90\n", w.name, len(lat))
	}
	return res, nil
}
