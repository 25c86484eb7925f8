package core

// Crash matrix for the storage engine at the database level: a process
// death is injected at every named failpoint hit inside the engine's
// seal/compaction/manifest protocols while a WAL-acknowledged workload
// runs. After each crash the database reopens WITHOUT the failpoint and
// must satisfy the same durability contract as the WAL crash tests in
// crash_test.go: no acknowledged write lost, nothing half-applied,
// CheckStore clean, and query answers bit-identical to an uncrashed twin.
//
// The WAL is what makes this stronger than the engine-level sweep in
// internal/store/segment: even when the crash lands before the segment
// manifest made a round durable, the acknowledged records are still in the
// log and replay must resurrect them.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/store/segment"
)

// errSegKill is the injected "process died inside the engine" error.
var errSegKill = errors.New("core: injected segment crash")

// segKillAfter returns a sticky FailPoint that lets n hits pass.
func segKillAfter(n int) func(string) error {
	hits := 0
	return func(string) error {
		hits++
		if hits > n {
			return errSegKill
		}
		return nil
	}
}

// segCrashOpts shapes the engine so only the workload's explicit Sync and
// Compact calls seal: each Compact then finds three or more same-tier
// seals, a run of the engine's fan-in, and merges them.
func segCrashOpts(fp func(string) error) segment.Options {
	return segment.Options{TargetBytes: -1, FailPoint: fp}
}

// segCrashWorkload drives the full mutation script against a segmented
// database with explicit Sync (seal) and Compact calls between script
// steps, so failpoints fire at every protocol stage while acknowledged
// WAL records accumulate. Returns the acknowledged op names.
func segCrashWorkload(db *DB) []string {
	var acked []string
	for i, op := range crashWorkload() {
		if _, err := op.apply(db); err != nil {
			return acked
		}
		acked = append(acked, op.name)
		// Seal after every op and compact twice mid-script: with
		// TargetBytes disabled this is the only path to segments, and it
		// maximizes failpoint coverage per script position.
		if err := db.Sync(); err != nil {
			return acked
		}
		if i == 2 || i == 5 {
			if err := db.Compact(); err != nil {
				return acked
			}
		}
	}
	return acked
}

// TestSegmentCrashMatrixFailpoints sweeps an injected crash across every
// failpoint hit of the segmented workload and verifies recovery after each.
func TestSegmentCrashMatrixFailpoints(t *testing.T) {
	// Budget range: count the hits of an uncrashed run, which must reach
	// every seal, compaction and manifest-swap failpoint.
	seen := map[string]bool{}
	max := func() int {
		hits := 0
		fp := func(name string) error { hits++; seen[name] = true; return nil }
		path := filepath.Join(t.TempDir(), "probe.db")
		opts := segCrashOpts(fp)
		db, err := Open(Config{Path: path, Segment: opts})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if acked := segCrashWorkload(db); len(acked) != len(crashWorkload()) {
			t.Fatalf("clean run faulted: acked %v", acked)
		}
		return hits
	}()
	for _, name := range []string{
		"seal.start", "seal.segment-written", "seal.before-manifest", "seal.after-manifest",
		"compact.start", "compact.mid-merge", "compact.before-manifest", "compact.after-manifest",
		"manifest.before-rename", "manifest.after-rename",
	} {
		if !seen[name] {
			t.Errorf("workload never reached failpoint %s", name)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("workload reached %d failpoint names, want 10: %v", len(seen), seen)
	}
	for budget := 0; budget < max; budget++ {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "crash.db")
			opts := segCrashOpts(segKillAfter(budget))
			db, err := Open(Config{Path: path, Segment: opts})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			acked := segCrashWorkload(db)
			db.Crash()

			// Reopen without the failpoint: WAL replay over whatever the
			// engine made durable must reconstruct every acked write.
			ropts := segCrashOpts(nil)
			rec, err := Open(Config{Path: path, Segment: ropts})
			if err != nil {
				t.Fatalf("recovery Open: %v", err)
			}
			defer rec.Close()
			assertRecovered(t, rec, acked)
		})
	}
}

// TestSegmentCrashRecoveryDrain crashes a background-compaction database
// with no explicit seal at all: every object lives only in WAL frames, and
// recovery must drain the log into the engine, checkpoint, and survive a
// second crash with an already-collapsed log.
func TestSegmentCrashRecoveryDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.db")
	opts := segment.Options{TargetBytes: -1}
	db, err := Open(Config{Path: path, Segment: opts})
	if err != nil {
		t.Fatal(err)
	}
	acked := runWorkloadUntilFault(db)
	if len(acked) != len(crashWorkload()) {
		t.Fatalf("workload faulted: %v", acked)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	ropts := segment.Options{TargetBytes: -1}
	rec, err := Open(Config{Path: path, Segment: ropts})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	assertRecovered(t, rec, acked)
	if st, ok := rec.WALStats(); !ok || st.Records > 1 {
		t.Fatalf("log not collapsed after recovery: %+v", st)
	}
	if err := rec.Crash(); err != nil {
		t.Fatal(err)
	}
	r2opts := segment.Options{TargetBytes: -1}
	rec2, err := Open(Config{Path: path, Segment: r2opts})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	assertRecovered(t, rec2, acked)
}
