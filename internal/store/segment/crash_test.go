package segment

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
)

// errKill is the injected "process died here" error.
var errKill = errors.New("segment: injected crash")

// killAfter returns a FailPoint that lets n hits pass and fails every hit
// after that (sticky, like a dead process).
func killAfter(n int) func(string) error {
	hits := 0
	return func(string) error {
		hits++
		if hits > n {
			return errKill
		}
		return nil
	}
}

// countFailpoints runs fn with a counting (never-failing) FailPoint and
// returns how many hits the workload generates — the sweep's budget range —
// after checking that the hits cover exactly the want failpoint names, so a
// workload that stops reaching a protocol stage fails instead of sweeping
// fewer crash sites.
func countFailpoints(t *testing.T, want []string, fn func(fp func(string) error)) int {
	t.Helper()
	hits := 0
	seen := map[string]bool{}
	fn(func(name string) error { hits++; seen[name] = true; return nil })
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	if !slices.Equal(names, want) {
		t.Fatalf("workload reached failpoints %v, want %v", names, want)
	}
	return hits
}

// sealFailpoints are the kill points of one seal: the segment write and
// the manifest swap around it.
var sealFailpoints = []string{
	"manifest.after-rename", "manifest.before-rename",
	"seal.after-manifest", "seal.before-manifest", "seal.segment-written", "seal.start",
}

// sealWorkload drives an engine through three seals of 30 entries each.
// It returns the acked state (sealed rounds) and the staged-but-unacked
// values of the round in flight when the crash hit: a crash that lands
// after the manifest rename makes those durable too, which is spurious
// durability, not loss.
func sealWorkload(t *testing.T, dir string, fp func(string) error) (acked, pending map[uint64]string, err error) {
	t.Helper()
	e, oerr := Open(dir, Options{TargetBytes: -1, FailPoint: fp})
	if oerr != nil {
		t.Fatalf("Open: %v", oerr)
	}
	defer e.Close()
	acked = map[uint64]string{}
	id := uint64(1)
	for round := 0; round < 3; round++ {
		staged := map[uint64]string{}
		for i := 0; i < 30; i++ {
			v := fmt.Sprintf("r%d-%d", round, id)
			if perr := e.Put(testEntry(id, v)); perr != nil {
				return acked, staged, perr
			}
			staged[id] = v
			id++
		}
		if serr := e.Seal(); serr != nil {
			return acked, staged, serr
		}
		// Seal returned: everything staged is now acked-durable.
		for k, v := range staged {
			acked[k] = v
		}
	}
	return acked, nil, nil
}

// TestCrashDuringSeal sweeps a simulated crash across every failpoint hit
// of the seal protocol and verifies, after each crash, that reopening
// loses nothing that Seal acknowledged and that the store checks clean.
func TestCrashDuringSeal(t *testing.T) {
	max := countFailpoints(t, sealFailpoints, func(fp func(string) error) {
		dir := t.TempDir()
		if _, _, err := sealWorkload(t, dir, fp); err != nil {
			t.Fatalf("clean run failed: %v", err)
		}
	})
	if max == 0 {
		t.Fatal("seal workload hit no failpoints")
	}
	for budget := 0; budget < max; budget++ {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			acked, pending, err := sealWorkload(t, dir, killAfter(budget))
			if err == nil {
				t.Fatal("budgeted run did not crash")
			}
			if !errors.Is(err, errKill) {
				t.Fatalf("unexpected failure: %v", err)
			}
			verifyAcked(t, dir, acked, pending)
		})
	}
}

// compactionWorkload seals four same-tier segments, a run of at least
// fanIn, then compacts them.
func compactionWorkload(t *testing.T, dir string, fp func(string) error) (acked, pending map[uint64]string, err error) {
	t.Helper()
	e, oerr := Open(dir, Options{TargetBytes: -1, FailPoint: fp})
	if oerr != nil {
		t.Fatalf("Open: %v", oerr)
	}
	defer e.Close()
	acked = map[uint64]string{}
	var id uint64
	for round := 0; round < 4; round++ {
		staged := map[uint64]string{}
		// Overlap ids across rounds so merges exercise newest-wins, and
		// delete a few so tombstone GC is on the line too.
		id = uint64(round*20 + 1)
		for i := 0; i < 30; i++ {
			v := fmt.Sprintf("r%d-%d", round, id)
			if perr := e.Put(testEntry(id, v)); perr != nil {
				return acked, staged, perr
			}
			staged[id] = v
			id++
		}
		if round == 2 {
			if derr := e.Delete(5); derr != nil {
				return acked, staged, derr
			}
			staged[5] = "" // tombstone: staged as deleted
		}
		if serr := e.Seal(); serr != nil {
			return acked, staged, serr
		}
		for k, v := range staged {
			if v == "" {
				delete(acked, k)
			} else {
				acked[k] = v
			}
		}
	}
	return acked, nil, e.Compact()
}

// TestCrashRecoveryDuringCompaction sweeps crashes across the compaction
// protocol (merge, manifest swap) — compaction must never lose an acked
// write regardless of where it dies: either the old stack or the merged
// stack survives whole.
func TestCrashRecoveryDuringCompaction(t *testing.T) {
	want := append([]string{"compact.after-manifest", "compact.before-manifest", "compact.mid-merge", "compact.start"}, sealFailpoints...)
	max := countFailpoints(t, want, func(fp func(string) error) {
		dir := t.TempDir()
		if _, _, err := compactionWorkload(t, dir, fp); err != nil {
			t.Fatalf("clean run failed: %v", err)
		}
	})
	if max == 0 {
		t.Fatal("compaction workload hit no failpoints")
	}
	for budget := 0; budget < max; budget++ {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			acked, pending, err := compactionWorkload(t, dir, killAfter(budget))
			if err == nil {
				t.Fatal("budgeted run did not crash")
			}
			if !errors.Is(err, errKill) {
				t.Fatalf("unexpected failure: %v", err)
			}
			verifyAcked(t, dir, acked, pending)
		})
	}
}

// verifyAcked reopens the directory post-crash and asserts no acked write
// was lost and the structural check is clean. An id may answer with the
// pending (staged-but-unacked) value instead of the acked one when the
// crash landed after the manifest rename committed the in-flight seal —
// that is spurious durability, which the protocol permits; silent loss or
// a value from nowhere is what it forbids.
func verifyAcked(t *testing.T, dir string, acked, pending map[uint64]string) {
	t.Helper()
	e, err := Open(dir, Options{TargetBytes: -1})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer e.Close()
	for id, want := range acked {
		got, ok, gerr := e.Get(id)
		if gerr != nil {
			t.Fatalf("Get(%d) after crash: %v", id, gerr)
		}
		pv, hasPending := pending[id]
		if !ok {
			if hasPending && pv == "" {
				continue // pending tombstone became durable
			}
			t.Fatalf("acked write lost: id %d want %q, absent", id, want)
		}
		if string(got.Payload) == want {
			continue
		}
		if hasPending && string(got.Payload) == pv {
			continue
		}
		t.Fatalf("acked write clobbered: id %d want %q got %q (pending %q)", id, want, got.Payload, pv)
	}
	res, cerr := e.Check()
	if cerr != nil {
		t.Fatalf("Check after crash: %v", cerr)
	}
	if !res.Ok() {
		t.Fatalf("store not clean after crash: %v", res.Problems)
	}
}
