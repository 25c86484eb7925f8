package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dirState renders every file under root as "relative path: bytes", so two
// snapshots compare equal exactly when nothing was added, removed or
// rewritten.
func dirState(t *testing.T, root string) map[string]string {
	t.Helper()
	state := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		state[strings.TrimPrefix(p, root)] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// openMustRefuse opens path, expects the typed error, and checks that the
// failed open wrote nothing anywhere under dir.
func openMustRefuse(t *testing.T, dir, path string, want error) {
	t.Helper()
	before := dirState(t, dir)
	db, err := Open(Config{Path: path})
	if err == nil {
		db.Close()
		t.Fatalf("Open(%s) succeeded, want %v", path, want)
	}
	if !errors.Is(err, want) {
		t.Fatalf("Open(%s) = %v, want %v", path, err, want)
	}
	after := dirState(t, dir)
	if len(after) != len(before) {
		t.Fatalf("failed open changed the file set: %d -> %d files", len(before), len(after))
	}
	for name, content := range before {
		if after[name] != content {
			t.Fatalf("failed open rewrote %s", name)
		}
	}
}

func TestLegacyPageStoreFileRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.esidb")
	page := append([]byte(legacyPageStoreMagic), make([]byte, 8192-len(legacyPageStoreMagic))...)
	if err := os.WriteFile(path, page, 0o644); err != nil {
		t.Fatal(err)
	}
	openMustRefuse(t, dir, path, ErrLegacyStore)
	_, err := Open(Config{Path: path})
	if msg := err.Error(); !strings.Contains(msg, "esidb dump") || !strings.Contains(msg, "esidb load") {
		t.Fatalf("error does not name the migration route: %v", err)
	}
}

func TestLegacyVersion1SegmentRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.esidb")
	db, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, db, 2, 2, 0.2, 5)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the one sealed segment's header to what the previous format
	// wrote there: same magic, version u32 = 1 at offset 8.
	segs, err := filepath.Glob(filepath.Join(SegmentDir(path), "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one sealed segment, got %v (err=%v)", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1, 0, 0, 0}, 8); err != nil {
		t.Fatal(err)
	}
	f.Close()
	openMustRefuse(t, dir, path, ErrLegacyStore)
}

func TestUnrelatedFileAtPathRefused(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"notes.txt": "these are not the bytes of a database\n",
		"tiny":      "abc", // shorter than the magic it is compared with
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		openMustRefuse(t, dir, path, ErrNotDatabase)
	}
}
