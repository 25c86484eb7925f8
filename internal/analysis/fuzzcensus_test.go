package analysis

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fuzzStep matches a run line of the CI's fuzz-smoke job: the target's name
// and the package directory it is fuzzed in.
var fuzzStep = regexp.MustCompile(`go test .*-fuzz '\^(Fuzz\w+)\$' .*\s\./(\S+?)/?$`)

var fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)

// TestFuzzCensus checks that every fuzz target of the module has a step in
// .github/workflows/ci.yml that runs it under -fuzz in its own package, so
// a target cannot sit unfuzzed (its seeds run as plain tests either way).
func TestFuzzCensus(t *testing.T) {
	root := filepath.Join("..", "..")
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	stepped := map[string]bool{}
	for _, line := range strings.Split(string(ci), "\n") {
		if m := fuzzStep.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			stepped[path.Join(m[2], m[1])] = true
		}
	}
	targets := 0
	err = filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(file, "go.mod")); err == nil {
				return filepath.SkipDir // a module of its own
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(file))
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			targets++
			if key := path.Join(filepath.ToSlash(rel), m[1]); !stepped[key] {
				t.Errorf("%s: %s has no fuzz-smoke step in ci.yml (go test -run '^$' -fuzz '^%s$' ... ./%s/)",
					path.Join(filepath.ToSlash(rel), d.Name()), m[1], m[1], filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if targets == 0 {
		t.Fatal("found no fuzz targets: the pattern no longer matches how they are written")
	}
}
