package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designCite matches a citation of a DESIGN.md section: "DESIGN §N",
// "DESIGN.md §N/§M" or "DESIGN.md §N and §M", with digits for N and M. The
// second group holds the sections after the first.
var designCite = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)((?:(?:/| and | or |, )§\d+)*)`)

var sectionNum = regexp.MustCompile(`§(\d+)`)

// TestDesignCitations checks that every DESIGN.md section cited in the
// module's Go files, README.md, EXPERIMENTS.md and ROADMAP.md names an
// existing "## N." heading, so renumbering or deleting a section cannot
// leave a pointer dangling.
func TestDesignCitations(t *testing.T) {
	root := filepath.Join("..", "..")
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(string(design), -1) {
		headings[m[1]] = true
	}
	if len(headings) == 0 {
		t.Fatal("DESIGN.md has no numbered ## headings")
	}

	files := []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md"}
	err = filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && file != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(file, ".go") {
			rel, err := filepath.Rel(root, file)
			if err != nil {
				return err
			}
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cites := 0
	for _, rel := range files {
		src, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range designCite.FindAllStringSubmatch(line, -1) {
				nums := []string{m[1]}
				for _, n := range sectionNum.FindAllStringSubmatch(m[2], -1) {
					nums = append(nums, n[1])
				}
				for _, n := range nums {
					cites++
					if !headings[n] {
						t.Errorf("%s:%d cites DESIGN §%s, which DESIGN.md has no \"## %s.\" heading for", filepath.ToSlash(rel), i+1, n, n)
					}
				}
			}
		}
	}
	if cites == 0 {
		t.Fatal("found no DESIGN citations: the pattern no longer matches how they are written")
	}
}
