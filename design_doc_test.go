package rafiki

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docAllowed names the backticked DESIGN.md identifiers that belong to no Go
// source in this tree: amd64 mnemonics and Go runtime symbols.
var docAllowed = map[string]bool{"VCVTPD2DQ": true, "mallocgc": true}

var (
	docSpan  = regexp.MustCompile("`([^`\n]+)`")
	docIdent = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?$`)
	srcWord  = regexp.MustCompile(`[A-Za-z_]\w*`)
)

// treeNames collects every word of the tree's Go and assembly sources and
// every file's base name, skipping hidden directories (build outputs, VCS)
// and this file, whose planted names must not resolve.
func treeNames(t *testing.T) (words, files map[string]bool) {
	t.Helper()
	words, files = map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		files[d.Name()] = true
		if ext := filepath.Ext(path); ext != ".go" && ext != ".s" || path == "design_doc_test.go" {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, w := range srcWord.FindAll(src, -1) {
			words[string(w)] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return words, files
}

// staleIdents returns the backticked identifiers of doc (dotted selectors
// and calls included) that name neither a tree file nor words of the tree's
// sources, in order of appearance.
func staleIdents(doc string, words, files map[string]bool) []string {
	var stale []string
	for _, m := range docSpan.FindAllStringSubmatch(doc, -1) {
		span := m[1]
		if !docIdent.MatchString(span) || files[span] || docAllowed[span] {
			continue
		}
		for _, part := range strings.Split(strings.TrimSuffix(span, "()"), ".") {
			if !words[part] {
				stale = append(stale, span)
				break
			}
		}
	}
	return stale
}

// TestDesignIdentifiersResolve keeps DESIGN.md describing the tree as it
// stands: every backticked Go identifier in it must resolve in the sources.
// A planted stale identifier must be the one the scan reports.
func TestDesignIdentifiersResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	words, files := treeNames(t)
	if stale := staleIdents(string(doc), words, files); len(stale) > 0 {
		t.Errorf("DESIGN.md names identifiers absent from the tree: %q", stale)
	}
	planted := string(doc) + "\nThe `GreedySingle` policy and `Engine.latFb` serve.\n"
	if got, want := staleIdents(planted, words, files), []string{"GreedySingle", "Engine.latFb"}; !slices.Equal(got, want) {
		t.Errorf("planted stale identifiers reported as %q, want %q", got, want)
	}
}
