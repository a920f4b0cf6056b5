package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRepoIsClean is the invariant the CI lint step enforces: the suite,
// whole-program checks included, reports nothing over the root module or
// over the bench/ module, test files included. Every accepted finding
// must carry a reasoned suppression.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the whole repository")
	}
	for _, dir := range []string{"../..", "../../bench"} {
		var buf bytes.Buffer
		count, err := RunPatterns(&buf, dir, []string{"./..."}, Suite())
		if err != nil {
			t.Fatalf("running suite over %s: %v", dir, err)
		}
		if count != 0 {
			t.Errorf("rstorm-lint over %s/... reported %d finding(s):\n%s", dir, count, buf.String())
		}
	}
}

// TestStandaloneCleanPackage drives run over this package (out of
// determinism scope, no annotations: clean).
func TestStandaloneCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"."}, &out, &errw); code != 0 {
		t.Errorf("run(.) = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errw); code != 2 {
		t.Errorf("run(-no-such-flag) = %d, want 2", code)
	}
}

// TestLoadChecksEachFileOnce pins the loader's file set. An analyzer that
// reports once per file it is shown must report exactly once for every
// .go file of the linted package directories, _test.go files included,
// and for nothing else (the generated test main lives in the build
// cache). The fixture module covers all three kinds of test file: an
// in-package test, an export_test.go that widens the package for its
// external test, and the external test itself, which type-checks only
// if its import of the package resolves to the test variant.
func TestLoadChecksEachFileOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data")
	}
	fixture := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":            "module lintfixture\n\ngo 1.24\n",
		"lib.go":            "package lintfixture\n\nfunc double(x int) int { return 2 * x }\n",
		"lib_inner_test.go": "package lintfixture\n\nimport \"testing\"\n\nfunc TestDouble(t *testing.T) {\n\tif double(2) != 4 {\n\t\tt.Fatal(\"double\")\n\t}\n}\n",
		"export_test.go":    "package lintfixture\n\nvar Double = double\n",
		"lib_test.go":       "package lintfixture_test\n\nimport (\n\t\"testing\"\n\n\t\"lintfixture\"\n)\n\nfunc TestExported(t *testing.T) {\n\tif lintfixture.Double(3) != 6 {\n\t\tt.Fatal(\"Double\")\n\t}\n}\n",
	} {
		if err := os.WriteFile(filepath.Join(fixture, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	perFile := &Analyzer{Name: "perfile", Run: func(p *Pass) error {
		for _, f := range p.Files {
			p.Reportf(f.Package, "", "checked")
		}
		return nil
	}}
	for _, c := range []struct{ dir, pattern, pkgDir string }{
		{fixture, ".", fixture},
		{"../..", "./internal/des", "../des"},
	} {
		var buf bytes.Buffer
		if _, err := RunPatterns(&buf, c.dir, []string{c.pattern}, []*Analyzer{perFile}); err != nil {
			t.Fatalf("linting %s in %s: %v", c.pattern, c.dir, err)
		}
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			file, _, _ := strings.Cut(line, ":")
			got = append(got, filepath.Base(file))
		}
		sort.Strings(got)
		entries, err := os.ReadDir(c.pkgDir)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".go") {
				want = append(want, e.Name())
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: files checked = %v, want each of %v once", c.pattern, got, want)
		}
	}
}
