package pathquery_test

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyList names the exported internal identifiers that only tests or
// only their own package use, each with the reason it stays exported.
const testOnlyList = "testdata/export_testonly.txt"

// TestExportSurface type-checks the module and benchmark/ and accounts
// for every exported package-level identifier declared in non-test
// internal/ code. It fails on an identifier nothing uses, on one only
// tests or only its own package use that testOnlyList does not list, and
// on a listed entry that is gone or has a non-test user in another
// package. Methods are left out: an interface
// the type satisfies can be their only user. With -v it prints the count
// per category and the non-test and test Go line counts outside
// benchmark/.
func TestExportSurface(t *testing.T) {
	sc := &surfaceCheck{
		fset:   token.NewFileSet(),
		dirs:   map[string]*build.Package{},
		pkgs:   map[string]*types.Package{},
		testPk: map[string]*types.Package{},
		decls:  map[string]bool{},
		users:  map[string]map[string]bool{},
		tested: map[string]bool{},
	}
	sc.std = importer.ForCompiler(sc.fset, "source", nil)
	var code, tests int // lines of every .go file outside benchmark/, whatever its build tags
	err := filepath.WalkDir(".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			if strings.HasSuffix(name, ".go") && !strings.HasPrefix(name, "benchmark/") {
				src, err := os.ReadFile(name)
				if err != nil {
					return err
				}
				if n := bytes.Count(src, []byte("\n")); strings.HasSuffix(name, "_test.go") {
					tests += n
				} else {
					code += n
				}
			}
			return nil
		}
		if name != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(name, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		}
		if err != nil {
			return err
		}
		path := "repro"
		if name != "." {
			path += "/" + filepath.ToSlash(name)
		}
		sc.dirs[path] = bp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(sc.dirs))
	for path := range sc.dirs {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		if _, err := sc.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range paths {
		if err := sc.checkTests(path); err != nil {
			t.Fatal(err)
		}
	}

	listed, err := readTestOnlyList(testOnlyList)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(sc.decls))
	for key := range sc.decls {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	count := map[string]int{}
	for _, key := range keys {
		own := strings.TrimPrefix(key[:strings.LastIndexByte(key, '.')], "internal/")
		users := sc.users[key]
		other := false
		for user := range users {
			other = other || (user != own && user != "benchmark")
		}
		var cat string
		switch {
		case other:
			cat = "used by another package"
		case users["benchmark"]:
			cat = "used by benchmark/ only"
		case users[own] && listed[key] != "":
			cat = "used by its own package only, listed"
		case users[own]:
			cat = "used by its own package only, not listed"
			t.Errorf("%s: only its own package uses it; unexport it, or list it in %s with the reason it stays exported", key, testOnlyList)
		case sc.tested[key] && listed[key] != "":
			cat = "used by tests only, listed"
		case sc.tested[key]:
			cat = "used by tests only, not listed"
			t.Errorf("%s: only tests use it; delete it, or list it in %s with the reason it stays", key, testOnlyList)
		default:
			cat = "unused"
			t.Errorf("%s: nothing outside its declaration uses it", key)
		}
		count[cat]++
		if _, ok := listed[key]; ok && !strings.HasSuffix(cat, ", listed") {
			t.Errorf("%s is listed in %s but is %s", key, testOnlyList, cat)
		}
	}
	for key := range listed {
		if !sc.decls[key] {
			t.Errorf("%s is listed in %s but not declared", key, testOnlyList)
		}
	}
	t.Logf("exported package-level identifiers in non-test internal/ code: %d", len(keys))
	for _, cat := range []string{"used by another package", "used by benchmark/ only", "used by its own package only, listed",
		"used by its own package only, not listed", "used by tests only, listed", "used by tests only, not listed", "unused"} {
		t.Logf("  %-42s %4d", cat, count[cat])
	}
	t.Logf("Go lines outside benchmark/: %d non-test, %d test", code, tests)
}

// surfaceCheck type-checks the module's packages from source, records the
// exported package-level identifiers of internal/ and, per identifier,
// the packages whose non-test code uses it and whether a test does.
type surfaceCheck struct {
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]*build.Package // import path → its directory's files
	pkgs   map[string]*types.Package // import path → its non-test package
	testPk map[string]*types.Package // import path → the package with its in-package tests

	decls  map[string]bool            // "internal/x.Name" of every identifier accounted for
	users  map[string]map[string]bool // key → packages ("internal/" trimmed) whose non-test code uses it
	tested map[string]bool            // key → a test file uses it
}

// Import returns the non-test package at path, type-checking it on first
// use; paths outside the module go to the standard library's importer.
func (sc *surfaceCheck) Import(path string) (*types.Package, error) {
	if pkg := sc.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	bp := sc.dirs[path]
	if bp == nil {
		return sc.std.Import(path)
	}
	pkg, err := sc.check(path, bp.Dir, bp.GoFiles, sc)
	if err != nil {
		return nil, err
	}
	sc.pkgs[path] = pkg
	if strings.HasPrefix(path, "repro/internal/") {
		for _, name := range pkg.Scope().Names() {
			if ast.IsExported(name) {
				sc.decls[strings.TrimPrefix(path, "repro/")+"."+name] = true
			}
		}
	}
	return pkg, nil
}

// checkTests type-checks path's in-package tests with its non-test files,
// then its external tests against that package, as go test builds them.
func (sc *surfaceCheck) checkTests(path string) error {
	bp := sc.dirs[path]
	if len(bp.TestGoFiles) > 0 {
		pkg, err := sc.check(path, bp.Dir, slices.Concat(bp.GoFiles, bp.TestGoFiles), sc)
		if err != nil {
			return err
		}
		sc.testPk[path] = pkg
	}
	if len(bp.XTestGoFiles) == 0 {
		return nil
	}
	var imp types.Importer = sc
	if pkg := sc.testPk[path]; pkg != nil {
		imp = xtestImporter{sc, path, map[string]*types.Package{path: pkg}}
	}
	_, err := sc.check(path+"_test", bp.Dir, bp.XTestGoFiles, imp)
	return err
}

// xtestImporter resolves an external test package's imports as go test
// does: the package under test with its in-package tests, and every
// module package that imports it checked again against that package.
type xtestImporter struct {
	sc    *surfaceCheck
	under string
	pkgs  map[string]*types.Package
}

func (xi xtestImporter) Import(path string) (*types.Package, error) {
	if pkg := xi.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	if !xi.sc.dependsOn(path, xi.under) {
		return xi.sc.Import(path)
	}
	bp := xi.sc.dirs[path]
	pkg, err := xi.sc.check(path, bp.Dir, bp.GoFiles, xi)
	if err != nil {
		return nil, err
	}
	xi.pkgs[path] = pkg
	return pkg, nil
}

// dependsOn reports whether the module package at path imports target,
// directly or not.
func (sc *surfaceCheck) dependsOn(path, target string) bool {
	bp := sc.dirs[path]
	if bp == nil {
		return false
	}
	for _, imp := range bp.Imports {
		if imp == target || sc.dependsOn(imp, target) {
			return true
		}
	}
	return false
}

// check type-checks one set of files as the package at path and records
// the uses of internal/ identifiers it makes.
func (sc *surfaceCheck) check(path, dir string, names []string, imp types.Importer) (*types.Package, error) {
	files := make([]*ast.File, len(names))
	for i, name := range names {
		f, err := parser.ParseFile(sc.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, sc.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	user := strings.TrimPrefix(strings.TrimSuffix(path, "_test"), "repro/")
	user = strings.TrimPrefix(user, "internal/")
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj.Pkg() == nil || !obj.Exported() || obj.Pkg().Scope().Lookup(obj.Name()) != obj ||
			!strings.HasPrefix(obj.Pkg().Path(), "repro/internal/") {
			continue
		}
		key := strings.TrimPrefix(obj.Pkg().Path(), "repro/") + "." + obj.Name()
		if strings.HasSuffix(sc.fset.Position(id.Pos()).Filename, "_test.go") {
			sc.tested[key] = true
			continue
		}
		if sc.users[key] == nil {
			sc.users[key] = map[string]bool{}
		}
		sc.users[key][user] = true
	}
	return pkg, nil
}

// readTestOnlyList reads "internal/x.Name reason" lines; blank lines and
// lines starting with # are skipped, and every entry needs a reason.
func readTestOnlyList(name string) (map[string]string, error) {
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for i, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", name, i+1, key)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", name, i+1, key)
		}
		out[key] = strings.TrimSpace(reason)
	}
	return out, nil
}
