package lint

import (
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
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/stats").
	Path string
	// Dir is the directory the sources were read from ("" for in-memory
	// fixture packages).
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module using only the
// standard library: module-local imports are resolved by recursively loading
// the corresponding directory, everything else through go/importer. Test
// files (_test.go) are excluded — whpcvet guards the shipped pipeline, and
// tests legitimately reach for wall clocks and throwaway randomness.
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module's declared path ("repro").
	ModulePath string

	fset   *token.FileSet
	std    types.Importer
	source types.Importer
	cache  map[string]*Package
	active map[string]bool
}

// NewLoader locates the enclosing module by walking up from dir to the
// nearest go.mod and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: mod,
		fset:       fset,
		std:        importer.Default(),
		source:     importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*Package),
		active:     make(map[string]bool),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Load resolves each pattern — "./...", a relative directory like
// "./internal/stats", or an import path — to packages, loading and
// type-checking each. Results are sorted by import path and deduplicated.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			walked, err := l.walkDirs(l.ModuleRoot)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				dirs[d] = true
			}
		case strings.HasSuffix(pat, "/..."):
			base := l.resolveDir(strings.TrimSuffix(pat, "/..."))
			walked, err := l.walkDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				dirs[d] = true
			}
		default:
			dirs[l.resolveDir(pat)] = true
		}
	}
	var pkgs []*Package
	for dir := range dirs {
		if !l.hasGoFiles(dir) {
			continue
		}
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// resolveDir maps a pattern to an absolute directory: module-relative
// import paths and ./-relative paths both land inside ModuleRoot.
func (l *Loader) resolveDir(pat string) string {
	if pat == l.ModulePath {
		return l.ModuleRoot
	}
	if rest, ok := strings.CutPrefix(pat, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
	}
	if filepath.IsAbs(pat) {
		return filepath.Clean(pat)
	}
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
}

// walkDirs returns every directory under base that holds non-test Go files,
// skipping hidden directories and testdata.
func (l *Loader) walkDirs(base string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if l.hasGoFiles(path) {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// hasGoFiles reports whether dir directly contains at least one non-test
// .go file.
func (l *Loader) hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

// goFileNames lists the non-test .go files directly in dir that a default
// build compiles (build constraints honored, so a race/!race file pair
// contributes one file), sorted.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, filepath.Join(dir, name))
	}
	sort.Strings(names)
	return names, nil
}

// importPathFor converts an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir, memoizing by import
// path so shared dependencies are checked once.
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := l.check(path, dir, files)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// Import resolves an import path for the type checker: module-local paths
// recurse into loadDir, anything else goes to go/importer (compiled export
// data first, source as fallback).
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadDir(l.resolveDir(path))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if pkg, err := l.std.Import(path); err == nil {
		return pkg, nil
	}
	return l.source.Import(path)
}

// check type-checks the parsed files as package path.
func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// LoadSource type-checks in-memory fixture files as a package with the
// given import path; used by the analyzer unit tests. Imports resolve
// against the standard library only.
func LoadSource(path string, sources map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	l := &Loader{
		ModulePath: "\x00none",
		fset:       fset,
		std:        importer.Default(),
		source:     importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*Package),
		active:     make(map[string]bool),
	}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, sources[name], parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.check(path, "", files)
}
