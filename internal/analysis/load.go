package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package. When an import
// cannot be resolved (for example a cgo-only stdlib package) or the package
// does not type-check, loading goes on with the errors in TypeErrors, and
// StrictDiagnostics reports the degradation: rcclint fails rather than
// trust analyzers that ran on partial type information.
type Package struct {
	ImportPath string
	Dir        string
	Name       string
	Fset       *token.FileSet
	Files      []*ast.File
	Filenames  []string // parallel to Files
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Loader walks a module tree, parses package directories and type-checks
// them with a chain importer: module-local imports resolve recursively
// through the loader itself, everything else goes through the stdlib source
// importer. No go/packages, no external dependencies.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	Root       string

	pkgs    map[string]*Package // keyed by import path
	loading map[string]bool     // import-cycle guard
	std     types.Importer
	stdErr  map[string]*types.Package // placeholder packages for failed imports
}

// NewLoader creates a loader rooted at the module directory containing
// go.mod. The module path is read from go.mod's module directive.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: loader root must contain go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		ModulePath: modPath,
		Root:       abs,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
		stdErr:     map[string]*types.Package{},
	}
	l.std = importer.ForCompiler(fset, "source", nil)
	return l, nil
}

// LoadDirs walks each directory (relative to the module root) and loads
// every package found, skipping testdata, vendor and hidden directories.
// Packages are returned sorted by import path.
func (l *Loader) LoadDirs(dirs ...string) ([]*Package, error) {
	var out []*Package
	seen := map[string]bool{}
	for _, dir := range dirs {
		abs := dir
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(l.Root, dir)
		}
		err := filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(path)
			if path != abs && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if !hasGoFiles(path) {
				return nil
			}
			pkg, perr := l.loadDir(path)
			if perr != nil {
				return perr
			}
			if pkg != nil && !seen[pkg.ImportPath] {
				seen[pkg.ImportPath] = true
				out = append(out, pkg)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.Root)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in one directory (non-test
// files only). Results are cached by import path.
func (l *Loader) loadDir(dir string) (*Package, error) {
	ip, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[ip]; ok {
		return pkg, nil
	}
	if l.loading[ip] {
		return nil, fmt.Errorf("analysis: import cycle through %s", ip)
	}
	l.loading[ip] = true
	defer delete(l.loading, ip)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{ImportPath: ip, Dir: dir, Fset: l.Fset}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, perr := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
		if perr != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", path, perr)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, path)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	pkg.Name = pkg.Files[0].Name.Name
	l.pkgs[ip] = pkg // publish before Check so self-referential walks terminate

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer:         (*chainImporter)(l),
		FakeImportC:      true,
		IgnoreFuncBodies: false,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, _ := conf.Check(ip, l.Fset, pkg.Files, info) // errors collected above
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// chainImporter resolves module-local import paths through the loader and
// everything else through the source importer, degrading to an empty
// placeholder package when an import cannot be type-checked (a
// StrictDiagnostics finding).
type chainImporter Loader

func (c *chainImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(c)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("analysis: no package at %s", path)
		}
		return pkg.Types, nil
	}
	if p, ok := l.stdErr[path]; ok {
		return p, nil
	}
	p, err := l.std.Import(path)
	if err == nil {
		return p, nil
	}
	// Unresolvable import (cgo, missing source): hand the checker a complete
	// but empty package so checking continues with partial information.
	ph := types.NewPackage(path, pathBase(path))
	ph.MarkComplete()
	l.stdErr[path] = ph
	return ph, nil
}

// Placeholders returns the import paths the loader could not resolve and
// degraded to empty placeholder packages, sorted. A non-empty list means
// type information is partial for anything touching these imports;
// StrictDiagnostics turns the list into findings.
func (l *Loader) Placeholders() []string {
	out := make([]string, 0, len(l.stdErr))
	for ip := range l.stdErr {
		out = append(out, ip)
	}
	sort.Strings(out)
	return out
}

func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
