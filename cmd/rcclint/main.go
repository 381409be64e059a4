// Command rcclint runs the repo's static-analysis suite (internal/analysis)
// over the module source tree and exits non-zero on any finding, so CI
// fails closed.
//
// Usage:
//
//	rcclint [dir ...]
//
// With no directory arguments it analyzes internal and cmd under the module
// root (found by walking up from the working directory to go.mod). A loader
// degradation — an import replaced by an empty placeholder, or a package
// that type-checked with errors — is a finding too, so no analyzer silently
// runs on partial type information.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"relaxedcc/internal/analysis"
)

func main() {
	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"internal", "cmd"}
	}

	start := time.Now()
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadDirs(dirs...)
	if err != nil {
		fatal(err)
	}
	analyzers := analysis.Analyzers()
	diags := append(analysis.Run(pkgs, analyzers), analysis.StrictDiagnostics(loader, pkgs)...)

	// Report positions relative to the module root for stable output.
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.File); err == nil && !strings.HasPrefix(rel, "..") {
			d.File = rel
		}
		fmt.Println(d)
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	fmt.Fprintf(os.Stderr, "rcclint: %d finding(s) from %d package(s) in %v [%s]\n",
		len(diags), len(pkgs), time.Since(start).Round(time.Millisecond), strings.Join(names, ","))
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("rcclint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rcclint:", err)
	os.Exit(2)
}
