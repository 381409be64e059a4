package relaxedcc_test

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSourcesAreGofmtClean holds every .go file of the module outside
// testdata to gofmt's output, so `go test ./...` fails where `gofmt -l .`
// would list a file.
func TestSourcesAreGofmtClean(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if out, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-clean: run gofmt -w %s", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
