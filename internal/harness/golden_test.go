package harness

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"relaxedcc/internal/audit"
	"relaxedcc/internal/core"
)

var update = flag.Bool("update", false, "rewrite the report goldens under testdata/")

// audited renders a report with the auditor enabled on its system, followed
// by the audit section of the same run — what `rccbench -chaos -audit` or
// `-shift -audit` prints (in the shift run the auditor rides on the autotuned
// arm, the only one OnSystem sees).
func audited(w io.Writer, run func(onSystem func(*core.System)) error) error {
	var aud *audit.Auditor
	if err := run(func(s *core.System) { aud = s.EnableAudit() }); err != nil {
		return err
	}
	RenderAudit(w, aud)
	return nil
}

func auditedChaos(w io.Writer, cfg ChaosConfig) error {
	return audited(w, func(on func(*core.System)) error {
		cfg.OnSystem = on
		return RunChaosReport(w, cfg)
	})
}

func auditedShift(w io.Writer, cfg ShiftConfig) error {
	return audited(w, func(on func(*core.System)) error {
		cfg.OnSystem = on
		return RunShiftReport(w, cfg)
	})
}

// TestReportsMatchGolden pins the seeded reports byte for byte across
// commits (the determinism tests beside it only compare two runs of one
// binary): a refactor that moves any of them shows up here as a diff against
// a file generated before it. `go test ./internal/harness -run
// TestReportsMatchGolden -update` rewrites the files.
func TestReportsMatchGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(io.Writer) error
	}{
		{"chaos", func(w io.Writer) error { return RunChaosReport(w, DefaultChaosConfig()) }},
		{"chaos_audit", func(w io.Writer) error { return auditedChaos(w, DefaultChaosConfig()) }},
		{"broken_guard", func(w io.Writer) error { return auditedChaos(w, BrokenGuardChaosConfig()) }},
		{"shift", func(w io.Writer) error { return RunShiftReport(w, DefaultShiftConfig()) }},
		{"shift_audit", func(w io.Writer) error { return auditedShift(w, DefaultShiftConfig()) }},
		{"load_short", func(w io.Writer) error { return RunLoadReport(w, ShortLoadConfig(), "") }},
		// BENCH_load.json itself: CI's two-run cmp compares one binary with itself.
		{"load_short.json", func(w io.Writer) error {
			rep, err := RunLoad(ShortLoadConfig())
			if err != nil {
				return err
			}
			b, err := rep.JSON()
			if err != nil {
				return err
			}
			_, err = w.Write(b)
			return err
		}},
		{"fig42", func(w io.Writer) error { return RunWorkloadShift(w, 40) }},
		{"offload", func(w io.Writer) error {
			sys, err := NewSystem(DefaultConfig())
			if err != nil {
				return err
			}
			return RunOffload(w, sys, 30)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := c.run(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s report moved; got:\n%s\nwant:\n%s", c.name, got.Bytes(), want)
			}
		})
	}
}
