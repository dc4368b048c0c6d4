package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goldenDir is the committed-output store: quick/ holds the stdout of
// every quick line of testdata/runs.txt (make quick-runs checks it),
// test/ the Results that only tests produce.
const goldenDir = "../../testdata/golden"

// checkGolden fails t unless res renders to exactly the bytes of file
// (a path under goldenDir), as rmbench prints it with the wall line
// stripped. Render omits Failed, so every caller asserts it itself.
func checkGolden(t *testing.T, file string, res *Result) {
	t.Helper()
	if err := compareGolden(filepath.Join(goldenDir, file), renderText(res)); err != nil {
		t.Error(err)
	}
}

// renderText is res as one rmbench run prints it, wall line stripped.
func renderText(res *Result) []byte {
	var b bytes.Buffer
	res.Render(&b)
	b.WriteByte('\n')
	return b.Bytes()
}

// compareGolden returns nil when the file at path holds exactly got,
// and otherwise an error naming the first line that differs, with the
// committed and the produced version of it. A missing file is written
// with got and still reported, so re-pinning an output is: delete its
// file, re-run the test, read git diff.
func compareGolden(path string, got []byte) error {
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			return err
		}
		return fmt.Errorf("%s was missing: wrote it; read it with git diff and commit it", path)
	}
	if err != nil {
		return err
	}
	if bytes.Equal(want, got) {
		return nil
	}
	w, g := strings.SplitAfter(string(want), "\n"), strings.SplitAfter(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	at := func(lines []string) string {
		if i >= len(lines) || lines[i] == "" {
			return "(end of file)"
		}
		return fmt.Sprintf("%q", lines[i])
	}
	return fmt.Errorf("%s:%d differs\n  want %s\n   got %s", path, i+1, at(w), at(g))
}

// TestPaperGoldenDigests pins every paper artifact across commits: the
// quick, default-seed Result of fig3–fig9, table1 and the admit, push
// and reconfig extensions, the two runs of the hybrid push/pull path —
// the hybrid experiment and the pooled scale-out at 1024 back-ends
// (delta pushers, the dense due table, pooled and fenced probes,
// listener resets) — the scale sweep and the fault-injection
// experiment. Each must render to the committed file its quick line of
// testdata/runs.txt writes, so a change that moves any figure — even by
// one formatted digit — fails here and shows the moved rows in git
// diff. The figures and extensions are rendered from memoResults, the
// same run their shape tests read.
func TestPaperGoldenDigests(t *testing.T) {
	golden := []struct {
		name     string
		id       string
		backends int
		file     string
	}{
		{"fig3", "fig3", 0, "rmbench_exp_fig3_quick.txt"},
		{"fig4", "fig4", 0, "rmbench_exp_fig4_quick.txt"},
		{"fig5a", "fig5a", 0, "rmbench_exp_fig5a_quick.txt"},
		{"fig5b", "fig5b", 0, "rmbench_exp_fig5b_quick.txt"},
		{"fig6", "fig6", 0, "rmbench_exp_fig6_quick.txt"},
		{"fig7", "fig7", 0, "rmbench_exp_fig7_quick.txt"},
		{"fig8", "fig8", 0, "rmbench_exp_fig8_quick.txt"},
		{"fig9", "fig9", 0, "rmbench_exp_fig9_quick.txt"},
		{"table1", "table1", 0, "rmbench_exp_table1_quick.txt"},
		{"admit", "admit", 0, "rmbench_exp_admit_quick.txt"},
		{"push", "push", 0, "rmbench_exp_push_quick.txt"},
		{"reconfig", "reconfig", 0, "rmbench_exp_reconfig_quick.txt"},
		{"hybrid", "hybrid", 0, "rmbench_exp_hybrid_quick.txt"},
		{"scale-1024", "scale", 1024, "rmbench_exp_scale_backends_1024_quick.txt"},
		{"scale", "scale", 0, "rmbench_exp_scale_quick.txt"},
		{"faults", "faults", 0, "rmbench_exp_faults_quick.txt"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			o := Options{Quick: true, Backends: g.backends}
			var res *Result
			if memo := memoResults[g.id]; memo != nil {
				res = memo(o)
			} else {
				var err error
				if res, err = Run(g.id, o); err != nil {
					t.Fatal(err)
				}
			}
			if res.Failed {
				t.Errorf("%s failed its own checks:\n%v", g.name, res.Notes)
			}
			checkGolden(t, "quick/"+g.file, res)
		})
	}
}

// TestGoldenCompareCanFail shows the golden check is live: fig3's
// Result with one cell moved by one digit, and with its note dropped,
// must each fail against the committed file, naming the line and both
// versions of it; against a missing file it must fail and write it.
func TestGoldenCompareCanFail(t *testing.T) {
	res := memoResults["fig3"](Options{Quick: true})
	path := filepath.Join(goldenDir, "quick", "rmbench_exp_fig3_quick.txt")
	if err := compareGolden(path, renderText(res)); err != nil {
		t.Fatalf("unmodified fig3: %v", err)
	}
	mustFail := func(what string, r *Result, line int, parts ...string) {
		t.Helper()
		err := compareGolden(path, renderText(r))
		if err == nil {
			t.Fatalf("%s: compare passed", what)
		}
		msg := err.Error()
		parts = append(parts, fmt.Sprintf("%s:%d differs", path, line))
		for _, p := range parts {
			if !strings.Contains(msg, p) {
				t.Errorf("%s: message lacks %q:\n%s", what, p, msg)
			}
		}
	}

	moved := *res
	moved.Rows = slices.Clone(res.Rows)
	moved.Rows[0] = slices.Clone(res.Rows[0])
	cell := []byte(moved.Rows[0][1])
	d := bytes.LastIndexAny(cell, "0123456789")
	cell[d] = '0' + (cell[d]-'0'+1)%10
	moved.Rows[0][1] = string(cell)
	// Line 1 is the title, 2 the columns, 3 the rule: row 0 is line 4.
	mustFail("one digit", &moved, 4, res.Rows[0][1], moved.Rows[0][1])

	dropped := *res
	dropped.Notes = res.Notes[:len(res.Notes)-1]
	mustFail("dropped note", &dropped, 4+len(res.Rows)+len(dropped.Notes), res.Notes[len(res.Notes)-1])

	missing := filepath.Join(t.TempDir(), "fig3.txt")
	if err := compareGolden(missing, renderText(res)); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("missing file: %v, want an error naming %s", err, missing)
	}
	if err := compareGolden(missing, renderText(res)); err != nil {
		t.Fatalf("the written file does not match: %v", err)
	}
}
