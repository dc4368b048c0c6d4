package rdmamon_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rdmamon/internal/experiments"
)

// unexecutedKinds are the reasons a production function may stay
// unexecuted by the run set: testdata/unexecuted.txt gives each entry
// one of them.
var unexecutedKinds = []string{
	"bench-only",    // only bench/ calls it (ROADMAP item 7(g))
	"test-hook",     // a test hook or state probe
	"fuzz-oracle",   // a fuzz or golden oracle
	"defensive",     // a defensive error path no healthy run takes
	"debug-format",  // a String method for failure messages
	"operator-flag", // an input no run gives: a flag, a scenario feature
	"parked-wake",   // the parked-node wake path (DESIGN §6)
}

// unexecutedCap is the length of testdata/unexecuted.txt. Like
// testReadState it only shrinks: a function the run set stops executing
// is deleted or reached by a new manifest line, not listed.
const unexecutedCap = 51

// goldenTags are the tags whose lines' outputs are committed, each
// under testdata/golden/<tag>/.
var goldenTags = []string{"paper", "quick"}

// TestRunManifest checks the run manifest, the committed outputs and
// the list of functions no run executes statically, without running
// anything: every manifest line names a known program with a known
// experiment, scenario file or example, no run is written twice, each
// paper and quick line has its one committed file under
// testdata/golden and each file there has its line, and every
// unexecuted.txt entry is sorted, names a function in a non-test file,
// and carries a kind. make quick-runs, make paper-full and make
// coverage-runs check the files and the list against the runs
// themselves.
func TestRunManifest(t *testing.T) {
	ids := experiments.IDs()
	seen := map[string]bool{}
	stored := map[string]map[string]bool{} // tag -> the files its lines write
	for _, tag := range goldenTags {
		stored[tag] = map[string]bool{}
	}
	for _, l := range readLines(t, "testdata/runs.txt") {
		f := strings.Fields(l.text)
		if len(f) < 2 {
			t.Errorf("runs.txt:%d: want <tags> <program> <args...>", l.n)
			continue
		}
		cmd := strings.Join(f[1:], " ")
		if seen[cmd] {
			t.Errorf("runs.txt:%d: %q is listed twice", l.n, cmd)
		}
		seen[cmd] = true
		for _, tag := range strings.Split(f[0], ",") {
			if !slices.Contains([]string{"paper", "quick", "live"}, tag) {
				t.Errorf("runs.txt:%d: unknown tag %q", l.n, tag)
			}
			if stored[tag] == nil {
				continue
			}
			name := runName(tag, f) + ".txt"
			if stored[tag][name] {
				t.Errorf("runs.txt:%d: a second %s line writes %s", l.n, tag, name)
			}
			stored[tag][name] = true
			if _, err := os.Stat(filepath.Join("testdata/golden", tag, name)); err != nil {
				t.Errorf("runs.txt:%d: no committed output: %v", l.n, err)
			}
		}
		switch prog := f[1]; {
		case prog == "rmbench" || prog == "rmmon" || prog == "rmtrace":
		case strings.HasPrefix(prog, "examples/"):
			if _, err := os.Stat(filepath.Join(prog, "main.go")); err != nil {
				t.Errorf("runs.txt:%d: no example %s", l.n, prog)
			}
		default:
			t.Errorf("runs.txt:%d: unknown program %q", l.n, prog)
		}
		for i := 2; i+1 < len(f); i++ {
			switch f[i] {
			case "-exp":
				if !slices.Contains(ids, f[i+1]) && f[i+1] != "all" {
					t.Errorf("runs.txt:%d: experiment %q is not registered", l.n, f[i+1])
				}
			case "-scenario":
				if _, err := os.Stat(f[i+1]); err != nil {
					t.Errorf("runs.txt:%d: %v", l.n, err)
				}
			}
		}
	}
	for name := range stored["paper"] {
		if id := strings.TrimSuffix(name, ".txt"); !slices.Contains(ids, id) {
			t.Errorf("runs.txt: paper line ends in %q, not an experiment id", id)
		}
	}
	for _, tag := range goldenTags {
		files, err := os.ReadDir(filepath.Join("testdata/golden", tag))
		if err != nil {
			t.Error(err)
			continue
		}
		for _, file := range files {
			if !stored[tag][file.Name()] {
				t.Errorf("testdata/golden/%s/%s: no %s line of runs.txt writes it", tag, file.Name(), tag)
			}
		}
	}

	entries := readLines(t, "testdata/unexecuted.txt")
	if len(entries) > unexecutedCap {
		t.Errorf("unexecuted.txt has %d entries; it only shrinks, from %d", len(entries), unexecutedCap)
	}
	funcs := map[string][]string{} // file -> its functions as covdata names them
	var prev string
	for _, l := range entries {
		f := strings.Fields(l.text)
		if len(f) != 3 || !slices.Contains(unexecutedKinds, f[2]) {
			t.Errorf("unexecuted.txt:%d: want <file> <function> <kind>, kind one of %v", l.n, unexecutedKinds)
			continue
		}
		key := f[0] + " " + f[1]
		if key <= prev {
			t.Errorf("unexecuted.txt:%d: %s is out of order or repeated", l.n, key)
		}
		prev = key
		if strings.HasSuffix(f[0], "_test.go") || !strings.HasSuffix(f[0], ".go") {
			t.Errorf("unexecuted.txt:%d: %s is not a non-test Go file", l.n, f[0])
			continue
		}
		if _, ok := funcs[f[0]]; !ok {
			funcs[f[0]] = funcNames(t, f[0])
		}
		if !slices.Contains(funcs[f[0]], f[1]) {
			t.Errorf("unexecuted.txt:%d: %s declares no function %s", l.n, f[0], f[1])
		}
	}
}

// runName is the name testdata/runs.sh keeps a line's output under,
// less its .txt: a paper line's last word, any other line's command
// with each run of characters outside [A-Za-z0-9.] squeezed to one '_'
// and a trailing '_' dropped (tr -cs 'A-Za-z0-9.' '_').
func runName(tag string, f []string) string {
	if tag == "paper" {
		return f[len(f)-1]
	}
	var b strings.Builder
	for _, c := range []byte(strings.Join(f[1:], " ")) {
		switch {
		case c == '.' || '0' <= c && c <= '9' || 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z':
			b.WriteByte(c)
		case !strings.HasSuffix(b.String(), "_"):
			b.WriteByte('_')
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}

type line struct {
	n    int
	text string
}

// readLines returns a file's lines that are neither blank nor comments.
func readLines(t *testing.T, path string) []line {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []line
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if s := strings.TrimSpace(sc.Text()); s != "" && !strings.HasPrefix(s, "#") {
			out = append(out, line{n, s})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// funcNames lists a file's functions as go tool covdata func names
// them: name, Type.name or *Type.name.
func funcNames(t *testing.T, path string) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Error(err)
		return nil
	}
	var names []string
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil {
			typ, star := fd.Recv.List[0].Type, ""
			if s, ok := typ.(*ast.StarExpr); ok {
				typ, star = s.X, "*"
			}
			switch x := typ.(type) {
			case *ast.IndexExpr:
				typ = x.X
			case *ast.IndexListExpr:
				typ = x.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				name = star + id.Name + "." + name
			}
		}
		names = append(names, name)
	}
	return names
}
