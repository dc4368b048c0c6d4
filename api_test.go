//go:build !race

package rdmamon_test

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testOnlyAllowlist names the exported identifiers TestNoTestOnlyAPI
// accepts with no production use, and the exported fields it accepts
// with no production write, each with its reason. An entry is one of
// six kinds: shared test vocabulary, a fault hook a test needs to reach
// production code, a fuzz or golden oracle, a state probe a
// cross-package test of a paper claim reads, an ablation switch that
// changes the mechanism behind a paper claim to show it matters, or a
// test seam that shrinks a production default a test would otherwise
// wait out.
var testOnlyAllowlist = map[string]string{
	"internal/core.Claim.Epoch":                    "state probe: the cluster HA and livemon claim tests read the epoch a takeover must advance",
	"internal/core.Claim.Held":                     "state probe: the cluster HA and livemon claim tests read raw holdership (one holder, fenced standbys)",
	"internal/core.ClaimConfig.CheckEvery":         "test seam: livemon's claim tests run the protocol at a 10 ms wall-clock cadence instead of 2 polls; core's sanitizer test sets it",
	"internal/core.ClaimConfig.ExpireAfter":        "test seam: livemon's claim tests take orphans after 60 ms of wall clock; core's sanitizer test sets it below the TTL margin",
	"internal/simnet.Fabric.AblationRDMATargetIRQ": "ablation: simnet's test and the root bench_test.go ablation give one-sided reads a target-side interrupt, breaking the paper's zero-target-CPU claim on purpose",
	"internal/simos.Config.AblationWakePreempt":    "ablation: simos's test and the root bench_test.go ablation turn on wake-up preemption, removing the same-band FIFO behind Figure 3's latency growth",
	"internal/simos.KernelStats.CumIRQHard":        "state probe: Fig 6's interrupt counts in simnet's tests and H6's no-back-end-work check in cluster's",
	"internal/simos.KernelStats.CumIRQSoft":        "state probe: H6's no-back-end-work check in cluster's HA tests",
	"internal/tcpverbs.Agent.BatchedReads":         "state probe: livemon's claim test counts one pipelined read batch per claim round",
	"internal/tcpverbs.Agent.Stats":                "state probe: livemon's claim and history tests count served reads (WR economy)",
	"internal/tcpverbs.Conn.Retry":                 "test seam: livemon's fault test and eight tcpverbs test sites shrink the redial backoff or attempts",
	"internal/tcpverbs.RetryPolicy.Attempts":       "test seam: a field of the Conn.Retry seam",
	"internal/tcpverbs.RetryPolicy.Backoff":        "test seam: a field of the Conn.Retry seam",
	"internal/tcpverbs.RetryPolicy.MaxBackoff":     "test seam: a field of the Conn.Retry seam",
	"internal/wire.UnpackClaimWord":                "fuzz oracle: FuzzClaimWord round-trips it and checks WordEpoch and ClaimVacant against it; core and livemon claim tests read the witness's words with it",
}

// testReadState lists, sorted, the struct fields production writes and
// only tests read: counters and state a test checks that no production
// code shows. It only shrinks: the telemetry layer that exposes these
// fields takes them off, and a field nobody wants exposed is deleted.
var testReadState = []string{
	"internal/connpool.Stats.BreakerCloses",
	"internal/connpool.Stats.Dialing",
	"internal/connpool.Stats.FenceRejected",
	"internal/connpool.Stats.IdleGCs",
	"internal/connpool.Stats.Recycles",
	"internal/connpool.Stats.StaleReleases",
	"internal/core.ClaimVault.words",
	"internal/core.Monitor.PoolShedHot",
	"internal/core.ProbeState.TornRetries",
	"internal/core.PushAgent.Published",
	"internal/faults.Injector.CrashEvents",
	"internal/ganglia.Gmond.Received",
	"internal/livemon.Agent.cvault",
	"internal/livemon.Probe.Rehandshakes",
	"internal/livemon.Pusher.rekeys",
	"internal/livemon.claimVault.words",
	"internal/loadbalance.View.DegradedPicks",
	"internal/simnet.NIC.DialErrors",
	"internal/simnet.NIC.Dials",
	"internal/simnet.NIC.DoorbellBatches",
	"internal/simnet.NIC.QPResets",
	"internal/simnet.NIC.RDMAAtomics",
	"internal/simnet.NIC.RDMAErrors",
	"internal/simnet.QP.target",
	"internal/simos.Message.SentAt",
	"internal/simos.Task.CPUTime",
	"internal/simos.Task.Wakeups",
	"internal/tcpverbs.Conn.Redials",
	"internal/wire.RingView.K",
	"internal/wire.RingView.NodeID",
	"internal/wire.RingView.Pushes",
	"internal/workload.ClientPool.Rejected",
}

// TestNoTestOnlyAPI holds the rule that production API is what
// production uses: every exported identifier of the module is used by a
// non-test file under internal/, cmd/, examples/ or bench/, and every
// exported field production reads is also set by production (a field
// only tests set, or only a default fill sets, is a knob with one value
// in use: a constant), or the
// identifier is on testOnlyAllowlist with a reason. Its third rule is on
// state: every struct field production writes is read by something, and
// a field only tests read is on testReadState.
func TestNoTestOnlyAPI(t *testing.T) {
	found, err := testOnlyAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(testOnlyAllowlist); n > 15 {
		t.Errorf("allowlist has %d entries; it only shrinks, from 15", n)
	}
	for _, id := range found.unused {
		if _, ok := testOnlyAllowlist[id]; !ok {
			t.Errorf("%s: exported, but no production code uses it; delete it, unexport it, or allowlist it with a reason", id)
		}
	}
	for _, id := range found.knobs {
		if _, ok := testOnlyAllowlist[id]; !ok {
			t.Errorf("%s: production reads it but only tests set it; make it a constant, unexport it, or allowlist it with a reason", id)
		}
	}
	for id := range testOnlyAllowlist {
		if !slices.Contains(found.unused, id) && !slices.Contains(found.knobs, id) {
			t.Errorf("allowlist entry %s is stale: production code uses it or it is gone", id)
		}
	}
	for _, id := range found.dead {
		t.Errorf("%s: production writes it but nothing reads it; delete it with the code that feeds it", id)
	}
	if n := len(testReadState); n > 32 {
		t.Errorf("testReadState has %d entries; it only shrinks, from 32", n)
	}
	for _, msg := range inventoryErrors(found.testRead, testReadState) {
		t.Error(msg)
	}
}

// inventoryErrors compares the fields only tests read with the
// inventory that must list exactly them, in order.
func inventoryErrors(testRead, inventory []string) []string {
	var out []string
	if !slices.IsSorted(inventory) {
		out = append(out, "testReadState is not sorted")
	}
	for _, id := range testRead {
		if !slices.Contains(inventory, id) {
			out = append(out, id+": production writes it and only tests read it; expose it, delete it, or list it on testReadState")
		}
	}
	for _, id := range inventory {
		if !slices.Contains(testRead, id) {
			out = append(out, "testReadState entry "+id+" is stale: production reads it, nothing reads it, or it is gone")
		}
	}
	return out
}

// TestNoTestOnlyAPIFixture runs the checker on a small module whose
// findings are known, one case per rule.
func TestNoTestOnlyAPIFixture(t *testing.T) {
	found, err := testOnlyAPI(filepath.Join("testdata", "apicheck"))
	if err != nil {
		t.Fatal(err)
	}
	want := apiFindings{
		unused: []string{
			"internal/lib.Dead",       // used only by its own dead method
			"internal/lib.Dead.Clone", // ... which is itself dead
			"internal/lib.Shape.Name", // a test-only interface method
			"internal/lib.Square.Name",
			"internal/lib.TestOnly",
		},
		knobs: []string{
			"internal/lib.Decoded.Untagged", // no scn tag: the reflective write is not seen
			"internal/lib.Knobs.Clamped",    // set only in Knobs' own value-receiver method
			"internal/lib.Knobs.DeadWrite",  // set only by a dead function
			"internal/lib.Knobs.Filled",     // set only by a default fill
			"internal/lib.Knobs.TestSet",    // set only by a test
		},
		dead: []string{
			"internal/lib.State.Assigned", // only assigned
			"internal/lib.State.Bumped",   // only ++'d
			"internal/lib.State.Guarded",  // only bumped, under its own nil test
			"internal/lib.State.LitOnly",  // only a composite-literal key
		},
		testRead: []string{
			"internal/lib.State.TestRead", // read only by lib_test.go
		},
	}
	if !slices.Equal(found.unused, want.unused) {
		t.Errorf("unused:\n got %q\nwant %q", found.unused, want.unused)
	}
	if !slices.Equal(found.knobs, want.knobs) {
		t.Errorf("knobs:\n got %q\nwant %q", found.knobs, want.knobs)
	}
	if !slices.Equal(found.dead, want.dead) {
		t.Errorf("dead:\n got %q\nwant %q", found.dead, want.dead)
	}
	if !slices.Equal(found.testRead, want.testRead) {
		t.Errorf("testRead:\n got %q\nwant %q", found.testRead, want.testRead)
	}
	// An inventory entry for a field that is gone fails the check.
	stale := "internal/lib.State.Gone"
	got := inventoryErrors(found.testRead, []string{stale, "internal/lib.State.TestRead"})
	if len(got) != 1 || !strings.Contains(got[0], stale+" is stale") {
		t.Errorf("inventory with a stale entry: got %q, want one stale-entry error", got)
	}
}

// apiFindings are the checker's reports, each sorted, as
// "pkg/rel/path.Name" or "pkg/rel/path.Type.Member": exported
// identifiers no production code reaches; exported fields live
// production code reads but never writes; and fields, exported or not,
// live production code writes but does not read, split into those
// nothing reads (dead) and those only tests read.
type apiFindings struct {
	unused, knobs, dead, testRead []string
}

// testOnlyAPI type-checks the non-test Go files of the module rooted
// at dir and returns its findings. bench/ is production code for the
// uses and writes it makes, but its own identifiers are never reported.
//
// Liveness is reachability: main and init functions and blank
// declarations are roots, and a use counts only from inside the
// declaration of a live identifier, so a type kept alive only by its own
// dead methods is reported with them. A method is also live when its
// receiver is live and it implements a standard-library interface, or
// an interface method that is itself live. String, Error, GoString and
// Format live with their receiver, since fmt reaches them dynamically.
// Embedded fields and type parameters are never reported.
//
// A field is written by a composite-literal key (or position), by = or
// op= or ++ or -- or & on an expression whose selector, index or star
// chain holds it (st.Max[c] = x writes Max), or by a pointer-method call
// on it as an addressable value (s.Health.Observe() writes Health). A
// default fill sets a field only to its own default, so it writes the
// field for the state rule but not for the knob rule: a write under an
// if whose condition compares the field with a zero value (if c.F <= 0
// { c.F = k }), or any write inside a value-receiver method of the
// field's own struct type (WithDefaults, whose writes leave only through
// the copy it returns). A pointer-receiver method is the type's state
// machine (n.Dials++), and a high-water mark (if v > s.Max { s.Max = v
// }) is a write. Like a use, a write counts only from inside a live
// declaration. A field tagged scn is
// written when its package's decodeScenario is live, since that decoder
// sets the tagged fields by reflection, where no syntactic rule sees it.
//
// A written field must also be read (fieldReads says what a read is),
// from a live declaration or from any test file: the module's test
// files are type-checked too, in-package ones with their package and
// external ones on their own.
func testOnlyAPI(dir string) (apiFindings, error) {
	l, err := loadModule(dir)
	if err != nil {
		return apiFindings{}, err
	}
	g := &apiGraph{
		edges:    map[types.Object][]types.Object{},
		writes:   map[types.Object][]fieldWrite{},
		reads:    map[types.Object][]token.Pos{},
		live:     map[types.Object]bool{},
		written:  map[types.Object]bool{},
		set:      map[types.Object]bool{},
		read:     map[token.Pos]bool{},
		implDone: map[implKey]bool{},
	}
	var named []*types.TypeName
	for _, p := range l.pkgs {
		for _, f := range p.files {
			g.addFile(p, f)
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn)
			}
		}
	}
	stdIfaces := stdInterfaces(l.pkgs)
	for {
		g.drain()
		before := len(g.live)
		g.markImplementations(named, stdIfaces)
		if len(g.live) == before {
			break
		}
	}
	for owner, fields := range g.writes {
		if g.live[owner] {
			for _, f := range fields {
				g.write(f)
			}
		}
	}
	for _, p := range l.pkgs {
		markTaggedWrites(p, g)
	}
	for owner, fields := range g.reads {
		if g.live[owner] {
			for _, f := range fields {
				g.read[f] = true
			}
		}
	}
	testRead, err := l.testReads()
	if err != nil {
		return apiFindings{}, err
	}
	var found apiFindings
	for _, p := range l.pkgs {
		if p.frozen {
			continue
		}
		for _, c := range candidates(p) {
			id := p.rel + "." + c.name
			switch f, _ := c.obj.(*types.Var); {
			case !g.live[c.obj]:
				found.unused = append(found.unused, id)
			case f != nil && f.IsField() && !g.set[f]:
				found.knobs = append(found.knobs, id)
			}
		}
		for _, c := range structFields(p) {
			switch id := p.rel + "." + c.name; {
			case !g.written[c.obj] || g.read[c.obj.Pos()]:
			case testRead[c.obj.Pos()]:
				found.testRead = append(found.testRead, id)
			default:
				found.dead = append(found.dead, id)
			}
		}
	}
	slices.Sort(found.unused)
	slices.Sort(found.knobs)
	slices.Sort(found.dead)
	slices.Sort(found.testRead)
	return found, nil
}

// markTaggedWrites counts every scn-tagged field of p's struct types as
// written when p's decodeScenario is live.
func markTaggedWrites(p *modulePkg, g *apiGraph) {
	scope := p.pkg.Scope()
	if dec := scope.Lookup("decodeScenario"); dec == nil || !g.live[dec] {
		return
	}
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if reflect.StructTag(st.Tag(i)).Get("scn") != "" {
					g.write(fieldWrite{field: st.Field(i)})
				}
			}
		}
	}
}

// modulePkg is one package of the module, type-checked from its
// non-test files.
type modulePkg struct {
	path, rel, dir        string
	frozen                bool // under bench/: its uses count, its API is not checked
	names                 []string
	testNames, xtestNames []string
	files                 []*ast.File
	pkg                   *types.Package
	info                  *types.Info
	checking              bool
}

type moduleLoader struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	byPath map[string]*modulePkg
	pkgs   []*modulePkg
}

func loadModule(root string) (*moduleLoader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		byPath: map[string]*modulePkg{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		p := &modulePkg{path: modPath, rel: rel, dir: path, names: bp.GoFiles, testNames: bp.TestGoFiles, xtestNames: bp.XTestGoFiles}
		if rel != "." {
			p.path += "/" + rel
		}
		p.frozen = rel == "bench" || strings.HasPrefix(rel, "bench/")
		l.byPath[p.path] = p
		l.pkgs = append(l.pkgs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range l.pkgs {
		if _, err := l.check(p); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *moduleLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.byPath[path]; ok {
		return l.check(p)
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *moduleLoader) check(p *modulePkg) (*types.Package, error) {
	if p.pkg != nil {
		return p.pkg, nil
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", p.path)
	}
	p.checking = true
	files, err := l.parse(p.dir, p.names)
	if err != nil {
		return nil, err
	}
	p.files = files
	p.info = newInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p.path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	return pkg, nil
}

func (l *moduleLoader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// testReads type-checks every test file of the module and returns the
// positions of the struct fields they read. An in-package test file is
// checked with its package's files (a second copy of the package, so
// fields are matched by position), an external test package on its own,
// importing that copy.
func (l *moduleLoader) testReads() (map[token.Pos]bool, error) {
	read := map[token.Pos]bool{}
	add := func(v *types.Var) { read[origin(v).Pos()] = true }
	for _, p := range l.pkgs {
		withTests := p.pkg
		if len(p.testNames) > 0 {
			files, err := l.parse(p.dir, p.testNames)
			if err != nil {
				return nil, err
			}
			info := newInfo()
			conf := types.Config{Importer: l}
			withTests, err = conf.Check(p.path, l.fset, append(slices.Clip(p.files), files...), info)
			if err != nil {
				return nil, err
			}
			for _, f := range files {
				fieldReads(info, f, add)
			}
		}
		if len(p.xtestNames) > 0 {
			files, err := l.parse(p.dir, p.xtestNames)
			if err != nil {
				return nil, err
			}
			info := newInfo()
			conf := types.Config{Importer: testImporter{l, withTests}}
			if _, err := conf.Check(p.path+"_test", l.fset, files, info); err != nil {
				return nil, err
			}
			for _, f := range files {
				fieldReads(info, f, add)
			}
		}
	}
	return read, nil
}

// testImporter is the module's importer, but for the package under
// test, which an external test package sees with its in-package test
// files.
type testImporter struct {
	*moduleLoader
	under *types.Package
}

func (t testImporter) Import(path string) (*types.Package, error) {
	return t.ImportFrom(path, "", 0)
}

func (t testImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == t.under.Path() {
		return t.under, nil
	}
	return t.moduleLoader.ImportFrom(path, dir, mode)
}

// apiGraph is the use graph: an edge runs from the identifier whose
// declaration holds a use to the identifier used. writes maps the same
// owners to the fields their declarations write.
type apiGraph struct {
	edges    map[types.Object][]types.Object
	writes   map[types.Object][]fieldWrite
	reads    map[types.Object][]token.Pos
	live     map[types.Object]bool
	written  map[types.Object]bool // by any write
	set      map[types.Object]bool // by a write that is not a default fill
	read     map[token.Pos]bool
	queue    []types.Object
	implDone map[implKey]bool
}

type implKey struct {
	typ   *types.TypeName
	iface *types.Interface
}

var alwaysLive = map[string]bool{"String": true, "Error": true, "GoString": true, "Format": true}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (g *apiGraph) write(w fieldWrite) {
	g.written[w.field] = true
	if !w.fill {
		g.set[w.field] = true
	}
}

func (g *apiGraph) mark(obj types.Object) {
	obj = origin(obj)
	if !g.live[obj] {
		g.live[obj] = true
		g.queue = append(g.queue, obj)
	}
}

func (g *apiGraph) drain() {
	for len(g.queue) > 0 {
		obj := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		for _, to := range g.edges[obj] {
			g.mark(to)
		}
	}
}

// addFile records the uses in one production file, each under the
// package-level identifier whose declaration holds it; uses under a root
// are marked live at once.
func (g *apiGraph) addFile(p *modulePkg, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn := p.info.Defs[d.Name].(*types.Func)
			var owners []types.Object
			isRoot := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main")
			if !isRoot {
				owners = []types.Object{fn}
			}
			var own *types.Struct
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if tn := recvTypeName(recv.Type()); tn != nil {
					if alwaysLive[fn.Name()] {
						g.edges[tn] = append(g.edges[tn], fn)
					}
					if _, ptr := recv.Type().(*types.Pointer); !ptr {
						own, _ = tn.Type().Underlying().(*types.Struct)
					}
				}
			}
			g.addUses(p, d, owners, own)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					g.addUses(p, s, []types.Object{p.info.Defs[s.Name]}, nil)
				case *ast.ValueSpec:
					var owners []types.Object
					for _, n := range s.Names {
						if n.Name == "_" {
							owners = nil
							break
						}
						obj := p.info.Defs[n]
						owners = append(owners, obj)
						// A constant repeated by iota names its type
						// only in the first spec of its group.
						if tn := recvTypeName(obj.Type()); tn != nil {
							g.edges[obj] = append(g.edges[obj], tn)
						}
					}
					g.addUses(p, s, owners, nil)
				}
			}
		}
	}
}

// addUses adds an edge from each owner to every identifier used under
// n, and records the fields n writes and reads; with no owners, n is a
// root and what it uses is live, what it writes written, what it reads
// read.
func (g *apiGraph) addUses(p *modulePkg, n ast.Node, owners []types.Object, own *types.Struct) {
	for _, f := range fieldWrites(p.info, n, own) {
		if len(owners) == 0 {
			g.write(f)
		}
		for _, o := range owners {
			g.writes[o] = append(g.writes[o], f)
		}
	}
	fieldReads(p.info, n, func(f *types.Var) {
		pos := origin(f).Pos()
		if len(owners) == 0 {
			g.read[pos] = true
		}
		for _, o := range owners {
			g.reads[o] = append(g.reads[o], pos)
		}
	})
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		used := p.info.Uses[id]
		if used == nil || used.Pkg() == nil {
			return true
		}
		used = origin(used)
		if len(owners) == 0 {
			g.mark(used)
		}
		for _, o := range owners {
			g.edges[o] = append(g.edges[o], used)
		}
		return true
	})
}

// fieldWrite is one write of a struct field; fill marks a default
// fill, which sets the field only to its own default.
type fieldWrite struct {
	field types.Object
	fill  bool
}

// fieldWrites lists the struct fields written under n. A write is a
// default fill when it sits under an if whose condition compares the
// written field with a zero value (if c.F <= 0 { c.F = k }), or inside
// a value-receiver method of the field's own struct type, own
// (WithDefaults); every field of a fill's selector chain is filled with
// it.
func fieldWrites(info *types.Info, n ast.Node, own *types.Struct) []fieldWrite {
	var out []fieldWrite
	var zeroed []types.Object // fields compared with zero by the enclosing ifs
	chain := func(e ast.Expr) {
		fill := false
		for first := true; ; first = false {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
					f := origin(s.Obj())
					fill = fill || first && slices.Contains(zeroed, f) || ownField(own, f)
					out = append(out, fieldWrite{f, fill})
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			for _, c := range []ast.Node{x.Init, x.Cond} {
				if c != nil {
					ast.Inspect(c, visit)
				}
			}
			depth := len(zeroed)
			zeroed = append(zeroed, zeroCompared(info, x.Cond)...)
			ast.Inspect(x.Body, visit)
			zeroed = zeroed[:depth]
			if x.Else != nil {
				ast.Inspect(x.Else, visit)
			}
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				chain(lhs)
			}
		case *ast.IncDecStmt:
			chain(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				chain(x.X)
			}
		case *ast.SelectorExpr:
			// A pointer method on a value takes its address.
			s := info.Selections[x]
			if s == nil || s.Kind() != types.MethodVal {
				break
			}
			recv := s.Obj().Type().(*types.Signature).Recv()
			if _, ptr := recv.Type().(*types.Pointer); ptr {
				if _, isPtr := info.TypeOf(x.X).Underlying().(*types.Pointer); !isPtr {
					chain(x.X)
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range x.Elts {
				f := origin(st.Field(i))
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					f = origin(info.Uses[kv.Key.(*ast.Ident)])
				}
				out = append(out, fieldWrite{f, ownField(own, f)})
			}
		}
		return true
	}
	ast.Inspect(n, visit)
	return out
}

// ownField reports whether f is a field of the struct own.
func ownField(own *types.Struct, f types.Object) bool {
	if own == nil {
		return false
	}
	for i := range own.NumFields() {
		if own.Field(i) == f {
			return true
		}
	}
	return false
}

// zeroCompared lists the fields cond compares with a zero value: F ==
// 0, F <= 0, F == nil, F == "" (either way round).
func zeroCompared(info *types.Info, cond ast.Expr) []types.Object {
	var out []types.Object
	isZero := func(e ast.Expr) bool {
		tv := info.Types[e]
		if tv.IsNil() {
			return true
		}
		if tv.Value == nil {
			return false
		}
		switch tv.Value.Kind() {
		case constant.String:
			return constant.StringVal(tv.Value) == ""
		case constant.Int, constant.Float:
			return constant.Sign(tv.Value) == 0
		}
		return false
	}
	field := func(e ast.Expr) types.Object {
		if x, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				return origin(s.Obj())
			}
		}
		return nil
	}
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch f, g := field(b.X), field(b.Y); {
		case f != nil && (b.Op == token.EQL || b.Op == token.LEQ) && isZero(b.Y):
			out = append(out, f)
		case g != nil && (b.Op == token.EQL || b.Op == token.GEQ) && isZero(b.X):
			out = append(out, g)
		}
		return true
	})
	return out
}

// fieldReads calls read for each struct field read under n. Only the
// target of =, op=, ++ or -- and a composite-literal key are pure
// writes, and so are the fields holding the struct value, array, slice
// or map a target is inside (k.Index[0] = x and d.P99[s] = x write
// Index and P99): a container only ever written into is never looked
// at. A pointer a target is reached through is read, since what it
// points to is shared. A nil test that only guards writes into the
// field it tests (if w.Picks != nil { w.Picks[b]++ }) is not a read
// either: nothing is done with the field but write it. Every other use
// is a read: a selector in an expression, &x.F, a method call on x.F. A
// struct value compared with == or !=, used as a map key, or passed to
// an interface parameter reads every field it holds.
func fieldReads(info *types.Info, n ast.Node, read func(*types.Var)) {
	var visit func(ast.Node) bool
	walk := func(n ast.Node) {
		if n != nil {
			ast.Inspect(n, visit)
		}
	}
	target := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if s := info.Selections[x]; s == nil || s.Indirect() {
					walk(x.X)
					return
				}
				e = x.X
			case *ast.IndexExpr:
				walk(x.Index)
				e = x.X
			default:
				walk(x)
				return
			}
		}
	}
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			if sel := selfGuard(info, x); sel != nil {
				walk(sel.X)
				walk(x.Body)
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				target(lhs)
			}
			for _, rhs := range x.Rhs {
				walk(rhs)
			}
			return false
		case *ast.IncDecStmt:
			target(x.X)
			return false
		case *ast.CompositeLit:
			_, isStruct := deref(info.TypeOf(x)).Underlying().(*types.Struct)
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok && isStruct {
					el = kv.Value
				}
				walk(el)
			}
			return false
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				read(s.Obj().(*types.Var))
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				allFields(info.TypeOf(x.X), read)
				allFields(info.TypeOf(x.Y), read)
			}
		case *ast.CallExpr:
			ifaceArgs(info, x, read)
		}
		if e, ok := n.(ast.Expr); ok {
			if m, ok := typeUnder(info.TypeOf(e)).(*types.Map); ok {
				allFields(m.Key(), read)
			}
		}
		return true
	}
	walk(n)
}

// selfGuard returns x.F when s is a nil test of field F that guards
// only writes into F: no init or else, a condition that compares x.F
// with nil, and a body of assignments and ++/-- whose every target
// reaches through F.
func selfGuard(info *types.Info, s *ast.IfStmt) *ast.SelectorExpr {
	if s.Init != nil || s.Else != nil || len(s.Body.List) == 0 {
		return nil
	}
	b, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.NEQ && b.Op != token.EQL {
		return nil
	}
	e := b.X
	if !info.Types[b.Y].IsNil() {
		if !info.Types[b.X].IsNil() {
			return nil
		}
		e = b.Y
	}
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	f := info.Selections[sel]
	if f == nil || f.Kind() != types.FieldVal {
		return nil
	}
	for _, st := range s.Body.List {
		var targets []ast.Expr
		switch st := st.(type) {
		case *ast.AssignStmt:
			targets = st.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{st.X}
		default:
			return nil
		}
		for _, t := range targets {
			if !writesInto(info, t, f.Obj()) {
				return nil
			}
		}
	}
	return sel
}

// writesInto reports whether the write target e reaches through field f.
func writesInto(info *types.Info, e ast.Expr, f types.Object) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s != nil && s.Obj() == f {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// ifaceArgs reads every field of each struct value call converts to an
// interface, as an argument or as a conversion's operand.
func ifaceArgs(info *types.Info, call *ast.CallExpr, read func(*types.Var)) {
	tv := info.Types[call.Fun]
	if tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			allFields(info.TypeOf(call.Args[0]), read)
		}
		return
	}
	sig, ok := typeUnder(tv.Type).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch last := params.Len() - 1; {
		case sig.Variadic() && i >= last && !call.Ellipsis.IsValid():
			if s, ok := params.At(last).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) {
			allFields(info.TypeOf(arg), read)
		}
	}
}

// allFields reads every field t holds by value: its own, and those of
// the struct and array values inside it.
func allFields(t types.Type, read func(*types.Var)) {
	switch u := typeUnder(t).(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			read(u.Field(i))
			allFields(u.Field(i).Type(), read)
		}
	case *types.Array:
		allFields(u.Elem(), read)
	}
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func deref(t types.Type) types.Type {
	if ptr, ok := typeUnder(t).(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// recvTypeName is the declared type behind t or *t, if any.
func recvTypeName(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// markImplementations marks the methods by which a live module type
// implements a standard-library interface, or a live interface method.
func (g *apiGraph) markImplementations(named []*types.TypeName, std []*types.Interface) {
	ifaces := map[*types.Interface][]*types.Func{}
	for obj := range g.live {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		if it, ok := recv.Type().Underlying().(*types.Interface); ok {
			ifaces[it] = append(ifaces[it], fn)
		}
	}
	for _, tn := range named {
		if !g.live[tn] || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for it, methods := range ifaces {
			if implements(ptr, it) {
				for _, m := range methods {
					g.markMethod(ptr, m.Name())
				}
			}
		}
		for _, it := range std {
			key := implKey{tn, it}
			if g.implDone[key] {
				continue
			}
			g.implDone[key] = true
			if implements(ptr, it) {
				for i := range it.NumMethods() {
					g.markMethod(ptr, it.Method(i).Name())
				}
			}
		}
	}
}

func implements(ptr *types.Pointer, it *types.Interface) bool {
	return it.NumMethods() > 0 && (types.Implements(ptr.Elem(), it) || types.Implements(ptr, it))
}

func (g *apiGraph) markMethod(ptr *types.Pointer, name string) {
	obj, _, _ := types.LookupFieldOrMethod(ptr, false, nil, name)
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
		g.mark(fn)
	}
}

// stdInterfaces lists the interface types declared by every
// standard-library package the module imports, directly or not.
func stdInterfaces(pkgs []*modulePkg) []*types.Interface {
	module := map[*types.Package]bool{}
	for _, p := range pkgs {
		module[p.pkg] = true
	}
	seen := map[*types.Package]bool{}
	var out []*types.Interface
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
		if module[pkg] {
			return
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
	}
	for _, p := range pkgs {
		visit(p.pkg)
	}
	return out
}

type candidate struct {
	name string
	obj  types.Object
}

// structFields lists the non-embedded, non-blank fields, exported or
// not, of the struct types p declares at package level.
func structFields(p *modulePkg) []candidate {
	var out []candidate
	scope := p.pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if f := st.Field(i); !f.Embedded() && f.Name() != "_" {
					out = append(out, candidate{name + "." + f.Name(), f})
				}
			}
		}
	}
	return out
}

// candidates lists the exported identifiers p declares: package-level
// objects, and the methods and non-embedded fields of its declared
// types.
func candidates(p *modulePkg) []candidate {
	var out []candidate
	scope := p.pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out = append(out, candidate{name, obj})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		prefix := name + "."
		if n, ok := tn.Type().(*types.Named); ok {
			for i := range n.NumMethods() {
				if m := n.Method(i); m.Exported() && !alwaysLive[m.Name()] {
					out = append(out, candidate{prefix + m.Name(), m})
				}
			}
		}
		switch u := tn.Type().Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				if f := u.Field(i); f.Exported() && !f.Embedded() {
					out = append(out, candidate{prefix + f.Name(), f})
				}
			}
		case *types.Interface:
			for i := range u.NumExplicitMethods() {
				if m := u.ExplicitMethod(i); m.Exported() && !alwaysLive[m.Name()] {
					out = append(out, candidate{prefix + m.Name(), m})
				}
			}
		}
	}
	return out
}
