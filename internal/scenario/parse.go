// Scenario file parsing: a hand-rolled YAML subset (the repo has no
// dependencies and vendoring a YAML library for flat config files is
// not worth it) plus JSON via encoding/json, both decoding into the
// same generic tree and then through one strict field mapper — unknown
// keys, wrong shapes and malformed scalars are errors, never panics.
//
// Supported YAML subset (everything the schema needs):
//
//   - block mappings (`key: value`, `key:` + indented block)
//   - block sequences (`- item`, `- key: value` inline-mapping items)
//   - flow sequences of scalars (`[a, b, c]`)
//   - double- and single-quoted strings, `#` comments, blank lines
//   - two-or-more space indentation; tabs are an error
//
// Scenario.encode emits this subset's canonical form; Parse round-trips
// every valid scenario through it (the fuzzer holds us to it).
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"rdmamon/internal/sim"
)

// Parse decodes and validates a scenario from YAML or JSON bytes
// (JSON when the first non-space byte is '{'). The returned scenario
// has passed Validate.
func Parse(src []byte) (*Scenario, error) {
	trimmed := strings.TrimLeft(string(src), " \t\r\n")
	var (
		tree any
		err  error
	)
	if strings.HasPrefix(trimmed, "{") {
		tree, err = parseJSON(src)
	} else {
		tree, err = parseYAML(string(src))
	}
	if err != nil {
		return nil, err
	}
	s, err := decodeScenario(tree)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ---------------------------------------------------------------- JSON

// parseJSON lowers a JSON document to the same tree shape the YAML
// parser produces: map[string]any / []any / string scalars.
func parseJSON(src []byte) (any, error) {
	var v any
	dec := json.NewDecoder(strings.NewReader(string(src)))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("scenario: invalid JSON: %v", err)
	}
	return jsonToTree(v), nil
}

func jsonToTree(v any) any {
	switch x := v.(type) {
	case map[string]any:
		m := make(map[string]any, len(x))
		for k, vv := range x {
			m[k] = jsonToTree(vv)
		}
		return m
	case []any:
		out := make([]any, len(x))
		for i, vv := range x {
			out[i] = jsonToTree(vv)
		}
		return out
	case json.Number:
		return x.String()
	case bool:
		return strconv.FormatBool(x)
	case nil:
		return ""
	default:
		return fmt.Sprint(x)
	}
}

// ---------------------------------------------------------------- YAML

type yamlLine struct {
	indent int
	text   string
	no     int // 1-based source line
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

func parseYAML(src string) (any, error) {
	if len(src) > 1<<20 {
		return nil, fmt.Errorf("scenario: file exceeds the 1MiB cap")
	}
	p := &yamlParser{}
	for i, raw := range strings.Split(src, "\n") {
		line := strings.TrimSuffix(raw, "\r")
		body := stripComment(line)
		if strings.TrimSpace(body) == "" {
			continue
		}
		indent := 0
		for indent < len(body) && body[indent] == ' ' {
			indent++
		}
		if indent < len(body) && body[indent] == '\t' {
			return nil, fmt.Errorf("scenario: line %d: tab in indentation (use spaces)", i+1)
		}
		p.lines = append(p.lines, yamlLine{indent: indent, text: strings.TrimRight(body[indent:], " "), no: i + 1})
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("scenario: empty document")
	}
	v, err := p.parseBlock(p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, fmt.Errorf("scenario: line %d: unexpected indentation", p.lines[p.pos].no)
	}
	return v, nil
}

// stripComment removes a trailing `#` comment that is not inside a
// quoted string (a `#` must be at line start or preceded by a space to
// count, per YAML). Backslash escapes inside double quotes are
// honoured so `"a\" # b"` stays one string.
func stripComment(line string) string {
	inS, inD := false, false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inD {
				i++ // skip the escaped byte
			}
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '#':
			if !inS && !inD && (i == 0 || line[i-1] == ' ') {
				return line[:i]
			}
		}
	}
	return line
}

// parseBlock parses the run of lines at exactly this indent as either
// a sequence (lines starting with "-") or a mapping.
func (p *yamlParser) parseBlock(indent int) (any, error) {
	if p.pos >= len(p.lines) {
		return nil, fmt.Errorf("scenario: unexpected end of document")
	}
	if ln := p.lines[p.pos]; ln.indent != indent {
		return nil, fmt.Errorf("scenario: line %d: unexpected indentation", ln.no)
	}
	if isSeqItem(p.lines[p.pos].text) {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func isSeqItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

func (p *yamlParser) parseSequence(indent int) (any, error) {
	var out []any
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent != indent || !isSeqItem(ln.text) {
			break
		}
		rest := strings.TrimSpace(strings.TrimPrefix(ln.text, "-"))
		if rest == "" {
			// `-` alone: the item is the following deeper block.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("scenario: line %d: empty sequence item", ln.no)
			}
			item, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out = append(out, item)
			continue
		}
		if k, _, ok := splitKey(rest); ok && k != "" {
			// `- key: value`: an inline mapping item. Re-enter the line as
			// if the mapping started two columns deeper; continuation keys
			// sit at that same column.
			p.lines[p.pos] = yamlLine{indent: indent + 2, text: rest, no: ln.no}
			item, err := p.parseMapping(indent + 2)
			if err != nil {
				return nil, err
			}
			out = append(out, item)
			continue
		}
		p.pos++
		v, err := parseScalar(rest, ln.no)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (p *yamlParser) parseMapping(indent int) (any, error) {
	m := map[string]any{}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent != indent {
			if ln.indent > indent {
				return nil, fmt.Errorf("scenario: line %d: unexpected indentation", ln.no)
			}
			break
		}
		if isSeqItem(ln.text) {
			break
		}
		key, val, ok := splitKey(ln.text)
		if !ok {
			return nil, fmt.Errorf("scenario: line %d: expected `key: value`, got %q", ln.no, ln.text)
		}
		if !validKey(key) {
			return nil, fmt.Errorf("scenario: line %d: invalid key %q", ln.no, key)
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("scenario: line %d: duplicate key %q", ln.no, key)
		}
		p.pos++
		switch {
		case val != "":
			v, err := parseScalar(val, ln.no)
			if err != nil {
				return nil, err
			}
			m[key] = v
		case p.pos < len(p.lines) && p.lines[p.pos].indent > indent:
			child, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			m[key] = child
		default:
			m[key] = ""
		}
	}
	return m, nil
}

// splitKey splits `key: value` / `key:`; the separator is the first
// unquoted colon followed by a space or end of line.
func splitKey(text string) (key, val string, ok bool) {
	inS, inD := false, false
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '\\':
			if inD {
				i++ // skip the escaped byte
			}
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case ':':
			if inS || inD {
				continue
			}
			if i+1 == len(text) {
				return strings.TrimSpace(text[:i]), "", true
			}
			if text[i+1] == ' ' {
				return strings.TrimSpace(text[:i]), strings.TrimSpace(text[i+1:]), true
			}
		}
	}
	return "", "", false
}

func validKey(key string) bool {
	if key == "" || len(key) > 64 {
		return false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// parseScalar handles quoted strings, flow sequences of scalars, and
// plain scalars (kept as strings; typing happens in the decoder).
func parseScalar(text string, lineNo int) (any, error) {
	if strings.HasPrefix(text, "[") {
		if !strings.HasSuffix(text, "]") {
			return nil, fmt.Errorf("scenario: line %d: unterminated flow sequence", lineNo)
		}
		inner := strings.TrimSpace(text[1 : len(text)-1])
		if inner == "" {
			return []any{}, nil
		}
		var out []any
		for _, part := range strings.Split(inner, ",") {
			v, err := parseScalar(strings.TrimSpace(part), lineNo)
			if err != nil {
				return nil, err
			}
			if _, isList := v.([]any); isList {
				return nil, fmt.Errorf("scenario: line %d: nested flow sequences are not supported", lineNo)
			}
			out = append(out, v)
		}
		return out, nil
	}
	if strings.HasPrefix(text, "\"") {
		// Double-quoted: full Go escape syntax (encode emits this form).
		s, err := strconv.Unquote(text)
		if err != nil {
			return nil, fmt.Errorf("scenario: line %d: invalid quoted string %s", lineNo, text)
		}
		return s, nil
	}
	if strings.HasPrefix(text, "'") {
		// Single-quoted: raw content, no escapes.
		if len(text) < 2 || text[len(text)-1] != '\'' {
			return nil, fmt.Errorf("scenario: line %d: unterminated quoted string", lineNo)
		}
		return text[1 : len(text)-1], nil
	}
	return text, nil
}

// --------------------------------------------------------------- decode

// dec accumulates decode errors while walking the generic tree; all
// scalar coercions go through it so one malformed field reports its
// path instead of panicking.
type dec struct {
	errs []string
}

func (d *dec) bad(path, format string, args ...any) {
	d.errs = append(d.errs, path+": "+fmt.Sprintf(format, args...))
}

func (d *dec) err() error {
	if len(d.errs) == 0 {
		return nil
	}
	return fmt.Errorf("scenario: %s", strings.Join(d.errs, "; "))
}

// obj asserts the tree node is a mapping.
func (d *dec) obj(v any, path string) map[string]any {
	m, ok := v.(map[string]any)
	if !ok {
		d.bad(path, "expected a mapping")
		return nil
	}
	return m
}

// field pops a key from the mapping (tracking consumption so leftover
// keys can be rejected).
func pop(m map[string]any, key string) (any, bool) {
	v, ok := m[key]
	if ok {
		delete(m, key)
	}
	return v, ok
}

func (d *dec) rejectUnknown(m map[string]any, path string) {
	for k := range m {
		d.bad(path, "unknown key %q", k)
	}
}

func (d *dec) str(m map[string]any, key, path string) string {
	v, ok := pop(m, key)
	if !ok {
		return ""
	}
	s, ok := v.(string)
	if !ok {
		d.bad(path+"."+key, "expected a scalar")
		return ""
	}
	return s
}

func (d *dec) integer(m map[string]any, key, path string) int {
	v, ok := pop(m, key)
	if !ok {
		return 0
	}
	s, ok := v.(string)
	if !ok {
		d.bad(path+"."+key, "expected an integer")
		return 0
	}
	n, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		d.bad(path+"."+key, "invalid integer %q", s)
		return 0
	}
	return int(n)
}

func (d *dec) i64(m map[string]any, key, path string) int64 {
	v, ok := pop(m, key)
	if !ok {
		return 0
	}
	s, ok := v.(string)
	if !ok {
		d.bad(path+"."+key, "expected an integer")
		return 0
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		d.bad(path+"."+key, "invalid integer %q", s)
		return 0
	}
	return n
}

func (d *dec) f64(m map[string]any, key, path string) float64 {
	v, ok := pop(m, key)
	if !ok {
		return 0
	}
	s, ok := v.(string)
	if !ok {
		d.bad(path+"."+key, "expected a number")
		return 0
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		d.bad(path+"."+key, "invalid number %q", s)
		return 0
	}
	return f
}

func (d *dec) f64ptr(m map[string]any, key, path string) *float64 {
	if _, ok := m[key]; !ok {
		return nil
	}
	f := d.f64(m, key, path)
	return &f
}

func (d *dec) boolean(m map[string]any, key, path string) bool {
	v, ok := pop(m, key)
	if !ok {
		return false
	}
	s, ok := v.(string)
	if !ok {
		d.bad(path+"."+key, "expected true or false")
		return false
	}
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	d.bad(path+"."+key, "expected true or false, got %q", s)
	return false
}

// dur parses a Go-syntax duration ("50ms", "2s", "1.5s") into
// sim.Time. Negative and oversized values are rejected here so the
// schema validators can assume sane ranges.
func (d *dec) dur(m map[string]any, key, path string) sim.Time {
	v, ok := pop(m, key)
	if !ok {
		return 0
	}
	s, ok := v.(string)
	if !ok {
		d.bad(path+"."+key, "expected a duration")
		return 0
	}
	t, err := time.ParseDuration(s)
	if err != nil {
		d.bad(path+"."+key, "invalid duration %q", s)
		return 0
	}
	if t < 0 {
		d.bad(path+"."+key, "negative duration %q", s)
		return 0
	}
	if t > time.Duration(maxHorizon) {
		d.bad(path+"."+key, "duration %q exceeds the %v cap", s, time.Duration(maxHorizon))
		return 0
	}
	return sim.Time(t)
}

func decodeScenario(tree any) (*Scenario, error) {
	d := &dec{}
	m := d.obj(tree, "scenario")
	if m == nil {
		return nil, d.err()
	}
	s := &Scenario{
		Name:         d.str(m, "name", "scenario"),
		Description:  d.str(m, "description", "scenario"),
		Seed:         d.i64(m, "seed", "scenario"),
		Seeds:        d.integer(m, "seeds", "scenario"),
		Horizon:      d.dur(m, "horizon", "scenario"),
		QuickHorizon: d.dur(m, "quick_horizon", "scenario"),
		Poll:         d.dur(m, "poll", "scenario"),
		Scheme:       d.str(m, "scheme", "scenario"),
		Policy:       d.str(m, "policy", "scenario"),
		Gamma:        d.f64(m, "gamma", "scenario"),
		LocalWeight:  d.f64(m, "local_weight", "scenario"),
		ProbeTimeout: d.dur(m, "probe_timeout", "scenario"),
		MRRepin:      d.dur(m, "mr_repin", "scenario"),
		QuickMRRepin: d.dur(m, "quick_mr_repin", "scenario"),
		Failover:     d.boolean(m, "failover", "scenario"),
		Replicas:     d.integer(m, "replicas", "scenario"),
		Checks:       d.str(m, "checks", "scenario"),
	}
	if v, ok := pop(m, "fleet"); ok {
		s.Fleet = d.decodeFleet(v)
	}
	if v, ok := pop(m, "workload"); ok {
		s.Workload = d.decodeWorkload(v)
	}
	if v, ok := pop(m, "stagger"); ok {
		s.Stagger = d.decodeStagger(v)
	}
	if v, ok := pop(m, "events"); ok {
		s.Events = d.decodeEvents(v)
	}
	if v, ok := pop(m, "stress"); ok {
		s.Stress = d.decodeStress(v)
	}
	if v, ok := pop(m, "variants"); ok {
		s.Variants = d.decodeVariants(v)
	}
	if v, ok := pop(m, "assertions"); ok {
		s.Assertions = d.decodeAssertions(v)
	}
	d.rejectUnknown(m, "scenario")
	if err := d.err(); err != nil {
		return nil, err
	}
	return s, nil
}

func (d *dec) decodeFleet(v any) Fleet {
	m := d.obj(v, "fleet")
	if m == nil {
		return Fleet{}
	}
	f := Fleet{Backends: d.integer(m, "backends", "fleet")}
	if tv, ok := pop(m, "templates"); ok {
		l, ok := tv.([]any)
		if !ok {
			d.bad("fleet.templates", "expected a sequence")
		}
		if len(l) > maxTemplate {
			d.bad("fleet.templates", "exceeds the %d-template cap", maxTemplate)
			l = nil
		}
		for i, item := range l {
			path := fmt.Sprintf("fleet.templates[%d]", i)
			tm := d.obj(item, path)
			if tm == nil {
				continue
			}
			f.Templates = append(f.Templates, Template{
				Name:          d.str(tm, "name", path),
				Weight:        d.f64(tm, "weight", path),
				CPUs:          d.integer(tm, "cpus", path),
				Workers:       d.integer(tm, "workers", path),
				NICLatency:    d.dur(tm, "nic_latency", path),
				AgentInterval: d.dur(tm, "agent_interval", path),
			})
			d.rejectUnknown(tm, path)
		}
	}
	d.rejectUnknown(m, "fleet")
	return f
}

func (d *dec) decodeWorkload(v any) Workload {
	m := d.obj(v, "workload")
	if m == nil {
		return Workload{}
	}
	w := Workload{
		Kind:         d.str(m, "kind", "workload"),
		Clients:      d.integer(m, "clients", "workload"),
		QuickClients: d.integer(m, "quick_clients", "workload"),
		Think:        d.dur(m, "think", "workload"),
	}
	d.rejectUnknown(m, "workload")
	return w
}

func (d *dec) decodeStagger(v any) *Stagger {
	m := d.obj(v, "stagger")
	if m == nil {
		return nil
	}
	sg := &Stagger{
		Offset: d.dur(m, "offset", "stagger"),
		Jitter: d.dur(m, "jitter", "stagger"),
	}
	d.rejectUnknown(m, "stagger")
	return sg
}

func (d *dec) decodeEvents(v any) []Event {
	l, ok := v.([]any)
	if !ok {
		d.bad("events", "expected a sequence")
		return nil
	}
	if len(l) > maxEvents {
		d.bad("events", "exceeds the %d-event cap", maxEvents)
		return nil
	}
	var out []Event
	for i, item := range l {
		path := fmt.Sprintf("events[%d]", i)
		m := d.obj(item, path)
		if m == nil {
			continue
		}
		out = append(out, Event{
			At:       d.dur(m, "at", path),
			Action:   d.str(m, "action", path),
			Node:     d.integer(m, "node", path),
			Pick:     d.str(m, "pick", path),
			Template: d.str(m, "template", path),
			Duration: d.dur(m, "duration", path),
			Drop:     d.f64(m, "drop", path),
		})
		d.rejectUnknown(m, path)
	}
	return out
}

func (d *dec) decodeStress(v any) *Stress {
	m := d.obj(v, "stress")
	if m == nil {
		return nil
	}
	st := &Stress{
		Crashes:         d.integer(m, "crashes", "stress"),
		LinkFaults:      d.integer(m, "link_faults", "stress"),
		Partitions:      d.integer(m, "partitions", "stress"),
		MRInvalidations: d.integer(m, "mr_invalidations", "stress"),
		FECrashes:       d.integer(m, "fe_crashes", "stress"),
		FEFreezes:       d.integer(m, "fe_freezes", "stress"),
		FEPartitions:    d.integer(m, "fe_partitions", "stress"),
		ClaimStalls:     d.integer(m, "claim_stalls", "stress"),
	}
	d.rejectUnknown(m, "stress")
	return st
}

func (d *dec) decodeVariants(v any) []Variant {
	l, ok := v.([]any)
	if !ok {
		d.bad("variants", "expected a sequence")
		return nil
	}
	if len(l) > maxVariants {
		d.bad("variants", "exceeds the %d-variant cap", maxVariants)
		return nil
	}
	var out []Variant
	for i, item := range l {
		path := fmt.Sprintf("variants[%d]", i)
		m := d.obj(item, path)
		if m == nil {
			continue
		}
		out = append(out, Variant{
			Name:   d.str(m, "name", path),
			Policy: d.str(m, "policy", path),
		})
		d.rejectUnknown(m, path)
	}
	return out
}

func (d *dec) decodeAssertions(v any) []Assertion {
	l, ok := v.([]any)
	if !ok {
		d.bad("assertions", "expected a sequence")
		return nil
	}
	if len(l) > 64 {
		d.bad("assertions", "exceeds the 64-assertion cap")
		return nil
	}
	var out []Assertion
	for i, item := range l {
		path := fmt.Sprintf("assertions[%d]", i)
		m := d.obj(item, path)
		if m == nil {
			continue
		}
		out = append(out, Assertion{
			Metric:   d.str(m, "metric", path),
			Variant:  d.str(m, "variant", path),
			Min:      d.f64ptr(m, "min", path),
			Max:      d.f64ptr(m, "max", path),
			LessThan: d.str(m, "less_than", path),
		})
		d.rejectUnknown(m, path)
	}
	return out
}

// --------------------------------------------------------------- encode

// encode emits the scenario in canonical YAML-subset form:
// Parse(s.encode()) reproduces s exactly (reflect.DeepEqual; the
// fuzzer asserts it for every scenario Parse accepts).
func (s *Scenario) encode() []byte {
	var b strings.Builder
	kv := func(indent, key, val string) {
		if val != "" {
			fmt.Fprintf(&b, "%s%s: %s\n", indent, key, val)
		}
	}
	qs := func(v string) string {
		if v == "" {
			return ""
		}
		return strconv.Quote(v)
	}
	dur := func(t sim.Time) string {
		if t == 0 {
			return ""
		}
		return time.Duration(t).String()
	}
	num := func(f float64) string {
		if f == 0 {
			return ""
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	integer := func(n int) string {
		if n == 0 {
			return ""
		}
		return strconv.Itoa(n)
	}

	kv("", "name", qs(s.Name))
	kv("", "description", qs(s.Description))
	if s.Seed != 0 {
		kv("", "seed", strconv.FormatInt(s.Seed, 10))
	}
	kv("", "seeds", integer(s.Seeds))
	kv("", "horizon", dur(s.Horizon))
	kv("", "quick_horizon", dur(s.QuickHorizon))
	kv("", "poll", dur(s.Poll))
	kv("", "scheme", qs(s.Scheme))
	kv("", "policy", qs(s.Policy))
	kv("", "gamma", num(s.Gamma))
	kv("", "local_weight", num(s.LocalWeight))
	kv("", "probe_timeout", dur(s.ProbeTimeout))
	kv("", "mr_repin", dur(s.MRRepin))
	kv("", "quick_mr_repin", dur(s.QuickMRRepin))
	if s.Failover {
		kv("", "failover", "true")
	}
	kv("", "replicas", integer(s.Replicas))
	kv("", "checks", qs(s.Checks))

	if s.Fleet.Backends != 0 || len(s.Fleet.Templates) > 0 {
		fmt.Fprintf(&b, "fleet:\n")
		kv("  ", "backends", integer(s.Fleet.Backends))
		if len(s.Fleet.Templates) > 0 {
			fmt.Fprintf(&b, "  templates:\n")
			for _, t := range s.Fleet.Templates {
				fmt.Fprintf(&b, "    - name: %s\n", strconv.Quote(t.Name))
				kv("      ", "weight", num(t.Weight))
				kv("      ", "cpus", integer(t.CPUs))
				kv("      ", "workers", integer(t.Workers))
				kv("      ", "nic_latency", dur(t.NICLatency))
				kv("      ", "agent_interval", dur(t.AgentInterval))
			}
		}
	}
	if s.Workload != (Workload{}) {
		fmt.Fprintf(&b, "workload:\n")
		kv("  ", "kind", qs(s.Workload.Kind))
		kv("  ", "clients", integer(s.Workload.Clients))
		kv("  ", "quick_clients", integer(s.Workload.QuickClients))
		kv("  ", "think", dur(s.Workload.Think))
	}
	if s.Stagger != nil {
		fmt.Fprintf(&b, "stagger:\n")
		kv("  ", "offset", dur(s.Stagger.Offset))
		kv("  ", "jitter", dur(s.Stagger.Jitter))
	}
	if len(s.Events) > 0 {
		fmt.Fprintf(&b, "events:\n")
		for _, ev := range s.Events {
			// `at` leads every item; zero is meaningful ("0s"), so it is
			// always emitted.
			fmt.Fprintf(&b, "  - at: %s\n", time.Duration(ev.At).String())
			kv("    ", "action", qs(ev.Action))
			kv("    ", "node", integer(ev.Node))
			kv("    ", "pick", qs(ev.Pick))
			kv("    ", "template", qs(ev.Template))
			kv("    ", "duration", dur(ev.Duration))
			kv("    ", "drop", num(ev.Drop))
		}
	}
	if s.Stress != nil {
		fmt.Fprintf(&b, "stress:\n")
		kv("  ", "crashes", integer(s.Stress.Crashes))
		kv("  ", "link_faults", integer(s.Stress.LinkFaults))
		kv("  ", "partitions", integer(s.Stress.Partitions))
		kv("  ", "mr_invalidations", integer(s.Stress.MRInvalidations))
		kv("  ", "fe_crashes", integer(s.Stress.FECrashes))
		kv("  ", "fe_freezes", integer(s.Stress.FEFreezes))
		kv("  ", "fe_partitions", integer(s.Stress.FEPartitions))
		kv("  ", "claim_stalls", integer(s.Stress.ClaimStalls))
		if *s.Stress == (Stress{}) {
			// All-zero stress still means "random plan with defaults";
			// keep the block present via an explicit zero field.
			fmt.Fprintf(&b, "  crashes: 0\n")
		}
	}
	if len(s.Variants) > 0 {
		fmt.Fprintf(&b, "variants:\n")
		for _, v := range s.Variants {
			fmt.Fprintf(&b, "  - name: %s\n", strconv.Quote(v.Name))
			kv("    ", "policy", qs(v.Policy))
		}
	}
	if len(s.Assertions) > 0 {
		fmt.Fprintf(&b, "assertions:\n")
		for _, a := range s.Assertions {
			fmt.Fprintf(&b, "  - metric: %s\n", strconv.Quote(a.Metric))
			kv("    ", "variant", qs(a.Variant))
			if a.Min != nil {
				fmt.Fprintf(&b, "    min: %s\n", strconv.FormatFloat(*a.Min, 'g', -1, 64))
			}
			if a.Max != nil {
				fmt.Fprintf(&b, "    max: %s\n", strconv.FormatFloat(*a.Max, 'g', -1, 64))
			}
			kv("    ", "less_than", qs(a.LessThan))
		}
	}
	return []byte(b.String())
}
