// Scenario file parsing: a hand-rolled YAML subset (the repo has no
// dependencies and vendoring a YAML library for flat config files is
// not worth it) plus JSON via encoding/json, both decoding into the
// same generic tree and then through one strict field mapper — unknown
// keys, wrong shapes and malformed scalars are errors, never panics.
//
// The struct tags are the schema: each field of Scenario and the
// structs it holds carries its key as `scn:"key"`, and one reflective
// walk decodes the tree into them while another encodes them back.
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
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"rdmamon/internal/sim"
)

// Parse decodes and validates a scenario from YAML or JSON bytes
// (JSON when the first non-space byte is '{'). The returned scenario
// has passed Validate.
func Parse(src []byte) (*Scenario, error) {
	if len(src) > 1<<20 {
		return nil, fmt.Errorf("scenario: file exceeds the 1MiB cap")
	}
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

var timeType = reflect.TypeFor[sim.Time]()

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

func decodeScenario(tree any) (*Scenario, error) {
	d := &dec{}
	s := &Scenario{}
	if m := d.obj(tree, "scenario"); m != nil {
		d.fields(reflect.ValueOf(s).Elem(), m, "")
	}
	if err := d.err(); err != nil {
		return nil, err
	}
	return s, nil
}

// fields decodes mapping m into struct v, each key into the field
// tagged with it, consuming m; a key no field carries is an error.
func (d *dec) fields(v reflect.Value, m map[string]any, path string) {
	for i := range v.NumField() {
		key := v.Type().Field(i).Tag.Get("scn")
		if node, ok := m[key]; ok {
			delete(m, key)
			d.value(v.Field(i), node, strings.TrimPrefix(path+"."+key, "."))
		}
	}
	for _, key := range slices.Sorted(maps.Keys(m)) {
		d.bad(cmp.Or(path, "scenario"), "unknown key %q", key)
	}
}

// value decodes one tree node into v by v's type: a struct from a
// mapping, a slice from a sequence, a pointer by allocating its target,
// and a scalar from its text. A pointer is set and a list item appended
// even when its node is malformed: any error rejects the whole document,
// so a half-decoded value is never returned.
func (d *dec) value(v reflect.Value, node any, path string) {
	switch v.Kind() {
	case reflect.Struct:
		if m := d.obj(node, path); m != nil {
			d.fields(v, m, path)
		}
		return
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		d.value(p.Elem(), node, path)
		v.Set(p)
		return
	case reflect.Slice:
		l, ok := node.([]any)
		if !ok {
			d.bad(path, "expected a sequence")
			return
		}
		for i, item := range l {
			e := reflect.New(v.Type().Elem()).Elem()
			d.value(e, item, fmt.Sprintf("%s[%d]", path, i))
			v.Set(reflect.Append(v, e))
		}
		return
	}
	s, ok := node.(string)
	if !ok {
		d.bad(path, "expected a scalar")
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(s)
	case reflect.Bool:
		if s != "true" && s != "false" {
			d.bad(path, "expected true or false, got %q", s)
		}
		v.SetBool(s == "true")
	case reflect.Float64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			d.bad(path, "invalid number %q", s)
		}
		v.SetFloat(f)
	case reflect.Int, reflect.Int64:
		if v.Type() == timeType {
			d.duration(v, s, path)
			return
		}
		n, err := strconv.ParseInt(s, 10, v.Type().Bits())
		if err != nil {
			d.bad(path, "invalid integer %q", s)
		}
		v.SetInt(n)
	}
}

// duration parses a Go-syntax duration ("50ms", "2s", "1.5s") into a
// sim.Time. Negative and oversized values are rejected here so the
// schema validators can assume sane ranges.
func (d *dec) duration(v reflect.Value, s, path string) {
	t, err := time.ParseDuration(s)
	switch {
	case err != nil:
		d.bad(path, "invalid duration %q", s)
	case t < 0:
		d.bad(path, "negative duration %q", s)
	case t > time.Duration(maxHorizon):
		d.bad(path, "duration %q exceeds the %v cap", s, time.Duration(maxHorizon))
	default:
		v.SetInt(int64(t))
	}
}

// --------------------------------------------------------------- encode

// encode emits the scenario in canonical YAML-subset form:
// Parse(s.encode()) reproduces s exactly (reflect.DeepEqual; the
// fuzzer asserts it for every scenario Parse accepts).
func (s *Scenario) encode() []byte {
	var b strings.Builder
	encodeFields(&b, reflect.ValueOf(s).Elem(), "", "")
	return []byte(b.String())
}

// encodeFields writes struct v as a block of `key: value` lines, its
// first line prefixed by first (a sequence item's "- ") and the rest by
// indent. Zero fields are omitted, except the first: it is always
// written, so an all-zero block (`stress:` with every count 0, an event
// at 0s) still appears.
func encodeFields(b *strings.Builder, v reflect.Value, first, indent string) {
	for i := range v.NumField() {
		f, key := v.Field(i), v.Type().Field(i).Tag.Get("scn")
		at := indent
		if i == 0 {
			at = first
		} else if f.IsZero() || f.Kind() == reflect.Slice && f.Len() == 0 {
			continue
		}
		f = reflect.Indirect(f)
		switch f.Kind() {
		case reflect.Struct:
			fmt.Fprintf(b, "%s%s:\n", at, key)
			encodeFields(b, f, indent+"  ", indent+"  ")
		case reflect.Slice:
			fmt.Fprintf(b, "%s%s:\n", at, key)
			for j := range f.Len() {
				encodeFields(b, f.Index(j), indent+"  - ", indent+"    ")
			}
		default:
			fmt.Fprintf(b, "%s%s: %s\n", at, key, scalarText(f))
		}
	}
}

// scalarText is the canonical text of one scalar field, which value
// parses back to the same value.
func scalarText(v reflect.Value) string {
	switch v.Kind() {
	case reflect.String:
		return strconv.Quote(v.String())
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	}
	if v.Type() == timeType {
		return time.Duration(v.Int()).String()
	}
	return strconv.FormatInt(v.Int(), 10)
}
