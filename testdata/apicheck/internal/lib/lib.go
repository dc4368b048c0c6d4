// Package lib holds one case per rule of the test-only API checker.
package lib

import (
	"fmt"
	"reflect"
	"strings"
)

// TestOnly is called only by lib_test.go: reported.
func TestOnly() {}

// Shape's Area has a production use, so every implementation of it is
// used; Name has only a test use: reported with its implementation.
type Shape interface {
	Area() float64
	Name() string
}

// Square is a Shape.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }
func (s Square) Name() string  { return "square" }

// String is reached by fmt: never reported.
func (s Square) String() string { return strings.Repeat("#", int(s.Side)) }

// Err is an error: its Error method is never reported.
type Err struct{}

func (Err) Error() string { return "err" }

// Dead is used only by its own method, which only a test calls: both
// reported.
type Dead struct{}

func (d *Dead) Clone() *Dead { return &Dead{} }

// Base is embedded in Wrap; the embedded field is never reported.
type Base struct{}

// Hello is used through Wrap.
func (Base) Hello() string { return "hello" }

// Wrap embeds Base.
type Wrap struct{ Base }

// Same's type parameter is never reported.
func Same[T any](x T) T { return x }

// Total sums the shapes' areas.
func Total(shapes []Shape) float64 {
	var sum float64
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// BenchOnly, CmdOnly and ExampleOnly are each used from one of the
// directories whose non-test files count as production.
func BenchOnly() int   { return 1 }
func CmdOnly() int     { return 2 }
func ExampleOnly() int { return 3 }

// Knobs holds one field per case of the knob rule. Every field is read
// in production (Knobs.Sum); a field no live production code writes,
// or writes only by a default fill, is reported.
type Knobs struct {
	TestSet   int     // set only by lib_test.go: reported
	DeadWrite int     // set only by deadSetter, which nothing calls: reported
	Lit       int     // set by a composite-literal key
	Index     [2]int  // set through an index chain
	Count     int     // set by ++
	Addr      int     // set through &
	Meter     Counter // set by a pointer-method call on the value
	Filled    int     // set only under if Filled == 0: reported
	Clamped   int     // set only by Knobs' value-receiver clamped: reported
	HighWater int     // set by a high-water mark outside a Knobs method
}

// NewKnobs writes Lit, Index, Count, Addr, Meter and HighWater.
func NewKnobs() *Knobs {
	k := &Knobs{Lit: 1}
	k.Index[0] = 2
	k.Count++
	setInt(&k.Addr)
	k.Meter.Observe()
	raise(k, 6)
	return k
}

func raise(k *Knobs, v int) {
	if v > k.HighWater {
		k.HighWater = v
	}
}

// Sum reads every field, filling Filled's default and clamping Clamped
// first.
func (k *Knobs) Sum() int {
	if k.Filled == 0 {
		k.Filled = 3
	}
	c := k.clamped()
	return k.TestSet + k.DeadWrite + k.Lit + k.Index[0] + k.Count + k.Addr + k.Meter.n + k.Filled + c.Clamped + k.HighWater
}

func (k Knobs) clamped() Knobs {
	if k.Clamped > 9 {
		k.Clamped = 9
	}
	return k
}

func setInt(p *int) { *p = 4 }

func deadSetter(k *Knobs) { k.DeadWrite = 5 }

// Counter counts observations.
type Counter struct{ n int }

// Observe counts one.
func (c *Counter) Observe() { c.n++ }

// State holds one field per case of the dead-state rule. NewState
// writes every field; a field nothing reads is reported, and one only
// a test reads is reported for the inventory.
type State struct {
	Bumped    int         // only ++'d: reported
	Assigned  int         // only assigned: reported
	LitOnly   int         // only set by a composite-literal key: reported
	LiveRead  int         // read by Peek
	Tally     Counter     // read by a method call on the field
	At        Pos         // its fields are read by == in Peek
	Label     Tag         // its field is read by passing it to fmt.Sprint
	BenchRead int         // read only by bench/
	TestRead  int         // read only by lib_test.go: inventoried
	Guarded   map[int]int // bumped under its own nil test only: reported
	Gate      map[int]int // its nil test guards another field's write: read
}

// Pos is compared whole.
type Pos struct{ X, Y int }

// Tag is printed whole.
type Tag struct{ Text string }

// NewState writes every field of a State.
func NewState() *State {
	s := &State{LitOnly: 1, At: Pos{X: 1, Y: 2}, Label: Tag{Text: "t"}}
	s.Bumped++
	s.Assigned = 2
	s.LiveRead = 3
	s.Tally.Observe()
	s.BenchRead = 4
	s.TestRead = 5
	s.Guarded, s.Gate = map[int]int{}, map[int]int{}
	if s.Guarded != nil {
		s.Guarded[1]++
	}
	if s.Gate != nil {
		s.Assigned = 6
	}
	return s
}

// Peek reads LiveRead, At's fields through == and Label's through an
// any parameter.
func (s *State) Peek() string {
	return fmt.Sprint(s.LiveRead, s.At == Pos{}, s.Label)
}

// Decoded is set only by decodeScenario, through reflection. Tagged
// counts as written, since decodeScenario is live and the field carries
// an scn tag; its untagged twin is reported as a knob.
type Decoded struct {
	Tagged   int `scn:"tagged"`
	Untagged int
}

// Load decodes src and reads both fields.
func Load(src map[string]int) int {
	d := decodeScenario(src)
	return d.Tagged + d.Untagged
}

func decodeScenario(src map[string]int) *Decoded {
	d := &Decoded{}
	v := reflect.ValueOf(d).Elem()
	for i := range v.NumField() {
		v.Field(i).SetInt(int64(src[v.Type().Field(i).Name]))
	}
	return d
}
