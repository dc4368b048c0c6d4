// Package lib holds one case per rule of the test-only API checker.
package lib

import "strings"

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
