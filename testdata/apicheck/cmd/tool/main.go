package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.CmdOnly(), lib.Total([]lib.Shape{lib.Square{Side: 1}}), lib.Err{})
	fmt.Println(lib.Same(lib.Wrap{}).Hello(), lib.NewKnobs().Sum(), lib.NewState().Peek(), lib.Load(nil))
}
