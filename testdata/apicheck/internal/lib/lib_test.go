package lib

import "testing"

func TestLib(t *testing.T) {
	TestOnly()
	var s Shape = Square{Side: 2}
	if s.Name() != "square" || (&Dead{}).Clone() == nil {
		t.Fatal("unreachable")
	}
}
