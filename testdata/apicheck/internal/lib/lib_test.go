package lib

import "testing"

func TestLib(t *testing.T) {
	TestOnly()
	var s Shape = Square{Side: 2}
	if s.Name() != "square" || (&Dead{}).Clone() == nil {
		t.Fatal("unreachable")
	}
	k := NewKnobs()
	k.TestSet = 6
	deadSetter(k)
	if k.Sum() == 0 || NewState().TestRead == 0 {
		t.Fatal("unreachable")
	}
}
