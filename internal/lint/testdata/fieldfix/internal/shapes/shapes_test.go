package shapes

import "testing"

func TestShapes(t *testing.T) {
	s := &Shapes{TestSet: 1}
	if s.Counted != 0 || s.OpAssigned != 0 {
		t.Fatal("a test read does not count")
	}
}
