// Package shapes declares one field per shape TestFieldShapes counts.
// Fields named after a finding are reported; the others are not.
package shapes

import (
	"encoding/json"
	"fmt"
	"sync"
)

type sub struct{ N int }

// Spec is rendered with %+v, as the launch hash renders a match spec.
type Spec struct{ VNI int }

// Request is decoded by encoding/json, so its tagged field is set.
type Request struct {
	Name string `json:"name"`
}

type pair struct{ A, B int }

type Shapes struct {
	Keyed      int // set by a composite-literal key, read
	Assigned   int // set by an assignment, read
	Addressed  int // set through its taken address, read
	LitOnly    int // set by a composite literal and never read: out of scope
	Never      int // read, set by nothing
	TestSet    int // read, set only by a test
	Hidden     int // read, set only by a function no program reaches
	Counted    int // ++ and never read
	OpAssigned int // += and never read
	Element    []int
	Sub        sub
	Appended   []int
	Deleted    map[int]bool
	Mu         sync.Mutex // a pointer-receiver call takes its address and reads it
	Printed    Spec
	Pos        pair
	Digest     [4]byte // set only through the slice x.f[:], which takes its address
	Through    *int    // *x.f = v writes the pointee and reads f
	Shared     *sub    // x.f.g = v through a pointer writes the pointee and reads f
	Ranged     int     // set by a range clause and never read
}

// Run exercises every shape once.
func Run(n int) int {
	s := &Shapes{Keyed: n, LitOnly: n, Element: make([]int, 1), Deleted: map[int]bool{}, Through: new(int), Shared: &sub{}}
	s.Assigned = n
	p := &s.Addressed
	*p = n
	s.Counted++
	s.OpAssigned += n
	s.Element[0] = n // an element write is not a read of Element
	s.Sub.N = n      // a sub-field write is not a read of Sub
	s.Appended = append(s.Appended, n)
	s.Deleted[n] = true
	delete(s.Deleted, n)
	s.Mu.Lock()
	s.Mu.Unlock()
	s.Printed.VNI = n // read by the %+v below
	s.Pos = pair{n, n}
	copy(s.Digest[:], "abcd")
	*s.Through = n
	s.Shared.N = n
	for s.Ranged = range []int{n} {
	}
	// Each spelling of an anonymous struct declares its own fields; the
	// literal's set the declared slice's.
	pairs := []struct{ x, y int }{}
	pairs = append(pairs, struct{ x, y int }{n, n})
	var r Request
	_ = json.Unmarshal([]byte(`{"name":"x"}`), &r)
	fmt.Printf("%+v %s\n", s.Printed, r.Name)
	return s.Keyed + s.Assigned + s.Addressed + s.Never + s.TestSet + s.Hidden + s.Pos.A + s.Pos.B +
		int(s.Digest[0]) + pairs[0].x + pairs[0].y
}

// unreached sets Hidden, but no shipped program calls it.
func unreached(s *Shapes) { s.Hidden = 1 }
