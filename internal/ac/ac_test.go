package ac

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"

	"snic/internal/sim"
	"snic/internal/trace"
)

func compile(t *testing.T, pats ...string) *Automaton {
	t.Helper()
	bs := make([][]byte, len(pats))
	for i, p := range pats {
		bs[i] = []byte(p)
	}
	a, err := Compile(bs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// contains reports whether any pattern occurs in input, exiting at the
// first match: the boolean oracle the tests hold Scan's goto table to.
func (a *Automaton) contains(input []byte) bool {
	s := int32(0)
	for _, b := range input {
		s = a.next[int(s)*a.nclasses+int(a.classOf[b])]
		if len(a.out[s]) > 0 {
			return true
		}
	}
	return false
}

// stateWalk returns the state sequence length (equal to len(input)) and
// the final state: the goto function alone, with no output lists read.
func (a *Automaton) stateWalk(input []byte) (visited int, final int32) {
	s := int32(0)
	for _, b := range input {
		s = a.next[int(s)*a.nclasses+int(a.classOf[b])]
	}
	return len(input), s
}

func ends(ms []Match) []int {
	var out []int
	for _, m := range ms {
		out = append(out, m.End)
	}
	sort.Ints(out)
	return out
}

func TestSimpleMatch(t *testing.T) {
	a := compile(t, "he", "she", "his", "hers")
	ms := a.Scan([]byte("ushers"), nil)
	// Classic AC example: "she" at 4, "he" at 4, "hers" at 6.
	if len(ms) != 3 {
		t.Fatalf("matches = %+v", ms)
	}
	got := ends(ms)
	want := []int{4, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ends = %v, want %v", got, want)
		}
	}
}

func TestNoMatch(t *testing.T) {
	a := compile(t, "virus", "exploit")
	if a.contains([]byte("innocuous payload")) {
		t.Fatal("false positive")
	}
	if ms := a.Scan([]byte("clean"), nil); len(ms) != 0 {
		t.Fatalf("matches = %+v", ms)
	}
}

func TestOverlappingPatterns(t *testing.T) {
	a := compile(t, "aa", "aaa")
	ms := a.Scan([]byte("aaaa"), nil)
	// "aa" ends at 2,3,4; "aaa" ends at 3,4 => 5 matches.
	if len(ms) != 5 {
		t.Fatalf("got %d matches: %+v", len(ms), ms)
	}
}

func TestPatternIndexReported(t *testing.T) {
	a := compile(t, "foo", "bar")
	ms := a.Scan([]byte("xbar"), nil)
	if len(ms) != 1 || ms[0].Pattern != 1 || ms[0].End != 4 {
		t.Fatalf("ms = %+v", ms)
	}
}

func TestDuplicatePatterns(t *testing.T) {
	a := compile(t, "dup", "dup")
	ms := a.Scan([]byte("dup"), nil)
	if len(ms) != 2 {
		t.Fatalf("duplicate patterns reported %d matches", len(ms))
	}
}

func TestEmptyPatternRejected(t *testing.T) {
	if _, err := Compile([][]byte{[]byte("ok"), {}}); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

func TestContainsEarlyExit(t *testing.T) {
	a := compile(t, "x")
	if !a.contains([]byte("aaax")) {
		t.Fatal("missed match")
	}
}

func TestBinaryPatterns(t *testing.T) {
	a, err := Compile([][]byte{{0x00, 0xFF, 0x00}, {0xDE, 0xAD}})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte{1, 0x00, 0xFF, 0x00, 2, 0xDE, 0xAD}
	ms := a.Scan(input, nil)
	if len(ms) != 2 {
		t.Fatalf("binary matches = %+v", ms)
	}
}

func TestStateWalk(t *testing.T) {
	a := compile(t, "abc")
	n, final := a.stateWalk([]byte("ab"))
	if n != 2 || final == 0 {
		t.Fatalf("walk = %d, %d", n, final)
	}
}

func TestMemoryBytesGrowsWithRules(t *testing.T) {
	small := compile(t, "a")
	big := compile(t, "abcdefgh", "ijklmnop", "qrstuvwx")
	if big.MemoryBytes() <= small.MemoryBytes() {
		t.Fatal("graph memory not monotone in rule volume")
	}
	if len(small.out) != 2 {
		t.Fatalf("states = %d", len(small.out))
	}
}

// TestDPIPatternShapes pins the graph shapes the Table 6/7 and Figure 5
// goldens are read from, and that the goto table carries no growth slack.
func TestDPIPatternShapes(t *testing.T) {
	for _, c := range []struct {
		n, states, classes int
		bytes              uint64
	}{
		{4000, 62943, 96, 24690172},
		{8000, 125981, 96, 49417068},
	} {
		a, err := Compile(trace.DPIPatterns(sim.NewRand(1), c.n))
		if err != nil {
			t.Fatal(err)
		}
		if len(a.out) != c.states || a.nclasses != c.classes || a.MemoryBytes() != c.bytes {
			t.Errorf("%d patterns: %d states, %d classes, %d B; want %d, %d, %d B",
				c.n, len(a.out), a.nclasses, a.MemoryBytes(), c.states, c.classes, c.bytes)
		}
		if cap(a.next) != len(a.next) {
			t.Errorf("%d patterns: goto table cap %d > len %d", c.n, cap(a.next), len(a.next))
		}
	}
}

// naiveFind is the reference oracle: brute-force all occurrences.
func naiveFind(patterns [][]byte, input []byte) []int {
	var out []int
	for _, p := range patterns {
		for i := 0; i+len(p) <= len(input); i++ {
			if bytes.Equal(input[i:i+len(p)], p) {
				out = append(out, i+len(p))
			}
		}
	}
	sort.Ints(out)
	return out
}

// Property: the automaton agrees with brute force on random inputs over a
// small alphabet (small alphabets maximize overlap/failure-link stress).
func TestMatchesBruteForceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		nPat := 1 + rng.Intn(8)
		patterns := make([][]byte, nPat)
		for i := range patterns {
			p := make([]byte, 1+rng.Intn(5))
			for j := range p {
				p[j] = byte('a' + rng.Intn(3))
			}
			patterns[i] = p
		}
		input := make([]byte, rng.Intn(200))
		for i := range input {
			input[i] = byte('a' + rng.Intn(3))
		}
		a, err := Compile(patterns)
		if err != nil {
			return false
		}
		got := ends(a.Scan(input, nil))
		want := naiveFind(patterns, input)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScan1KBPayload(b *testing.B) {
	rng := sim.NewRand(1)
	patterns := make([][]byte, 1000)
	for i := range patterns {
		p := make([]byte, 8+rng.Intn(24))
		rng.Bytes(p)
		patterns[i] = p
	}
	a, err := Compile(patterns)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	rng.Bytes(payload)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Scan(payload, nil)
	}
}

func TestByteClasses(t *testing.T) {
	a := compile(t, "ab", "ba")
	// Two distinct pattern bytes + 1 unused class.
	if a.nclasses != 3 {
		t.Fatalf("classes = %d", a.nclasses)
	}
	// Unused bytes share class 0 and never advance the automaton.
	if a.contains([]byte("zzzz")) {
		t.Fatal("unused bytes matched")
	}
	if !a.contains([]byte("zzabzz")) {
		t.Fatal("match missed amid unused bytes")
	}
}

func TestClassCompressionShrinksGraph(t *testing.T) {
	// Patterns over 4 distinct bytes: class-compressed table must be far
	// smaller than 256 columns per state.
	a := compile(t, "abcd", "bcda", "cdab")
	rawCols := uint64(len(a.out)) * 256 * 4
	if a.MemoryBytes() >= rawCols/8 {
		t.Fatalf("graph %d bytes vs raw %d: compression ineffective", a.MemoryBytes(), rawCols)
	}
}
