package attest

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand/v2"
	"sync"
	"testing"
)

// The range tests below name the exponent range in radix-64 digits:
// expDigits·radixBits = expBits.
const (
	radixBits = 6
	expDigits = expBits / radixBits
)

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

func expOracle(x *big.Int) *big.Int { return new(big.Int).Exp(Group14G, x, Group14P) }

func TestExpGMatchesExp(t *testing.T) {
	pMinus := func(k int64) *big.Int { return new(big.Int).Sub(Group14P, big.NewInt(k)) }
	// Every radix-64 digit 63: the longest b chain and every a step.
	allMax := new(big.Int).Lsh(big.NewInt(1), expDigits*radixBits)
	allMax.Sub(allMax, big.NewInt(1))
	cases := map[string]*big.Int{
		"0":          big.NewInt(0),
		"1":          big.NewInt(1),
		"63":         big.NewInt(63),
		"64":         big.NewInt(64),
		"2^2047":     new(big.Int).Lsh(big.NewInt(1), 2047),
		"p-2":        pMinus(2),
		"p-1":        pMinus(1),
		"all-digits": allMax,
	}
	for name, x := range cases {
		if got, want := expG(x), expOracle(x); got.Cmp(want) != 0 {
			t.Errorf("x=%s: expG = %x, Exp = %x", name, got, want)
		}
	}
	for i := 0; i < 1000; i++ {
		x, err := rand.Int(rand.Reader, Group14P)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := expG(x), expOracle(x); got.Cmp(want) != 0 {
			t.Fatalf("x=%x: expG = %x, Exp = %x", x, got, want)
		}
	}
}

func TestExpGRejectsOutOfRange(t *testing.T) {
	for name, x := range map[string]*big.Int{
		"-1":     big.NewInt(-1),
		"2^2052": new(big.Int).Lsh(big.NewInt(1), expDigits*radixBits),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("x=%s: expG did not panic", name)
				}
			}()
			expG(x)
		}()
	}
}

// TestFixedBaseConcurrentFirstUse races 16 goroutines on a fresh table's
// first use; under -race it checks that the lazy build is published
// safely, and every result must still match the oracle.
func TestFixedBaseConcurrentFirstUse(t *testing.T) {
	var f fixedBase
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		x, err := rand.Int(rand.Reader, Group14P)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, want := f.exp(x), expOracle(x); got.Cmp(want) != 0 {
				t.Errorf("x=%x: concurrent first use gave %x, want %x", x, got, want)
			}
		}()
	}
	wg.Wait()
}

var sinkExp *big.Int

func BenchmarkGroup14Exp(b *testing.B) {
	x, err := rand.Int(rand.Reader, Group14P)
	if err != nil {
		b.Fatal(err)
	}
	expG(x) // build the table outside the timed loop
	for _, bc := range []struct {
		name string
		fn   func(*big.Int) *big.Int
	}{{"Exp", expOracle}, {"expG", expG}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkExp = bc.fn(x)
			}
		})
	}
}

func TestCombCoversRange(t *testing.T) {
	if expDigits*radixBits != expBits || combH*combV*combB < expBits || combH*combV*(combB-1) >= expBits {
		t.Errorf("comb %d×%d×%d bits for a %d-bit range", combH, combV, combB, expBits)
	}
	if Group14P.BitLen() != pBits || pBits%64 != 0 {
		t.Errorf("Group14P has %d bits, pBits = %d", Group14P.BitLen(), pBits)
	}
}

// mulModOracle is a·b mod p through the generic division.
func mulModOracle(a, b *big.Int) *big.Int {
	z := new(big.Int).Mul(a, b)
	return z.Mod(z, Group14P)
}

func TestMulModEdges(t *testing.T) {
	pm1 := new(big.Int).Sub(Group14P, big.NewInt(1))
	x := new(big.Int).Rsh(Group14P, 3)
	for _, c := range []struct {
		name string
		a, b *big.Int
		want *big.Int
	}{
		{"(p-1)(p-1)", pm1, pm1, big.NewInt(1)},
		{"(p-1)·1", pm1, big.NewInt(1), pm1},
		{"1·(p-1)", big.NewInt(1), pm1, pm1},
		{"0·x", big.NewInt(0), x, big.NewInt(0)},
		{"x·0", x, big.NewInt(0), big.NewInt(0)},
		{"x·x", x, x, mulModOracle(x, x)},
	} {
		var m mulMod
		z := new(big.Int)
		m.mul(z, c.a, c.b)
		if z.Cmp(c.want) != 0 {
			t.Errorf("%s = %x, want %x", c.name, z, c.want)
		}
		// z may alias an operand.
		a := new(big.Int).Set(c.a)
		m.mul(a, a, c.b)
		if a.Cmp(c.want) != 0 {
			t.Errorf("%s into a = %x, want %x", c.name, a, c.want)
		}
	}
}

// TestBarrettCorrections checks 10,000 seeded products against the
// generic division: the estimated quotient may fall short by at most 2.
// The seed is fixed, so the set is the same on every run and must
// exercise the correction loop.
func TestBarrettCorrections(t *testing.T) {
	rng := mrand.New(mrand.NewPCG(45, 2052))
	randMod := func() *big.Int {
		words := make([]big.Word, entryWords)
		for i := range words {
			words[i] = big.Word(rng.Uint64())
		}
		x := new(big.Int).SetBits(words)
		return x.Mod(x, Group14P)
	}
	var m mulMod
	var seen [3]int
	z := new(big.Int)
	for i := 0; i < 10000; i++ {
		a, b := randMod(), randMod()
		fixes := m.mul(z, a, b)
		if fixes > 2 {
			t.Fatalf("a=%x b=%x: %d corrections, Barrett allows 2", a, b, fixes)
		}
		seen[fixes]++
		if want := mulModOracle(a, b); z.Cmp(want) != 0 {
			t.Fatalf("a=%x b=%x: mulMod = %x, want %x", a, b, z, want)
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("corrections per product %v: the set never exercised both paths", seen)
	}
}

// TestFixedBaseTable checks the table is one slab of combV·2^combH
// entries, built once per fixedBase even when several goroutines race on
// first use, and, outside -race builds, that building it leaves no
// per-entry garbage.
func TestFixedBaseTable(t *testing.T) {
	var f fixedBase
	var wg sync.WaitGroup
	slabs := make([]*big.Word, 8)
	for g := range slabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.exp(big.NewInt(int64(g)))
			slabs[g] = &f.table[0]
		}()
	}
	wg.Wait()
	for g, s := range slabs {
		if s != slabs[0] {
			t.Errorf("goroutine %d saw slab %p, goroutine 0 saw %p", g, s, slabs[0])
		}
	}
	if want := combV << combH * entryWords; len(f.table) != want || cap(f.table) != want {
		t.Errorf("table len %d cap %d, want %d words", len(f.table), cap(f.table), want)
	}
	f.exp(Group14P)
	if &f.table[0] != slabs[0] {
		t.Error("a later exp rebuilt the table")
	}
	// The slab, plus the handful of scratch buffers mulMod grows; a
	// big.Int per entry would be thousands.
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(1, func() { new(fixedBase).build() }); allocs > 64 {
		t.Errorf("build made %.0f allocations", allocs)
	}
}

// FuzzExpG checks expG against big.Int.Exp for any x (out of range must
// panic), and mulMod against Mul+Mod for operands reduced mod p.
func FuzzExpG(f *testing.F) {
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		x := new(big.Int).SetBytes(xb)
		if x.BitLen() > expBits {
			defer func() {
				if recover() == nil {
					t.Errorf("x=%x: expG did not panic", x)
				}
			}()
			expG(x)
			return
		}
		if got, want := expG(x), expOracle(x); got.Cmp(want) != 0 {
			t.Errorf("x=%x: expG = %x, Exp = %x", x, got, want)
		}
		a := new(big.Int).Mod(x, Group14P)
		b := new(big.Int).SetBytes(yb)
		b.Mod(b, Group14P)
		var m mulMod
		z := new(big.Int)
		if fixes := m.mul(z, a, b); fixes > 2 {
			t.Errorf("a=%x b=%x: %d corrections", a, b, fixes)
		}
		if want := mulModOracle(a, b); z.Cmp(want) != 0 {
			t.Errorf("a=%x b=%x: mulMod = %x, want %x", a, b, z, want)
		}
	})
}
