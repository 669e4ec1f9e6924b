package attest

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

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
