package attest

import (
	"math/big"
	"sync"
)

// Fixed-base exponentiation for the group-14 generator
// (Brickell–Gordon–McCurley–Wilson, radix 2^6). Every nf_attest draws a
// fresh full-range secret x and needs g^x mod p. The base never changes,
// so the powers g^(2^(6i)) mod p are computed once; g^x then costs one
// modular multiplication per nonzero radix-64 digit of x plus one per
// digit value, at most 342 + 63, where big.Int.Exp spends about 2,460
// Montgomery steps. The result is the same integer Exp returns; only the
// work to reach it changes.
const (
	radixBits = 6
	radix     = 1 << radixBits
	// expDigits radix-64 digits cover every exponent below 2^2052, and
	// so every x drawn from [0, p) with p < 2^2048.
	expDigits = (2048 + radixBits - 1) / radixBits
)

// fixedBase holds the table for one base. The zero value is ready to
// use: the table is built on first use, so a process that never attests
// pays nothing at start-up.
type fixedBase struct {
	once sync.Once
	pow  []big.Int // pow[i] = g^(2^(6i)) mod p, read-only once built
}

var group14Base fixedBase

// expG returns Group14G^x mod Group14P for 0 <= x < 2^2052.
func expG(x *big.Int) *big.Int { return group14Base.exp(x) }

func (f *fixedBase) build() {
	pow := make([]big.Int, expDigits)
	pow[0].Set(Group14G)
	var m mulMod
	for i := 1; i < expDigits; i++ {
		pow[i].Set(&pow[i-1])
		for range radixBits {
			m.mul(&pow[i], &pow[i], &pow[i])
		}
	}
	f.pow = pow
}

func (f *fixedBase) exp(x *big.Int) *big.Int {
	if x.Sign() < 0 || x.BitLen() > expDigits*radixBits {
		panic("attest: fixed-base exponent out of range")
	}
	f.once.Do(f.build)
	var digits [expDigits]uint
	for i := range digits {
		for j := 0; j < radixBits; j++ {
			digits[i] |= x.Bit(i*radixBits+j) << j
		}
	}
	// With x = Σ d_i·64^i, g^x = Π_d (Π_{d_i=d} pow[i])^d. Walking d
	// downward, b accumulates every pow[i] whose digit is >= d and a
	// multiplies in b once per step, so each pow[i] lands in a exactly
	// d_i times.
	a, b := big.NewInt(1), big.NewInt(1)
	var m mulMod
	for d := uint(radix - 1); d > 0; d-- {
		for i, di := range digits {
			if di == d {
				m.mul(b, b, &f.pow[i])
			}
		}
		m.mul(a, a, b)
	}
	return a
}

// mulMod computes z = a·b mod Group14P, reusing its scratch space
// across calls; z may alias a or b.
type mulMod struct{ prod, quo big.Int }

func (m *mulMod) mul(z, a, b *big.Int) {
	m.prod.Mul(a, b)
	m.quo.QuoRem(&m.prod, Group14P, z)
}
