package attest

import (
	"math/big"
	"math/bits"
	"sync"
)

// Fixed-base exponentiation for the group-14 generator (Lim–Lee comb).
// Every nf_attest draws a fresh full-range secret x and needs g^x mod p.
// The base never changes, so products of its powers are computed once.
//
// The exponent's combH·combV·combB = 2,112 bits are read as combH rows
// of rowBits = combV·combB bits, each row cut into combV blocks of combB
// bits. Bit k of block j in every row makes up the combH-bit column
// index I(j,k) = Σ_i bit(x, i·rowBits + j·combB + k)·2^i, and the table
// holds, for every block j and nonzero index u,
//
//	T[j][u] = Π_{i : bit i of u set} g^(2^(i·rowBits + j·combB))
//
// so that g^x = Π_k (Π_j T[j][I(j,k)])^(2^k). Horner's rule over k costs
// combB−1 = 32 squarings and at most combV·combB = 264 multiplications,
// where big.Int.Exp spends about 2,460 Montgomery steps. The result is
// the same integer Exp returns; only the work to reach it changes.
const (
	combH   = 8
	combV   = 8
	combB   = (expBits + combH*combV - 1) / (combH * combV)
	rowBits = combV * combB

	// expBits bounds the accepted exponents: every x below 2^2052, and
	// so every x drawn from [0, p) with p < 2^2048.
	expBits = 2052

	// pBits is the bit length of Group14P; entryWords words hold any
	// residue mod p.
	pBits      = 2048
	entryWords = pBits / bits.UintSize
)

// fixedBase holds the table for one base. The zero value is ready to
// use: the table is built on first use, so a process that never attests
// pays nothing at start-up.
type fixedBase struct {
	once sync.Once
	// table is T[j][u] at words [(j<<combH + u)·entryWords, +entryWords),
	// little-endian; u = 0 is never read. Read-only once built.
	table []big.Word
}

var group14Base fixedBase

// expG returns Group14G^x mod Group14P for 0 <= x < 2^2052.
func expG(x *big.Int) *big.Int { return group14Base.exp(x) }

// slot returns the words of T[j][u]. An Int set to them with SetBits
// shares them and must not be written.
func (f *fixedBase) slot(j, u int) []big.Word {
	off := (j<<combH + u) * entryWords
	return f.table[off : off+entryWords : off+entryWords]
}

func (f *fixedBase) build() {
	f.table = make([]big.Word, combV<<combH*entryWords)
	var m mulMod
	var pow, e1, e2, prod big.Int
	// g^(2^(n·combB)) for n = i·combV + j is T[j][2^i]: one chain of
	// squarings fills every single-bit index.
	pow.Set(Group14G)
	for n := 0; n < combH*combV; n++ {
		if n > 0 {
			for range combB {
				m.mul(&pow, &pow, &pow)
			}
		}
		copy(f.slot(n%combV, 1<<(n/combV)), pow.Bits())
	}
	// Every other index is its lowest set bit times the rest, which is
	// smaller and so already filled.
	for j := 0; j < combV; j++ {
		for u := 3; u < 1<<combH; u++ {
			if rest := u & (u - 1); rest != 0 {
				m.mul(&prod, e1.SetBits(f.slot(j, rest)), e2.SetBits(f.slot(j, u&-u)))
				copy(f.slot(j, u), prod.Bits())
			}
		}
	}
}

func (f *fixedBase) exp(x *big.Int) *big.Int {
	if x.Sign() < 0 || x.BitLen() > expBits {
		panic("attest: fixed-base exponent out of range")
	}
	f.once.Do(f.build)
	xw := x.Bits()
	bit := func(n int) int {
		if w := n / bits.UintSize; w < len(xw) {
			return int(xw[w]>>(n%bits.UintSize)) & 1
		}
		return 0
	}
	z := big.NewInt(1)
	var m mulMod
	var e big.Int
	for k := combB - 1; k >= 0; k-- {
		m.mul(z, z, z)
		for j := 0; j < combV; j++ {
			u := 0
			for i := 0; i < combH; i++ {
				u |= bit(i*rowBits+j*combB+k) << i
			}
			if u != 0 {
				m.mul(z, z, e.SetBits(f.slot(j, u)))
			}
		}
	}
	return z
}

// barrettMu is ⌊2^(2·pBits) / Group14P⌋, the Barrett constant.
var barrettMu = new(big.Int).Div(new(big.Int).Lsh(big.NewInt(1), 2*pBits), Group14P)

// mulMod computes z = a·b mod Group14P for a, b in [0, p) by Barrett
// reduction, reusing its scratch space across calls; z may alias a or
// b. Each of its three products is a math/big multiply. The estimate q
// is at most 2 below ⌊a·b/p⌋, so mul returns the number of corrective
// subtractions it made, which is 0, 1 or 2.
type mulMod struct{ t, q, r big.Int }

func (m *mulMod) mul(z, a, b *big.Int) int {
	m.t.Mul(a, b)
	m.q.Rsh(&m.t, pBits-1)
	m.r.Mul(&m.q, barrettMu)
	m.q.Rsh(&m.r, pBits+1)
	m.r.Mul(&m.q, Group14P)
	z.Sub(&m.t, &m.r)
	fixes := 0
	for z.Cmp(Group14P) >= 0 {
		z.Sub(z, Group14P)
		fixes++
	}
	return fixes
}
