//! Binary-field GF(2^m) arithmetic (§2.1.4, §4.2.2–4.2.4).
//!
//! Binary ("carry-less") arithmetic: addition is bitwise XOR, so no carry
//! chains and no reduction after add/sub. Multiplication is polynomial
//! multiplication over GF(2) followed by reduction modulo the irreducible
//! NIST polynomial (eq. 4.8–4.12).
//!
//! Three multipliers are provided, matching the three software tiers of
//! the paper:
//!
//! * [`BinaryField::mul_comb`] — the left-to-right **comb method with
//!   4-bit windows** (Algorithm 6), what the *baseline* (no carry-less
//!   hardware) runs;
//! * [`BinaryField::mul_clmul`] — carry-less **product scanning**, what the
//!   `MULGF2`/`MADDGF2` ISA extensions (Table 5.2) enable;
//! * [`BinaryField::mul`] — the default (clmul-based) host reference.
//!
//! Squaring uses the zero-interleaving expansion (§4.2.3) via an 8-bit →
//! 16-bit spread table, and reduction is the word-level fast reduction of
//! Algorithm 7, generalized over the sparse term list of the field
//! polynomial. Elements hold their limbs inline (up to
//! [`mp::MAX_LIMBS`]); add, the multipliers and squaring reduce in place
//! on stack buffers, so they never allocate.

use crate::mp::{self, InlineLimbs, Limb, Mp, MAX_LIMBS};
use crate::nist::NistBinary;
use std::fmt;

/// Carry-less 32×32 → 64-bit multiplication (the datapath primitive the
/// `MULGF2` instruction provides in hardware).
///
/// Branch-free: a 16-entry table of `a`'s carry-less multiples by every
/// polynomial of degree < 4, then `b` is consumed in eight 4-bit windows
/// from the top, one shift-XOR step each.
pub fn clmul32(a: u32, b: u32) -> u64 {
    let mut table = [0u64; 16];
    table[1] = a as u64;
    for u in 1..8 {
        table[2 * u] = table[u] << 1;
        table[2 * u + 1] = table[2 * u] ^ a as u64;
    }
    let mut acc = 0u64;
    for i in (0..8).rev() {
        acc = (acc << 4) ^ table[(b >> (4 * i)) as usize & 0xf];
    }
    acc
}

/// An element of a binary field: `k` little-endian limbs with every bit at
/// position `>= m` clear.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct F2mElement(InlineLimbs);

impl F2mElement {
    /// The little-endian limbs of the element.
    pub fn limbs(&self) -> &[Limb] {
        self.0.as_slice()
    }

    /// Converts to an integer whose bits are the polynomial coefficients.
    pub fn to_mp(&self) -> Mp {
        Mp::from_limbs(self.limbs())
    }

    /// Returns `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        mp::is_zero(self.limbs())
    }

    /// Returns coefficient `i` of the polynomial.
    pub fn bit(&self, i: usize) -> bool {
        mp::bit(self.limbs(), i)
    }

    /// Degree of the polynomial (`None` for zero).
    pub fn degree(&self) -> Option<usize> {
        let b = mp::bit_len(self.limbs());
        if b == 0 {
            None
        } else {
            Some(b - 1)
        }
    }
}

impl fmt::Debug for F2mElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F2mElement(0x{})", self.to_mp().to_hex())
    }
}

/// A binary-field context GF(2^m) with a sparse irreducible polynomial.
#[derive(Clone, Debug)]
pub struct BinaryField {
    name: String,
    m: usize,
    k: usize,
    /// Term exponents below `m`, decreasing, last is 0.
    terms: Vec<usize>,
    /// Whether the fast word-level fold of Algorithm 7 is applicable
    /// (`m - t1 >= 32` and `m % 32 != 0`, true of every NIST field);
    /// otherwise reduction falls back to a bit-serial fold.
    word_foldable: bool,
    /// 8-bit → 16-bit zero-interleaving table used by fast squaring
    /// (§4.2.3: the software-only system's precomputed table).
    spread: [u16; 256],
}

impl BinaryField {
    /// Creates one of the five NIST binary fields of the study.
    pub fn nist(b: NistBinary) -> Self {
        Self::new(b.name(), b.m(), b.poly_terms())
    }

    /// Creates a field for `f(x) = x^m + sum(x^terms[i])`.
    ///
    /// # Panics
    ///
    /// Panics unless the term list is strictly decreasing and ends with 0,
    /// or if `m` needs more than [`MAX_LIMBS`] limbs. When
    /// `m - terms[0] >= 32` and `m % 32 != 0` (true of every NIST
    /// polynomial) reduction uses the fast word-level fold of Algorithm 7;
    /// otherwise it transparently falls back to a bit-serial fold.
    pub fn new(name: &str, m: usize, terms: &[usize]) -> Self {
        assert!(m >= 2);
        assert!(!terms.is_empty() && *terms.last().unwrap() == 0);
        assert!(terms.windows(2).all(|w| w[0] > w[1]), "terms must decrease");
        assert!(terms[0] < m, "terms must lie below the leading exponent");
        assert!(
            m.div_ceil(32) <= MAX_LIMBS,
            "{name}: degree {m} exceeds MAX_LIMBS"
        );
        let word_foldable = m - terms[0] >= 32 && !m.is_multiple_of(32);
        let mut spread = [0u16; 256];
        for (b, entry) in spread.iter_mut().enumerate() {
            let mut s = 0u16;
            for i in 0..8 {
                if (b >> i) & 1 == 1 {
                    s |= 1 << (2 * i);
                }
            }
            *entry = s;
        }
        BinaryField {
            name: name.to_owned(),
            m,
            k: m.div_ceil(32),
            terms: terms.to_vec(),
            word_foldable,
            spread,
        }
    }

    /// Field name, e.g. `"B-163"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Extension degree `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Element width in limbs.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Term exponents of the reduction polynomial below `x^m`.
    pub fn terms(&self) -> &[usize] {
        &self.terms
    }

    /// The full reduction polynomial as an integer bit vector (degree `m`).
    pub fn poly_mp(&self) -> Mp {
        let mut f = Mp::one().shl(self.m);
        for &t in &self.terms {
            f = f.add(&Mp::one().shl(t)); // bits are distinct, add == xor
        }
        f
    }

    /// The zero element.
    pub fn zero(&self) -> F2mElement {
        F2mElement(InlineLimbs::zero(self.k))
    }

    /// The one element.
    pub fn one(&self) -> F2mElement {
        let mut v = self.zero();
        v.0.as_mut_slice()[0] = 1;
        v
    }

    /// Builds an element from an integer bit vector, reducing mod `f`.
    pub fn from_mp(&self, v: &Mp) -> F2mElement {
        self.reduce(v.limbs())
    }

    /// Interprets exactly `k` limbs as an element.
    ///
    /// # Panics
    ///
    /// Panics if the width is wrong or a coefficient at position `>= m` is
    /// set.
    pub fn from_limbs(&self, limbs: &[Limb]) -> F2mElement {
        assert_eq!(limbs.len(), self.k);
        assert!(mp::bit_len(limbs) <= self.m, "element not reduced");
        F2mElement(InlineLimbs::from_slice(limbs))
    }

    /// `a + b` — bitwise XOR; identical to subtraction (§2.1.4).
    pub fn add(&self, a: &F2mElement, b: &F2mElement) -> F2mElement {
        self.check(a);
        self.check(b);
        let mut out = a.clone();
        for (x, y) in out.0.as_mut_slice().iter_mut().zip(b.limbs()) {
            *x ^= y;
        }
        out
    }

    /// `a * b mod f` via the default (carry-less product scanning)
    /// multiplier.
    pub fn mul(&self, a: &F2mElement, b: &F2mElement) -> F2mElement {
        self.mul_clmul(a, b)
    }

    /// Left-to-right comb multiplication with 4-bit windows — Algorithm 6
    /// with `w = 4`, the choice the paper found to balance precomputation
    /// RAM against speed on the software-only system (§4.2.2).
    pub fn mul_comb(&self, a: &F2mElement, b: &F2mElement) -> F2mElement {
        self.check(a);
        self.check(b);
        let k = self.k;
        // Precompute Bu = u(x) * b(x) for all u of degree < 4.
        let mut table = [[0 as Limb; MAX_LIMBS + 1]; 16];
        for (u, row) in table.iter_mut().enumerate() {
            for bit in 0..4 {
                if (u >> bit) & 1 == 1 {
                    let mut carry = 0u32;
                    for (j, &bw) in b.limbs().iter().enumerate() {
                        row[j] ^= (bw << bit) | carry;
                        carry = if bit == 0 { 0 } else { bw >> (32 - bit) };
                    }
                    row[k] ^= carry;
                }
            }
        }
        let mut c = [0 as Limb; 2 * MAX_LIMBS + 1];
        let c = &mut c[..2 * k + 1];
        for j in (0..8).rev() {
            for (i, &aw) in a.limbs().iter().enumerate() {
                let u = ((aw >> (4 * j)) & 0xf) as usize;
                if u != 0 {
                    for (l, &w) in table[u][..=k].iter().enumerate() {
                        c[i + l] ^= w;
                    }
                }
            }
            if j != 0 {
                // C <<= 4 (carry-less shift of the whole accumulator).
                let mut carry = 0u32;
                for w in c.iter_mut() {
                    let next = *w >> 28;
                    *w = (*w << 4) | carry;
                    carry = next;
                }
            }
        }
        self.reduce_in_place(&mut c[..2 * k])
    }

    /// Carry-less product-scanning multiplication — Algorithm 3 with the
    /// `(t,u,v) <- (t,u,v) XOR a_j (x) b_{i-j}` step that the `MADDGF2`
    /// extension performs in hardware (§5.2.2). No precomputation, no
    /// table RAM.
    pub fn mul_clmul(&self, a: &F2mElement, b: &F2mElement) -> F2mElement {
        self.check(a);
        self.check(b);
        let k = self.k;
        let (a, b) = (a.limbs(), b.limbs());
        let mut wide = [0 as Limb; 2 * MAX_LIMBS];
        let wide = &mut wide[..2 * k];
        let mut acc: u64 = 0;
        #[allow(clippy::needless_range_loop)]
        for i in 0..(2 * k - 1) {
            let lo = i.saturating_sub(k - 1);
            let hi = i.min(k - 1);
            for j in lo..=hi {
                acc ^= clmul32(a[j], b[i - j]);
            }
            wide[i] = acc as Limb;
            acc >>= 32;
        }
        wide[2 * k - 1] = acc as Limb;
        self.reduce_in_place(wide)
    }

    /// `a^2 mod f` via zero-interleaving expansion (§4.2.3) — `O(k)`,
    /// dramatically cheaper than multiplication, one of the headline
    /// advantages of binary fields.
    pub fn sqr(&self, a: &F2mElement) -> F2mElement {
        self.check(a);
        let mut wide = [0 as Limb; 2 * MAX_LIMBS];
        let wide = &mut wide[..2 * self.k];
        for (i, &w) in a.limbs().iter().enumerate() {
            let lo = self.spread[(w & 0xff) as usize] as u32
                | (self.spread[((w >> 8) & 0xff) as usize] as u32) << 16;
            let hi = self.spread[((w >> 16) & 0xff) as usize] as u32
                | (self.spread[(w >> 24) as usize] as u32) << 16;
            wide[2 * i] = lo;
            wide[2 * i + 1] = hi;
        }
        self.reduce_in_place(wide)
    }

    /// Reduces a polynomial of any length modulo `f` with the word-level
    /// fold of Algorithm 7 (bit-serial for fields it does not fit).
    pub fn reduce(&self, wide: &[Limb]) -> F2mElement {
        let mut c = wide.to_vec();
        c.resize(c.len().max(self.k), 0);
        self.reduce_in_place(&mut c)
    }

    /// Word-level fast reduction (Algorithm 7, generalized): folds the
    /// polynomial in `c` (at least `k` limbs) back below degree `m` in
    /// place, using the sparse term list, and returns its low `k` limbs.
    fn reduce_in_place(&self, c: &mut [Limb]) -> F2mElement {
        debug_assert!(c.len() >= self.k);
        if !self.word_foldable {
            return self.reduce_bit_serial(c);
        }
        let kw = self.m / 32; // word index containing bit m
        let r = self.m % 32;
        for i in (kw + 1..c.len()).rev() {
            let t = c[i];
            if t == 0 {
                continue;
            }
            c[i] = 0;
            let base = 32 * i - self.m;
            for &term in &self.terms {
                let s = base + term;
                let (word, off) = (s / 32, s % 32);
                c[word] ^= t << off;
                if off != 0 {
                    c[word + 1] ^= t >> (32 - off);
                }
            }
        }
        // Partial top word: coefficients m .. 32*(kw+1)-1.
        let t = c[kw] >> r;
        if t != 0 {
            for &term in &self.terms {
                let (word, off) = (term / 32, term % 32);
                c[word] ^= t << off;
                if off != 0 {
                    c[word + 1] ^= t >> (32 - off);
                }
            }
        }
        c[kw] &= (1u32 << r) - 1;
        debug_assert!(mp::bit_len(&c[..self.k]) <= self.m);
        F2mElement(InlineLimbs::from_slice(&c[..self.k]))
    }

    /// Bit-serial reduction fallback for polynomials too dense (or fields
    /// too small) for the word fold.
    fn reduce_bit_serial(&self, c: &mut [Limb]) -> F2mElement {
        for i in (self.m..32 * c.len()).rev() {
            if (c[i / 32] >> (i % 32)) & 1 == 1 {
                c[i / 32] ^= 1 << (i % 32);
                for &term in &self.terms {
                    let s = i - self.m + term;
                    c[s / 32] ^= 1 << (s % 32);
                }
            }
        }
        F2mElement(InlineLimbs::from_slice(&c[..self.k]))
    }

    /// Inverse by the **polynomial extended Euclidean algorithm**
    /// (§4.2.4), or `None` for zero.
    pub fn inv(&self, a: &F2mElement) -> Option<F2mElement> {
        if a.is_zero() {
            return None;
        }
        // Work on (2k+1)-limb polynomials so g1/g2 shifts never clip.
        let width = 2 * self.k + 1;
        let pad = |v: &[Limb]| {
            let mut out = v.to_vec();
            out.resize(width, 0);
            out
        };
        let mut u = pad(a.limbs());
        let mut v = pad(&self.poly_mp().to_limbs(self.k + 1));
        let mut g1 = pad(&[1]);
        let mut g2 = pad(&[]);
        let xor_shifted = |dst: &mut [Limb], src: &[Limb], j: usize| {
            let (ws, bs) = (j / 32, j % 32);
            for i in 0..src.len() {
                if src[i] == 0 {
                    continue;
                }
                dst[i + ws] ^= src[i] << bs;
                if bs != 0 && i + ws + 1 < dst.len() {
                    dst[i + ws + 1] ^= src[i] >> (32 - bs);
                }
            }
        };
        loop {
            let du = mp::bit_len(&u);
            if du <= 1 {
                break; // u == 1 (u can't reach 0 before 1: gcd(a,f)=1)
            }
            let dv = mp::bit_len(&v);
            if dv <= 1 {
                std::mem::swap(&mut u, &mut v);
                std::mem::swap(&mut g1, &mut g2);
                break;
            }
            if du >= dv {
                let j = du - dv;
                let vs = v.clone();
                let gs = g2.clone();
                xor_shifted(&mut u, &vs, j);
                xor_shifted(&mut g1, &gs, j);
            } else {
                let j = dv - du;
                let us = u.clone();
                let gs = g1.clone();
                xor_shifted(&mut v, &us, j);
                xor_shifted(&mut g2, &gs, j);
            }
        }
        debug_assert_eq!(mp::bit_len(&u), 1);
        Some(self.from_mp(&Mp::from_limbs(&g1)))
    }

    /// Inverse by **Fermat's little theorem** for GF(2^m):
    /// `a^(2^m - 2)` computed with square-and-multiply, the method the
    /// Billie-accelerated configuration uses because squaring is nearly
    /// free in hardware (§4.2.4, §5.5).
    pub fn inv_fermat(&self, a: &F2mElement) -> Option<F2mElement> {
        if a.is_zero() {
            return None;
        }
        // 2^m - 2 = 0b111...10 (m-1 ones then a zero).
        let mut result = self.one();
        for i in (1..self.m).rev() {
            result = self.sqr(&result);
            let _ = i;
            result = self.mul(&result, a);
        }
        Some(self.sqr(&result))
    }

    fn check(&self, a: &F2mElement) {
        debug_assert_eq!(a.limbs().len(), self.k, "element belongs to another field");
        debug_assert!(mp::bit_len(a.limbs()) <= self.m, "element not reduced");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nist::NistBinary;

    fn all_fields() -> Vec<BinaryField> {
        NistBinary::ALL
            .iter()
            .map(|&b| BinaryField::nist(b))
            .collect()
    }

    /// Slow polynomial reference: bit-serial multiply-and-reduce.
    fn slow_mul(f: &BinaryField, a: &F2mElement, b: &F2mElement) -> F2mElement {
        let mut acc = f.zero();
        for i in (0..f.m()).rev() {
            // acc = acc * x mod f
            let mut shifted = acc.to_mp().shl(1);
            if shifted.bit(f.m()) {
                let mut poly = Mp::one().shl(f.m());
                for &t in f.terms() {
                    poly = poly.add(&Mp::one().shl(t));
                }
                // xor == add here because the set bits are disjoint only
                // sometimes; do real xor via limbs.
                let mut l = shifted.to_limbs(f.k() + 1);
                let p = poly.to_limbs(f.k() + 1);
                for (x, y) in l.iter_mut().zip(&p) {
                    *x ^= *y;
                }
                shifted = Mp::from_limbs(&l);
            }
            acc = f.from_limbs(&shifted.to_limbs(f.k()));
            if b.bit(i) {
                acc = f.add(&acc, a);
            }
        }
        acc
    }

    fn sample(f: &BinaryField, seed: u64) -> F2mElement {
        // xorshift-filled element
        let mut x = seed | 1;
        let mut limbs = vec![0u32; f.k()];
        for l in limbs.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *l = x as u32;
        }
        let r = f.m() % 32;
        limbs[f.k() - 1] &= (1u32 << r) - 1;
        f.from_limbs(&limbs)
    }

    /// Bit-serial oracle: XOR of `a << i` for every set bit `i` of `b`.
    fn bit_serial_clmul(a: u32, b: u32) -> u64 {
        (0..32)
            .filter(|i| (b >> i) & 1 == 1)
            .fold(0, |acc, i| acc ^ ((a as u64) << i))
    }

    #[test]
    fn carry_less_multiply_matches_bit_serial_oracle() {
        let edges = [
            0,
            1,
            2,
            0xf,
            0x8000_0000,
            0x5555_5555,
            0xaaaa_aaaa,
            u32::MAX,
        ];
        for &a in &edges {
            for &b in &edges {
                assert_eq!(clmul32(a, b), bit_serial_clmul(a, b), "{a:#x} x {b:#x}");
            }
        }
        for i in 0..32 {
            for j in 0..32 {
                let (a, b) = (1u32 << i, 1u32 << j);
                assert_eq!(clmul32(a, b), bit_serial_clmul(a, b), "{a:#x} x {b:#x}");
                assert_eq!(clmul32(a, b), 1u64 << (i + j));
            }
        }
        let mut rng = ule_testkit::Rng::new(0xc1a5_5032);
        for _ in 0..1_000_000 {
            let (a, b) = (rng.next_u32(), rng.next_u32());
            assert_eq!(clmul32(a, b), bit_serial_clmul(a, b), "{a:#x} x {b:#x}");
        }
    }

    #[test]
    fn equal_elements_from_different_paths_compare_and_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |e: &F2mElement| {
            let mut h = DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        };
        for f in all_fields() {
            let a = sample(&f, 8);
            let b = sample(&f, 9);
            let sum = f.add(&f.mul(&a, &b), &f.sqr(&a));
            let direct = f.from_mp(&sum.to_mp());
            let comb = f.add(&f.mul_comb(&a, &b), &f.mul_comb(&a, &a));
            for other in [&direct, &comb] {
                assert_eq!(&sum, other, "{}", f.name());
                assert_eq!(hash(&sum), hash(other), "{}", f.name());
            }
            assert_eq!(f.add(&a, &a), f.zero());
            assert_eq!(hash(&f.add(&a, &a)), hash(&f.zero()));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_LIMBS")]
    fn a_field_wider_than_max_limbs_is_refused_at_construction() {
        let _ = BinaryField::new("too wide", 32 * MAX_LIMBS + 1, &[1, 0]);
    }

    #[test]
    fn clmul32_basics() {
        assert_eq!(clmul32(0, 12345), 0);
        assert_eq!(clmul32(1, 0xffff_ffff), 0xffff_ffff);
        // (x+1)(x+1) = x^2 + 1 in GF(2)[x]
        assert_eq!(clmul32(0b11, 0b11), 0b101);
        assert_eq!(clmul32(0xffff_ffff, 0xffff_ffff), 0x5555_5555_5555_5555);
    }

    #[test]
    fn gf2_7_worked_example_from_paper() {
        // §2.1.4: f(x) = x^7 + x + 1,
        // (x^6+x^3+x)(x^6+x^2+1) mod f = x^3 + x + 1
        let f = BinaryField::new("GF(2^7)", 7, &[1, 0]);
        let a = f.from_mp(&Mp::from_u64(0b1001010));
        let b = f.from_mp(&Mp::from_u64(0b1000101));
        assert_eq!(f.mul(&a, &b).to_mp().low_u64(), 0b1011);
        // (x^6+x^3+1)^2 mod f = x^5 + 1
        let c = f.from_mp(&Mp::from_u64(0b1001001));
        assert_eq!(f.sqr(&c).to_mp().low_u64(), 0b100001);
        // addition example: (x6+x4+x3+1) + (x5+x4+x2+1) = x6+x5+x3+x2
        let d = f.from_mp(&Mp::from_u64(0b1011001));
        let e = f.from_mp(&Mp::from_u64(0b0110101));
        assert_eq!(f.add(&d, &e).to_mp().low_u64(), 0b1101100);
    }

    #[test]
    fn multipliers_agree_with_slow_reference() {
        for f in all_fields() {
            let a = sample(&f, 0xabcdef12);
            let b = sample(&f, 0x12345678);
            let reference = slow_mul(&f, &a, &b);
            assert_eq!(f.mul_clmul(&a, &b), reference, "{} clmul", f.name());
            assert_eq!(f.mul_comb(&a, &b), reference, "{} comb", f.name());
        }
    }

    #[test]
    fn sqr_matches_mul() {
        for f in all_fields() {
            let a = sample(&f, 0xdeadbeef);
            assert_eq!(f.sqr(&a), f.mul(&a, &a), "{}", f.name());
        }
    }

    #[test]
    fn inversion_both_methods() {
        for f in all_fields() {
            let a = sample(&f, 0xfeedface);
            let i1 = f.inv(&a).expect("nonzero");
            let i2 = f.inv_fermat(&a).expect("nonzero");
            assert_eq!(i1, i2, "{}", f.name());
            assert_eq!(f.mul(&a, &i1), f.one(), "{}", f.name());
            assert!(f.inv(&f.zero()).is_none());
        }
    }

    #[test]
    fn add_is_involutive_and_sub() {
        for f in all_fields() {
            let a = sample(&f, 1);
            let b = sample(&f, 2);
            let s = f.add(&a, &b);
            assert_eq!(f.add(&s, &b), a); // add == sub
            assert_eq!(f.add(&a, &a), f.zero());
        }
    }

    #[test]
    fn distributivity_spot_check() {
        for f in all_fields() {
            let a = sample(&f, 3);
            let b = sample(&f, 4);
            let c = sample(&f, 5);
            let lhs = f.mul(&a, &f.add(&b, &c));
            let rhs = f.add(&f.mul(&a, &b), &f.mul(&a, &c));
            assert_eq!(lhs, rhs, "{}", f.name());
        }
    }

    #[test]
    fn frobenius_linearity() {
        // (a+b)^2 = a^2 + b^2 in characteristic 2 (§2.1.4).
        for f in all_fields() {
            let a = sample(&f, 6);
            let b = sample(&f, 7);
            assert_eq!(
                f.sqr(&f.add(&a, &b)),
                f.add(&f.sqr(&a), &f.sqr(&b)),
                "{}",
                f.name()
            );
        }
    }
}
