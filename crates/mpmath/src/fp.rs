//! Prime-field GF(p) arithmetic (§2.1.3, §4.2.1).
//!
//! A [`PrimeField`] context fixes the modulus once and precomputes the
//! folding constants used by fast reduction. Elements are fixed-width
//! little-endian limb vectors of `k = ceil(bits/32)` limbs, exactly the
//! in-memory representation of the simulated software suite.
//!
//! Elements hold their limbs inline (up to [`mp::MAX_LIMBS`]), and add,
//! sub, neg, mul and reduction work on stack buffers, so they never
//! allocate; conversions from [`Mp`] and inversion still go through `Mp`.
//!
//! Multiplication is operand scanning (Algorithm 2) followed by fast
//! reduction. Reduction exploits the *modular congruency* idea of §4.2.1:
//! every power `2^(32*(k+j))` appearing in the double-width product is
//! congruent to a precomputed k-limb constant, so the high half of the
//! product can be folded back into the low half with `k` multiply-
//! accumulate rows — for the sparse NIST primes these constants have very
//! few non-zero limbs, which is what makes the technique "fast" in the
//! paper. The result is verified against division-based reduction in the
//! test suite.

use crate::mp::{self, InlineLimbs, Limb, Mp, MAX_LIMBS};
use crate::nist::NistPrime;
use std::cmp::Ordering;
use std::fmt;

/// An element of a prime field: exactly `k` little-endian limbs, always
/// fully reduced (`< p`).
///
/// Elements are produced by and consumed by a [`PrimeField`] context; using
/// an element with a field of a different width is a logic error (checked
/// with debug assertions).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FpElement(InlineLimbs);

impl FpElement {
    /// The little-endian limbs of the element.
    pub fn limbs(&self) -> &[Limb] {
        self.0.as_slice()
    }

    /// Converts to an arbitrary-precision integer.
    pub fn to_mp(&self) -> Mp {
        Mp::from_limbs(self.limbs())
    }

    /// Returns `true` if this is the zero element.
    pub fn is_zero(&self) -> bool {
        mp::is_zero(self.limbs())
    }

    /// Returns bit `i` of the canonical representative.
    pub fn bit(&self, i: usize) -> bool {
        mp::bit(self.limbs(), i)
    }
}

impl fmt::Debug for FpElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FpElement(0x{})", self.to_mp().to_hex())
    }
}

/// A prime-field context: the modulus plus every precomputed constant
/// needed for fast arithmetic.
#[derive(Clone, Debug)]
pub struct PrimeField {
    name: String,
    modulus: Vec<Limb>,
    modulus_mp: Mp,
    k: usize,
    bits: usize,
    /// `fold[j] = 2^(32*(k+j)) mod p` for `j in 0..=k+1`; the extra entries
    /// let [`PrimeField::reduce_wide`] fold its own (k+2)-limb accumulator.
    fold: Vec<Vec<Limb>>,
    /// `2^bits mod p` as `k` limbs, for the bit-granular reduction tail.
    two_b: Vec<Limb>,
}

impl PrimeField {
    /// Creates a field for one of the NIST primes of the study.
    pub fn nist(p: NistPrime) -> Self {
        Self::new(p.name(), &p.modulus())
    }

    /// Creates a field for an arbitrary odd prime modulus.
    ///
    /// The primality of `modulus` is the caller's responsibility (the
    /// ECDSA group orders, for instance, are validated once at curve
    /// construction). Used for protocol arithmetic modulo the group order
    /// `n` (§4.1), which is *not* a fast-reduction prime.
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 3`, `modulus` is even, or it is wider than
    /// [`MAX_LIMBS`] limbs.
    pub fn new(name: &str, modulus: &Mp) -> Self {
        assert!(modulus.bit_len() >= 2, "modulus too small");
        assert!(modulus.bit(0), "modulus must be odd");
        let bits = modulus.bit_len();
        let k = bits.div_ceil(32);
        assert!(
            k <= MAX_LIMBS,
            "{name}: {bits}-bit modulus exceeds MAX_LIMBS"
        );
        let mut fold = Vec::with_capacity(k + 2);
        for j in 0..k + 2 {
            let c = Mp::one().shl(32 * (k + j)).rem(modulus);
            fold.push(c.to_limbs(k));
        }
        let two_b = Mp::one().shl(bits).rem(modulus).to_limbs(k);
        PrimeField {
            name: name.to_owned(),
            modulus: modulus.to_limbs(k),
            modulus_mp: modulus.clone(),
            k,
            bits,
            fold,
            two_b,
        }
    }

    /// The field's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The modulus.
    pub fn modulus(&self) -> &Mp {
        &self.modulus_mp
    }

    /// Element width in limbs (`k = ceil(bits/32)`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Modulus bit length.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The zero element.
    pub fn zero(&self) -> FpElement {
        FpElement(InlineLimbs::zero(self.k))
    }

    /// The one element.
    pub fn one(&self) -> FpElement {
        self.from_u64(1)
    }

    /// Embeds a small integer.
    pub fn from_u64(&self, v: u64) -> FpElement {
        self.from_mp(&Mp::from_u64(v))
    }

    /// Reduces an arbitrary integer into the field.
    pub fn from_mp(&self, v: &Mp) -> FpElement {
        FpElement(InlineLimbs::from_slice(
            &v.rem(&self.modulus_mp).to_limbs(self.k),
        ))
    }

    /// Interprets exactly `k` limbs as an element.
    ///
    /// # Panics
    ///
    /// Panics if `limbs.len() != k` or the value is not fully reduced.
    pub fn from_limbs(&self, limbs: &[Limb]) -> FpElement {
        assert_eq!(limbs.len(), self.k, "element width mismatch");
        assert!(
            mp::cmp(limbs, &self.modulus) == Ordering::Less,
            "element not reduced"
        );
        FpElement(InlineLimbs::from_slice(limbs))
    }

    /// `a + b mod p` — multi-precision add followed by a conditional
    /// subtraction of the modulus (§4.2.4).
    pub fn add(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.check(a);
        self.check(b);
        let mut out = self.zero();
        let o = out.0.as_mut_slice();
        let carry = mp::add3(o, a.limbs(), b.limbs());
        if carry || mp::cmp(o, &self.modulus) != Ordering::Less {
            mp::sub_into(o, &self.modulus);
        }
        out
    }

    /// `a - b mod p` — subtraction with a conditional add-back of the
    /// modulus (§4.2.4).
    pub fn sub(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.check(a);
        self.check(b);
        let mut out = self.zero();
        let o = out.0.as_mut_slice();
        if mp::sub3(o, a.limbs(), b.limbs()) {
            mp::add_into(o, &self.modulus);
        }
        out
    }

    /// `-a mod p`.
    pub fn neg(&self, a: &FpElement) -> FpElement {
        if a.is_zero() {
            return self.zero();
        }
        let mut out = self.zero();
        mp::sub3(out.0.as_mut_slice(), &self.modulus, a.limbs());
        out
    }

    /// `a * b mod p`: operand-scanning multiplication (Algorithm 2) plus
    /// fast reduction.
    pub fn mul(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.check(a);
        self.check(b);
        let mut wide = [0 as Limb; 2 * MAX_LIMBS];
        let wide = &mut wide[..2 * self.k];
        mp::mul_into(wide, a.limbs(), b.limbs());
        self.reduce_wide(wide)
    }

    /// `a^2 mod p`.
    pub fn sqr(&self, a: &FpElement) -> FpElement {
        self.mul(a, a)
    }

    /// Doubles an element (`2a mod p`).
    pub fn dbl(&self, a: &FpElement) -> FpElement {
        self.add(a, a)
    }

    /// Multiplies by a small scalar.
    pub fn mul_u64(&self, a: &FpElement, s: u64) -> FpElement {
        let mut acc = self.zero();
        for i in (0..64 - s.leading_zeros() as usize).rev() {
            acc = self.dbl(&acc);
            if (s >> i) & 1 == 1 {
                acc = self.add(&acc, a);
            }
        }
        acc
    }

    /// Reduces a double-width (`2k`-limb) product into the field by
    /// congruency folding.
    ///
    /// # Panics
    ///
    /// Panics if `wide.len() != 2k`.
    pub fn reduce_wide(&self, wide: &[Limb]) -> FpElement {
        assert_eq!(wide.len(), 2 * self.k, "wide operand width mismatch");
        let k = self.k;
        // Accumulator with two guard limbs: low half + sum of k folded rows.
        let mut acc = [0 as Limb; MAX_LIMBS + 2];
        let acc = &mut acc[..k + 2];
        acc[..k].copy_from_slice(&wide[..k]);
        for j in 0..k {
            let h = wide[k + j];
            if h != 0 {
                let carry = mp::mul_add_limb(acc, &self.fold[j], h);
                debug_assert_eq!(carry, 0, "guard limbs overflowed");
            }
        }
        // Fold the guard limbs themselves, then finish at bit granularity.
        loop {
            let hi0 = acc[k];
            let hi1 = acc[k + 1];
            if hi0 == 0 && hi1 == 0 {
                break;
            }
            acc[k] = 0;
            acc[k + 1] = 0;
            if hi0 != 0 {
                mp::mul_add_limb(acc, &self.fold[0], hi0);
            }
            if hi1 != 0 {
                mp::mul_add_limb(acc, &self.fold[1], hi1);
            }
        }
        // acc < 2^(32k). While bits at or above `bits` remain, fold them
        // back with 2^bits = two_b (mod p). The high part is below
        // 2^(32k - bits), one limb, and two_b <= 2^(bits-1), so
        // lo + hi * two_b < 2^bits + 2^(32k-1) <= 2^(32k) stays in k
        // limbs. Then a final conditional subtraction (2^bits < 2p).
        let (top, r) = (k - 1, self.bits % 32);
        if r != 0 {
            loop {
                let hi = acc[top] >> r;
                if hi == 0 {
                    break;
                }
                acc[top] &= (1 << r) - 1;
                let carry = mp::mul_add_limb(&mut acc[..k], &self.two_b, hi);
                debug_assert_eq!(carry, 0, "fold left k limbs");
            }
        }
        if mp::cmp(&acc[..k], &self.modulus) != Ordering::Less {
            mp::sub_into(&mut acc[..k], &self.modulus);
        }
        FpElement(InlineLimbs::from_slice(&acc[..k]))
    }

    /// `a^e mod p` by left-to-right square-and-multiply.
    pub fn pow(&self, a: &FpElement, e: &Mp) -> FpElement {
        let mut result = self.one();
        for i in (0..e.bit_len()).rev() {
            result = self.sqr(&result);
            if e.bit(i) {
                result = self.mul(&result, a);
            }
        }
        result
    }

    /// Modular inverse by the **binary extended Euclidean algorithm**
    /// (§4.2.4, used on Pete), or `None` for zero.
    pub fn inv(&self, a: &FpElement) -> Option<FpElement> {
        if a.is_zero() {
            return None;
        }
        let p = &self.modulus_mp;
        let mut u = a.to_mp();
        let mut v = p.clone();
        let mut x1 = Mp::one();
        let mut x2 = Mp::zero();
        let one = Mp::one();
        while u != one && v != one {
            while !u.bit(0) {
                u = u.shr(1);
                x1 = if x1.bit(0) {
                    x1.add(p).shr(1)
                } else {
                    x1.shr(1)
                };
            }
            while !v.bit(0) {
                v = v.shr(1);
                x2 = if x2.bit(0) {
                    x2.add(p).shr(1)
                } else {
                    x2.shr(1)
                };
            }
            if u >= v {
                u = u.sub(&v);
                x1 = if x1 >= x2 {
                    x1.sub(&x2)
                } else {
                    x1.add(p).sub(&x2)
                };
            } else {
                v = v.sub(&u);
                x2 = if x2 >= x1 {
                    x2.sub(&x1)
                } else {
                    x2.add(p).sub(&x1)
                };
            }
        }
        let r = if u == one { x1 } else { x2 };
        Some(self.from_mp(&r))
    }

    /// Modular inverse by **Fermat's little theorem** (`a^(p-2)`), the
    /// method the Monte and Billie accelerated configurations use
    /// (§4.2.4).
    pub fn inv_fermat(&self, a: &FpElement) -> Option<FpElement> {
        if a.is_zero() {
            return None;
        }
        let e = self.modulus_mp.sub(&Mp::from_u64(2));
        Some(self.pow(a, &e))
    }

    fn check(&self, a: &FpElement) {
        debug_assert_eq!(a.limbs().len(), self.k, "element belongs to another field");
        debug_assert!(
            mp::cmp(a.limbs(), &self.modulus) == Ordering::Less,
            "element not reduced"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nist::NistPrime;
    use crate::xprime::XPrime;

    fn all_fields() -> Vec<PrimeField> {
        NistPrime::ALL
            .iter()
            .map(|&p| PrimeField::nist(p))
            .collect()
    }

    #[test]
    fn add_sub_inverse() {
        for f in all_fields() {
            let a = f.from_u64(0xdead_beef_1234_5678);
            let b = f.from_mp(&f.modulus().sub(&Mp::from_u64(5)));
            let s = f.add(&a, &b);
            assert_eq!(f.sub(&s, &b), a, "{}", f.name());
            assert_eq!(f.add(&a, &f.neg(&a)), f.zero());
        }
    }

    #[test]
    fn mul_matches_division_reduction() {
        for f in all_fields() {
            // Deterministic pseudo-random operands near the modulus.
            let a = f.from_mp(&f.modulus().sub(&Mp::from_u64(12345)));
            let b = f.from_mp(&f.modulus().sub(&Mp::from_u64(987_654_321)));
            let fast = f.mul(&a, &b);
            let slow = a.to_mp().mul(&b.to_mp()).rem(f.modulus());
            assert_eq!(fast.to_mp(), slow, "{}", f.name());
        }
    }

    #[test]
    fn inversion_both_methods() {
        for f in all_fields() {
            let a = f.from_u64(0x1234_5678_9abc_def1);
            let i1 = f.inv(&a).unwrap();
            let i2 = f.inv_fermat(&a).unwrap();
            assert_eq!(i1, i2, "{}", f.name());
            assert_eq!(f.mul(&a, &i1), f.one(), "{}", f.name());
            assert!(f.inv(&f.zero()).is_none());
        }
    }

    #[test]
    fn reduce_wide_extremes() {
        // The NIST primes and the RFC 7748 ladder primes; the group-order
        // fields are covered in ule-curves, which builds them.
        let ladder = XPrime::ALL
            .iter()
            .map(|&x| PrimeField::new(x.name(), &x.modulus()));
        let mut rng = ule_testkit::Rng::new(0x2ed0_c3e1);
        for f in all_fields().into_iter().chain(ladder) {
            let k = f.k();
            let mut inputs = vec![vec![0; 2 * k], vec![u32::MAX; 2 * k]];
            inputs.extend((0..8).map(|_| rng.vec_u32(2 * k)));
            for wide in inputs {
                let got = f.reduce_wide(&wide);
                let expect = Mp::from_limbs(&wide).rem(f.modulus());
                assert_eq!(got.to_mp(), expect, "{} {wide:x?}", f.name());
            }
        }
    }

    #[test]
    fn equal_elements_from_different_paths_compare_and_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |e: &FpElement| {
            let mut h = DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        };
        for f in all_fields() {
            let a = f.from_u64(0x1234_5678_9abc_def1);
            let b = f.from_mp(&f.modulus().sub(&Mp::from_u64(77)));
            let diff = f.sub(&a, &b);
            let direct = f.from_mp(&a.to_mp().add(&Mp::from_u64(77)));
            assert_eq!(diff, direct, "{}", f.name());
            assert_eq!(hash(&diff), hash(&direct), "{}", f.name());
            let product = f.mul(&f.neg(&a), &f.neg(&b));
            let from_limbs = f.from_limbs(f.mul(&a, &b).limbs());
            assert_eq!(product, from_limbs, "{}", f.name());
            assert_eq!(hash(&product), hash(&from_limbs), "{}", f.name());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_LIMBS")]
    fn a_modulus_wider_than_max_limbs_is_refused_at_construction() {
        let n = Mp::one().shl(32 * MAX_LIMBS).add(&Mp::one());
        let _ = PrimeField::new("too wide", &n);
    }

    #[test]
    fn generic_modulus_group_order_style() {
        // An arbitrary odd prime (a 127-bit Mersenne), exercising the
        // generic path used for mod-n protocol arithmetic.
        let n = Mp::one().shl(127).sub(&Mp::one());
        let f = PrimeField::new("M127", &n);
        let a = f.from_u64(0xffff_ffff_ffff_fff1);
        let inv = f.inv(&a).unwrap();
        assert_eq!(f.mul(&a, &inv), f.one());
        let b = f.from_u64(3);
        assert_eq!(f.mul(&a, &b).to_mp(), a.to_mp().mul(&b.to_mp()).rem(&n));
    }

    #[test]
    fn pow_small_cases() {
        let f = PrimeField::nist(NistPrime::P192);
        let a = f.from_u64(2);
        assert_eq!(f.pow(&a, &Mp::from_u64(10)), f.from_u64(1024));
        assert_eq!(f.pow(&a, &Mp::zero()), f.one());
    }

    #[test]
    fn mul_u64_matches_repeated_add() {
        let f = PrimeField::nist(NistPrime::P224);
        let a = f.from_u64(0x1357_9bdf);
        let mut acc = f.zero();
        for _ in 0..29 {
            acc = f.add(&acc, &a);
        }
        assert_eq!(f.mul_u64(&a, 29), acc);
    }
}
