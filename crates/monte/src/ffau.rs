//! The Finite-Field Arithmetic Unit (§5.4.2).
//!
//! The FFAU is built around a 2-stage pipelined multiply-add core
//! (throughput 1 op/cycle, latency `p = 3` including operand/result
//! registering — Table 5.4), dual-port AB and T scratchpad memories
//! organized so three operands are read and one result written every
//! cycle, index-register address generation (Table 5.5), and a 64-entry
//! microcode store with hardware loop support (Fig 5.10).
//!
//! The unit is **parameterizable in datapath width** (8/16/32/64 bits) —
//! the §7.9 design-space study — and in the element width `k`, which is
//! a *run-time* control value (that is what keeps Monte reconfigurable).
//!
//! Cycle cost of one CIOS Montgomery multiplication (eq. 5.2):
//!
//! ```text
//! cc = 2k^2 + 6k + (k+1)p + 22
//! ```
//!
//! decomposed as: two k-cycle inner loops per outer iteration, plus a
//! p-cycle data-dependency stall per outer iteration (the `m = t[0]*n0'`
//! computation must drain before the reduction row starts), plus 6 cycles
//! of per-iteration loop/index overhead, plus `p + 22` of setup, final
//! correction, and pipeline drain. The decomposition is asserted against
//! the closed form in the tests.

// Kernel loops index limb arrays the way the RTL datapath does;
// iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

use crate::ucode::{assemble_cmul_fold, MicroEngine};

/// Capacity of each FFAU buffer in limbs: the widest element, 571 bits,
/// at the narrowest datapath, w = 8.
pub const BUFFER_LIMBS: usize = 72;

/// Activity counters for the FFAU, consumed by the energy model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FfauStats {
    /// Cycles the arithmetic core was computing.
    pub busy_cycles: u64,
    /// Scratchpad (AB/T) word accesses (3 reads + 1 write per active
    /// cycle of the inner loops).
    pub scratch_accesses: u64,
    /// Microcode store reads (one per sequenced cycle).
    pub ucode_reads: u64,
    /// Operations executed (multiplications + additions + subtractions).
    pub operations: u64,
}

/// An operand buffer of the FFAU, the target of a DMA load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// Operand A.
    A,
    /// Operand B.
    B,
    /// The modulus N.
    N,
}

/// Up to [`BUFFER_LIMBS`] w-bit limbs held inline, little-endian, so
/// loading an operand or writing a result allocates nothing.
#[derive(Clone, Debug)]
struct Limbs {
    len: usize,
    buf: [u64; BUFFER_LIMBS],
}

impl Limbs {
    const EMPTY: Limbs = Limbs {
        len: 0,
        buf: [0; BUFFER_LIMBS],
    };

    fn as_slice(&self) -> &[u64] {
        &self.buf[..self.len]
    }

    /// Resizes to `k` limbs and returns them for overwriting.
    fn fill(&mut self, k: usize) -> &mut [u64] {
        assert!(
            k <= BUFFER_LIMBS,
            "{k} limbs exceed the FFAU buffers' {BUFFER_LIMBS}"
        );
        self.len = k;
        &mut self.buf[..k]
    }
}

/// The low `w` bits of a word.
const fn mask(w: u32) -> u64 {
    if w == 64 {
        u64::MAX
    } else {
        (1 << w) - 1
    }
}

/// The accumulator of a CIOS step `t + a·b + c` on `W`-bit words. The
/// sum is at most `2^(2W) − 1`, so `u64` holds it exactly for W ≤ 32 and
/// only W = 64 needs `u128`.
trait Accumulator {
    /// `(t + a·b + c) mod 2^W` and the carry `⌊(t + a·b + c) / 2^W⌋`.
    fn mac<const W: u32>(t: u64, a: u64, b: u64, c: u64) -> (u64, u64);
}

impl Accumulator for u64 {
    #[inline(always)]
    fn mac<const W: u32>(t: u64, a: u64, b: u64, c: u64) -> (u64, u64) {
        // Wrapping, so a u64 accumulator misused at W = 64 gives wrong
        // limbs (which the differential test detects) instead of an
        // overflow panic.
        let s = t.wrapping_add(a.wrapping_mul(b)).wrapping_add(c);
        (s & mask(W), s.wrapping_shr(W))
    }
}

impl Accumulator for u128 {
    #[inline(always)]
    fn mac<const W: u32>(t: u64, a: u64, b: u64, c: u64) -> (u64, u64) {
        let s = t as u128 + a as u128 * b as u128 + c as u128;
        (s as u64 & mask(W), (s >> W) as u64)
    }
}

/// `x += y` on `W`-bit limbs; returns the carry out.
fn add_assign<A: Accumulator, const W: u32>(x: &mut [u64], y: &[u64]) -> bool {
    let mut carry = 0;
    for (xj, &yj) in x.iter_mut().zip(y) {
        (*xj, carry) = A::mac::<W>(*xj, yj, 1, carry);
    }
    carry != 0
}

/// `x -= y` on `W`-bit limbs; returns the borrow out.
fn sub_assign<const W: u32>(x: &mut [u64], y: &[u64]) -> bool {
    let mut borrow = false;
    for (xj, &yj) in x.iter_mut().zip(y) {
        let (d, b1) = xj.overflowing_sub(yj);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *xj = d & mask(W);
        borrow = b1 | b2;
    }
    borrow
}

/// `x >= y` for equal-length little-endian limbs.
fn ge(x: &[u64], y: &[u64]) -> bool {
    x.iter().rev().cmp(y.iter().rev()).is_ge()
}

/// The FFAU model: functional CIOS/modular-add/sub over a configurable
/// limb width, with the eq. 5.2 timing contract.
#[derive(Clone, Debug)]
pub struct Ffau {
    /// Datapath width in bits (8, 16, 32, or 64).
    width: usize,
    /// Arithmetic-core latency `p` (pipeline depth + operand registering).
    pipeline_latency: u64,
    /// Operand buffer A (w-bit limbs, little-endian).
    a: Limbs,
    /// Operand buffer B.
    b: Limbs,
    /// Modulus buffer N.
    n: Limbs,
    /// Result buffer.
    result: Limbs,
    /// The CIOS quotient constant `n0' = -n^{-1} mod 2^w` (control reg).
    n0_prime: u64,
    /// Special-form fold extension (control regs 3–5): the constant
    /// multiplier `c`, the fold multiplier `δ`, and the limb offset of
    /// the second injection point (0 = single-offset prime).
    fold_c: u64,
    fold_delta: u64,
    fold_offset: u64,
    /// The fold microprogram for the current fold offset, assembled by
    /// the first [`Ffau::cmul`] after [`Ffau::set_fold_offset`].
    fold_engine: Option<MicroEngine>,
    stats: FfauStats,
}

impl Ffau {
    /// Creates an FFAU with the given datapath width.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is 8, 16, 32, or 64.
    pub fn new(width: usize) -> Self {
        assert!(
            matches!(width, 8 | 16 | 32 | 64),
            "unsupported datapath width {width}"
        );
        Ffau {
            width,
            pipeline_latency: 3,
            a: Limbs::EMPTY,
            b: Limbs::EMPTY,
            n: Limbs::EMPTY,
            result: Limbs::EMPTY,
            n0_prime: 0,
            fold_c: 0,
            fold_delta: 0,
            fold_offset: 0,
            fold_engine: None,
            stats: FfauStats::default(),
        }
    }

    /// Datapath width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Counters.
    pub fn stats(&self) -> FfauStats {
        self.stats
    }

    /// Sets the quotient constant (preloaded via `ctc2`, §5.4.2.1).
    pub fn set_n0_prime(&mut self, n0: u64) {
        self.n0_prime = n0 & mask(self.width as u32);
    }

    /// Sets the special-form constant multiplier `c` (control reg 3).
    pub fn set_fold_c(&mut self, c: u64) {
        self.fold_c = c;
    }

    /// Sets the special-form fold multiplier `δ` (control reg 4).
    pub fn set_fold_delta(&mut self, delta: u64) {
        self.fold_delta = delta;
    }

    /// Sets the limb offset of the second fold injection point
    /// (control reg 5; 0 for a single-offset prime like 2^255−19).
    pub fn set_fold_offset(&mut self, offset: u64) {
        self.fold_offset = offset;
        self.fold_engine = None;
    }

    /// Operand buffer `op` resized to `k` limbs, for a load (the DMA
    /// engine writes RAM words straight into it).
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds [`BUFFER_LIMBS`].
    pub fn operand_mut(&mut self, op: Operand, k: usize) -> &mut [u64] {
        match op {
            Operand::A => self.a.fill(k),
            Operand::B => self.b.fill(k),
            Operand::N => self.n.fill(k),
        }
    }

    /// The result buffer after an operation.
    pub fn result(&self) -> &[u64] {
        self.result.as_slice()
    }

    /// Closed-form CIOS cycle count (eq. 5.2) for `k` limbs at pipeline
    /// latency `p`.
    pub fn montmul_cycles(k: u64, p: u64) -> u64 {
        2 * k * k + 6 * k + (k + 1) * p + 22
    }

    /// Executes one CIOS Montgomery multiplication over the loaded
    /// operands: `result = A * B * R^{-1} mod N`. Returns the cycle
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths disagree or `n0'` is inconsistent
    /// with N (a programming error in the command stream).
    pub fn montmul(&mut self) -> u64 {
        let k = self.n.len;
        assert!(k > 0, "modulus not loaded");
        assert_eq!(self.a.len, k, "operand A width mismatch");
        assert_eq!(self.b.len, k, "operand B width mismatch");
        let w_mask = mask(self.width as u32);
        debug_assert_eq!(
            self.n.buf[0].wrapping_mul(self.n0_prime) & w_mask,
            w_mask, // -1 mod 2^w
            "n0' inconsistent with N"
        );
        match self.width {
            8 => self.cios::<u64, 8>(),
            16 => self.cios::<u64, 16>(),
            32 => self.cios::<u64, 32>(),
            _ => self.cios::<u128, 64>(),
        }
        // Timing per eq. 5.2, decomposed per the module docs.
        let kk = k as u64;
        let p = self.pipeline_latency;
        let per_outer = 2 * kk + p + 6;
        let fixed = p + 22;
        let cycles = kk * per_outer + fixed;
        debug_assert_eq!(cycles, Self::montmul_cycles(kk, p));
        self.stats.busy_cycles += cycles;
        self.stats.ucode_reads += cycles;
        // 3 operand reads + 1 result write per inner-loop cycle.
        self.stats.scratch_accesses += 4 * (2 * kk * kk);
        self.stats.operations += 1;
        cycles
    }

    /// Functional CIOS (Algorithm 5) on `W`-bit limbs into the result
    /// buffer, with `A` accumulating every `t + a·b + c` step.
    fn cios<A: Accumulator, const W: u32>(&mut self) {
        let k = self.n.len;
        let (a, b, n) = (self.a.as_slice(), self.b.as_slice(), self.n.as_slice());
        let mut t = [0u64; BUFFER_LIMBS + 2];
        for &bi in b {
            let mut c = 0;
            for j in 0..k {
                (t[j], c) = A::mac::<W>(t[j], a[j], bi, c);
            }
            (t[k], t[k + 1]) = A::mac::<W>(t[k], c, 1, 0);
            let m = t[0].wrapping_mul(self.n0_prime) & mask(W);
            let (_, mut c) = A::mac::<W>(t[0], m, n[0], 0);
            for j in 1..k {
                (t[j - 1], c) = A::mac::<W>(t[j], m, n[j], c);
            }
            let (lo, hi) = A::mac::<W>(t[k], c, 1, 0);
            t[k - 1] = lo;
            t[k] = (t[k + 1] + hi) & mask(W);
            t[k + 1] = 0;
        }
        // Final correction.
        if t[k] != 0 || ge(&t[..k], n) {
            sub_assign::<W>(&mut t[..k], n);
        }
        self.result.fill(k).copy_from_slice(&t[..k]);
    }

    /// Closed-form cycle count of the special-form constant multiply
    /// for `k` limbs at pipeline latency `p`: one multiply pass, two
    /// fold rounds (each one carry-propagation pass per injection
    /// point), and the two-step final correction.
    pub fn cmul_cycles(k: u64, p: u64, second_offset: u64) -> u64 {
        let single = 3 * k + 3 * p + 44;
        if second_offset == 0 {
            single
        } else {
            single + 2 * (k - second_offset + p + 2)
        }
    }

    /// Executes one special-form constant multiplication over operand A:
    /// `result = A * c mod N`, using the fold congruence configured via
    /// [`Ffau::set_fold_c`] / [`Ffau::set_fold_delta`] /
    /// [`Ffau::set_fold_offset`] instead of a CIOS pass — the microcode
    /// extension for the X25519/X448 primes. Runs the actual
    /// [`crate::ucode::assemble_cmul_fold`] microprogram, so the model
    /// and the microcode cannot drift. Returns the cycle count
    /// (`O(k)` versus CIOS's `O(k²)`).
    ///
    /// # Panics
    ///
    /// Panics if the modulus or fold constants are not loaded, or on a
    /// datapath narrower than 32 bits (the `a24` constants need 17
    /// bits, and the overflow word must fit one limb).
    pub fn cmul(&mut self) -> u64 {
        let k = self.n.len;
        assert!(k > 0, "modulus not loaded");
        assert_eq!(self.a.len, k, "operand A width mismatch");
        assert!(self.width >= 32, "fold constant exceeds the datapath word");
        assert!(self.fold_c != 0, "fold constants not loaded");
        let eng = self.fold_engine.get_or_insert_with(|| {
            MicroEngine::new(self.width, assemble_cmul_fold(self.fold_offset != 0))
        });
        eng.set_const(0, k as u64);
        eng.set_const(2, self.fold_c);
        eng.set_const(3, self.fold_delta);
        eng.set_const(4, self.fold_offset);
        // Operand B is unused by the program.
        let a = self.a.as_slice();
        let cycles = eng.run(a, a, self.n.as_slice(), 0, self.result.fill(k));
        debug_assert_eq!(
            cycles,
            Self::cmul_cycles(k as u64, self.pipeline_latency, self.fold_offset)
        );
        self.stats.busy_cycles += cycles;
        self.stats.ucode_reads += cycles;
        // One multiply pass + two propagation passes per injection.
        let rows = if self.fold_offset == 0 {
            3 * k as u64
        } else {
            3 * k as u64 + 2 * (k as u64 - self.fold_offset)
        };
        self.stats.scratch_accesses += 4 * rows;
        self.stats.operations += 1;
        cycles
    }

    /// Modular addition `result = (A + B) mod N`; returns the cycle
    /// count (single pipelined pass plus drain and conditional
    /// subtraction).
    pub fn modadd(&mut self) -> u64 {
        self.modaddsub(false)
    }

    /// Modular subtraction `result = (A - B) mod N`.
    pub fn modsub(&mut self) -> u64 {
        self.modaddsub(true)
    }

    fn modaddsub(&mut self, sub: bool) -> u64 {
        let k = self.n.len;
        assert!(k > 0, "modulus not loaded");
        assert_eq!(self.a.len, k);
        assert_eq!(self.b.len, k);
        match self.width {
            8 => self.addsub::<u64, 8>(sub),
            16 => self.addsub::<u64, 16>(sub),
            32 => self.addsub::<u64, 32>(sub),
            _ => self.addsub::<u128, 64>(sub),
        }
        // Two pipelined passes (op, conditional correction) plus drain.
        let cycles = 2 * k as u64 + self.pipeline_latency + 6;
        self.stats.busy_cycles += cycles;
        self.stats.ucode_reads += cycles;
        self.stats.scratch_accesses += 4 * k as u64;
        self.stats.operations += 1;
        cycles
    }

    /// `result = a ± b`, then a conditional `∓ n`, on `W`-bit limbs.
    fn addsub<A: Accumulator, const W: u32>(&mut self, sub: bool) {
        let n = self.n.as_slice();
        let out = self.result.fill(n.len());
        out.copy_from_slice(self.a.as_slice());
        if sub {
            if sub_assign::<W>(out, self.b.as_slice()) {
                add_assign::<A, W>(out, n);
            }
        } else if add_assign::<A, W>(out, self.b.as_slice()) || ge(out, n) {
            sub_assign::<W>(out, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_curves::params::{Curve, CurveId};
    use ule_mpmath::mp::Mp;
    use ule_mpmath::nist::NistPrime;
    use ule_mpmath::xprime::XPrime;
    use ule_testkit::Rng;

    /// The CIOS of the `Vec`-buffer FFAU, `u128` accumulators at every
    /// width: the differential oracle for [`Ffau::montmul`].
    fn oracle_montmul(a: &[u64], b: &[u64], n: &[u64], n0_prime: u64, w: usize) -> Vec<u64> {
        let k = n.len();
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let mut t = vec![0u128; k + 2];
        for i in 0..k {
            let bi = b[i] as u128;
            let mut c: u128 = 0;
            for j in 0..k {
                let cs = t[j] + (a[j] as u128) * bi + c;
                t[j] = cs & mask as u128;
                c = cs >> w;
            }
            let cs = t[k] + c;
            t[k] = cs & mask as u128;
            t[k + 1] = cs >> w;
            let m = (t[0] as u64).wrapping_mul(n0_prime) & mask;
            let cs = t[0] + (m as u128) * (n[0] as u128);
            let mut c = cs >> w;
            for j in 1..k {
                let cs = t[j] + (m as u128) * (n[j] as u128) + c;
                t[j - 1] = cs & mask as u128;
                c = cs >> w;
            }
            let cs = t[k] + c;
            t[k - 1] = cs & mask as u128;
            t[k] = (t[k + 1] + (cs >> w)) & mask as u128;
            t[k + 1] = 0;
        }
        let ge = t[k] != 0 || {
            let mut ge = true; // equal counts as >=
            for j in (0..k).rev() {
                if t[j] > n[j] as u128 {
                    break;
                }
                if t[j] < n[j] as u128 {
                    ge = false;
                    break;
                }
            }
            ge
        };
        if ge {
            let mut borrow: i128 = 0;
            for j in 0..k {
                let d = t[j] as i128 - n[j] as i128 - borrow;
                t[j] = (d & mask as i128) as u128;
                borrow = (d < 0) as i128;
            }
        }
        t[..k].iter().map(|&x| x as u64).collect()
    }

    /// The add/sub of the `Vec`-buffer FFAU: the differential oracle for
    /// [`Ffau::modadd`] and [`Ffau::modsub`].
    fn oracle_addsub(a: &[u64], b: &[u64], n: &[u64], w: usize, sub: bool) -> Vec<u64> {
        let k = n.len();
        let mask = if w == 64 {
            u128::MAX >> 64
        } else {
            (1u128 << w) - 1
        };
        let mut out = vec![0u128; k];
        if sub {
            let mut borrow: i128 = 0;
            for j in 0..k {
                let d = a[j] as i128 - b[j] as i128 - borrow;
                out[j] = (d & mask as i128) as u128;
                borrow = (d < 0) as i128;
            }
            if borrow != 0 {
                let mut carry: u128 = 0;
                for j in 0..k {
                    let s = out[j] + n[j] as u128 + carry;
                    out[j] = s & mask;
                    carry = s >> w;
                }
            }
        } else {
            let mut carry: u128 = 0;
            for j in 0..k {
                let s = a[j] as u128 + b[j] as u128 + carry;
                out[j] = s & mask;
                carry = s >> w;
            }
            let mut ge = carry != 0;
            if !ge {
                ge = true;
                for j in (0..k).rev() {
                    if out[j] > n[j] as u128 {
                        break;
                    }
                    if out[j] < n[j] as u128 {
                        ge = false;
                        break;
                    }
                }
            }
            if ge {
                let mut borrow: i128 = 0;
                for j in 0..k {
                    let d = out[j] as i128 - n[j] as i128 - borrow;
                    out[j] = (d & mask as i128) as u128;
                    borrow = (d < 0) as i128;
                }
            }
        }
        out.iter().map(|&x| x as u64).collect()
    }

    /// `x` as `k` w-bit limbs, little-endian.
    fn limbs(x: &Mp, w: usize, k: usize) -> Vec<u64> {
        let words = x.to_limbs((w * k).div_ceil(32));
        (0..k)
            .map(|i| {
                (0..w).fold(0u64, |v, b| {
                    let bit = i * w + b;
                    v | (((words[bit / 32] >> (bit % 32)) & 1) as u64) << b
                })
            })
            .collect()
    }

    /// The integer held by w-bit limbs.
    fn value(l: &[u64], w: usize) -> Mp {
        l.iter()
            .enumerate()
            .fold(Mp::zero(), |v, (i, &x)| v.add(&Mp::from_u64(x).shl(w * i)))
    }

    fn n0_prime_w(n0: u64, w: usize) -> u64 {
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        inv.wrapping_neg() & mask(w as u32)
    }

    /// An FFAU of width `w` with modulus `n` loaded.
    fn ffau_for(n: &Mp, w: usize) -> Ffau {
        let nl = limbs(n, w, n.bit_len().div_ceil(w));
        let mut f = Ffau::new(w);
        f.operand_mut(Operand::N, nl.len()).copy_from_slice(&nl);
        f.set_n0_prime(n0_prime_w(nl[0], w));
        f
    }

    fn load(f: &mut Ffau, op: Operand, limbs: &[u64]) {
        f.operand_mut(op, limbs.len()).copy_from_slice(limbs);
    }

    /// The moduli the differential test covers: the five NIST primes,
    /// their group orders, and the X25519/X448 primes.
    fn moduli() -> Vec<(String, Mp)> {
        let mut out = Vec::new();
        for (prime, id) in NistPrime::ALL.into_iter().zip(CurveId::PRIMES) {
            out.push((prime.name().to_string(), prime.modulus()));
            out.push((format!("{} order", id.name()), Curve::new(id).n().clone()));
        }
        for xp in XPrime::ALL {
            out.push((xp.name().to_string(), xp.modulus()));
        }
        out
    }

    /// Operands for modulus `n` in `k` w-bit limbs: zero, all-ones,
    /// N−1, seeded values below N, and non-canonical values in
    /// [N, 2^(w·k)) — the words a fuzzer feeds.
    fn operands(n: &Mp, w: usize, k: usize, rng: &mut Rng) -> Vec<Mp> {
        let r = Mp::one().shl(w * k);
        let mut random = || Mp::from_limbs(&rng.vec_u32((w * k).div_ceil(32))).rem(&r);
        let mut ops = vec![Mp::zero(), r.sub(&Mp::one()), n.sub(&Mp::one()), n.clone()];
        for _ in 0..4 {
            ops.push(random().rem(n));
        }
        for _ in 0..2 {
            ops.push(n.add(&random().rem(&r.sub(n))));
        }
        ops
    }

    /// How a check drives the FFAU: montmul, modadd, modsub.
    type Ops = [fn(&mut Ffau); 3];

    const PUBLIC_OPS: Ops = [
        |f| {
            f.montmul();
        },
        |f| {
            f.modadd();
        },
        |f| {
            f.modsub();
        },
    ];

    /// Runs `ops` on every operand pair for every modulus at width `w`,
    /// comparing with the oracle and, on canonical operands, with the
    /// `Mp` reference. Returns the first mismatch.
    fn differential(ops: Ops, w: usize) -> Result<(), String> {
        let mut rng = Rng::new(0x5eed_0000 + w as u64);
        for (name, n) in moduli() {
            let k = n.bit_len().div_ceil(w);
            let mut f = ffau_for(&n, w);
            let nl = limbs(&n, w, k);
            let n0 = n0_prime_w(nl[0], w);
            // R^-1 mod N by Fermat: every modulus here is prime.
            let r_inv = Mp::one().shl(w * k).modpow(&n.sub(&Mp::from_u64(2)), &n);
            let xs = operands(&n, w, k, &mut rng);
            for a in &xs {
                for b in &xs {
                    let (al, bl) = (limbs(a, w, k), limbs(b, w, k));
                    load(&mut f, Operand::A, &al);
                    load(&mut f, Operand::B, &bl);
                    let canonical = a < &n && b < &n;
                    let mut results = Vec::new();
                    for op in ops {
                        op(&mut f);
                        results.push(f.result().to_vec());
                    }
                    let oracle = [
                        oracle_montmul(&al, &bl, &nl, n0, w),
                        oracle_addsub(&al, &bl, &nl, w, false),
                        oracle_addsub(&al, &bl, &nl, w, true),
                    ];
                    let reference = [
                        a.mul(b).mul(&r_inv).rem(&n),
                        a.add(b).rem(&n),
                        a.add(&n).sub(&b.rem(&n)).rem(&n),
                    ];
                    let what =
                        |op: &str| format!("{name} w={w} {op}({}, {})", a.to_hex(), b.to_hex());
                    for (i, op) in ["montmul", "modadd", "modsub"].into_iter().enumerate() {
                        if results[i] != oracle[i] {
                            return Err(format!("{} differs from the oracle", what(op)));
                        }
                        // Off canonical operands CIOS stays congruent
                        // (its inputs are below R); add/sub promise nothing.
                        let got = value(&results[i], w);
                        let ok = if canonical {
                            got == reference[i]
                        } else {
                            i > 0 || got.rem(&n) == reference[0]
                        };
                        if !ok {
                            return Err(format!("{} differs from the Mp reference", what(op)));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn eq_5_2_closed_form() {
        assert_eq!(Ffau::montmul_cycles(6, 3), 2 * 36 + 36 + 7 * 3 + 22);
        assert_eq!(Ffau::montmul_cycles(8, 3), 2 * 64 + 48 + 9 * 3 + 22);
    }

    #[test]
    fn montmul_addsub_match_the_oracle_at_every_width() {
        for w in [8, 16, 32, 64] {
            differential(PUBLIC_OPS, w).unwrap();
        }
    }

    #[test]
    fn a_u64_accumulator_at_w64_fails_the_differential() {
        let forced: Ops = [
            |f| f.cios::<u64, 64>(),
            |f| f.addsub::<u64, 64>(false),
            |f| f.addsub::<u64, 64>(true),
        ];
        let err = differential(forced, 64).unwrap_err();
        assert!(err.contains("differs from the oracle"), "{err}");
    }

    #[test]
    fn cmul_matches_the_oracle() {
        // X448's second injection point, 2^224, is not a 64-bit limb
        // boundary, so the fold has no w = 64 configuration for it.
        let mut rng = Rng::new(0xf01d);
        for w in [32, 64] {
            let mut f = Ffau::new(w);
            for xp in XPrime::ALL {
                if w == 64 && xp == XPrime::P448 {
                    continue;
                }
                let p = xp.modulus();
                let k = xp.bits().div_ceil(w);
                let nl = limbs(&p, w, k);
                load(&mut f, Operand::N, &nl);
                f.set_n0_prime(n0_prime_w(nl[0], w));
                f.set_fold_delta(xp.fold_delta());
                f.set_fold_offset(xp.fold_second_offset() * 32 / w as u64);
                let r = Mp::one().shl(w * k);
                for c in [xp.a24(), 19, 2] {
                    f.set_fold_c(c);
                    // a·c mod p = montmul(a, c·R mod p).
                    let cr = limbs(&Mp::from_u64(c).mul(&r).rem(&p), w, k);
                    for a in operands(&p, w, k, &mut rng) {
                        let al = limbs(&a, w, k);
                        load(&mut f, Operand::A, &al);
                        let cycles = f.cmul();
                        let what = format!("{} w={w} {} * {c}", xp.name(), a.to_hex());
                        assert_eq!(
                            f.result(),
                            oracle_montmul(&al, &cr, &nl, n0_prime_w(nl[0], w), w),
                            "{what}"
                        );
                        let expect = xp.reduce(&a.mul(&Mp::from_u64(c)));
                        assert_eq!(value(f.result(), w), expect, "{what}");
                        let off = f.fold_offset;
                        assert_eq!(cycles, Ffau::cmul_cycles(k as u64, 3, off), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn modadd_modsub_match_host() {
        let p = NistPrime::P256.modulus();
        let a = p.sub(&Mp::from_u64(5));
        let b = p.sub(&Mp::from_u64(12345));
        let mut f = ffau_for(&p, 32);
        load(&mut f, Operand::A, &limbs(&a, 32, 8));
        load(&mut f, Operand::B, &limbs(&b, 32, 8));
        f.modadd();
        assert_eq!(f.result(), limbs(&a.add(&b).rem(&p), 32, 8));
        f.modsub();
        assert_eq!(f.result(), limbs(&a.sub(&b), 32, 8));
    }

    #[test]
    fn stats_accumulate() {
        let p = NistPrime::P192.modulus();
        let mut f = ffau_for(&p, 32);
        load(&mut f, Operand::A, &limbs(&Mp::from_u64(7), 32, 6));
        load(&mut f, Operand::B, &limbs(&Mp::from_u64(9), 32, 6));
        let c1 = f.montmul();
        let c2 = f.modadd();
        let s = f.stats();
        assert_eq!(s.busy_cycles, c1 + c2);
        assert_eq!(s.operations, 2);
        assert!(s.scratch_accesses > 0);
    }

    #[test]
    fn montmul_cycles_follow_eq_5_2_at_every_width() {
        let p = NistPrime::P192.modulus();
        for w in [8usize, 16, 32, 64] {
            let k = 192usize.div_ceil(w);
            let mut f = ffau_for(&p, w);
            load(&mut f, Operand::A, &limbs(&Mp::from_u64(3), w, k));
            load(&mut f, Operand::B, &limbs(&Mp::from_u64(5), w, k));
            assert_eq!(f.montmul(), Ffau::montmul_cycles(k as u64, 3), "width {w}");
        }
    }

    #[test]
    #[should_panic(expected = "exceed the FFAU buffers")]
    fn rejects_an_operand_wider_than_the_buffers() {
        let _ = Ffau::new(32).operand_mut(Operand::A, BUFFER_LIMBS + 1);
    }

    #[test]
    #[should_panic(expected = "unsupported datapath width")]
    fn rejects_odd_width() {
        let _ = Ffau::new(24);
    }
}
