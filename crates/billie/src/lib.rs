//! "Billie" — the non-configurable GF(2^m) accelerator of §5.5.
//!
//! Billie is a load-store coprocessor (Fig 5.12, modeled after the IBM
//! 360/91 floating-point unit): a sixteen-entry m-bit register file, a
//! four-entry instruction queue, and separate functional units for
//!
//! * **digit-serial multiplication** (Algorithm 8) — `ceil(m/D)` digit
//!   iterations with the reduction interleaved, plus a final reduction
//!   step; the digit width `D` (default 3, the energy-optimal value from
//!   Kumar et al. the paper adopts, §7.6) is a synthesis parameter and
//!   the x-axis of Fig 7.14;
//! * **hardwired squaring** (Fig 5.13) — a single cycle of XORs, because
//!   the field polynomial is fixed in the netlist;
//! * **full-field-width addition** — one cycle of XOR;
//! * a **load/store unit** bridging the m-bit register file to the 32-bit
//!   port on the shared dual-port RAM (`ceil(m/32)` cycles per element).
//!
//! The field (and hence the key size) is fixed when the unit is built —
//! that is precisely the reconfigurability/efficiency trade Fig 1.1
//! describes, and why the paper pairs Billie with the highest energy
//! efficiency and the least flexibility.
//!
//! Timing is event-based per functional unit with register-operand
//! scoreboarding; writeback-port arbitration (mul+sqr share one register
//! file port, add+LSU the other, §5.5.2) is modeled as a one-cycle
//! penalty when two completions collide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use ule_isa::instr::Instr;
use ule_mpmath::f2m::{BinaryField, F2mElement};
use ule_mpmath::mp::MAX_LIMBS;
use ule_mpmath::nist::NistBinary;
use ule_pete::cop::{CopStats, Coprocessor};
use ule_pete::mem::Ram;

/// Number of registers in Billie's register file (§5.5.2).
pub const NUM_REGS: usize = 16;

/// Depth of the instruction queue (§5.5.2).
pub const QUEUE_DEPTH: usize = 4;

/// Billie build-time parameters.
#[derive(Clone, Copy, Debug)]
pub struct BillieConfig {
    /// Digit width `D` of the serial multiplier (default 3, §7.6).
    pub digit: usize,
}

impl Default for BillieConfig {
    fn default() -> Self {
        BillieConfig { digit: 3 }
    }
}

/// The Billie accelerator model.
#[derive(Debug)]
pub struct Billie {
    field: BinaryField,
    config: BillieConfig,
    regs: [F2mElement; NUM_REGS],
    reg_ready: [u64; NUM_REGS],
    mul_free: u64,
    sqr_free: u64,
    add_free: u64,
    lsu_free: u64,
    /// Completion times of queued instructions (queue back-pressure).
    inflight: VecDeque<u64>,
    /// Port A (mul+sqr) last writeback cycle, for arbitration.
    port_a_busy: u64,
    /// Port B (add+LSU) last writeback cycle.
    port_b_busy: u64,
    stats: CopStats,
}

impl Billie {
    /// Builds a Billie for one of the NIST binary fields with the default
    /// digit width.
    pub fn new(field: NistBinary) -> Self {
        Self::with_config(field, BillieConfig::default())
    }

    /// Builds a Billie with an explicit digit width (Fig 7.14 sweep).
    pub fn with_config(field: NistBinary, config: BillieConfig) -> Self {
        assert!(config.digit >= 1 && config.digit <= 16);
        let f = BinaryField::nist(field);
        Billie {
            regs: std::array::from_fn(|_| f.zero()),
            field: f,
            config,
            reg_ready: [0; NUM_REGS],
            mul_free: 0,
            sqr_free: 0,
            add_free: 0,
            lsu_free: 0,
            inflight: VecDeque::new(),
            port_a_busy: 0,
            port_b_busy: 0,
            stats: CopStats::default(),
        }
    }

    /// The underlying field.
    pub fn field(&self) -> &BinaryField {
        &self.field
    }

    /// Multiplication latency in cycles: `ceil(m/D)` digit steps plus a
    /// final reduction and result handoff (Algorithm 8).
    pub fn mul_latency(&self) -> u64 {
        (self.field.m() as u64).div_ceil(self.config.digit as u64) + 2
    }

    /// Load/store latency: the 32-bit shared-RAM port moves one word per
    /// cycle (§5.5.2).
    pub fn lsu_latency(&self) -> u64 {
        self.field.k() as u64
    }

    /// Area proxy in "Pete units" for the energy model: the paper reports
    /// Billie at 1.45× Pete's area for 163 bits, scaling roughly linearly
    /// to 5× at 571 bits (§7.3).
    pub fn area_vs_pete(&self) -> f64 {
        // Linear fit through (163, 1.45) and (571, 5.0).
        1.45 + (self.field.m() as f64 - 163.0) * (5.0 - 1.45) / (571.0 - 163.0)
    }

    fn queue_admit(&mut self, cycle: u64) -> u64 {
        while let Some(&front) = self.inflight.front() {
            if front <= cycle {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        if self.inflight.len() < QUEUE_DEPTH {
            cycle + 1
        } else {
            let free = self.inflight.pop_front().expect("non-empty");
            free.max(cycle) + 1
        }
    }

    /// Arbitration: returns the writeback cycle, bumping by one if the
    /// port is already claimed at that cycle.
    fn claim_port(busy: &mut u64, want: u64) -> u64 {
        let granted = if want <= *busy { *busy + 1 } else { want };
        *busy = granted;
        granted
    }
}

impl Coprocessor for Billie {
    fn issue(&mut self, instr: Instr, rt_value: u32, cycle: u64, ram: &mut Ram) -> u64 {
        self.stats.instructions += 1;
        self.stats.ucode_reads += 1; // sequencer step
        let resume = self.queue_admit(cycle);
        let k = self.field.k();
        match instr {
            Instr::BilLd { fs, .. } => {
                let start = self.lsu_free.max(cycle);
                let done = start + self.lsu_latency();
                self.lsu_free = done;
                let wb = Self::claim_port(&mut self.port_b_busy, done);
                ram.count_external(k as u64, 0);
                self.stats.ram_reads += k as u64;
                self.stats.dma_cycles += self.lsu_latency();
                self.stats.ls_ops += 1;
                // The register is m bits wide (§5.5.2): coefficients at
                // and above m in the loaded words are dropped.
                let mut words = [0u32; MAX_LIMBS];
                for (i, w) in words[..k].iter_mut().enumerate() {
                    *w = ram.peek(rt_value + 4 * i as u32);
                }
                let top = self.field.m() % 32;
                if top != 0 {
                    words[k - 1] &= (1 << top) - 1;
                }
                self.regs[fs as usize] = self.field.from_limbs(&words[..k]);
                self.reg_ready[fs as usize] = wb;
                self.inflight.push_back(wb);
            }
            Instr::BilSt { fs, .. } => {
                let start = self.lsu_free.max(self.reg_ready[fs as usize]).max(cycle);
                let done = start + self.lsu_latency();
                self.lsu_free = done;
                ram.count_external(0, k as u64);
                self.stats.ram_writes += k as u64;
                self.stats.dma_cycles += self.lsu_latency();
                self.stats.ls_ops += 1;
                ram.poke_words(rt_value, self.regs[fs as usize].limbs());
                self.inflight.push_back(done);
            }
            Instr::BilMul { fd, fs, ft } => {
                let start = self
                    .mul_free
                    .max(self.reg_ready[fs as usize])
                    .max(self.reg_ready[ft as usize])
                    .max(cycle);
                let done = start + self.mul_latency();
                self.mul_free = done;
                let wb = Self::claim_port(&mut self.port_a_busy, done);
                self.stats.busy_cycles += self.mul_latency();
                self.stats.mul_ops += 1;
                self.regs[fd as usize] = self
                    .field
                    .mul(&self.regs[fs as usize], &self.regs[ft as usize]);
                self.reg_ready[fd as usize] = wb;
                self.inflight.push_back(wb);
            }
            Instr::BilSqr { fd, ft } => {
                let start = self.sqr_free.max(self.reg_ready[ft as usize]).max(cycle);
                let done = start + 1;
                self.sqr_free = done;
                let wb = Self::claim_port(&mut self.port_a_busy, done);
                self.stats.busy_cycles += 1;
                self.stats.mul_ops += 1;
                self.regs[fd as usize] = self.field.sqr(&self.regs[ft as usize]);
                self.reg_ready[fd as usize] = wb;
                self.inflight.push_back(wb);
            }
            Instr::BilAdd { fd, fs, ft } => {
                let start = self
                    .add_free
                    .max(self.reg_ready[fs as usize])
                    .max(self.reg_ready[ft as usize])
                    .max(cycle);
                let done = start + 1;
                self.add_free = done;
                let wb = Self::claim_port(&mut self.port_b_busy, done);
                self.stats.busy_cycles += 1;
                self.regs[fd as usize] = self
                    .field
                    .add(&self.regs[fs as usize], &self.regs[ft as usize]);
                self.reg_ready[fd as usize] = wb;
                self.inflight.push_back(wb);
            }
            Instr::Cop2Sync => unreachable!("sync handled by the CPU"),
            other => panic!("Billie cannot execute {other}"),
        }
        resume
    }

    fn idle_at(&self) -> u64 {
        self.mul_free
            .max(self.sqr_free)
            .max(self.add_free)
            .max(self.lsu_free)
            .max(self.port_a_busy)
            .max(self.port_b_busy)
    }

    fn stats(&self) -> CopStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "Billie"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_isa::asm::RAM_BASE;
    use ule_isa::reg::Reg;
    use ule_mpmath::mp::Mp;

    fn sample(f: &BinaryField, seed: u64) -> Vec<u32> {
        let mut x = seed | 1;
        let mut limbs = vec![0u32; f.k()];
        for l in limbs.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *l = x as u32;
        }
        limbs[f.k() - 1] &= (1u32 << (f.m() % 32)) - 1;
        limbs
    }

    #[test]
    fn load_compute_store_round_trip() {
        let mut b = Billie::new(NistBinary::B163);
        let f = b.field().clone();
        let mut ram = Ram::new();
        let a = sample(&f, 11);
        let c = sample(&f, 22);
        ram.poke_words(RAM_BASE, &a);
        ram.poke_words(RAM_BASE + 64, &c);
        let rt = Reg::T0;
        let mut cy = 0;
        cy = b.issue(Instr::BilLd { rt, fs: 1 }, RAM_BASE, cy, &mut ram);
        cy = b.issue(Instr::BilLd { rt, fs: 2 }, RAM_BASE + 64, cy, &mut ram);
        cy = b.issue(
            Instr::BilMul {
                fd: 3,
                fs: 1,
                ft: 2,
            },
            0,
            cy,
            &mut ram,
        );
        cy = b.issue(Instr::BilSqr { fd: 4, ft: 3 }, 0, cy, &mut ram);
        cy = b.issue(
            Instr::BilAdd {
                fd: 5,
                fs: 4,
                ft: 1,
            },
            0,
            cy,
            &mut ram,
        );
        let _ = b.issue(Instr::BilSt { rt, fs: 5 }, RAM_BASE + 128, cy, &mut ram);
        let got = ram.peek_words(RAM_BASE + 128, f.k());
        let ea = f.from_limbs(&a);
        let ec = f.from_limbs(&c);
        let expect = f.add(&f.sqr(&f.mul(&ea, &ec)), &ea);
        assert_eq!(got, expect.limbs());
    }

    #[test]
    fn a_load_keeps_only_the_m_register_bits() {
        // Six all-ones words on B-163 set coefficients 163..191; the
        // m-bit register drops them (§5.5.2), so the product and the
        // stored register are those of the masked operand.
        let mut b = Billie::new(NistBinary::B163);
        let f = b.field().clone();
        let mut ram = Ram::new();
        let ones = vec![u32::MAX; f.k()];
        ram.poke_words(RAM_BASE, &ones);
        let rt = Reg::T0;
        let mut cy = b.issue(Instr::BilLd { rt, fs: 1 }, RAM_BASE, 0, &mut ram);
        cy = b.issue(
            Instr::BilMul {
                fd: 2,
                fs: 1,
                ft: 1,
            },
            0,
            cy,
            &mut ram,
        );
        cy = b.issue(Instr::BilSt { rt, fs: 1 }, RAM_BASE + 64, cy, &mut ram);
        let _ = b.issue(Instr::BilSt { rt, fs: 2 }, RAM_BASE + 128, cy, &mut ram);
        let mut masked = ones;
        masked[f.k() - 1] &= (1 << (f.m() % 32)) - 1;
        let a = f.from_limbs(&masked);
        assert_eq!(ram.peek_words(RAM_BASE + 64, f.k()), masked);
        assert_eq!(ram.peek_words(RAM_BASE + 128, f.k()), f.mul(&a, &a).limbs());
    }

    #[test]
    fn mul_latency_follows_digit_width() {
        for (d, expect) in [(1usize, 163 + 2), (3, 55 + 2), (4, 41 + 2), (8, 21 + 2)] {
            let b = Billie::with_config(NistBinary::B163, BillieConfig { digit: d });
            assert_eq!(b.mul_latency(), expect as u64, "D={d}");
        }
    }

    #[test]
    fn dependent_ops_serialize_independent_overlap() {
        let mut b = Billie::new(NistBinary::B163);
        let mut ram = Ram::new();
        let f = b.field().clone();
        ram.poke_words(RAM_BASE, &sample(&f, 5));
        let rt = Reg::T0;
        let mut cy = 10;
        cy = b.issue(Instr::BilLd { rt, fs: 1 }, RAM_BASE, cy, &mut ram);
        // A dependent multiply must wait for the load's writeback.
        cy = b.issue(
            Instr::BilMul {
                fd: 2,
                fs: 1,
                ft: 1,
            },
            0,
            cy,
            &mut ram,
        );
        let after_mul = b.mul_free;
        assert!(after_mul >= 10 + b.lsu_latency() + b.mul_latency());
        // An independent add issued now completes long before the multiply.
        let _ = b.issue(
            Instr::BilAdd {
                fd: 5,
                fs: 6,
                ft: 7,
            },
            0,
            cy,
            &mut ram,
        );
        assert!(b.add_free < after_mul);
    }

    #[test]
    fn queue_backpressure() {
        let mut b = Billie::new(NistBinary::B571);
        let mut ram = Ram::new();
        let mut cy = 0;
        let mut stalled = false;
        for _ in 0..10 {
            let next = b.issue(
                Instr::BilMul {
                    fd: 1,
                    fs: 1,
                    ft: 1,
                },
                0,
                cy,
                &mut ram,
            );
            if next > cy + 1 {
                stalled = true;
            }
            cy = next;
        }
        assert!(stalled, "dependent multiply chain must back-pressure");
    }

    #[test]
    fn area_proxy_matches_paper_endpoints() {
        let b163 = Billie::new(NistBinary::B163);
        let b571 = Billie::new(NistBinary::B571);
        assert!((b163.area_vs_pete() - 1.45).abs() < 1e-9);
        assert!((b571.area_vs_pete() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fermat_inversion_through_registers() {
        // Drive the model the way the suite will: square-and-multiply
        // 2^m - 2 and check the functional result against the host.
        let mut b = Billie::new(NistBinary::B163);
        let f = b.field().clone();
        let mut ram = Ram::new();
        let a = sample(&f, 99);
        ram.poke_words(RAM_BASE, &a);
        let rt = Reg::T0;
        let mut cy = 0;
        cy = b.issue(Instr::BilLd { rt, fs: 1 }, RAM_BASE, cy, &mut ram);
        // r (reg2) = a
        cy = b.issue(
            Instr::BilAdd {
                fd: 2,
                fs: 1,
                ft: 15,
            },
            0,
            cy,
            &mut ram,
        ); // reg15 = 0
        for _ in 0..f.m() - 2 {
            cy = b.issue(Instr::BilSqr { fd: 2, ft: 2 }, 0, cy, &mut ram);
            cy = b.issue(
                Instr::BilMul {
                    fd: 2,
                    fs: 2,
                    ft: 1,
                },
                0,
                cy,
                &mut ram,
            );
        }
        cy = b.issue(Instr::BilSqr { fd: 2, ft: 2 }, 0, cy, &mut ram);
        let _ = b.issue(Instr::BilSt { rt, fs: 2 }, RAM_BASE + 256, cy, &mut ram);
        let got = ram.peek_words(RAM_BASE + 256, f.k());
        let expect = f.inv(&f.from_limbs(&a)).unwrap();
        assert_eq!(got, expect.limbs());
        let _ = Mp::zero();
    }
}
