//! Layer probes for traced runs.
//!
//! `System::run_with` times nothing inside itself, so to split a run's
//! host time into host reference, Pete and coprocessor, the probe
//! replays an ECDSA run through the same public entry points core uses:
//! the `curves` calls that derive the inputs and expected results,
//! `MachineBuilder` with Monte/Billie wrapped in a timing
//! `Coprocessor`, and `run_entry`. Its cycles must equal the core
//! report's, which the caller checks.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ule_billie::{Billie, BillieConfig};
use ule_curves::binary::AffinePoint2m;
use ule_curves::ecdsa::{self, Keypair, PublicKey};
use ule_curves::prime::AffinePoint;
use ule_isa::instr::Instr;
use ule_monte::Monte;
use ule_mpmath::mp::Mp;
use ule_pete::cop::{CopStats, Coprocessor};
use ule_pete::cpu::{EngineTier, ExecOptions, Instrumentation, Machine, MachineConfig};
use ule_pete::mem::Ram;
use ule_swlib::builder::Arch;
use ule_swlib::harness::{read_buf, run_entry, write_buf};

use crate::trace::{span, Tracer};
use ule_core::System;

/// Summed `issue` time of a wrapped coprocessor.
#[derive(Clone, Default)]
struct IssueClock(Rc<Cell<Duration>>);

/// Monte or Billie behind a stopwatch on `Coprocessor::issue`.
struct TimedCop {
    inner: Box<dyn Coprocessor>,
    clock: IssueClock,
}

impl Coprocessor for TimedCop {
    fn issue(&mut self, instr: Instr, rt_value: u32, cycle: u64, ram: &mut Ram) -> u64 {
        let t0 = Instant::now();
        let r = self.inner.issue(instr, rt_value, cycle, ram);
        self.clock.0.set(self.clock.0.get() + t0.elapsed());
        r
    }

    fn idle_at(&self) -> u64 {
        self.inner.idle_at()
    }

    fn stats(&self) -> CopStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Host time split of one probed Sign+Verify.
#[derive(Clone, Copy, Default)]
pub struct Probe {
    /// Simulated cycles (Sign + Verify).
    pub cycles: u64,
    /// Input derivation and expected results on the host.
    pub host_ref_s: f64,
    /// Inside `run_entry` (Pete plus coprocessor).
    pub sim_s: f64,
    /// Inside `Coprocessor::issue`.
    pub issue_s: f64,
    /// Simulated outputs equal the host's.
    pub ok: bool,
}

fn limbs_xy(public: &PublicKey, k: usize) -> (Vec<u32>, Vec<u32>) {
    match public {
        PublicKey::Prime(AffinePoint::Point { x, y }) => (x.limbs().to_vec(), y.limbs().to_vec()),
        PublicKey::Binary(AffinePoint2m::Point { x, y }) => {
            (x.limbs().to_vec(), y.limbs().to_vec())
        }
        _ => (vec![0; k], vec![0; k]),
    }
}

fn machine(sys: &System, profile: bool, clock: &IssueClock) -> Machine {
    let cfg = sys.config();
    let mut mc = match cfg.arch {
        Arch::Baseline => MachineConfig::baseline(),
        _ => MachineConfig::isa_ext(),
    };
    mc.icache = cfg.icache;
    let program = &sys.suite().program;
    let mut b = Machine::builder(program, mc);
    let inner: Option<Box<dyn Coprocessor>> = match cfg.arch {
        Arch::Monte => Some(Box::new(Monte::with_config(cfg.monte))),
        Arch::Billie => Some(Box::new(Billie::with_config(
            cfg.curve.nist_binary(),
            BillieConfig {
                digit: cfg.billie_digit,
            },
        ))),
        _ => None,
    };
    if let Some(inner) = inner {
        b = b.coprocessor(Box::new(TimedCop {
            inner,
            clock: clock.clone(),
        }));
    }
    if profile {
        b = b.instrumentation(Instrumentation::profile(&program.text_symbols()));
    }
    b.build()
}

/// Replays Sign then Verify on `sys` with the deterministic inputs core
/// uses, on `tier` (profiled when `profile`).
pub fn sign_verify(sys: &System, tier: EngineTier, profile: bool, tr: Option<&Tracer>) -> Probe {
    let curve = sys.curve();
    let program = &sys.suite().program;
    let k = sys.suite().k;
    let t0 = Instant::now();
    let (keys, e, nonce, sig) = span(tr, "core.host_ref", || {
        let keys = Keypair::derive(curve, b"design-space signer");
        let e = ecdsa::hash_to_scalar(
            curve,
            b"the design space of ultra-low energy asymmetric cryptography",
        );
        let nonce = ecdsa::derive_scalar(curve, b"bench nonce", b"nonce");
        let sig = ecdsa::sign_with_nonce(curve, keys.private(), &e, &nonce);
        (keys, e, nonce, sig)
    });
    let host_ref_s = t0.elapsed().as_secs_f64();
    let mut p = Probe {
        host_ref_s,
        ..Probe::default()
    };
    let Some(sig) = sig else {
        return p;
    };
    let (qx, qy) = limbs_xy(&keys.public(), k);
    let clock = IssueClock::default();
    let opts = ExecOptions::new(u64::MAX / 2).with_tier(tier);
    let mut run = |m: &mut Machine, entry: &str| -> bool {
        let before = clock.0.get();
        let t = Instant::now();
        let ok = span(tr, "pete.run_entry", || {
            let ok = run_entry(m, program, entry, opts).is_ok();
            if let Some(t) = tr {
                t.record_child("cop.issue", clock.0.get() - before);
            }
            ok
        });
        p.sim_s += t.elapsed().as_secs_f64();
        p.cycles += m.cycles();
        ok
    };

    let mut m = machine(sys, profile, &clock);
    write_buf(&mut m, program, "arg_e", &e.to_limbs(k));
    write_buf(&mut m, program, "arg_d", &keys.private().to_limbs(k));
    write_buf(&mut m, program, "arg_k", &nonce.to_limbs(k));
    let signed = run(&mut m, "main_sign")
        && Mp::from_limbs(&read_buf(&m, program, "out_r", k)) == sig.r
        && Mp::from_limbs(&read_buf(&m, program, "out_s", k)) == sig.s;

    let mut m = machine(sys, profile, &clock);
    write_buf(&mut m, program, "arg_e", &e.to_limbs(k));
    write_buf(&mut m, program, "arg_r", &sig.r.to_limbs(k));
    write_buf(&mut m, program, "arg_s", &sig.s.to_limbs(k));
    write_buf(&mut m, program, "arg_qx", &qx);
    write_buf(&mut m, program, "arg_qy", &qy);
    let verified = run(&mut m, "main_verify") && read_buf(&m, program, "out_ok", 1) == [1];

    p.issue_s = clock.0.get().as_secs_f64();
    p.ok = signed && verified;
    p
}

/// Probes every system of `points` (each with the cycles its core
/// report gave) on the fast tier and reports the per-arch simulation
/// speed with host-reference time split out.
pub fn probe_set(points: &[(&System, u64)], tr: Option<&Tracer>, out: &mut crate::common::Outcome) {
    use crate::common::ratio;
    // arch -> (points, cycles, sim_s, host_ref_s, issue_s)
    let mut by_arch: Vec<(Arch, usize, u64, f64, f64, f64)> =
        [Arch::Baseline, Arch::IsaExt, Arch::Monte, Arch::Billie]
            .iter()
            .map(|&a| (a, 0, 0, 0.0, 0.0, 0.0))
            .collect();
    let mut mismatched = Vec::new();
    let mut host_ref = Vec::new();
    for &(sys, expect) in points {
        let p = sign_verify(sys, EngineTier::Fast, false, tr);
        if !p.ok || p.cycles != expect {
            mismatched.push(format!(
                "{} {}: probe {} cycles vs core {expect}",
                sys.config().curve.name(),
                crate::common::arch_key(sys.config().arch),
                p.cycles
            ));
        }
        host_ref.push(p.host_ref_s);
        let row = by_arch
            .iter_mut()
            .find(|r| r.0 == sys.config().arch)
            .expect("every arch has a row");
        row.1 += 1;
        row.2 += p.cycles;
        row.3 += p.sim_s;
        row.4 += p.host_ref_s;
        row.5 += p.issue_s;
    }
    out.check(
        "probe_matches_core",
        mismatched.is_empty(),
        if mismatched.is_empty() {
            format!(
                "{} probed points reproduce core's cycles and outputs",
                points.len()
            )
        } else {
            mismatched.join("; ")
        },
    );
    out.notes.push(
        "per-arch simulation speed, fast tier (sim = inside run_entry, host ref split out):"
            .to_owned(),
    );
    out.notes.push(format!(
        "  {:9} {:>6} {:>10} {:>9} {:>11} {:>9} {:>12} {:>15}",
        "arch", "points", "Mcyc", "sim_s", "host_ref_s", "issue_s", "Mcyc/s(sim)", "Mcyc/s(w/ ref)"
    ));
    for &(arch, n, cycles, sim_s, ref_s, issue_s) in &by_arch {
        let mcyc = cycles as f64 / 1e6;
        out.notes.push(format!(
            "  {:9} {:>6} {:>10.1} {:>9.3} {:>11.3} {:>9.3} {:>12.1} {:>15.1}",
            crate::common::arch_key(arch),
            n,
            mcyc,
            sim_s,
            ref_s,
            issue_s,
            ratio(mcyc, sim_s),
            ratio(mcyc, sim_s + ref_s)
        ));
        out.layer(
            &format!("pete.mcyc_per_s.{}", crate::common::arch_key(arch)),
            ratio(mcyc, sim_s),
            "Mcyc/s",
        );
        match arch {
            Arch::Monte => out.layer("monte.issue_ms", ratio(issue_s * 1e3, n as f64), "ms"),
            Arch::Billie => out.layer("billie.issue_ms", ratio(issue_s * 1e3, n as f64), "ms"),
            _ => {}
        }
    }
    out.layer(
        "core.host_ref_ms",
        crate::common::median(&host_ref) * 1e3,
        "ms",
    );
}
