//! Engine-tier A/B differential test: the fast engine (translation
//! cache + fused superinstructions) must produce reports that are
//! bit-identical to the instrumented reference interpreter — same
//! cycles, same `Counters`, same `RawStats`, same energy — on real
//! workloads across the architecture classes.
//!
//! The default test covers sign+verify on the two cheap ECDSA curves
//! (one prime, one binary) on all four architecture classes, plus the
//! X25519 ladder (`Xdh`, and `Handshake` with its companion-curve
//! ECDSA) on baseline and Monte. The `#[ignore]`d exhaustive variant
//! sweeps all ten ECDSA curves and both RFC 7748 ladder curves
//! (minutes of wall-clock — run with
//! `cargo test -p ule-core --test tier_ab -- --ignored`).

use ule_core::{RunOptions, System, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_pete::cpu::EngineTier;
use ule_swlib::builder::Arch;

/// The architecture matrix for one curve: software archs plus the
/// family coprocessor, with and without an instruction cache.
fn configs_for(id: CurveId) -> Vec<SystemConfig> {
    let cop = if id.is_binary() {
        Arch::Billie
    } else {
        Arch::Monte
    };
    vec![
        SystemConfig::new(id, Arch::Baseline),
        SystemConfig::new(id, Arch::IsaExt),
        SystemConfig::new(id, Arch::IsaExt)
            .with_icache(ule_pete::icache::CacheConfig::real(4096, true)),
        SystemConfig::new(id, cop),
    ]
}

fn assert_tiers_identical(cfg: SystemConfig, workload: Workload) {
    let sys = System::new(cfg);
    let fast = sys.run_with(RunOptions::new(workload).with_tier(EngineTier::Fast));
    let reference = sys.run_with(RunOptions::new(workload).with_tier(EngineTier::Reference));
    let ctx = format!("{} {:?} {}", cfg.curve.name(), cfg.arch, workload.name());
    assert_eq!(fast.cycles, reference.cycles, "cycles diverge: {ctx}");
    assert_eq!(fast.counters, reference.counters, "counters diverge: {ctx}");
    assert_eq!(fast.raw, reference.raw, "raw stats diverge: {ctx}");
    assert_eq!(
        fast.activity, reference.activity,
        "activity diverges: {ctx}"
    );
    assert_eq!(fast.energy, reference.energy, "energy diverges: {ctx}");
}

#[test]
fn fast_and_reference_tiers_agree_on_cheap_curves() {
    for id in [CurveId::P192, CurveId::K163] {
        for cfg in configs_for(id) {
            assert_tiers_identical(cfg, Workload::SignVerify);
        }
    }
    for arch in [Arch::Baseline, Arch::Monte] {
        for workload in [Workload::Xdh, Workload::Handshake] {
            assert_tiers_identical(SystemConfig::new(CurveId::X25519, arch), workload);
        }
    }
}

/// A profiled reference run and an unprofiled fast run must also agree
/// on every reported number — profiling is purely observational.
#[test]
fn profiled_reference_equals_unprofiled_fast() {
    let cfg = SystemConfig::new(CurveId::P192, Arch::IsaExt);
    let sys = System::new(cfg);
    let fast = sys.run_with(RunOptions::new(Workload::Sign).with_tier(EngineTier::Fast));
    let profiled = sys.run_with(RunOptions::new(Workload::Sign).profiled());
    assert!(fast.profile.is_none());
    assert!(profiled.profile.is_some());
    assert_eq!(fast.cycles, profiled.cycles);
    assert_eq!(fast.counters, profiled.counters);
    assert_eq!(fast.raw, profiled.raw);
    assert_eq!(fast.energy, profiled.energy);
}

#[test]
#[ignore = "exhaustive twelve-curve sweep; minutes of wall-clock"]
fn fast_and_reference_tiers_agree_on_all_curves() {
    for id in CurveId::ALL {
        for cfg in configs_for(id) {
            assert_tiers_identical(cfg, Workload::SignVerify);
        }
    }
    for id in CurveId::XCURVES {
        for cfg in configs_for(id) {
            for workload in [Workload::Xdh, Workload::Handshake] {
                assert_tiers_identical(cfg, workload);
            }
        }
    }
}
