//! Simulation/pricing split differential test: the energy-only knobs
//! (gating, §7.8 multiplier variant, SRAM register file) never change
//! what is simulated, so pricing one simulation of a configuration's
//! [`sim_point`] for the configuration must equal simulating the
//! configuration itself — the whole `RunReport`, bit for bit.
//!
//! Covers every architecture class (baseline, ISA extensions with and
//! without an instruction cache, Monte, Billie) on every canonical
//! overlay, plus an X25519 handshake on Monte, whose companion ECDSA
//! signature runs on a second curve.

use ule_core::space::{canonicalize, sim_point};
use ule_core::{MultVariant, RunOptions, RunReport, System, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_energy::report::Gating;
use ule_pete::icache::CacheConfig;
use ule_swlib::builder::Arch;

/// Every distinct canonical overlay of `base`: 3 gatings × 3 multiplier
/// variants × 2 register files, collapsed by `canonicalize`.
fn overlays(base: SystemConfig) -> Vec<SystemConfig> {
    let mut out = Vec::new();
    for gating in [Gating::None, Gating::Clock, Gating::Power] {
        for variant in [
            MultVariant::Karatsuba,
            MultVariant::OperandScan,
            MultVariant::Parallel,
        ] {
            for sram in [false, true] {
                let cfg = canonicalize(
                    base.with_gating(gating)
                        .with_mult_variant(variant)
                        .with_billie_sram_rf(sram),
                );
                if !out.contains(&cfg) {
                    out.push(cfg);
                }
            }
        }
    }
    out
}

fn run(cfg: SystemConfig, workload: Workload) -> RunReport {
    System::new(cfg).run_with(RunOptions::new(workload))
}

/// Checks every overlay of `base` against one repriced simulation and
/// returns how many overlays were checked.
fn assert_repricing_matches(base: SystemConfig, workload: Workload) -> usize {
    let simulated = run(sim_point(base), workload);
    let overlays = overlays(base);
    for &cfg in &overlays {
        assert_eq!(sim_point(cfg), sim_point(base));
        let fresh = run(cfg, workload);
        let repriced = simulated.priced_for(&cfg);
        let ctx = format!("{cfg:?} {}", workload.name());
        assert_eq!(
            fresh.energy.total_uj().to_bits(),
            repriced.energy.total_uj().to_bits(),
            "energy bits differ: {ctx}"
        );
        assert_eq!(fresh, repriced, "report differs: {ctx}");
    }
    overlays.len()
}

#[test]
fn software_archs_reprice_bit_identically() {
    for curve in [CurveId::P192, CurveId::K163] {
        for base in [
            SystemConfig::new(curve, Arch::Baseline),
            SystemConfig::new(curve, Arch::IsaExt),
            SystemConfig::new(curve, Arch::IsaExt).with_icache(CacheConfig::best()),
        ] {
            for workload in [Workload::FieldMul, Workload::ScalarMul] {
                // Only the multiplier variant survives canonicalization.
                assert_eq!(assert_repricing_matches(base, workload), 3);
            }
        }
    }
}

#[test]
fn monte_reprices_bit_identically() {
    let base = SystemConfig::new(CurveId::P192, Arch::Monte);
    for workload in [Workload::FieldMul, Workload::ScalarMul] {
        // Gating × variant; the SRAM register file is Billie's.
        assert_eq!(assert_repricing_matches(base, workload), 9);
    }
}

#[test]
fn billie_reprices_bit_identically() {
    let base = SystemConfig::new(CurveId::K163, Arch::Billie);
    for workload in [Workload::FieldMul, Workload::ScalarMul] {
        assert_eq!(assert_repricing_matches(base, workload), 18);
    }
}

#[test]
fn monte_handshake_with_companion_curve_reprices_bit_identically() {
    let base = SystemConfig::new(CurveId::X25519, Arch::Monte);
    assert_eq!(assert_repricing_matches(base, Workload::Handshake), 9);
}

#[test]
fn sim_point_resets_only_the_energy_only_knobs() {
    let cfg = SystemConfig::new(CurveId::K163, Arch::Billie)
        .with_billie_digit(5)
        .with_icache(CacheConfig::best())
        .with_gating(Gating::Power)
        .with_mult_variant(MultVariant::Parallel)
        .with_billie_sram_rf(true);
    assert_eq!(
        sim_point(cfg),
        SystemConfig::new(CurveId::K163, Arch::Billie)
            .with_billie_digit(5)
            .with_icache(CacheConfig::best())
    );
    assert_eq!(sim_point(sim_point(cfg)), sim_point(cfg));
}
