//! Golden digests of exact per-routine profiles.
//!
//! Every valid architecture class × the twelve curves (Sign+Verify on
//! the ECDSA curves, Handshake on X25519/X448) runs with the exact
//! profiler, and the full `RoutineProfile` — every bucket and every
//! call-tree node, with all their counters — is hashed and compared
//! with a committed digest. Any change to how cycles, instructions or
//! activity are billed to routines or call paths shows up here as a
//! digest mismatch, even where totals still conserve.
//!
//! The cheap points (P-192, K-163, X25519) run in every build; the
//! large curves are `#[ignore]`d in debug builds. Regenerate with
//! `ULE_UPDATE_GOLDEN=1 cargo test --release -p ule-core --test
//! profile_golden -- --include-ignored`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ule_core::{RunOptions, System, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_curves::sha256::Sha256;
use ule_swlib::builder::Arch;

/// Every architecture class valid for `curve`.
fn archs(curve: CurveId) -> Vec<Arch> {
    let cop = if curve.is_binary() {
        Arch::Billie
    } else {
        Arch::Monte
    };
    vec![Arch::Baseline, Arch::IsaExt, cop]
}

fn workload(curve: CurveId) -> Workload {
    if CurveId::XCURVES.contains(&curve) {
        Workload::Handshake
    } else {
        Workload::SignVerify
    }
}

/// SHA-256 over the `Debug` rendering of every bucket and every
/// call-tree node, one line each (which names every counter of every
/// activity slice). Fed line by line: one multi-megabyte `update`
/// would make the hasher's buffer shuffling quadratic.
fn digest(curve: CurveId, arch: Arch) -> String {
    let sys = System::new(SystemConfig::new(curve, arch));
    let report = sys.run_with(RunOptions::new(workload(curve)).profiled());
    let profile = report.profile.expect("profiled run sets profile");
    assert_eq!(profile.total_cycles(), report.cycles);
    let mut h = Sha256::new();
    for r in &profile.routines {
        h.update(format!("{r:?}\n").as_bytes());
    }
    for n in &profile.calls.nodes {
        h.update(format!("{n:?}\n").as_bytes());
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// Computes the digests of `curves` × their archs and compares them
/// with (or, under `ULE_UPDATE_GOLDEN`, writes) `tests/golden/{file}`.
fn check(curves: &[CurveId], file: &str) {
    let mut got = BTreeMap::new();
    for &curve in curves {
        for arch in archs(curve) {
            let key = format!("{} {arch:?} {}", curve.name(), workload(curve).name());
            got.insert(key, digest(curve, arch));
        }
    }
    let rendered: String = got.iter().map(|(k, d)| format!("{k} {d}\n")).collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("ULE_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with ULE_UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    for (line_want, line_got) in want.lines().zip(rendered.lines()) {
        assert_eq!(line_got, line_want, "profile digest drifted");
    }
    assert_eq!(rendered, want, "profile digest set drifted");
}

#[test]
fn exact_profiles_match_golden_on_cheap_curves() {
    check(
        &[CurveId::P192, CurveId::K163, CurveId::X25519],
        "profile_digests_cheap.txt",
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large curves; run with --release")]
fn exact_profiles_match_golden_on_large_curves() {
    check(
        &[
            CurveId::P224,
            CurveId::P256,
            CurveId::P384,
            CurveId::P521,
            CurveId::K233,
            CurveId::K283,
            CurveId::K409,
            CurveId::K571,
            CurveId::X448,
        ],
        "profile_digests_large.txt",
    );
}
