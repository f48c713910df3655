//! `repro check --journal` and `repro explore --report` read journal
//! identities through the same codec: a journal line naming an
//! impossible design point is a typed error on both paths, never a
//! panic inside a sweep thread.

use std::path::PathBuf;
use std::process::{Command, Output};

use ule_core::metrics::push_identity;
use ule_core::{SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_dse::journal::{dse_summary_record, frontier_record};
use ule_dse::{ExploreOutcome, FrontierEntry, Objectives};
use ule_obs::record::Record;
use ule_swlib::builder::Arch;

/// A one-point `billie-digit`-style journal: design point, frontier
/// record, summary.
fn journal() -> String {
    let config = SystemConfig::new(CurveId::K163, Arch::Billie).with_billie_digit(4);
    let workload = Workload::ScalarMul;
    let objectives = Objectives {
        cycles: 12345,
        energy_uj: 6.5,
        area_kge: 210.25,
    };
    let mut design = Record::new("design_point");
    push_identity(&mut design, &config, workload);
    design.push("cycles", objectives.cycles);
    design.push("energy_uj", objectives.energy_uj);
    let outcome = ExploreOutcome {
        space: "billie-digit".into(),
        workload,
        strategy: "grid".into(),
        seed: 0,
        lattice_points: 1,
        pruned: 0,
        evaluated: 1,
        resumed: 0,
        simulated: 0,
        frontier: vec![FrontierEntry {
            rank: 0,
            config,
            objectives,
        }],
    };
    let frontier = frontier_record(&outcome.space, workload, &outcome.frontier[0]);
    let summary = dse_summary_record(&outcome);
    format!(
        "{}\n{}\n{}\n",
        design.to_json(),
        frontier.to_json(),
        summary.to_json()
    )
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn write(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn p192_on_billie_is_a_typed_error_for_check_and_report() {
    let good = journal();
    let good_path = write("journal_report_good.jsonl", &good);
    let out = repro(&["check", "--journal", good_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let bad = good.replace(r#""curve":"K-163""#, r#""curve":"P-192""#);
    assert_ne!(bad, good);
    let path = write("journal_report_p192_billie.jsonl", &bad);
    let path = path.to_str().unwrap();

    let out = repro(&["check", "--journal", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(r#"line 1 (design_point): identity key "arch""#),
        "{stderr}"
    );

    let out = repro(&["explore", "--out", path, "--report"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(r#"line 1 (design_point): identity key "arch""#),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
