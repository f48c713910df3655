//! End-to-end explorer tests against the real simulator: a pinned
//! golden frontier for the built-in Billie digit-width space (the
//! paper's Fig 7.14 axis) and byte-identical journal resume.

use std::path::PathBuf;

use ule_core::metrics::design_point_record;
use ule_core::{MultVariant, RunOptions, System, SystemConfig, Workload};
use ule_dse::spaces::builtin;
use ule_dse::{explore, Evaluator, Grid, PointEval};

/// A serial evaluator running the real simulator — the test-side
/// stand-in for `ule-bench`'s `SweepEngine` bridge (which lives above
/// this crate in the dependency graph).
struct SimEval;

impl Evaluator for SimEval {
    fn evaluate(&self, jobs: &[(SystemConfig, Workload)]) -> Vec<PointEval> {
        jobs.iter()
            .map(|&(config, workload)| {
                let report = System::new(config).run_with(RunOptions::new(workload));
                PointEval {
                    record: design_point_record(&config, workload, &report),
                    cycles: report.cycles,
                    energy_uj: report.energy_uj(),
                }
            })
            .collect()
    }
}

/// Golden frontier for `billie-digit` (K-163 scalar mult, digits
/// 1..=16 × three multiplier front-ends). Pinned facts: the frontier
/// is exactly the Karatsuba column, digit 16 is dominated (ceil(163/16)
/// = ceil(163/15) iterations, strictly more area), and the cycle
/// counts are these. A change here is a simulator or energy/area model
/// change — regenerate deliberately.
#[test]
fn billie_digit_grid_frontier_matches_golden() {
    let space = builtin("billie-digit").expect("built-in space");
    let outcome = explore(&SimEval, &space, &mut Grid::new(), 0, None).expect("explore");
    assert_eq!(outcome.lattice_points, 48);
    assert_eq!(outcome.evaluated, 48);
    assert_eq!(outcome.pruned, 0);

    const GOLDEN_CYCLES: [u64; 15] = [
        22377, 23191, 24120, 25068, 26023, 27958, 29941, 31927, 34906, 38878, 43852, 51820, 66514,
        95350, 181895,
    ];
    assert_eq!(outcome.frontier.len(), GOLDEN_CYCLES.len());
    let mut last_energy = 0.0f64;
    for (rank, entry) in outcome.frontier.iter().enumerate() {
        assert_eq!(entry.rank, rank);
        // Rank r is digit 15-r: energy ascends as digits shrink the
        // datapath, cycles descend, area descends — a pure tradeoff.
        assert_eq!(entry.config.billie_digit, 15 - rank);
        assert_eq!(entry.config.mult_variant, MultVariant::Karatsuba);
        assert_eq!(entry.objectives.cycles, GOLDEN_CYCLES[rank]);
        assert!(
            entry.objectives.energy_uj > last_energy,
            "frontier ranks must ascend in energy"
        );
        last_energy = entry.objectives.energy_uj;
    }
}

/// Journal lifecycle on the fast `smoke` space: a fresh run, a rerun
/// over its own complete journal (all points resumed, zero simulated),
/// and a rerun over a truncated journal (partial resume) must all
/// leave byte-identical files.
#[test]
fn journal_resume_is_byte_identical() {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "ule-dse-resume-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let space = builtin("smoke").expect("built-in space");

    let fresh = explore(&SimEval, &space, &mut Grid::new(), 7, Some(&path)).expect("fresh run");
    assert_eq!(fresh.resumed, 0);
    assert_eq!(fresh.simulated, fresh.evaluated);
    let bytes = std::fs::read(&path).expect("journal written");

    let full = explore(&SimEval, &space, &mut Grid::new(), 7, Some(&path)).expect("full resume");
    assert_eq!(
        full.resumed, fresh.evaluated,
        "complete journal resumes all"
    );
    assert_eq!(full.simulated, 0, "nothing re-simulated");
    assert_eq!(std::fs::read(&path).expect("journal"), bytes);

    // Keep only the first four design points — as if the first run was
    // killed mid-batch — and explore again into the same file.
    let text = String::from_utf8(bytes.clone()).expect("utf8");
    let partial: String = text
        .lines()
        .filter(|l| l.contains("\"record\":\"design_point\""))
        .take(4)
        .flat_map(|l| [l, "\n"])
        .collect();
    std::fs::write(&path, partial).expect("truncate");
    let resumed = explore(&SimEval, &space, &mut Grid::new(), 7, Some(&path)).expect("resume");
    assert_eq!(resumed.resumed, 4);
    assert_eq!(resumed.simulated, fresh.evaluated - 4);
    assert_eq!(std::fs::read(&path).expect("journal"), bytes);
    assert_eq!(resumed.frontier.len(), fresh.frontier.len());

    let stats = ule_dse::journal::read_journal(&String::from_utf8(bytes).unwrap())
        .expect("valid")
        .stats;
    assert_eq!(stats.design_points, fresh.evaluated);
    assert_eq!(stats.frontier_points, fresh.frontier.len());
    assert_eq!(stats.summaries, 1);
    let _ = std::fs::remove_file(&path);
}
