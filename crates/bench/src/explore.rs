//! Bridges `ule-dse`'s [`Evaluator`] seam onto the [`SweepEngine`]:
//! batches from the explorer fan out across the engine's worker
//! threads and hit its memo cache, so lattice points that share a sim
//! point (or the `--report` reference configs) never re-simulate.
//! Results come back in submission order, which keeps the explorer's
//! journal deterministic.

use crate::sweep::SweepEngine;
use ule_core::metrics::design_point_record;
use ule_core::{SystemConfig, Workload};
use ule_dse::{Evaluator, PointEval};

impl Evaluator for SweepEngine {
    fn evaluate(&self, jobs: &[(SystemConfig, Workload)]) -> Vec<PointEval> {
        let reports = self.run_batch(jobs);
        jobs.iter()
            .zip(&reports)
            .map(|(&(config, workload), report)| PointEval {
                record: design_point_record(&config, workload, report),
                cycles: report.cycles,
                energy_uj: report.energy_uj(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_curves::params::CurveId;
    use ule_swlib::builder::Arch;

    #[test]
    fn engine_evaluates_in_submission_order_with_memoization() {
        let engine = SweepEngine::new().with_threads(2);
        let a = (
            SystemConfig::new(CurveId::P192, Arch::Baseline),
            Workload::FieldMul,
        );
        let b = (
            SystemConfig::new(CurveId::P192, Arch::IsaExt),
            Workload::FieldMul,
        );
        let evals = engine.evaluate(&[a, b, a]);
        assert_eq!(evals.len(), 3);
        assert_eq!(evals[0].cycles, evals[2].cycles);
        assert_ne!(evals[0].cycles, evals[1].cycles);
        // The duplicate came from the memo cache, not a third run.
        assert_eq!(engine.simulations(), 2);
        // The record really is a design_point line for the right config.
        assert_eq!(
            evals[1].record.get("arch"),
            Some(&ule_obs::Value::Str("isa_ext".into()))
        );
    }

    #[test]
    fn billie_digit_grid_simulates_each_sim_point_once() {
        // 16 digits × 3 multiplier variants: every lattice point gets a
        // record, but the variants only reprice, so 16 simulations — and
        // the frontier records equal the pinned golden lines.
        let path = std::env::temp_dir().join(format!(
            "ule-bench-billie-digit-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let engine = SweepEngine::new().with_threads(1);
        let space = ule_dse::spaces::builtin("billie-digit").unwrap();
        let outcome = ule_dse::explore(&engine, &space, &mut ule_dse::Grid::new(), 0, Some(&path))
            .expect("explore");
        assert_eq!(outcome.evaluated, 48);
        assert_eq!(engine.simulations(), 16);
        let journal = std::fs::read_to_string(&path).expect("journal");
        let _ = std::fs::remove_file(&path);
        let frontier: Vec<&str> = journal
            .lines()
            .filter(|l| l.contains("\"record\":\"frontier\""))
            .collect();
        let golden: Vec<&str> = include_str!("../tests/golden/billie_digit_frontier.jsonl")
            .lines()
            .collect();
        assert_eq!(frontier, golden);
    }
}
