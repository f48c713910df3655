//! `ule-dse` — automated design-space exploration with Pareto-frontier
//! extraction.
//!
//! The paper walks its design space by hand: one chapter per axis
//! (instruction caches §7.5, Monte front ends §7.7, Billie digit widths
//! Fig 7.14, multiplier variants §7.8), each swept around a fixed
//! reference configuration. This crate closes the loop and explores the
//! space *automatically*:
//!
//! * [`ule_core::space::SpaceSpec`] declares a parameter lattice over
//!   every `SystemConfig` knob, with per-architecture validity rules;
//! * a [`Grid`] walks every lattice point in canonical order;
//! * evaluation goes through an [`Evaluator`] (in production,
//!   `ule-bench`'s memoizing parallel `SweepEngine`, which simulates
//!   each distinct `ule_core::space::sim_point` once and reprices it
//!   for the energy-only knobs — 16 simulations for the 48 points of
//!   `billie-digit`);
//! * [`pareto::ParetoFront`] maintains the energy × cycles × area
//!   frontier incrementally, with lattice-index tie-breaking that makes
//!   it a pure function of the evaluated set;
//! * [`explore::explore`] orchestrates the run and persists a
//!   resumable, byte-stable JSONL [`journal`].
//!
//! Everything is deterministic: same space, same seed, same journal
//! bytes — regardless of thread count or how many times the run was
//! killed and resumed. The `repro explore` subcommand is the
//! CLI surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod journal;
pub mod pareto;
pub mod spaces;

use ule_core::{SystemConfig, Workload};
use ule_obs::record::Record;

/// One evaluated design point, as the explorer consumes it.
#[derive(Clone, Debug)]
pub struct PointEval {
    /// The full `design_point` metrics record (one journal line).
    pub record: Record,
    /// Simulated cycles (one copy of the headline objective, so the
    /// explorer does not re-parse its own record).
    pub cycles: u64,
    /// Total energy, µJ.
    pub energy_uj: f64,
}

/// Something that can simulate design points — the seam between this
/// crate and the simulation engine. `ule-bench` implements it for its
/// `SweepEngine`; tests implement it with synthetic results.
pub trait Evaluator {
    /// Evaluates each job, returning results in input order (one per
    /// job). Implementations are expected to be deterministic: the
    /// journal's byte-stability guarantee is only as good as theirs.
    fn evaluate(&self, jobs: &[(SystemConfig, Workload)]) -> Vec<PointEval>;
}

pub use explore::{explore, ExploreError, ExploreOutcome, FrontierEntry, Grid};
pub use pareto::{dominates, Objectives, ParetoFront};
