//! The explorer: lattice enumeration → (resumable) [`Grid`] evaluation
//! → incremental Pareto frontier → canonical journal.

use crate::journal::{self, parse_design_points};
use crate::pareto::{Objectives, ParetoFront};
use crate::Evaluator;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use ule_core::metrics::config_identity;
use ule_core::space::{area_kge, SpaceError, SpaceSpec};
use ule_core::{SystemConfig, Workload};

/// Why an exploration could not run to completion.
#[derive(Debug)]
pub enum ExploreError {
    /// The space itself is invalid.
    Space(SpaceError),
    /// Journal I/O failed.
    Io(std::io::Error),
    /// The evaluator broke its contract (wrong result count).
    Evaluator(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Space(e) => write!(f, "invalid space: {e}"),
            ExploreError::Io(e) => write!(f, "journal I/O: {e}"),
            ExploreError::Evaluator(e) => write!(f, "evaluator: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<SpaceError> for ExploreError {
    fn from(e: SpaceError) -> Self {
        ExploreError::Space(e)
    }
}

impl From<std::io::Error> for ExploreError {
    fn from(e: std::io::Error) -> Self {
        ExploreError::Io(e)
    }
}

/// Exhaustive evaluation in canonical lattice order, in fixed-size
/// batches (the batch size only shapes journal flush granularity —
/// results are order-independent).
///
/// Every lattice point gets a journal record. Points that differ only
/// in energy-only knobs share a sim point (`ule_core::space::sim_point`),
/// so a memoizing evaluator simulates each sim point once and reprices
/// it for the rest.
pub struct Grid {
    cursor: usize,
}

/// Points per [`Grid`] batch: small enough that an interrupted run
/// resumes most finished work, large enough to keep the parallel
/// engine's threads fed.
pub const GRID_BATCH: usize = 32;

impl Grid {
    /// A fresh grid sweep.
    pub fn new() -> Self {
        Grid { cursor: 0 }
    }

    /// The next lattice indices still without objectives; empty once
    /// the cursor has passed the whole lattice.
    fn next_batch(&mut self, evaluated: &[Option<Objectives>]) -> Vec<usize> {
        let mut batch = Vec::new();
        while self.cursor < evaluated.len() && batch.len() < GRID_BATCH {
            if evaluated[self.cursor].is_none() {
                batch.push(self.cursor);
            }
            self.cursor += 1;
        }
        batch
    }
}

impl Default for Grid {
    fn default() -> Self {
        Self::new()
    }
}

/// One frontier point of a finished exploration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrontierEntry {
    /// Presentation rank: energy ascending, ties by lattice index.
    pub rank: usize,
    /// The configuration.
    pub config: SystemConfig,
    /// Its objectives.
    pub objectives: Objectives,
}

/// A finished exploration.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Space name.
    pub space: String,
    /// Workload every point ran.
    pub workload: Workload,
    /// Campaign seed, recorded in the journal.
    pub seed: u64,
    /// Size of the canonical lattice.
    pub lattice_points: usize,
    /// Points with results in the journal (resumed + evaluated now).
    pub evaluated: usize,
    /// Points recovered from the journal instead of re-evaluated.
    pub resumed: usize,
    /// Points evaluated this run. A memoizing evaluator may answer
    /// several of them from one simulation.
    pub simulated: usize,
    /// The Pareto frontier, rank order.
    pub frontier: Vec<FrontierEntry>,
}

/// Runs one exploration. `out` is the journal path: design points are
/// appended as they finish (so a killed run loses at most the
/// in-flight batch), matching points from an existing journal are
/// resumed without re-evaluation, and on completion the file is
/// rewritten in canonical order — byte-identical across runs, resumes,
/// and thread counts.
pub fn explore(
    evaluator: &dyn Evaluator,
    space: &SpaceSpec,
    grid: &mut Grid,
    seed: u64,
    out: Option<&Path>,
) -> Result<ExploreOutcome, ExploreError> {
    let lattice = space.enumerate()?;
    let identities: Vec<String> = lattice
        .iter()
        .map(|c| config_identity(c, space.workload))
        .collect();
    let mut objectives: Vec<Option<Objectives>> = vec![None; lattice.len()];
    let mut lines: Vec<Option<String>> = vec![None; lattice.len()];
    let mut frontier = ParetoFront::new();
    let mut resumed = 0usize;

    if let Some(path) = out {
        if path.exists() {
            let (recovered, _skipped) = parse_design_points(&fs::read_to_string(path)?);
            for (i, identity) in identities.iter().enumerate() {
                if let Some(p) = recovered.get(identity) {
                    let obj = Objectives {
                        cycles: p.cycles,
                        energy_uj: p.energy_uj,
                        area_kge: area_kge(&lattice[i]),
                    };
                    objectives[i] = Some(obj);
                    lines[i] = Some(p.line.clone());
                    frontier.insert(i, obj);
                    resumed += 1;
                }
            }
        }
    }

    let mut appender = match out {
        Some(path) => Some(OpenOptions::new().create(true).append(true).open(path)?),
        None => None,
    };
    let mut simulated = 0usize;
    loop {
        let batch = grid.next_batch(&objectives);
        if batch.is_empty() {
            break;
        }
        let jobs: Vec<(SystemConfig, Workload)> = batch
            .iter()
            .map(|&i| (lattice[i], space.workload))
            .collect();
        let evals = evaluator.evaluate(&jobs);
        if evals.len() != jobs.len() {
            return Err(ExploreError::Evaluator(format!(
                "returned {} results for {} jobs",
                evals.len(),
                jobs.len()
            )));
        }
        for (&i, ev) in batch.iter().zip(&evals) {
            let obj = Objectives {
                cycles: ev.cycles,
                energy_uj: ev.energy_uj,
                area_kge: area_kge(&lattice[i]),
            };
            let line = ev.record.to_json();
            if let Some(f) = appender.as_mut() {
                writeln!(f, "{line}")?;
            }
            objectives[i] = Some(obj);
            lines[i] = Some(line);
            frontier.insert(i, obj);
            simulated += 1;
        }
        if let Some(f) = appender.as_mut() {
            f.flush()?;
        }
    }
    drop(appender);

    let frontier = rank_frontier(&frontier);
    let evaluated = lines.iter().filter(|l| l.is_some()).count();
    let outcome = ExploreOutcome {
        space: space.name.clone(),
        workload: space.workload,
        seed,
        lattice_points: lattice.len(),
        evaluated,
        resumed,
        simulated,
        frontier: frontier
            .iter()
            .enumerate()
            .map(|(rank, &(index, objectives))| FrontierEntry {
                rank,
                config: lattice[index],
                objectives,
            })
            .collect(),
    };

    if let Some(path) = out {
        let frontier = outcome
            .frontier
            .iter()
            .map(|e| journal::frontier_record(&outcome.space, outcome.workload, e));
        let records = frontier.chain([journal::dse_summary_record(&outcome)]);
        let text: String = lines
            .into_iter()
            .flatten()
            .chain(records.map(|r| r.to_json()))
            .map(|line| line + "\n")
            .collect();
        fs::write(path, text)?;
    }
    Ok(outcome)
}

/// Presentation order of the frontier: energy ascending, ties by
/// lattice index — deterministic, like everything else in the journal.
fn rank_frontier(front: &ParetoFront) -> Vec<(usize, Objectives)> {
    let mut v: Vec<(usize, Objectives)> = front
        .points()
        .iter()
        .map(|p| (p.id, p.objectives))
        .collect();
    v.sort_by(|a, b| {
        a.1.energy_uj
            .partial_cmp(&b.1.energy_uj)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    v
}

/// A compact human label for a configuration: curve + arch plus every
/// knob that departs from the defaults of `SystemConfig::new`, so
/// distinct points get distinct labels (Billie points always name
/// their digit).
pub fn label(config: &SystemConfig) -> String {
    use ule_core::metrics::{arch_key, gating_key, mult_variant_key};
    use ule_swlib::builder::Arch;
    let default = SystemConfig::new(config.curve, config.arch);
    let mut s = format!("{} {}", config.curve.name(), arch_key(config.arch));
    if let Some(c) = config.icache {
        s.push_str(&format!(
            " i${}{}",
            if c.size_bytes % 1024 == 0 {
                format!("{}K", c.size_bytes / 1024)
            } else {
                format!("{}B", c.size_bytes)
            },
            if c.ideal {
                "-ideal"
            } else if c.prefetch {
                "+pf"
            } else {
                ""
            },
        ));
        if c.miss_penalty != ule_pete::icache::DEFAULT_MISS_PENALTY {
            s.push_str(&format!(" mp{}", c.miss_penalty));
        }
    }
    let d = config.monte;
    if !d.double_buffer {
        s.push_str(" -dbuf");
    }
    if !d.forwarding {
        s.push_str(" -fwd");
    }
    if d.queue_depth != default.monte.queue_depth {
        s.push_str(&format!(" q{}", d.queue_depth));
    }
    if config.arch == Arch::Billie || config.billie_digit != default.billie_digit {
        s.push_str(&format!(" d{}", config.billie_digit));
    }
    if config.billie_sram_rf {
        s.push_str(" sram-rf");
    }
    if config.mult_variant != default.mult_variant {
        s.push_str(&format!(" {}", mult_variant_key(config.mult_variant)));
    }
    if config.gating != default.gating {
        s.push_str(&format!(" {}-gated", gating_key(config.gating)));
    }
    s
}

/// Renders the frontier table of a finished exploration, with each
/// point's deltas against the paper's fixed configuration for the same
/// curve and architecture (`SystemConfig::new(curve, arch)` — digit 3,
/// default front end, no gating, flip-flop register file). The
/// reference points are evaluated through the same engine (memoized,
/// so repeated references cost one simulation).
pub fn render_report(
    evaluator: &dyn Evaluator,
    outcome: &ExploreOutcome,
) -> Result<String, ExploreError> {
    use std::fmt::Write as _;
    let refs: Vec<(SystemConfig, Workload)> = outcome
        .frontier
        .iter()
        .map(|e| {
            (
                ule_core::space::canonicalize(SystemConfig::new(e.config.curve, e.config.arch)),
                outcome.workload,
            )
        })
        .collect();
    let ref_evals = evaluator.evaluate(&refs);
    if ref_evals.len() != refs.len() {
        return Err(ExploreError::Evaluator(format!(
            "returned {} results for {} reference jobs",
            ref_evals.len(),
            refs.len()
        )));
    }
    let mut t = String::new();
    let _ = writeln!(
        t,
        "frontier of space {:?} ({} points / {} evaluated / {} lattice):",
        outcome.space,
        outcome.frontier.len(),
        outcome.evaluated,
        outcome.lattice_points,
    );
    let _ = writeln!(
        t,
        "{:>4}  {:<32} {:>12} {:>12} {:>10} {:>18}",
        "rank", "config", "cycles", "energy_uj", "area_kge", "vs paper cfg E/cyc"
    );
    for (e, r) in outcome.frontier.iter().zip(&ref_evals) {
        let de = 100.0 * (e.objectives.energy_uj - r.energy_uj) / r.energy_uj;
        let dc = 100.0 * (e.objectives.cycles as f64 - r.cycles as f64) / r.cycles as f64;
        let _ = writeln!(
            t,
            "{:>4}  {:<32} {:>12} {:>12.4} {:>10.2} {:>+8.1}% {:>+8.1}%",
            e.rank,
            label(&e.config),
            e.objectives.cycles,
            e.objectives.energy_uj,
            e.objectives.area_kge,
            de,
            dc,
        );
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_unevaluated_point_in_order() {
        let obj = Objectives {
            cycles: 1,
            energy_uj: 1.0,
            area_kge: 1.0,
        };
        let mut evaluated = vec![None; GRID_BATCH + 9];
        evaluated[1] = Some(obj);
        let mut grid = Grid::new();
        let first = grid.next_batch(&evaluated);
        assert_eq!(first.len(), GRID_BATCH);
        assert_eq!(first[..2], [0, 2], "resumed points are skipped");
        let second = grid.next_batch(&evaluated);
        assert_eq!(second, (GRID_BATCH + 1..GRID_BATCH + 9).collect::<Vec<_>>());
        assert!(grid.next_batch(&evaluated).is_empty());
    }
}
