//! `accel_dse`: a grid `explore` over the benchmark's own space of
//! Monte and Billie design points, through a timing `Evaluator` that
//! drives `SweepEngine::run` one point at a time.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use ule_bench::SweepEngine;
use ule_core::metrics::{config_identity, design_point_record};
use ule_core::space::SpaceSpec;
use ule_core::{RunReport, System, SystemConfig, Workload};
use ule_dse::{explore, Evaluator, ExploreOutcome, Grid, PointEval};
use ule_obs::record::Record;

use crate::calib::{self, Metered};
use crate::common::*;
use crate::trace::{span, Tracer};

const SPACE: &str = include_str!("../data/accel_dse_space.json");
const GOLDEN_FRONTIER: &str = include_str!("../data/accel_dse_frontier.tsv");

/// Times each point's first (and only) evaluation; evaluates a batch
/// in seeded order and answers in input order.
struct TimedEval<'a> {
    engine: SweepEngine,
    seed: u64,
    tr: Option<&'a Tracer>,
    /// Point identity, host ms and calibration mark of each evaluation.
    point_ms: RefCell<Vec<(String, f64, usize)>>,
    failed: Cell<u64>,
    reports: RefCell<HashMap<SystemConfig, Arc<RunReport>>>,
}

impl Evaluator for TimedEval<'_> {
    fn evaluate(&self, jobs: &[(SystemConfig, Workload)]) -> Vec<PointEval> {
        let mut evals: Vec<Option<PointEval>> = vec![None; jobs.len()];
        for i in permutation(jobs.len(), self.seed) {
            calib::tick();
            let mark = calib::mark();
            let (config, workload) = jobs[i];
            let t0 = Instant::now();
            let eval = span(self.tr, "dse.evaluate", || {
                let r = span(self.tr, "bench.run", || {
                    catch_unwind(AssertUnwindSafe(|| self.engine.run(config, workload)))
                });
                match r {
                    Ok(report) => {
                        let eval = PointEval {
                            record: design_point_record(&config, workload, &report),
                            cycles: report.cycles,
                            energy_uj: report.energy_uj(),
                        };
                        self.reports.borrow_mut().insert(config, report);
                        eval
                    }
                    Err(_) => {
                        // A failed point can never match the golden frontier.
                        self.failed.set(self.failed.get() + 1);
                        PointEval {
                            record: Record::new("design_point"),
                            cycles: u64::MAX,
                            energy_uj: f64::INFINITY,
                        }
                    }
                }
            });
            self.point_ms.borrow_mut().push((
                config_identity(&config, workload),
                secs(t0) * 1e3,
                mark,
            ));
            evals[i] = Some(eval);
        }
        evals
            .into_iter()
            .map(|e| e.expect("every job evaluated"))
            .collect()
    }
}

struct Pass<'a> {
    wall: Metered,
    eval: TimedEval<'a>,
    outcome: Option<ExploreOutcome>,
}

fn pass<'a>(space: &SpaceSpec, seed: u64, tr: Option<&'a Tracer>) -> Pass<'a> {
    let eval = TimedEval {
        engine: SweepEngine::new().with_threads(1),
        seed,
        tr,
        point_ms: RefCell::new(Vec::new()),
        failed: Cell::new(0),
        reports: RefCell::new(HashMap::new()),
    };
    calib::begin();
    let outcome = span(tr, "dse.explore", || {
        explore(&eval, space, &mut Grid::new(), seed, None).ok()
    });
    Pass {
        wall: calib::end(),
        eval,
        outcome,
    }
}

/// One line per frontier point: rank, label, cycles, µJ, kGE.
fn frontier_text(o: &ExploreOutcome) -> String {
    o.frontier
        .iter()
        .map(|e| {
            format!(
                "{}\t{}\t{}\t{}\t{}\n",
                e.rank,
                ule_dse::explore::label(&e.config),
                e.objectives.cycles,
                e.objectives.energy_uj,
                e.objectives.area_kge
            )
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: parse and enumerate the space, build one system (curve and
    // program image) per distinct simulation.
    let (setup_s, (space, lattice, systems)) = repeated_setup(5, || {
        let space = ule_dse::spaces::parse_space_file(SPACE).expect("accel_dse space file");
        let lattice = space.enumerate().expect("accel_dse space enumerates");
        let mut systems: HashMap<String, (SystemConfig, System)> = HashMap::new();
        for c in &lattice {
            systems
                .entry(sim_key(c, space.workload))
                .or_insert_with(|| {
                    calib::tick();
                    (*c, System::new(*c))
                });
        }
        (space, lattice, systems)
    });
    out.setup_s = setup_s;

    let mut last = None;
    timed_passes(&mut out, args.seconds, |out| {
        let p = pass(&space, args.seed, None);
        for (point, ms, mark) in p.eval.point_ms.borrow().iter() {
            out.point(point.clone(), ms * p.wall.local_scale(*mark));
        }
        let wall = p.wall.clone();
        last = Some(p);
        wall
    });
    let tracer = args.trace.then(Tracer::new);
    let p = match &tracer {
        Some(t) => pass(&space, args.seed, Some(t)),
        None => last.expect("at least one pass"),
    };
    out.attempted = lattice.len() as u64;
    out.failed = p.eval.failed.get();

    let reports = p.eval.reports.borrow();
    let mut cycles = 0u64;
    let mut energy = 0f64;
    let mut point_cycles = Vec::new();
    for c in &lattice {
        if let Some(r) = reports.get(c) {
            cycles += r.cycles;
            energy += r.energy.total_uj();
            point_cycles.push(r.cycles as f64);
        }
    }
    out.sim_cycles = cycles as f64;
    out.sim_energy_uj = energy;
    out.p99_cycles = percentile(&point_cycles, 99.0);
    let (err, cells) =
        paper_error(|curve, arch| Some(reports.get(&SystemConfig::new(curve, arch))?.cycles));
    out.paper_cycles_err = err;
    out.verify_per_s = ratio(lattice.len() as f64, median(&out.pass_s));
    out.check(
        "paper_cells_covered",
        cells == 4,
        format!("{cells} Table 7.1/7.2 cells (Monte and Billie endpoints)"),
    );
    out.check(
        "lattice",
        lattice.len() == 180 && systems.len() == 35,
        format!(
            "{} lattice points, {} distinct simulations",
            lattice.len(),
            systems.len()
        ),
    );
    let got = p.outcome.as_ref().map(frontier_text).unwrap_or_default();
    let want: String = GOLDEN_FRONTIER
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    if got != want {
        eprintln!("accel_dse frontier differs from the golden; this run's frontier:\n{got}");
    }
    out.check(
        "frontier_equals_golden",
        got == want,
        format!("{} frontier points", got.lines().count()),
    );

    if let Some(t) = &tracer {
        crate::layers::engine(&p.eval.engine, systems.len(), &mut out);
        out.layer(
            "dse.eval_ms_p50",
            median(&t.durations("dse.evaluate")) * 1e3,
            "ms",
        );
        out.layer(
            "dse.frontier_size",
            p.outcome.as_ref().map_or(0, |o| o.frontier.len()) as f64,
            "count",
        );
        let mut sums = CounterSums::default();
        for c in &lattice {
            if let Some(r) = reports.get(c) {
                sums.add(c.arch, r);
            }
        }
        sums.report(&mut out);
        crate::layers::energy_pricing(
            lattice.iter().filter_map(|c| reports.get(c)).map(|r| &**r),
            t,
            &mut out,
        );
        let mut probe: Vec<(&System, u64)> = systems
            .values()
            .filter_map(|(c, sys)| Some((sys, reports.get(c)?.cycles)))
            .collect();
        probe.sort_by_key(|(s, _)| ule_core::metrics::config_identity(s.config(), space.workload));
        crate::probe::probe_set(&probe, Some(t), &mut out);
        crate::layers::system_new(&lattice, t, &mut out);
        crate::layers::finish_trace(t, p.wall.seconds(), median(&out.pass_s), &mut out);
    }
    out
}
