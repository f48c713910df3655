//! `paper_sweep`: the full Chapter 7 job set through `SweepEngine`, one
//! caller, one thread — what `repro all` does.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ule_bench::{ConfigKey, ExperimentId, Job, SweepEngine};
use ule_core::{RunReport, System, SystemConfig, Workload};

use crate::calib::{self, Metered};
use crate::common::*;
use crate::trace::{span, Tracer};

/// `BENCH_sweep.json`'s deterministic totals for this job set.
fn expected_totals() -> (u64, f64) {
    let mut cycles = None;
    let mut energy = None;
    for line in include_str!("../data/expected_totals.tsv").lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["paper_sweep", "sim_cycles", v] => cycles = v.parse().ok(),
            ["paper_sweep", "sim_energy_uj", v] => energy = v.parse().ok(),
            _ => {}
        }
    }
    (
        cycles.expect("expected_totals.tsv: paper_sweep sim_cycles"),
        energy.expect("expected_totals.tsv: paper_sweep sim_energy_uj"),
    )
}

/// One pass: a fresh engine, every job in submission order.
struct Pass {
    wall: Metered,
    /// The calibration mark at each key's first submission.
    marks: HashMap<ConfigKey, usize>,
    engine: SweepEngine,
    reports: HashMap<ConfigKey, Arc<RunReport>>,
    failed: u64,
}

fn pass(order: &[Job], tr: Option<&Tracer>) -> Pass {
    let engine = SweepEngine::new().with_threads(1);
    let mut reports = HashMap::new();
    let mut failed = 0;
    let mut marks = HashMap::new();
    calib::begin();
    for &(config, workload) in order {
        calib::tick();
        marks
            .entry(ConfigKey::new(config, workload))
            .or_insert_with(calib::mark);
        let r = span(tr, "bench.run", || {
            catch_unwind(AssertUnwindSafe(|| engine.run(config, workload)))
        });
        match r {
            Ok(r) => {
                reports.insert(ConfigKey::new(config, workload), r);
            }
            Err(_) => failed += 1,
        }
    }
    Pass {
        wall: calib::end(),
        marks,
        engine,
        reports,
        failed,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: plan the job set, build every curve and program image.
    let (setup_s, (jobs, systems)) = repeated_setup(5, || {
        let jobs: Vec<Job> = ExperimentId::ALL.iter().flat_map(|id| id.jobs()).collect();
        let mut systems: HashMap<SystemConfig, System> = HashMap::new();
        for &(config, _) in &jobs {
            calib::tick();
            systems.entry(config).or_insert_with(|| System::new(config));
        }
        (jobs, systems)
    });
    out.setup_s = setup_s;
    let order: Vec<Job> = permutation(jobs.len(), args.seed)
        .into_iter()
        .map(|i| jobs[i])
        .collect();
    // Canonical first-occurrence order: the order bench sums in.
    let mut seen = HashSet::new();
    let distinct: Vec<ConfigKey> = jobs
        .iter()
        .map(|&(c, w)| ConfigKey::new(c, w))
        .filter(|k| seen.insert(*k))
        .collect();

    let mut last = None;
    timed_passes(&mut out, args.seconds, |out| {
        let p = pass(&order, None);
        for (k, d) in p.engine.job_timings() {
            out.point(
                k.label(),
                d.as_secs_f64() * 1e3 * p.wall.local_scale(p.marks[&k]),
            );
        }
        let wall = p.wall.clone();
        last = Some(p);
        wall
    });
    let mut p = last.expect("at least one pass");
    let mut tracer = None;
    if args.trace {
        let t = Tracer::new();
        p = pass(&order, Some(&t));
        tracer = Some(t);
    }
    out.attempted = order.len() as u64;
    out.failed = p.failed;

    let get = |c: SystemConfig, w: Workload| p.reports.get(&ConfigKey::new(c, w));
    let mut cycles = 0u64;
    let mut energy = 0f64;
    let mut point_cycles = Vec::new();
    for k in &distinct {
        if let Some(r) = p.reports.get(k) {
            cycles += r.cycles;
            energy += r.energy.total_uj();
            point_cycles.push(r.cycles as f64);
        }
    }
    let (want_cycles, want_energy) = expected_totals();
    out.check(
        "sim_cycles_equals_bench",
        cycles == want_cycles,
        format!("{cycles} vs BENCH_sweep.json {want_cycles}"),
    );
    out.check(
        "sim_energy_equals_bench",
        energy.to_bits() == want_energy.to_bits(),
        format!("{energy} vs BENCH_sweep.json {want_energy}"),
    );
    out.check(
        "design_points",
        distinct.len() == 136 && p.reports.len() == distinct.len(),
        format!("{} distinct of {} jobs", p.reports.len(), order.len()),
    );
    out.sim_cycles = cycles as f64;
    out.sim_energy_uj = energy;
    out.p99_cycles = percentile(&point_cycles, 99.0);
    let (err, cells) = paper_error(|curve, arch| {
        let c = SystemConfig::new(curve, arch);
        Some(get(c, Workload::Sign)?.cycles + get(c, Workload::Verify)?.cycles)
    });
    out.check(
        "paper_cells_covered",
        cells == paper_cells().len(),
        format!("{cells} of {} Table 7.1/7.2 cells", paper_cells().len()),
    );
    out.paper_cycles_err = err;
    out.verify_per_s = ratio(distinct.len() as f64, median(&out.pass_s));

    if let Some(t) = &tracer {
        let keys: HashSet<String> = distinct
            .iter()
            .map(|k| sim_key(&k.config, k.workload))
            .collect();
        crate::layers::engine(&p.engine, keys.len(), &mut out);
        let mut sums = CounterSums::default();
        for k in &distinct {
            if let Some(r) = p.reports.get(k) {
                sums.add(k.config.arch, r);
            }
        }
        sums.report(&mut out);
        crate::layers::energy_pricing(
            distinct
                .iter()
                .filter_map(|k| p.reports.get(k))
                .map(|r| &**r),
            t,
            &mut out,
        );
        // Probe the Table 7.1/7.2 Sign+Verify points: every arch class.
        let probe: Vec<(&System, u64)> = paper_table_points()
            .into_iter()
            .filter_map(|c| {
                let cy = get(c, Workload::Sign)?.cycles + get(c, Workload::Verify)?.cycles;
                Some((systems.get(&c)?, cy))
            })
            .collect();
        crate::probe::probe_set(&probe, Some(t), &mut out);
        crate::layers::system_new(&jobs.iter().map(|j| j.0).collect::<Vec<_>>(), t, &mut out);
        crate::layers::finish_trace(t, p.wall.seconds(), median(&out.pass_s), &mut out);
    }
    out
}

/// The standard configurations of Tables 7.1/7.2 (all arch classes).
fn paper_table_points() -> Vec<SystemConfig> {
    use ule_curves::params::CurveId;
    use ule_swlib::builder::Arch;
    let mut v = Vec::new();
    for arch in [Arch::Baseline, Arch::IsaExt, Arch::Monte] {
        v.extend(CurveId::PRIMES.map(|c| SystemConfig::new(c, arch)));
    }
    for arch in [Arch::Baseline, Arch::IsaExt, Arch::Billie] {
        v.extend(CurveId::BINARY.map(|c| SystemConfig::new(c, arch)));
    }
    v
}
