//! `profiled`: the exact per-routine profile (`RunOptions::profiled()`)
//! and per-routine energy attribution over a fixed set of points that
//! covers all four arch classes, both field families and one ladder.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ule_core::attr::routine_activities;
use ule_core::{RunOptions, RunReport, System, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_pete::cpu::EngineTier;
use ule_swlib::builder::Arch;

use crate::calib::{self, Metered};
use crate::common::*;
use crate::trace::{span, Tracer};

const POINTS: [(CurveId, Arch, Workload); 7] = [
    (CurveId::P192, Arch::Baseline, Workload::SignVerify),
    (CurveId::P256, Arch::Baseline, Workload::SignVerify),
    (CurveId::K163, Arch::IsaExt, Workload::SignVerify),
    (CurveId::K233, Arch::IsaExt, Workload::SignVerify),
    (CurveId::P192, Arch::Monte, Workload::SignVerify),
    (CurveId::K163, Arch::Billie, Workload::SignVerify),
    (CurveId::X25519, Arch::Monte, Workload::Handshake),
];

/// One profiled point: its report, run ms and attribution ms.
struct Point {
    report: Option<RunReport>,
    run_ms: f64,
    /// Calibration mark the run began at.
    mark: usize,
    attribute_ms: f64,
    /// Profile and attribution add up to the report's totals.
    conserved: bool,
}

/// One pass over the points, always in `POINTS` order: the exact
/// profiler's memory high-water mark depends on the order, so the seed
/// does not permute it.
fn pass(systems: &[System], tr: Option<&Tracer>) -> (Metered, Vec<Point>) {
    calib::begin();
    let mut points = Vec::new();
    for (sys, &(_, _, workload)) in systems.iter().zip(&POINTS) {
        calib::tick();
        let mark = calib::mark();
        let t = Instant::now();
        let report = span(tr, "core.run_with", || {
            catch_unwind(AssertUnwindSafe(|| {
                sys.run_with(RunOptions::new(workload).profiled())
            }))
            .ok()
        });
        let run_ms = secs(t) * 1e3;
        let t = Instant::now();
        let conserved = span(tr, "energy.attribute", || {
            report.as_ref().is_some_and(|r| {
                let Some(p) = &r.profile else { return false };
                let att = r.energy.attribute(&routine_activities(p));
                p.total_cycles() == r.cycles
                    && att.total_uj().to_bits() == r.energy.total_uj().to_bits()
            })
        });
        points.push(Point {
            report,
            run_ms,
            mark,
            attribute_ms: secs(t) * 1e3,
            conserved,
        });
    }
    (calib::end(), points)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, systems) = repeated_setup(5, || {
        POINTS
            .iter()
            .map(|&(c, a, _)| System::new(SystemConfig::new(c, a)))
            .collect::<Vec<_>>()
    });
    out.setup_s = setup_s;
    let mut last = None;
    timed_passes(&mut out, args.seconds, |out| {
        let (wall, points) = pass(&systems, None);
        for (&(c, a, w), p) in POINTS.iter().zip(&points) {
            let point = format!("{}/{}/{}", c.name(), arch_key(a), w.name());
            out.point(point, p.run_ms * wall.local_scale(p.mark));
        }
        last = Some(points);
        wall
    });
    let tracer = args.trace.then(Tracer::new);
    let (traced_wall, points) = match &tracer {
        Some(t) => {
            let (wall, points) = pass(&systems, Some(t));
            (wall.seconds(), points)
        }
        None => (0.0, last.expect("at least one pass")),
    };
    out.attempted = POINTS.len() as u64;
    out.failed = points.iter().filter(|p| p.report.is_none()).count() as u64;
    out.check(
        "profile_and_attribution_conserve_totals",
        points.iter().all(|p| p.conserved),
        "profile cycles == report cycles and attributed µJ == report µJ, bit for bit",
    );
    let reports: Vec<&RunReport> = points.iter().filter_map(|p| p.report.as_ref()).collect();
    out.sim_cycles = reports.iter().map(|r| r.cycles).sum::<u64>() as f64;
    out.sim_energy_uj = reports.iter().map(|r| r.energy.total_uj()).sum();
    out.p99_cycles = percentile(
        &reports.iter().map(|r| r.cycles as f64).collect::<Vec<_>>(),
        99.0,
    );
    out.verify_per_s = ratio(POINTS.len() as f64, median(&out.pass_s));
    let by_point: HashMap<(CurveId, Arch), &RunReport> = POINTS
        .iter()
        .zip(&points)
        .filter(|((_, _, w), _)| *w == Workload::SignVerify)
        .filter_map(|(&(c, a, _), p)| Some(((c, a), p.report.as_ref()?)))
        .collect();
    let (err, cells) = paper_error(|c, a| Some(by_point.get(&(c, a))?.cycles));
    out.check(
        "paper_cells_covered",
        cells == 4,
        format!("{cells} Table 7.1/7.2 cells"),
    );
    out.paper_cycles_err = err;

    if let Some(t) = &tracer {
        // Shares of profiled cycles per paper layer.
        let mut layer_cycles = [0u64; 4];
        for r in &reports {
            for b in &r.profile.as_ref().expect("profiled").routines {
                layer_cycles[layer_of(&b.name) as usize] += b.cycles;
            }
        }
        let total: u64 = layer_cycles.iter().sum();
        for (name, l) in [
            ("sim.field_share", Layer::Field),
            ("sim.point_share", Layer::Point),
            ("sim.scalar_share", Layer::Scalar),
            ("sim.protocol_share", Layer::Protocol),
        ] {
            out.layer(
                name,
                ratio(layer_cycles[l as usize] as f64, total as f64),
                "ratio",
            );
        }
        out.layer(
            "energy.attribute_ms",
            median(&points.iter().map(|p| p.attribute_ms).collect::<Vec<_>>()),
            "ms",
        );
        let mut by_arch: HashMap<&str, Vec<f64>> = HashMap::new();
        for (&(_, a, _), p) in POINTS.iter().zip(&points) {
            by_arch.entry(arch_key(a)).or_default().push(p.run_ms);
        }
        for (arch, v) in by_arch {
            out.layer(&format!("core.run_ms.{arch}"), median(&v), "ms");
        }
        // The same points unprofiled, on the fast tier.
        let (fast, ()) = calib::metered(|| {
            for (sys, &(_, _, w)) in systems.iter().zip(&POINTS) {
                calib::tick();
                let _ = catch_unwind(AssertUnwindSafe(|| sys.run_with(RunOptions::new(w))));
            }
        });
        out.layer(
            "profile.overhead_x",
            ratio(median(&out.pass_s), fast.seconds()),
            "x",
        );
        // Reference-tier speed with the profiler attached, host
        // reference split out (ECDSA points).
        let (mut cycles, mut sim_s, mut ok) = (0u64, 0.0, true);
        let mut host_ref = Vec::new();
        for (sys, p) in systems.iter().zip(&points) {
            if CurveId::XCURVES.contains(&sys.config().curve) {
                continue;
            }
            let run = crate::probe::sign_verify(sys, EngineTier::Reference, true, Some(t));
            ok &= run.ok && Some(run.cycles) == p.report.as_ref().map(|r| r.cycles);
            cycles += run.cycles;
            sim_s += run.sim_s;
            host_ref.push(run.host_ref_s * 1e3);
        }
        out.layer("core.host_ref_ms", median(&host_ref), "ms");
        out.check(
            "probe_matches_core",
            ok,
            "profiled reference-tier probes reproduce core's cycles and outputs",
        );
        out.layer(
            "pete.ref_mcyc_per_s",
            ratio(cycles as f64 / 1e6, sim_s),
            "Mcyc/s",
        );
        let mut sums = CounterSums::default();
        for (&(_, a, _), p) in POINTS.iter().zip(&points) {
            if let Some(r) = &p.report {
                sums.add(a, r);
            }
        }
        sums.report(&mut out);
        crate::layers::energy_pricing(reports.iter().copied(), t, &mut out);
        crate::layers::system_new(
            &POINTS.map(|(c, a, _)| SystemConfig::new(c, a)),
            t,
            &mut out,
        );
        crate::layers::finish_trace(t, traced_wall, median(&out.pass_s), &mut out);
    }
    out
}
