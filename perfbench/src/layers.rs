//! Per-layer measurements shared by the traced runs of several
//! workloads.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ule_bench::SweepEngine;
use ule_core::{RunReport, System, SystemConfig};

use crate::common::{arch_key, median, ratio, secs, Outcome};
use crate::trace::Tracer;

/// Repricing passes over the workload's reports: one call is far below
/// the clock's resolution.
const PRICE_REPS: usize = 2000;

/// `energy.price_us`: host µs per `ule_energy::report::energy` call on
/// the workload's own activity records; each reprice must reproduce
/// the report's energy bit for bit.
pub fn energy_pricing<'a>(
    reports: impl Iterator<Item = &'a RunReport>,
    tr: &Tracer,
    out: &mut Outcome,
) {
    let reports: Vec<&RunReport> = reports.collect();
    let same = reports.iter().all(|r| {
        ule_energy::report::energy(&r.activity).total_uj().to_bits()
            == r.energy.total_uj().to_bits()
    });
    out.check(
        "energy_reprices_exactly",
        same,
        format!("{} activity records repriced", reports.len()),
    );
    let t0 = Instant::now();
    tr.span("energy.price", || {
        for _ in 0..PRICE_REPS {
            for r in &reports {
                black_box(ule_energy::report::energy(black_box(&r.activity)));
            }
        }
    });
    let calls = (PRICE_REPS * reports.len()) as f64;
    out.layer("energy.price_us", ratio(secs(t0) * 1e6, calls), "us");
}

/// `bench.*` counts of one pass's engine, `sim_keys` being the number
/// of distinct simulations its job set needs, and `core.run_ms.<arch>`
/// from the engine's cold-run timings.
pub fn engine(engine: &SweepEngine, sim_keys: usize, out: &mut Outcome) {
    let stats = engine.stats();
    out.layer("bench.simulations", stats.simulations as f64, "count");
    out.layer("bench.sim_keys", sim_keys as f64, "count");
    out.layer(
        "bench.resim_ratio",
        ratio(stats.simulations as f64, sim_keys as f64),
        "ratio",
    );
    out.layer(
        "bench.memo_hit_ratio",
        ratio(stats.memo_hits as f64, stats.requests as f64),
        "ratio",
    );
    let mut by_arch: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (key, d) in engine.job_timings() {
        by_arch
            .entry(arch_key(key.config.arch))
            .or_default()
            .push(d.as_secs_f64() * 1e3);
    }
    for (arch, v) in by_arch {
        out.layer(&format!("core.run_ms.{arch}"), median(&v), "ms");
    }
}

/// `core.system_new_ms`: median host ms of one `System::new` (curve
/// construction, assemble and link) over the workload's configurations.
pub fn system_new(configs: &[SystemConfig], tr: &Tracer, out: &mut Outcome) {
    let mut distinct = configs.to_vec();
    distinct.sort_by_key(|c| ule_core::metrics::config_identity(c, ule_core::Workload::Sign));
    distinct.dedup();
    let ms: Vec<f64> = distinct
        .iter()
        .map(|&c| {
            let t0 = Instant::now();
            black_box(tr.span("core.system_new", || System::new(c)));
            secs(t0) * 1e3
        })
        .collect();
    out.layer("core.system_new_ms", median(&ms), "ms");
}

/// Self time per layer, tracing overhead, and the span file.
pub fn finish_trace(tr: &Tracer, traced_wall_s: f64, untraced_wall_s: f64, out: &mut Outcome) {
    for (layer, s) in tr.self_seconds() {
        out.layer(&format!("self_s.{layer}"), s, "s");
    }
    out.layer(
        "trace.overhead_x",
        ratio(traced_wall_s, untraced_wall_s),
        "x",
    );
    out.notes.push(format!(
        "tracing overhead: traced pass {traced_wall_s:.3} s / untraced pass {untraced_wall_s:.3} s = {:.3}x",
        ratio(traced_wall_s, untraced_wall_s)
    ));
    out.trace_json = Some(tr.to_json());
}
