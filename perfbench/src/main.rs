//! The repository's benchmark: one command, four workloads, every
//! end-to-end metric by name with its unit, and (with `--trace 1`) the
//! per-layer metrics from a separate traced pass.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any failed output check makes
//! `correct` false and the exit code 1. See `perfbench/README.md` for
//! why each workload and metric was chosen.

mod calib;
mod common;
mod dse;
mod layers;
mod probe;
mod profiled;
mod serve;
mod sweep;
mod trace;

use std::fmt::Write as _;

use common::{median, percentile, ratio, Args, Outcome};
use ule_obs::json::{self, Json};

const WORKLOADS: [&str; 4] = ["paper_sweep", "accel_dse", "host_serve", "profiled"];
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    args
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn manifest_metrics(key: &str) -> Vec<(String, String)> {
    let doc = json::parse(MANIFEST).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("BENCHMARK.json metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The end-to-end metrics of an outcome, by name.
fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64)> {
    vec![
        ("wall_s", median(&out.pass_s)),
        ("setup_s", median(&out.setup_s)),
        ("point_ms_p50", median(&out.point_medians())),
        ("point_ms_p90", percentile(&out.point_medians(), 90.0)),
        ("sim_cycles", out.sim_cycles),
        ("sim_energy_uj", out.sim_energy_uj),
        ("paper_cycles_err", out.paper_cycles_err),
        ("verify_per_s", out.verify_per_s),
        ("serve_p99_cycles", out.p99_cycles),
        (
            "ok_rate",
            1.0 - ratio(out.failed as f64, out.attempted as f64),
        ),
        ("peak_rss_mb", out.peak_rss_mb),
    ]
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let args = parse_args();
    let mut out = match args.workload.as_str() {
        "paper_sweep" => sweep::run(&args),
        "accel_dse" => dse::run(&args),
        "host_serve" => serve::run(&args),
        _ => profiled::run(&args),
    };

    let e2e = end_to_end(&out);
    let manifest = manifest_metrics(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    let values: Vec<(String, f64, String)> = if args.trace {
        // A layer this workload does not exercise reads 0.
        let unknown: Vec<&String> = out
            .layers
            .iter()
            .filter(|(k, (_, unit))| !manifest.iter().any(|(n, u)| n == *k && u == unit))
            .map(|(k, _)| k)
            .collect();
        let detail = format!("not in BENCHMARK.json with this unit: {unknown:?}");
        let listed = unknown.is_empty();
        let values = manifest
            .iter()
            .map(|(n, u)| (n.clone(), out.layers.get(n).map_or(0.0, |v| v.0), u.clone()))
            .collect();
        out.check("per_layer_metrics_listed", listed, detail);
        values
    } else {
        manifest
            .iter()
            .map(|(n, u)| {
                let v = e2e
                    .iter()
                    .find(|(k, _)| k == n)
                    .unwrap_or_else(|| panic!("no end-to-end metric {n}"));
                (n.clone(), v.1, u.clone())
            })
            .collect()
    };

    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "note: closed loop, one caller, one thread; the simulated I$ starts cold in every \
         simulation (each builds a new Machine)"
    );
    match args.workload.as_str() {
        "paper_sweep" | "accel_dse" => println!(
            "note: simulated inputs are fixed inside ule-core (System::inputs); the seed only \
             permutes submission order"
        ),
        "profiled" => println!(
            "note: simulated inputs are fixed inside ule-core (System::inputs) and the points \
             run in a fixed order; the seed has no effect"
        ),
        _ => {}
    }
    println!(
        "passes {}: raw s {:?}, reference-speed s {:?}; set-ups {}; points {}",
        out.pass_s.len(),
        out.pass_raw_s,
        out.pass_s,
        out.setup_s.len(),
        out.point_ms.len()
    );
    for note in &out.notes {
        println!("{note}");
    }
    for c in &out.checks {
        println!(
            "check {}: {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    println!(
        "error_rate = {} ({} failed of {} attempted)",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    for (n, v, u) in &values {
        println!("{n} = {} {u}", number(*v));
    }
    if let Some(trace) = &out.trace_json {
        let dir = std::path::Path::new(".perfbench");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, trace)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    let correct = out.failed == 0 && out.checks.iter().all(|c| c.ok);
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (n, v, u)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
            number(*v)
        );
    }
    line.push_str("}}");
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 });
}
