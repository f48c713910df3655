//! Regenerates the paper's tables and figures, and runs the verify,
//! diff, check, profile, overhead, serve, explore and selftest-flight
//! subcommands.
//!
//! ```text
//! cargo run -p ule-bench --release --bin repro -- all
//! cargo run -p ule-bench --release --bin repro -- fig7_1 t7_4
//! cargo run -p ule-bench --release --bin repro -- --list
//! cargo run -p ule-bench --release --bin repro -- --threads 4 all
//! cargo run -p ule-bench --release --bin repro -- --metrics-out m.jsonl fig7_1
//! cargo run -p ule-bench --release --bin repro -- --format json t7_4
//! cargo run -p ule-bench --release --bin repro -- verify --help
//! ```
//!
//! The command line is parsed by [`ule_bench::cli`], one option table
//! shared with the `bench` binary: an option is accepted before or
//! after the subcommand name iff that subcommand lists it, and
//! `--help` is generated from the same table. A usage error exits 2
//! from `main`; each subcommand returns its own exit status.
//!
//! Every selected experiment's design points are first submitted to
//! [`SweepEngine::run_batch`], which simulates them in parallel and
//! memoizes the reports; the experiment text is then rendered serially
//! in argument order, so the output is byte-identical for any thread
//! count (including 1).

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};

use ule_bench::cli::{self, Action, Command, Tool};
use ule_bench::diff::diff_metrics;
use ule_bench::{metrics_out, ConfigKey, ExperimentId, Job, SweepEngine};
use ule_core::attr;
use ule_core::metrics::arch_key;
use ule_core::{RunOptions, System, SystemConfig, Workload};
use ule_dse::journal::JournalError;
use ule_obs::trace_events::TraceEventsBuf;
use ule_pete::cpu::EngineTier;
use ule_swlib::builder::Arch;

/// Why a subcommand stopped early: `message` goes to stderr and `code`
/// becomes the exit status.
struct Failure {
    code: i32,
    message: String,
}

/// A subcommand's exit status, or why it stopped early.
type Outcome = Result<i32, Failure>;

fn fail(code: i32, message: impl Into<String>) -> Failure {
    Failure {
        code,
        message: message.into(),
    }
}

fn read_file(path: &Path) -> Result<String, Failure> {
    std::fs::read_to_string(path)
        .map_err(|e| fail(2, format!("cannot read {}: {e}", path.display())))
}

fn write_file(path: &Path, contents: &str, what: &str) -> Result<(), Failure> {
    std::fs::write(path, contents)
        .map_err(|e| fail(1, format!("cannot write {what} to {}: {e}", path.display())))?;
    eprintln!("wrote {what} to {}", path.display());
    Ok(())
}

/// Appends one JSON line to `BENCH_history.jsonl`-style files.
fn append_line(path: &Path, line: &str) -> Result<(), Failure> {
    debug_assert!(ule_obs::json::is_valid(line));
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{line}\n").as_bytes()))
        .map_err(|e| fail(1, format!("cannot append {}: {e}", path.display())))
}

/// `repro diff OLD NEW`: compare two metrics JSONL files on the
/// deterministic headline metrics. Exit 0 clean, 1 drift, 2 unreadable.
fn run_diff(args: cli::DiffArgs) -> Outcome {
    let report = diff_metrics(
        &args.old.display().to_string(),
        &read_file(&args.old)?,
        &args.new.display().to_string(),
        &read_file(&args.new)?,
        args.thresholds,
    )
    .map_err(|e| fail(2, format!("diff: {e}")))?;
    print!("{report}");
    Ok(report.exit_code())
}

/// `repro check`: validate exported observability files (folded stacks,
/// trace events, journals, serve and SLA records, flight dumps) the way
/// a consumer would. Exit 0 valid, 1 invalid, 2 unreadable.
fn run_check(args: cli::CheckArgs) -> Outcome {
    type Validate = fn(&str, &cli::CheckArgs) -> Result<String, String>;
    let checks: [(&Option<PathBuf>, &str, Validate); 6] = [
        (&args.flame, "folded stacks", |text, _| {
            let stacks = ule_obs::flame::parse_folded(text)?;
            let total: u64 = stacks.iter().map(|(_, w)| w).sum();
            Ok(format!("{} stacks, total weight {total}", stacks.len()))
        }),
        (&args.trace_events, "trace events", |text, _| {
            let s = ule_obs::trace_events::validate_trace_events(text)?;
            Ok(format!(
                "{} events ({} complete, {} metadata)",
                s.events, s.complete_events, s.metadata_events
            ))
        }),
        (&args.journal, "explorer journal", |text, _| {
            let s = ule_dse::journal::read_journal(text)
                .map_err(|e| e.to_string())?
                .stats;
            let mut line = format!(
                "{} design points, {} frontier points, {} summary",
                s.design_points, s.frontier_points, s.summaries
            );
            if s.unknown > 0 {
                line += &format!(", {} unknown-kind lines skipped", s.unknown);
            }
            Ok(line)
        }),
        (&args.serve, "serve journal", |text, args| {
            let s = ule_serve::metrics::validate_serve(text, args.serve_min_gain)?;
            let mut line = format!(
                "{} serve points, {} summaries, {} frontier points, 0 mismatches",
                s.points, s.summaries, s.frontier
            );
            if s.min_gain_ops.is_finite() {
                line += &format!(", min batching gain {:.2}x", s.min_gain_ops);
            }
            Ok(line)
        }),
        (&args.sla, "SLA journal", |text, args| {
            let s = ule_serve::metrics::validate_sla(text, args.max_p99)?;
            Ok(format!(
                "{} runs, {} latency records, {} SLA summaries, worst p99 {} cycles",
                s.runs, s.latency_records, s.summaries, s.max_p99
            ))
        }),
        (&args.flight_dump, "flight dump", |text, _| {
            let s = ule_obs::flight::validate_dump(text)?;
            let wrapped = if s.wrapped { " (wrapped)" } else { "" };
            Ok(format!(
                "{} threads, {} events, {} dropped{wrapped}",
                s.threads, s.events, s.dropped
            ))
        }),
    ];
    let mut failed = false;
    for (path, what, validate) in checks {
        let Some(path) = path else { continue };
        match validate(&read_file(path)?, &args) {
            Ok(summary) => println!("{}: {summary}", path.display()),
            Err(e) => {
                eprintln!("{}: INVALID {what}: {e}", path.display());
                failed = true;
            }
        }
    }
    Ok(i32::from(failed))
}

/// `repro profile`: simulate one design point with a profiler attached
/// and print the per-routine energy attribution table. The reference
/// tier takes the exact profile (full call graph); `--tier fast` runs
/// on the fast engine and takes the sampled profile (exact totals,
/// stride-bounded per-routine split, no call graph).
fn run_profile(args: cli::ProfileArgs) -> Outcome {
    let config = SystemConfig::new(args.curve, args.arch);
    let label = ConfigKey::new(config, args.workload).label();
    let tier = if args.fast_tier {
        EngineTier::Fast
    } else {
        EngineTier::Reference
    };
    let opts = RunOptions::new(args.workload).profiled().with_tier(tier);
    let started = std::time::Instant::now();
    let report = System::new(config).run_with(opts);
    let wall = started.elapsed();
    let p = report.profile.as_ref().expect("profiled run sets profile");
    if args.fast_tier {
        println!(
            "{label}: {} cycles, {:.4} uJ, {} routines (sampled, fast engine)",
            report.cycles,
            report.energy.total_uj(),
            p.routines.len(),
        );
    } else {
        println!(
            "{label}: {} cycles, {:.4} uJ, {} routines, {} call paths",
            report.cycles,
            report.energy.total_uj(),
            p.routines.len(),
            p.calls.nodes.len()
        );
    }
    println!();
    print!(
        "{}",
        attr::routine_energy_table(p, &report.energy, args.top)
    );
    // Wall-clock on stderr (stdout stays deterministic): the CI tier
    // A/B compares this across `--tier fast` and `--tier reference`.
    eprintln!("profile wall-clock: {} ms", wall.as_millis());
    if let Some(path) = &args.flame {
        let stacks = attr::folded_stacks(p, &report.energy, args.flame_weight, &label);
        write_file(path, &ule_obs::flame::to_folded(&stacks), "folded stacks")?;
    }
    if let Some(path) = &args.trace_events {
        let mut buf = TraceEventsBuf::new();
        attr::trace_events_into(&mut buf, 1, &label, p);
        write_file(path, &buf.finish(), "trace events")?;
    }
    Ok(0)
}

/// `repro overhead`: A/B the sampled profile's wall-clock cost against
/// a *ballast* run of the same point — a fast-tier profiler configured
/// with a stride so large it never samples. Both arms therefore allocate the
/// identical profiler machinery (same heap layout, same code paths up
/// to the stride check), so the measured delta is the marginal cost of
/// samples actually firing, not allocator noise. This is what lets CI
/// hold the hard ≤5% gate: the old uninstrumented baseline differed in
/// allocation layout and showed a spurious ~6% floor. Exits 1 when the
/// overhead exceeds the threshold.
fn run_overhead(args: cli::OverheadArgs) -> Outcome {
    let config = SystemConfig::new(args.curve, args.arch);
    let label = ConfigKey::new(config, args.workload).label();
    let system = System::new(config);
    // One untimed warm-up per mode (first-touch effects), then the
    // timed runs interleaved so drift hits both modes equally.
    let time = |opts: &RunOptions| {
        let t0 = std::time::Instant::now();
        let report = system.run_with(*opts);
        (t0.elapsed(), report)
    };
    // The baseline arm carries the same profiler machinery with a
    // stride (2^40) no fast-tier run ever reaches, so the only
    // difference between the arms is samples firing.
    let sampled = RunOptions::new(args.workload)
        .profiled()
        .with_tier(EngineTier::Fast);
    let plain = sampled.with_sample_stride(1 << 40);
    let (_, base_report) = time(&plain);
    let (_, sampled_report) = time(&sampled);
    assert_eq!(
        base_report.cycles, sampled_report.cycles,
        "sampling must not change simulated cycles"
    );
    let mut best_plain = std::time::Duration::MAX;
    let mut best_sampled = std::time::Duration::MAX;
    for _ in 0..args.runs {
        best_plain = best_plain.min(time(&plain).0);
        best_sampled = best_sampled.min(time(&sampled).0);
    }
    let pct = (best_sampled.as_secs_f64() / best_plain.as_secs_f64() - 1.0) * 100.0;
    println!(
        "{label}: ballast fast tier {} us, sampled {} us, overhead {pct:+.2}% \
         (threshold {}%, best of {})",
        best_plain.as_micros(),
        best_sampled.as_micros(),
        args.max_pct,
        args.runs,
    );
    Ok(i32::from(pct > args.max_pct))
}

/// `repro serve`: the batched signing/verification service model.
/// Generates seeded traffic per curve, replays it on the virtual clock
/// through the sharded `ule-serve` engine at every requested batch
/// size, projects energy per request from simulated per-verification
/// costs, and emits `serve_point`/`serve_summary`/`serve_frontier`
/// records plus — behind `--sla-out` — `serve_latency`/`sla_summary`
/// latency records (schema v5). Exit 1 iff any batch verdict disagreed
/// with `verify_prehashed`.
fn run_serve(args: cli::ServeArgs) -> Outcome {
    let engine = SweepEngine::new();
    // Per-verification simulated costs for the energy projection: the
    // valid accelerator set differs by family (Monte fronts the prime
    // datapath, Billie the binary one).
    let sim_costs =
        |curve: ule_curves::params::CurveId, archs: &[Arch]| -> Vec<ule_serve::metrics::SimCosts> {
            let jobs: Vec<Job> = archs
                .iter()
                .map(|&a| (SystemConfig::new(curve, a), Workload::Verify))
                .collect();
            let reports = engine.run_batch(&jobs);
            archs
                .iter()
                .zip(&reports)
                .map(|(&a, r)| ule_serve::metrics::SimCosts {
                    arch: arch_key(a).to_owned(),
                    cycles: r.cycles,
                    energy_uj: r.energy.total_uj(),
                    area_kge: ule_core::space::area_kge(&SystemConfig::new(curve, a)),
                })
                .collect()
        };
    let mut registry = ule_obs::record::MetricsRegistry::new();
    let mut sla_registry = ule_obs::record::MetricsRegistry::new();
    let mut trace_buf = ule_obs::trace_events::TraceEventsBuf::new();
    let mut trace_pid = 0u64;
    let mut mismatches_total = 0usize;
    let mut history_gains: Vec<String> = Vec::new();
    for &curve in &args.curves {
        let family_archs: &[Arch] = if curve.is_binary() {
            &[Arch::Baseline, Arch::IsaExt, Arch::Billie]
        } else {
            &[Arch::Baseline, Arch::IsaExt, Arch::Monte]
        };
        let costs = sim_costs(curve, family_archs);
        let point_costs = costs
            .iter()
            .find(|c| c.arch == arch_key(args.arch))
            .expect("requested arch simulated")
            .clone();
        println!(
            "{}: {} requests, {} shards, seed {:#x}, arch {}",
            curve.name(),
            args.requests,
            args.shards,
            args.seed,
            arch_key(args.arch)
        );
        let mut runs: Vec<(ule_serve::ServeOutcome, f64)> = Vec::new();
        for &batch in &args.batch_sizes {
            let cfg = ule_serve::ServeConfig {
                curve,
                requests: args.requests,
                batch_size: batch,
                shards: args.shards,
                seed: args.seed,
                arrival_rate: args.arrival_rate,
                // The virtual clock is anchored to the requested arch's
                // simulated per-verification cycle cost.
                cycles_per_verify: point_costs.cycles,
            };
            let outcome = ule_serve::run_service(&cfg);
            let scale = ule_serve::metrics::op_scale(
                &outcome,
                runs.first().map(|(o, _)| o).unwrap_or(&outcome),
            );
            mismatches_total += outcome.mismatches;
            println!(
                "  batch {batch:>3}: {:>9.1} sig/s, op_scale {scale:.3}, rlc {}/{} batches, \
                 {:.2} uJ/Mreq, p99 {} cycles",
                outcome.signatures_per_sec(),
                outcome.rlc_batches,
                outcome.batches,
                ule_serve::metrics::energy_uj_per_million_requests(&point_costs, scale),
                outcome.telemetry.fleet_hist.percentile(99.0),
            );
            registry.push(ule_serve::metrics::serve_point_record(
                &outcome,
                scale,
                &point_costs,
            ));
            for record in ule_serve::metrics::serve_latency_records(&outcome) {
                sla_registry.push(record);
            }
            sla_registry.push(ule_serve::metrics::sla_summary_record(
                &outcome,
                scale,
                &point_costs,
            ));
            if args.trace_events.is_some() {
                // One Perfetto process per (curve, batch size) run, one
                // track per shard, one slice per executed batch; 1
                // virtual cycle rendered as 1 µs. The per-slice
                // `queued` args sum to the run's request count.
                trace_pid += 1;
                trace_buf.process_name(trace_pid, &format!("serve {} batch {batch}", curve.name()));
                for s in 0..args.shards {
                    trace_buf.thread_name(trace_pid, s as u64 + 1, &format!("shard {s}"));
                }
                for t in &outcome.telemetry.traces {
                    trace_buf.complete(
                        trace_pid,
                        t.shard as u64 + 1,
                        &format!("batch {}", t.index),
                        t.start_cycles as f64,
                        t.service_cycles as f64,
                        &[
                            ("queued", t.items as u64),
                            ("service_cycles", t.service_cycles),
                            ("wait_cycles", t.start_cycles - t.ready_cycles),
                        ],
                    );
                }
            }
            runs.push((outcome, scale));
        }
        let summary = ule_serve::metrics::serve_summary_record(&runs);
        let gain_ops = summary.get("gain_ops").and_then(|v| match v {
            ule_obs::Value::F64(g) => Some(*g),
            _ => None,
        });
        let gain_sps = summary.get("gain_sps").and_then(|v| match v {
            ule_obs::Value::F64(g) => Some(*g),
            _ => None,
        });
        println!(
            "  batch {} vs 1: {:.2}x sig/s, {:.2}x fewer host ops",
            args.batch_sizes.last().unwrap(),
            gain_sps.unwrap_or(0.0),
            gain_ops.unwrap_or(0.0),
        );
        // p99 of the largest-batch run: the latency the gain is
        // bought at (absent in pre-v5 history lines).
        let p99 = runs
            .last()
            .map(|(o, _)| o.telemetry.fleet_hist.percentile(99.0))
            .unwrap_or(0);
        history_gains.push(format!(
            "{{\"curve\":\"{}\",\"gain_sps\":{:.4},\"gain_ops\":{:.4},\"p99_latency_cycles\":{p99}}}",
            curve.name(),
            gain_sps.unwrap_or(0.0),
            gain_ops.unwrap_or(0.0)
        ));
        registry.push(summary);
        let (_, frontier) = ule_serve::metrics::frontier_records(&costs, &runs);
        for record in frontier {
            registry.push(record);
        }
    }
    if let Some(path) = &args.metrics_out {
        write_file(path, &registry.to_jsonl(), "serve metrics")?;
    }
    if let Some(path) = &args.sla_out {
        // Every field in the SLA journal is virtual-time: the file is
        // byte-identical across reruns (CI pins this with `cmp`).
        write_file(path, &sla_registry.to_jsonl(), "SLA records")?;
    }
    if let Some(path) = &args.trace_events {
        write_file(path, &trace_buf.finish(), "serve trace events")?;
    }
    // One-line gain summary appended to BENCH_history.jsonl (next to
    // --metrics-out when given): the batching-gain trajectory across
    // PRs, mirroring the bench sweep's history line.
    let history = args
        .metrics_out
        .as_deref()
        .map(|p| p.with_file_name("BENCH_history.jsonl"))
        .unwrap_or_else(|| PathBuf::from("BENCH_history.jsonl"));
    let line = format!(
        "{{\"schema_version\":{},\"serve_requests\":{},\"serve_batch_max\":{},\"arrival_rate\":{},\"serve_gains\":[{}]}}",
        ule_obs::record::SCHEMA_VERSION,
        args.requests,
        args.batch_sizes.last().unwrap(),
        args.arrival_rate,
        history_gains.join(",")
    );
    append_line(&history, &line)?;
    if mismatches_total > 0 {
        eprintln!("serve: {mismatches_total} batch verdicts diverged from verify_prehashed");
        return Ok(1);
    }
    Ok(0)
}

/// `repro selftest-flight`: end-to-end self-test of the flight
/// recorder's panic path. Runs with the recorder installed exactly as
/// every other subcommand does, emits a recognizable event trail, then
/// panics deliberately — the armed hook must write the dump before the
/// process dies. CI runs this expecting a nonzero exit and then
/// validates the dump with `repro check --flight-dump`.
fn run_selftest_flight() -> Outcome {
    for i in 0..8u64 {
        ule_obs::obs_event!("selftest.tick", index = i);
    }
    ule_obs::obs_event!("selftest.boom", note = "deliberate panic next");
    panic!("flight-recorder self-test: deliberate panic (the dump above is expected)");
}

/// `repro verify …`: run a differential campaign. Exit code 0 means the
/// campaign matched expectations (zero divergences, or — with
/// `--inject-fault` — exactly the injected fault was caught); a
/// campaign whose selectors match no case exits 2.
fn run_verify(args: cli::VerifyArgs) -> Outcome {
    let nothing_checked = |e: ule_verify::NothingChecked| fail(2, format!("verify: {e}"));
    if let Some(cfg) = &args.oracle {
        // Host-only differential campaign for the batch verifier: no
        // simulator involved, so it runs instead of the sim campaign
        // and owns the exit code when selected.
        let report = ule_verify::run_batch_oracle(cfg).map_err(nothing_checked)?;
        print!("{}", report.render(cfg));
        return Ok(i32::from(!report.divergences.is_empty()));
    }
    let campaign = &args.campaign;
    let report = ule_verify::run_campaign(campaign).map_err(nothing_checked)?;
    print!("{}", report.render(campaign));
    if campaign.inject_fault {
        // Self-test: the deliberate corruption must be caught.
        if report.divergences.is_empty() {
            eprintln!("verify: injected fault was NOT caught");
            return Ok(1);
        }
        println!("verify: injected fault caught and shrunk (self-test ok)");
        return Ok(0);
    }
    Ok(i32::from(!report.divergences.is_empty()))
}

/// `repro explore …`: enumerate a design-space lattice, evaluate it
/// through the memoizing engine, and print the Pareto frontier. With
/// `--report`, skip exploration and render the frontier table of an
/// existing journal instead.
fn run_explore(args: cli::ExploreArgs) -> Outcome {
    let mut engine = SweepEngine::new();
    if let Some(n) = args.threads {
        engine = engine.with_threads(n);
    }

    let render = |outcome| {
        ule_dse::explore::render_report(&engine, outcome)
            .map_err(|e| fail(1, format!("report: {e}")))
    };
    if args.report {
        let path = args.out.as_deref().expect("--report comes with --out");
        let outcome = ule_dse::journal::read_journal(&read_file(path)?)
            .and_then(|j| {
                j.outcome.ok_or_else(|| {
                    JournalError::Invalid(
                        "journal has no dse_summary record (incomplete exploration?)".into(),
                    )
                })
            })
            .map_err(|e| fail(2, format!("{}: {e}", path.display())))?;
        print!("{}", render(&outcome)?);
        return Ok(0);
    }

    let space_str = args.space.expect("explore comes with --space");
    let space = match ule_dse::spaces::builtin(&space_str) {
        Some(s) => s,
        None => {
            let text = std::fs::read_to_string(&space_str).map_err(|e| {
                fail(
                    2,
                    format!(
                        "--space {space_str:?} is neither a built-in ({}) nor a readable file: {e}",
                        ule_dse::spaces::BUILTIN_NAMES.join(", ")
                    ),
                )
            })?;
            ule_dse::spaces::parse_space_file(&text)
                .map_err(|e| fail(2, format!("{space_str}: {e}")))?
        }
    };
    let outcome = ule_dse::explore(
        &engine,
        &space,
        &mut ule_dse::Grid::new(),
        args.seed,
        args.out.as_deref(),
    )
    .map_err(|e| fail(1, format!("explore: {e}")))?;
    println!(
        "space {} ({}): {} lattice points, {} evaluated ({} resumed, {} new), \
         {} engine simulations, frontier {}",
        outcome.space,
        ule_core::metrics::workload_key(outcome.workload),
        outcome.lattice_points,
        outcome.evaluated,
        outcome.resumed,
        outcome.simulated,
        engine.simulations(),
        outcome.frontier.len()
    );
    if let Some(path) = &args.out {
        eprintln!("wrote journal to {}", path.display());
    }
    println!();
    print!("{}", render(&outcome)?);
    Ok(0)
}

/// Runs the selected experiments: every design point is first
/// submitted to [`SweepEngine::run_batch`], then the text is rendered
/// serially in argument order.
fn run_experiments(args: cli::RunArgs) -> Outcome {
    // Observability is configured once, before any simulation: the
    // profiling flag is read at the start of each run, and memoized
    // reports are shared, so flipping it mid-sweep would make a
    // report's `profile` depend on scheduling.
    if args.profile {
        ule_obs::set_profiling(true);
    }
    let mut engine = SweepEngine::new();
    if let Some(n) = args.threads {
        engine = engine.with_threads(n);
    }

    // Pre-warm the memo cache in parallel over the union of design
    // points, then render serially in order.
    let jobs: Vec<Job> = args.ids.iter().flat_map(|id| id.jobs()).collect();
    let reports = engine.run_batch(&jobs);
    if args.json {
        let reg = metrics_out::metrics_registry(&jobs, &reports, &engine);
        print!("{}", reg.to_jsonl());
    } else {
        for id in &args.ids {
            print!("{}", id.run(&engine));
        }
    }
    if let Some(path) = &args.metrics_out {
        let n = metrics_out::write_metrics(path, &jobs, &reports, &engine).map_err(|e| {
            fail(
                1,
                format!("cannot write metrics to {}: {e}", path.display()),
            )
        })?;
        eprintln!("wrote {n} metrics records to {}", path.display());
    }

    // Aggregated call-graph exports: one prefix/process per distinct
    // profiled design point (same dedup as the metrics registry), plus
    // a harness process (pid 0) with the SweepEngine's scheduling
    // timeline above the sim-level routine tracks.
    if args.flame.is_some() || args.trace_events.is_some() {
        let mut seen = HashSet::new();
        let mut stacks: Vec<(String, u64)> = Vec::new();
        let mut tbuf = TraceEventsBuf::new();
        if args.trace_events.is_some() {
            merge_harness_track(&mut tbuf, &engine);
        }
        let mut pid = 0u64;
        for (&(config, workload), report) in jobs.iter().zip(&reports) {
            let key = ConfigKey::new(config, workload);
            if !seen.insert(key) {
                continue;
            }
            if let Some(p) = &report.profile {
                pid += 1;
                let label = key.label();
                if args.flame.is_some() {
                    stacks.extend(attr::folded_stacks(
                        p,
                        &report.energy,
                        args.flame_weight,
                        &label,
                    ));
                }
                if args.trace_events.is_some() {
                    attr::trace_events_into(&mut tbuf, pid, &label, p);
                }
            }
        }
        if let Some(path) = &args.flame {
            write_file(path, &ule_obs::flame::to_folded(&stacks), "folded stacks")?;
        }
        if let Some(path) = &args.trace_events {
            write_file(path, &tbuf.finish(), "trace events")?;
        }
    }
    Ok(0)
}

/// Runs a parsed command line. The flight recorder (and the `--trace`
/// sink) is installed before the subcommand starts, so its epoch
/// precedes the engine's and the merged trace tracks align.
fn run(Command { sub, obs, action }: Command) -> Outcome {
    match action {
        Action::Help => {
            print!("{}", cli::help(sub));
            return Ok(0);
        }
        Action::List => {
            for id in ExperimentId::VARIANTS {
                println!("{id}");
            }
            println!("all");
            return Ok(0);
        }
        _ => {}
    }
    obs.install().map_err(|e| fail(2, e))?;
    if obs.progress_on() {
        ule_obs::progress::start(sub.title());
    }
    let outcome = match action {
        Action::Run(args) => run_experiments(args),
        Action::Verify(args) => run_verify(args),
        Action::Diff(args) => run_diff(args),
        Action::Check(args) => run_check(args),
        Action::Profile(args) => run_profile(args),
        Action::Overhead(args) => run_overhead(args),
        Action::Serve(args) => run_serve(args),
        Action::Explore(args) => run_explore(args),
        Action::SelftestFlight => run_selftest_flight(),
        Action::Help | Action::List | Action::Bench(_) => unreachable!("handled above"),
    };
    ule_obs::progress::finish();
    ule_obs::clear_sink();
    outcome
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match cli::parse(Tool::Repro, &args) {
        Err(e) => {
            eprintln!("{e}");
            eprintln!("run `{} --help` for the options", e.sub().title());
            2
        }
        Ok(command) => run(command).unwrap_or_else(|f| {
            eprintln!("{}", f.message);
            f.code
        }),
    };
    std::process::exit(code);
}

/// Writes the harness timeline into `buf` as process 0: one thread per
/// sweep worker, a complete event per cold simulation job (from the
/// engine's [`job spans`](SweepEngine::job_spans)), with the `sys.sim`
/// and `sweep.batch` spans recovered from the flight recorder's ring
/// nested on the same tracks. Loading the merged file in Perfetto shows
/// SweepEngine scheduling directly above the per-design-point routine
/// processes.
fn merge_harness_track(buf: &mut TraceEventsBuf, engine: &SweepEngine) {
    let spans = engine.job_spans();
    let handle = ule_obs::flight::handle();
    let recovered: Vec<String> = handle
        .map(|h| {
            let mut lines = h.lines_of_kind("sweep.batch");
            lines.extend(h.lines_of_kind("sys.sim"));
            lines
        })
        .unwrap_or_default();
    if spans.is_empty() && recovered.is_empty() {
        return;
    }
    buf.process_name(0, "harness (SweepEngine)");
    let mut tids: BTreeMap<String, u64> = BTreeMap::new();
    let mut tid_of = |buf: &mut TraceEventsBuf, thread: &str| -> u64 {
        match tids.get(thread) {
            Some(&t) => t,
            None => {
                let t = tids.len() as u64 + 1;
                tids.insert(thread.to_owned(), t);
                buf.thread_name(0, t, thread);
                t
            }
        }
    };
    for s in &spans {
        let tid = tid_of(buf, &s.thread);
        buf.complete(
            0,
            tid,
            &format!("job {}", s.key.label()),
            s.start.as_micros() as f64,
            s.wall.as_micros() as f64,
            &[],
        );
    }
    // Span events carry their end time (`t_us`, the drop) and duration;
    // start = end - dur. The flight epoch is the recorder's install
    // time, microseconds before the engine's, so the tracks align.
    for line in &recovered {
        let Some(v) = ule_obs::json::parse(line) else {
            continue;
        };
        let (Some(t_us), Some(dur_us), Some(thread), Some(kind)) = (
            v.get("t_us").and_then(|x| x.as_u64()),
            v.get("dur_us").and_then(|x| x.as_u64()),
            v.get("thread").and_then(|x| x.as_str()),
            v.get("kind").and_then(|x| x.as_str()),
        ) else {
            continue;
        };
        let name = if kind == "sweep.batch" {
            format!(
                "batch ({} jobs)",
                v.get("jobs").and_then(|x| x.as_u64()).unwrap_or(0)
            )
        } else {
            format!(
                "sim {} ({})",
                v.get("entry").and_then(|x| x.as_str()).unwrap_or("?"),
                v.get("curve").and_then(|x| x.as_str()).unwrap_or("?"),
            )
        };
        let mut args: Vec<(&str, u64)> = Vec::new();
        if let Some(c) = v.get("cycles").and_then(|x| x.as_u64()) {
            args.push(("cycles", c));
        }
        let tid = tid_of(buf, thread);
        buf.complete(
            0,
            tid,
            &name,
            t_us.saturating_sub(dur_us) as f64,
            dur_us as f64,
            &args,
        );
    }
}
