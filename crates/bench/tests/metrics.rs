//! Metrics-schema and profiler-attribution tests.
//!
//! The golden file `tests/golden/metrics_schema.txt` pins the exact key
//! set (and order) of every record kind `--metrics-out` emits. A
//! failing schema test means a key was renamed, removed, or reordered —
//! bump `ule_obs::record::SCHEMA_VERSION` for renames/removals, then
//! regenerate with `ULE_UPDATE_GOLDEN=1 cargo test -p ule-bench`.

use ule_bench::{metrics_out, ConfigKey, Job, SweepEngine};
use ule_core::metrics::design_point_record;
use ule_core::{RawStats, RunOptions, RunReport, System, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_energy::{Activity, EnergyBreakdown};
use ule_obs::json::is_valid;
use ule_obs::record::SCHEMA_VERSION;
use ule_obs::Value;
use ule_pete::cop::CopStats;
use ule_pete::cpu::Counters;
use ule_pete::icache::CacheStats;
use ule_pete::mem::MemStats;
use ule_swlib::builder::Arch;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics_schema.txt")
}

/// Golden-file test: the flat key list of every record kind, pinned.
#[test]
fn metrics_schema_matches_golden() {
    let engine = SweepEngine::new().with_threads(1);
    let jobs: Vec<Job> = vec![(
        SystemConfig::new(CurveId::P192, Arch::Baseline),
        Workload::FieldMul,
    )];
    let reports = engine.run_batch(&jobs);
    let reg = metrics_out::metrics_registry(&jobs, &reports, &engine);
    assert_eq!(reg.records().len(), 2, "one design point + one summary");

    let mut actual = String::new();
    for rec in reg.records() {
        let Some(Value::Str(kind)) = rec.get("record") else {
            panic!("record without a kind");
        };
        assert_eq!(
            rec.get("schema_version"),
            Some(&Value::U64(SCHEMA_VERSION)),
            "record {kind} carries the schema version"
        );
        let line = rec.to_json();
        assert!(is_valid(&line), "invalid JSON: {line}");
        actual.push_str(&format!("[{kind}]\n"));
        for key in rec.keys() {
            actual.push_str(key);
            actual.push('\n');
        }
        actual.push('\n');
    }

    // The explorer journal's record kinds (new in v3), pinned alongside
    // the sweep records so `frontier`/`dse_summary` key drift is caught
    // by the same golden file.
    let objectives = ule_dse::Objectives {
        cycles: 1,
        energy_uj: 2.0,
        area_kge: 3.0,
    };
    let outcome = ule_dse::ExploreOutcome {
        space: "smoke".into(),
        workload: jobs[0].1,
        seed: 0,
        lattice_points: 1,
        evaluated: 1,
        resumed: 0,
        simulated: 0,
        frontier: vec![ule_dse::FrontierEntry {
            rank: 0,
            config: jobs[0].0,
            objectives,
        }],
    };
    let frontier = ule_dse::journal::frontier_record("smoke", jobs[0].1, &outcome.frontier[0]);
    let summary = ule_dse::journal::dse_summary_record(&outcome);
    for rec in [&frontier, &summary] {
        let Some(Value::Str(kind)) = rec.get("record") else {
            panic!("record without a kind");
        };
        assert_eq!(
            rec.get("schema_version"),
            Some(&Value::U64(SCHEMA_VERSION)),
            "record {kind} carries the schema version"
        );
        let line = rec.to_json();
        assert!(is_valid(&line), "invalid JSON: {line}");
        actual.push_str(&format!("[{kind}]\n"));
        for key in rec.keys() {
            actual.push_str(key);
            actual.push('\n');
        }
        actual.push('\n');
    }

    // The service layer's record kinds (v4, plus the v5 latency/SLA
    // kinds), pinned the same way so `serve_point`/`serve_summary`/
    // `serve_frontier`/`serve_latency`/`sla_summary` key drift is
    // caught here too.
    let serve_runs = {
        let reference = ule_serve::run_service(&ule_serve::ServeConfig {
            requests: 8,
            batch_size: 1,
            shards: 1,
            seed: 5,
            ..ule_serve::ServeConfig::new(CurveId::P192)
        });
        let batched = ule_serve::run_service(&ule_serve::ServeConfig {
            batch_size: 4,
            ..reference.config
        });
        let scale = ule_serve::metrics::op_scale(&batched, &reference);
        vec![(reference, 1.0), (batched, scale)]
    };
    let costs = ule_serve::metrics::SimCosts {
        arch: "isa_ext".into(),
        cycles: 400_000,
        energy_uj: 30.0,
        area_kge: 14.0,
    };
    let point = ule_serve::metrics::serve_point_record(&serve_runs[0].0, 1.0, &costs);
    let summary = ule_serve::metrics::serve_summary_record(&serve_runs);
    let (_, frontier_recs) =
        ule_serve::metrics::frontier_records(std::slice::from_ref(&costs), &serve_runs);
    let first_frontier = frontier_recs.first().expect("non-empty serve frontier");
    // Fleet and per-shard serve_latency records share one key set, so
    // pinning the fleet record (always first) pins both.
    let latency_recs = ule_serve::metrics::serve_latency_records(&serve_runs[0].0);
    let latency = latency_recs.first().expect("fleet latency record");
    let sla = ule_serve::metrics::sla_summary_record(&serve_runs[0].0, 1.0, &costs);
    for rec in [&point, &summary, first_frontier, latency, &sla] {
        let Some(Value::Str(kind)) = rec.get("record") else {
            panic!("record without a kind");
        };
        assert_eq!(
            rec.get("schema_version"),
            Some(&Value::U64(SCHEMA_VERSION)),
            "record {kind} carries the schema version"
        );
        let line = rec.to_json();
        assert!(is_valid(&line), "invalid JSON: {line}");
        actual.push_str(&format!("[{kind}]\n"));
        for key in rec.keys() {
            actual.push_str(key);
            actual.push('\n');
        }
        actual.push('\n');
    }

    // The one nested field: the key set of a v2 `profile` entry, pinned
    // from a real profiled run.
    let profiled = System::new(jobs[0].0).run_with(RunOptions::new(jobs[0].1).profiled());
    let rec = design_point_record(&jobs[0].0, jobs[0].1, &profiled);
    let Some(Value::Raw(profile_json)) = rec.get("profile") else {
        panic!("profiled record must carry a profile field");
    };
    let doc = ule_obs::json::parse(profile_json).expect("profile JSON parses");
    let first = doc.as_array().and_then(|a| a.first()).expect("non-empty");
    actual.push_str("[design_point.profile[]]\n");
    for (key, _) in first.as_object().expect("profile entries are objects") {
        actual.push_str(key);
        actual.push('\n');
    }
    actual.push('\n');

    let path = golden_path();
    if std::env::var_os("ULE_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("golden schema file (regenerate with ULE_UPDATE_GOLDEN=1)");
    assert_eq!(
        actual, expected,
        "metrics schema drifted: renames/removals need a SCHEMA_VERSION bump, \
         then regenerate with ULE_UPDATE_GOLDEN=1 cargo test -p ule-bench"
    );
}

/// Round-trip: every `Counters`/`MemStats`/`CacheStats`/`CopStats`
/// field, filled with a unique sentinel, must surface in the record
/// under its own key (no silently-dropped and no aliased counters).
#[test]
fn every_counter_field_reaches_the_record() {
    let counters = Counters {
        instructions: 101,
        cycles: 102,
        stall_cycles: 103,
        load_use_stalls: 104,
        branches: 105,
        mispredicts: 106,
        mult_active_cycles: 107,
        mult_stalls: 108,
        mult_ops: 109,
        div_ops: 110,
        cop2_ops: 111,
        cop2_stalls: 112,
        fetches: 113,
    };
    let raw = RawStats {
        rom: MemStats {
            reads: 201,
            writes: 202,
            line_reads: 203,
        },
        ram: MemStats {
            reads: 204,
            writes: 205,
            line_reads: 206,
        },
        icache: Some(CacheStats {
            accesses: 301,
            misses: 302,
            prefetch_hits: 303,
            rom_line_reads: 304,
            fills: 305,
            stall_cycles: 306,
        }),
        cop: CopStats {
            busy_cycles: 401,
            dma_cycles: 402,
            instructions: 403,
            ram_reads: 404,
            ram_writes: 405,
            ucode_reads: 406,
            mul_ops: 407,
            ls_ops: 408,
        },
    };
    let report = RunReport {
        cycles: 102,
        counters,
        raw,
        activity: Activity::default(),
        energy: EnergyBreakdown::default(),
        profile: None,
    };
    let cfg = SystemConfig::new(CurveId::P192, Arch::Baseline);
    let rec = design_point_record(&cfg, Workload::Sign, &report);

    let expected: &[(&str, u64)] = &[
        ("pete_instructions", 101),
        ("pete_cycles", 102),
        ("pete_stall_cycles", 103),
        ("pete_load_use_stalls", 104),
        ("pete_branches", 105),
        ("pete_mispredicts", 106),
        ("pete_mult_active_cycles", 107),
        ("pete_mult_stalls", 108),
        ("pete_mult_ops", 109),
        ("pete_div_ops", 110),
        ("pete_cop2_ops", 111),
        ("pete_cop2_stalls", 112),
        ("pete_fetches", 113),
        ("rom_reads", 201),
        ("rom_writes", 202),
        ("rom_line_reads", 203),
        ("ram_reads", 204),
        ("ram_writes", 205),
        ("ram_line_reads", 206),
        ("icache_accesses", 301),
        ("icache_misses", 302),
        ("icache_prefetch_hits", 303),
        ("icache_rom_line_reads", 304),
        ("icache_fills", 305),
        ("icache_stall_cycles", 306),
        ("cop_busy_cycles", 401),
        ("cop_dma_cycles", 402),
        ("cop_instructions", 403),
        ("cop_ram_reads", 404),
        ("cop_ram_writes", 405),
        ("cop_ucode_reads", 406),
        ("cop_mul_ops", 407),
        ("cop_ls_ops", 408),
    ];
    for &(key, sentinel) in expected {
        assert_eq!(
            rec.get(key),
            Some(&Value::U64(sentinel)),
            "counter sentinel {sentinel} must surface as {key}"
        );
    }
    assert!(is_valid(&rec.to_json()));
}

/// Profiler attribution on a real workload: one P-192 Sign on the
/// baseline — routine buckets must sum *exactly* to total cycles and
/// the field-arithmetic routines must be non-empty.
#[test]
fn profiler_buckets_sum_to_total_cycles_on_p192_sign() {
    let sys = System::new(SystemConfig::new(CurveId::P192, Arch::Baseline));
    let report = sys.run_with(RunOptions::new(Workload::Sign).profiled());
    let profile = report.profile.as_ref().expect("profiled run");

    assert_eq!(
        profile.total_cycles(),
        report.cycles,
        "buckets must account for every cycle"
    );
    assert_eq!(profile.total_instructions(), report.counters.instructions);

    let fmul = profile.find("fmul").expect("field-mult routine present");
    assert!(fmul.cycles > 0, "fp_mul bucket must be non-empty");
    assert!(fmul.instructions > 0);
    let fred = profile.find("fred").expect("reduction routine present");
    assert!(fred.cycles > 0, "reduction bucket must be non-empty");

    // The profiled metrics record carries the breakdown as JSON.
    let cfg = SystemConfig::new(CurveId::P192, Arch::Baseline);
    let rec = design_point_record(&cfg, Workload::Sign, &report);
    let Some(Value::Raw(profile_json)) = rec.get("profile") else {
        panic!("profiled record must carry a profile field");
    };
    assert!(is_valid(profile_json));
    assert!(profile_json.contains("\"fmul\""));
}

/// A profiled report is numerically identical to an unprofiled one —
/// profiling observes, it never perturbs the simulation.
#[test]
fn profiling_does_not_change_results() {
    let sys = System::new(SystemConfig::new(CurveId::P192, Arch::Baseline));
    let plain = sys.run_with(RunOptions::new(Workload::FieldMul));
    let profiled = sys.run_with(RunOptions::new(Workload::FieldMul).profiled());
    assert_eq!(plain.cycles, profiled.cycles);
    assert_eq!(plain.counters, profiled.counters);
    assert_eq!(plain.raw, profiled.raw);
    assert_eq!(plain.energy, profiled.energy);
    assert!(plain.profile.is_none());
    assert!(profiled.profile.is_some());
}

/// Engine counters: a repeated job is a memo hit, not a re-simulation,
/// and cold jobs get exactly one wall-clock timing entry.
#[test]
fn engine_stats_count_memo_hits_and_timings() {
    let engine = SweepEngine::new().with_threads(1);
    let cfg = SystemConfig::new(CurveId::P192, Arch::Baseline);
    engine.run(cfg, Workload::FieldMul);
    engine.run(cfg, Workload::FieldMul);
    let stats = engine.stats();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.memo_hits, 1);
    assert_eq!(stats.inflight_waits, 0);
    assert_eq!(stats.simulations, 1);

    let timings = engine.job_timings();
    assert_eq!(timings.len(), 1, "one timing entry per cold simulation");
    assert_eq!(timings[0].0, ConfigKey::new(cfg, Workload::FieldMul));

    let rec = metrics_out::engine_summary_record(&engine);
    assert!(is_valid(&rec.to_json()));
    assert_eq!(rec.get("requests"), Some(&Value::U64(2)));
    assert_eq!(rec.get("memo_hits"), Some(&Value::U64(1)));
    assert_eq!(rec.get("simulations"), Some(&Value::U64(1)));
}

/// `--metrics-out` plumbing: the registry deduplicates repeated design
/// points and every line is valid JSON.
#[test]
fn registry_dedupes_and_emits_valid_jsonl() {
    let engine = SweepEngine::new().with_threads(1);
    let job: Job = (
        SystemConfig::new(CurveId::P192, Arch::Baseline),
        Workload::FieldMul,
    );
    let jobs = vec![job, job];
    let reports = engine.run_batch(&jobs);
    let reg = metrics_out::metrics_registry(&jobs, &reports, &engine);
    // 2 submitted, 1 distinct + 1 engine summary.
    assert_eq!(reg.records().len(), 2);
    for line in reg.to_jsonl().lines() {
        assert!(is_valid(line), "{line}");
    }
}
