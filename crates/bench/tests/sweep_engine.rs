//! Thread-safety, memoization, and determinism tests for `SweepEngine`.
//!
//! Cheap `FieldMul` design points keep the suite fast; the properties
//! under test (pointer-equal memo hits, batch-vs-serial bit-identity,
//! typed-key semantics) do not depend on workload size.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ule_bench::{ConfigKey, ExperimentId, Job, SweepEngine};
use ule_core::{MultVariant, RunReport, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_energy::report::Gating;
use ule_monte::MonteConfig;
use ule_pete::icache::CacheConfig;
use ule_swlib::builder::Arch;

fn fieldmul(curve: CurveId, arch: Arch) -> Job {
    (SystemConfig::new(curve, arch), Workload::FieldMul)
}

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SweepEngine>();
    assert_send_sync::<ConfigKey>();
    assert_send_sync::<Arc<RunReport>>();
}

#[test]
fn memo_hits_are_pointer_equal() {
    let engine = SweepEngine::new();
    let (cfg, w) = fieldmul(CurveId::P192, Arch::Baseline);
    let a = engine.run(cfg, w);
    let b = engine.run(cfg, w);
    assert!(Arc::ptr_eq(&a, &b), "second run must recall the same Arc");
    assert_eq!(engine.simulations(), 1);
}

#[test]
fn overlapping_keys_across_threads_share_one_simulation() {
    // 8 threads all racing on the same 2 design points: every returned
    // Arc for a given point must be the same allocation, and the engine
    // must have simulated each point exactly once.
    let engine = SweepEngine::new();
    let points = [
        fieldmul(CurveId::P192, Arch::Baseline),
        fieldmul(CurveId::K163, Arch::Baseline),
    ];
    let reports: Vec<Vec<Arc<RunReport>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let engine = &engine;
                let points = &points;
                s.spawn(move || {
                    points
                        .iter()
                        .map(|&(c, w)| engine.run(c, w))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for per_thread in &reports {
        assert!(Arc::ptr_eq(&per_thread[0], &reports[0][0]));
        assert!(Arc::ptr_eq(&per_thread[1], &reports[0][1]));
    }
    assert_eq!(engine.simulations(), 2);
}

#[test]
fn cold_batch_matches_serial_bit_for_bit() {
    let jobs: Vec<Job> = [CurveId::P192, CurveId::P256, CurveId::K163, CurveId::K233]
        .iter()
        .flat_map(|&c| {
            [Arch::Baseline, Arch::IsaExt]
                .into_iter()
                .map(move |a| fieldmul(c, a))
        })
        .collect();

    let serial = SweepEngine::new().with_threads(1);
    let parallel = SweepEngine::new().with_threads(4);
    let a = serial.run_batch(&jobs);
    let b = parallel.run_batch(&jobs);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.as_ref(), y.as_ref(), "reports must be bit-identical");
    }
    assert_eq!(serial.simulations(), parallel.simulations());
}

#[test]
fn batch_results_line_up_with_jobs_and_dedup() {
    let engine = SweepEngine::new();
    let p = fieldmul(CurveId::P192, Arch::Baseline);
    let q = fieldmul(CurveId::K163, Arch::Baseline);
    let jobs = vec![p, q, p, p, q];
    let out = engine.run_batch(&jobs);
    assert_eq!(out.len(), jobs.len());
    assert!(Arc::ptr_eq(&out[0], &out[2]));
    assert!(Arc::ptr_eq(&out[0], &out[3]));
    assert!(Arc::ptr_eq(&out[1], &out[4]));
    assert!(!Arc::ptr_eq(&out[0], &out[1]));
    assert_eq!(engine.simulations(), 2, "duplicates simulate once");
}

#[test]
fn config_key_distinguishes_every_knob() {
    let base = SystemConfig::new(CurveId::K163, Arch::Billie);
    let variants = [
        base,
        SystemConfig::new(CurveId::K233, Arch::Billie),
        SystemConfig::new(CurveId::K163, Arch::Baseline),
        base.with_gating(Gating::Clock),
        base.with_gating(Gating::Power),
        base.with_billie_sram_rf(true),
        base.with_billie_digit(8),
        base.with_mult_variant(MultVariant::OperandScan),
        base.with_icache(CacheConfig::best()),
        base.with_icache(CacheConfig::real(1024, true)),
        base.with_icache(CacheConfig::ideal()),
        base.with_monte(MonteConfig {
            double_buffer: false,
            forwarding: false,
            queue_depth: 4,
        }),
    ];
    for (i, &a) in variants.iter().enumerate() {
        for (j, &b) in variants.iter().enumerate() {
            let ka = ConfigKey::new(a, Workload::FieldMul);
            let kb = ConfigKey::new(b, Workload::FieldMul);
            if i == j {
                assert_eq!(ka, kb);
                assert_eq!(hash_of(&ka), hash_of(&kb), "equal keys must hash equal");
            } else {
                assert_ne!(ka, kb, "knob {i} vs {j} must produce distinct keys");
            }
        }
    }
    // Same config, different workload: distinct key.
    assert_ne!(
        ConfigKey::new(base, Workload::Sign),
        ConfigKey::new(base, Workload::Verify)
    );
}

#[test]
fn workload_changes_key_but_config_reuses_system() {
    let engine = SweepEngine::new();
    let cfg = SystemConfig::new(CurveId::P192, Arch::Baseline);
    let a = engine.run(cfg, Workload::FieldMul);
    let b = engine.run(cfg, Workload::ScalarMul);
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(engine.simulations(), 2);
}

#[test]
fn blocked_worker_spawns_degrade_gracefully() {
    let jobs: Vec<Job> = [CurveId::P192, CurveId::P256, CurveId::K163, CurveId::K233]
        .iter()
        .map(|&c| fieldmul(c, Arch::Baseline))
        .collect();
    let reference = SweepEngine::new().with_threads(1).run_batch(&jobs);

    // Every spawn fails: the batch must fall back to inline execution
    // on the caller thread (spawns happen on the calling thread, so the
    // thread-local shim budget is visible to run_batch).
    let engine = SweepEngine::new().with_threads(4);
    let all_blocked = {
        let _shim = ule_testkit::threads::fail_next_spawns(4);
        engine.run_batch(&jobs)
    };
    assert_eq!(all_blocked.len(), jobs.len());
    for (x, y) in all_blocked.iter().zip(&reference) {
        assert_eq!(
            x.as_ref(),
            y.as_ref(),
            "inline fallback must not change results"
        );
    }

    // Thread limit hit partway through the fan-out: the workers that
    // did spawn drain the whole queue.
    let engine = SweepEngine::new().with_threads(4);
    let partial = {
        let _shim = ule_testkit::threads::fail_spawns_after(1, 3);
        engine.run_batch(&jobs)
    };
    for (x, y) in partial.iter().zip(&reference) {
        assert_eq!(
            x.as_ref(),
            y.as_ref(),
            "degraded pool must not change results"
        );
    }
}

#[test]
fn thread_count_overrides() {
    assert_eq!(SweepEngine::new().with_threads(3).threads(), 3);
    assert!(SweepEngine::new().threads() >= 1);
}

#[test]
fn experiment_ids_round_trip_and_parse() {
    for id in ExperimentId::VARIANTS {
        let parsed: ExperimentId = id.name().parse().unwrap();
        assert_eq!(parsed, id);
        assert_eq!(format!("{id}"), id.name());
    }
    assert!("fig9_99".parse::<ExperimentId>().is_err());
    assert_eq!(ExperimentId::ALL.len(), 23);
    assert!(!ExperimentId::ALL.contains(&ExperimentId::T7_4));
}

#[test]
fn experiment_jobs_cover_the_rendered_points() {
    // Pre-warming an experiment's job list must leave nothing to
    // simulate at render time: run the batch, snapshot the simulation
    // count, render, and require the count unchanged. This pins every
    // `jobs()` list to the design points its renderer actually reads.
    // (FieldMul-cheap it is not — so restrict to the fastest three
    // simulation-backed experiments plus the table-only ones.)
    for id in [
        ExperimentId::Fig7_14,
        ExperimentId::S7_8,
        ExperimentId::Fig7_15,
        ExperimentId::T7_3,
        ExperimentId::T7_5,
    ] {
        let engine = SweepEngine::new();
        engine.run_batch(&id.jobs());
        let warmed = engine.simulations();
        let _ = id.run(&engine);
        assert_eq!(
            engine.simulations(),
            warmed,
            "{id}: renderer simulated points missing from jobs()"
        );
    }
}

#[test]
fn mult_variant_factor_is_single_sourced() {
    // The §7.8 scaling used by the sweep API must be the enum's own
    // `factor()`: Karatsuba (factor 1.0) reproduces the baseline report
    // exactly, and the costlier variants scale monotonically with it.
    let engine = SweepEngine::new();
    let variant = |v| {
        engine.run(
            SystemConfig::new(CurveId::P192, Arch::Baseline).with_mult_variant(v),
            Workload::SignVerify,
        )
    };
    let base = engine.sv(CurveId::P192, Arch::Baseline);
    let kara = variant(MultVariant::Karatsuba);
    assert_eq!(kara.cycles, base.cycles);
    assert_eq!(kara.energy.total_uj(), base.energy.total_uj());

    let mut last = base.energy.total_uj();
    let mut last_factor = MultVariant::Karatsuba.factor();
    for v in [MultVariant::OperandScan, MultVariant::Parallel] {
        let r = variant(v);
        assert_eq!(r.cycles, base.cycles, "§7.8 variants are timing-neutral");
        assert!(v.factor() > last_factor, "{v:?}: factor must increase");
        assert!(
            r.energy.total_uj() > last,
            "{v:?}: a costlier multiplier must cost more energy"
        );
        last = r.energy.total_uj();
        last_factor = v.factor();
    }
}

/// Every one-knob change from `SystemConfig::new` gets a label of its
/// own under both label functions (the sweep engine's `ConfigKey` and
/// the explorer's frontier label), and default points keep their
/// labels.
#[test]
fn every_one_knob_change_gets_a_distinct_label() {
    for (curve, arch) in [
        (CurveId::P192, Arch::Monte),
        (CurveId::K163, Arch::Billie),
        (CurveId::P256, Arch::IsaExt),
    ] {
        let base = SystemConfig::new(curve, arch);
        let mut points = vec![base];
        let mut cache = |f: &dyn Fn(&mut CacheConfig)| {
            let mut c = CacheConfig::real(4096, false);
            f(&mut c);
            points.push(base.with_icache(c));
        };
        cache(&|_| {});
        for size in [16, 32, 512, 1024] {
            cache(&|c| c.size_bytes = size);
        }
        cache(&|c| c.prefetch = true);
        cache(&|c| c.ideal = true);
        cache(&|c| c.miss_penalty = 5);
        let mut knob = |f: &dyn Fn(&mut SystemConfig)| {
            let mut c = base;
            f(&mut c);
            points.push(c);
        };
        knob(&|c| c.monte.double_buffer = false);
        knob(&|c| c.monte.forwarding = false);
        knob(&|c| c.monte.queue_depth = 2);
        knob(&|c| c.billie_digit = 4);
        knob(&|c| c.billie_sram_rf = true);
        knob(&|c| c.mult_variant = MultVariant::OperandScan);
        knob(&|c| c.mult_variant = MultVariant::Parallel);
        knob(&|c| c.gating = Gating::Clock);
        knob(&|c| c.gating = Gating::Power);
        let key_labels: Vec<String> = points
            .iter()
            .map(|&c| ConfigKey::new(c, Workload::Sign).label())
            .collect();
        let dse_labels: Vec<String> = points.iter().map(ule_dse::explore::label).collect();
        for labels in [&key_labels, &dse_labels] {
            let distinct: std::collections::HashSet<&String> = labels.iter().collect();
            assert_eq!(distinct.len(), points.len(), "{labels:#?}");
        }
    }
    // Default points keep their labels byte for byte.
    let p192 = SystemConfig::new(CurveId::P192, Arch::Monte);
    let k163 = SystemConfig::new(CurveId::K163, Arch::Billie);
    assert_eq!(
        ConfigKey::new(p192, Workload::SignVerify).label(),
        "P-192/monte/sign_verify"
    );
    assert_eq!(ule_dse::explore::label(&p192), "P-192 monte");
    assert_eq!(ule_dse::explore::label(&k163), "K-163 billie d3");
    assert_eq!(
        ule_dse::explore::label(&p192.with_icache(CacheConfig::real(4096, true))),
        "P-192 monte i$4K+pf"
    );
    assert_eq!(
        ConfigKey::new(
            p192.with_icache(CacheConfig::real(4096, true)),
            Workload::Sign
        )
        .label(),
        "P-192/monte/sign/ic4096p"
    );
}
