//! `host_serve`: `run_service` on P-256 and K-163 at batch sizes 1 and
//! 16, one shard, traffic and RLC coefficients from the seed. Nothing is
//! simulated in the timed phase: the work is host curve arithmetic.

use std::hint::black_box;
use std::time::Instant;

use ule_core::space::area_kge;
use ule_core::{RunOptions, System, SystemConfig, Workload};
use ule_curves::ecdsa::{self, BatchItem, Keypair};
use ule_curves::params::{Curve, CurveId};
use ule_obs::hist::LatencyHist;
use ule_serve::metrics::{energy_uj_per_million_requests, op_scale, weighted_ops, SimCosts};
use ule_serve::{run_service, ServeConfig, ServeOutcome};
use ule_swlib::builder::Arch;

use crate::calib::{self, Metered};
use crate::common::*;
use crate::trace::{span, Tracer};

/// Requests per service run.
const REQUESTS: usize = 64;
/// Service runs per (curve, batch size) in a pass, each on its own
/// seeded traffic. Short runs let the host-speed calibration sample
/// between them.
const RUNS: u64 = 4;
const CURVES: [CurveId; 2] = [CurveId::P256, CurveId::K163];
const BATCHES: [usize; 2] = [1, 16];
/// The architecture whose simulated verify cost anchors the virtual
/// clock (`repro serve`'s default).
const ANCHOR_ARCH: Arch = Arch::IsaExt;

struct Setup {
    /// Per curve: the anchor's simulated per-verify cost and its
    /// simulated Sign+Verify cycles.
    anchors: Vec<(CurveId, SimCosts, u64)>,
    /// A pass's service runs, in order.
    configs: Vec<ServeConfig>,
    plan_ms: f64,
}

fn setup(seed: u64) -> Setup {
    let mut anchors = Vec::new();
    for curve in CURVES {
        let config = SystemConfig::new(curve, ANCHOR_ARCH);
        let sys = System::new(config);
        calib::tick();
        let verify = sys.run_with(RunOptions::new(Workload::Verify));
        calib::tick();
        let sign = sys.run_with(RunOptions::new(Workload::Sign));
        anchors.push((
            curve,
            SimCosts {
                arch: arch_key(ANCHOR_ARCH).to_owned(),
                cycles: verify.cycles,
                energy_uj: verify.energy_uj(),
                area_kge: area_kge(&config),
            },
            sign.cycles + verify.cycles,
        ));
    }
    let configs = service_configs(&anchors, seed);
    let curves = CURVES.map(|c| (c, c.curve()));
    let mut plan_ms = 0.0;
    for cfg in &configs {
        calib::tick();
        let (_, curve) = curves
            .iter()
            .find(|(id, _)| *id == cfg.curve)
            .expect("served curve");
        let t0 = Instant::now();
        black_box(ule_serve::request::plan_shards(curve, cfg));
        plan_ms += secs(t0) * 1e3;
    }
    Setup {
        anchors,
        configs,
        plan_ms,
    }
}

/// Per curve, per traffic seed: the batch-1 run, then the batched run
/// over the same traffic (batch 1 is its op-scale reference).
fn service_configs(anchors: &[(CurveId, SimCosts, u64)], seed: u64) -> Vec<ServeConfig> {
    let mut v = Vec::new();
    for (curve, costs, _) in anchors {
        for k in 0..RUNS {
            for batch in BATCHES {
                v.push(ServeConfig {
                    curve: *curve,
                    requests: REQUESTS,
                    batch_size: batch,
                    shards: 1,
                    seed: seed.wrapping_add(k << 32),
                    arrival_rate: 0.25,
                    cycles_per_verify: costs.cycles,
                });
            }
        }
    }
    v
}

/// One pass: every service run, with the calibration mark it began at.
fn pass(s: &Setup, tr: Option<&Tracer>) -> (Metered, Vec<(ServeOutcome, usize)>) {
    calib::begin();
    let mut outs = Vec::new();
    for cfg in &s.configs {
        calib::tick();
        let mark = calib::mark();
        outs.push((span(tr, "serve.run_service", || run_service(cfg)), mark));
    }
    (calib::end(), outs)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, s) = repeated_setup(3, || setup(args.seed));
    out.setup_s = setup_s;
    let mut verify_rates = Vec::new();
    let mut last: Option<Vec<ServeOutcome>> = None;
    timed_passes(&mut out, args.seconds, |out| {
        let (wall, runs) = pass(&s, None);
        let mut verified = 0;
        let mut verify_s = 0.0;
        for (o, mark) in &runs {
            let n = o.accepted + o.rejected;
            let secs = o.wall.as_secs_f64() * wall.local_scale(*mark);
            verified += n;
            verify_s += secs;
            let point = format!("{}/b{}", o.config.curve.name(), o.config.batch_size);
            out.point(point, ratio(secs * 1e3, n as f64));
        }
        verify_rates.push(ratio(verified as f64, verify_s));
        last = Some(runs.into_iter().map(|(o, _)| o).collect());
        wall
    });
    let tracer = args.trace.then(Tracer::new);
    let (traced_wall, outs) = match &tracer {
        Some(t) => {
            let (wall, runs) = pass(&s, Some(t));
            (wall.seconds(), runs.into_iter().map(|(o, _)| o).collect())
        }
        None => (0.0, last.expect("at least one pass")),
    };

    out.attempted = (REQUESTS * outs.len()) as u64;
    out.failed = outs.iter().map(|o| o.mismatches as u64).sum();
    let answered = outs
        .iter()
        .all(|o| o.accepted + o.rejected == o.config.requests);
    out.check(
        "serve_mismatches_zero",
        out.failed == 0,
        format!("{} verdict mismatches", out.failed),
    );
    out.check(
        "serve_every_request_answered",
        answered,
        "accepted + rejected == requests per run",
    );
    let mut fleet = LatencyHist::new();
    let mut service_cycles = 0u64;
    let mut energy = 0.0;
    for (i, o) in outs.iter().enumerate() {
        fleet.merge(&o.telemetry.fleet_hist);
        service_cycles += o
            .telemetry
            .traces
            .iter()
            .map(|t| t.service_cycles)
            .sum::<u64>();
        let reference = &outs[i - i % BATCHES.len()];
        let costs = &s.anchors[i / (BATCHES.len() * RUNS as usize)].1;
        energy += energy_uj_per_million_requests(costs, op_scale(o, reference))
            * o.config.requests as f64
            / 1e6;
    }
    out.sim_cycles = service_cycles as f64;
    out.sim_energy_uj = energy;
    out.p99_cycles = fleet.percentile(99.0) as f64;
    out.verify_per_s = median(&verify_rates);
    let (err, _) = paper_error(|curve, arch| {
        let (_, _, sv) = s.anchors.iter().find(|a| a.0 == curve)?;
        (arch == ANCHOR_ARCH).then_some(*sv)
    });
    out.paper_cycles_err = err;

    if let Some(t) = &tracer {
        let batches: usize = outs.iter().map(|o| o.batches).sum();
        let rlc: usize = outs.iter().map(|o| o.rlc_batches).sum();
        out.layer(
            "serve.rlc_ratio",
            ratio(rlc as f64, batches as f64),
            "ratio",
        );
        out.layer(
            "serve.weighted_ops",
            outs.iter().map(|o| weighted_ops(&o.ops)).sum::<u64>() as f64,
            "count",
        );
        out.layer("serve.plan_ms", s.plan_ms, "ms");
        out.layer(
            "serve.queue_depth_max",
            outs.iter()
                .map(|o| o.telemetry.queue_depth_max)
                .max()
                .unwrap_or(0) as f64,
            "count",
        );
        let util: Vec<f64> = outs
            .iter()
            .flat_map(|o| o.telemetry.utilization.iter().copied())
            .collect();
        out.layer(
            "serve.utilization",
            ratio(util.iter().sum(), util.len() as f64),
            "ratio",
        );
        host_probes(args.seed, t, &mut out);
        crate::layers::system_new(
            &CURVES.map(|c| SystemConfig::new(c, ANCHOR_ARCH)),
            t,
            &mut out,
        );
        crate::layers::finish_trace(t, traced_wall, median(&out.pass_s), &mut out);
    }
    out
}

/// Items of one batch: 16 hinted signatures under one seeded key.
fn batch_items(curve: &Curve, seed: u64) -> (Keypair, Vec<BatchItem>) {
    let keys = Keypair::derive(curve, &seed.to_le_bytes());
    let items = (0u32..16)
        .filter_map(|i| {
            let msg = [&seed.to_le_bytes()[..], &i.to_le_bytes()[..]].concat();
            let e = ecdsa::hash_to_scalar(curve, &msg);
            let k = ecdsa::derive_scalar(curve, &msg, b"nonce");
            let (sig, hint) = ecdsa::sign_with_nonce_recoverable(curve, keys.private(), &e, &k)?;
            Some(BatchItem {
                e,
                sig,
                hint: Some(hint),
            })
        })
        .collect();
    (keys, items)
}

/// `host.*`: the curves-layer calls behind `verify_per_s`, timed alone.
fn host_probes(seed: u64, tr: &Tracer, out: &mut Outcome) {
    let mut verify_ms = Vec::new();
    let mut batch_ms = Vec::new();
    let mut all_ok = true;
    for id in CURVES {
        let curve = id.curve();
        let (keys, items) = batch_items(&curve, seed);
        let public = keys.public();
        for item in &items {
            let t0 = Instant::now();
            all_ok &= tr.span("curves.verify", || {
                ecdsa::verify_prehashed(&curve, &public, &item.e, &item.sig)
            });
            verify_ms.push(secs(t0) * 1e3);
        }
        for _ in 0..2 {
            let t0 = Instant::now();
            let v = tr.span("curves.batch_verify", || {
                ecdsa::verify_batch_prehashed(&curve, &public, &items, seed)
            });
            batch_ms.push(secs(t0) * 1e3);
            all_ok &= v.ok.len() == items.len() && v.ok.iter().all(|&ok| ok);
        }
    }
    let x = CurveId::X25519.curve();
    let mont = x.mont();
    let mut ladder_ms = Vec::new();
    let mut u = mont.base_u().clone();
    for i in 0u64..16 {
        let k = mont.clamp(&[seed.to_le_bytes(), i.to_le_bytes(), [7; 8], [9; 8]].concat());
        let t0 = Instant::now();
        u = tr.span("curves.ladder", || mont.ladder(&k, &u));
        ladder_ms.push(secs(t0) * 1e3);
    }
    out.check(
        "host_probes_verify",
        all_ok,
        "probe signatures verify singly and in batches",
    );
    out.layer("host.verify_ms", median(&verify_ms), "ms");
    out.layer("host.batch_verify_ms", median(&batch_ms), "ms");
    out.layer("host.ladder_ms", median(&ladder_ms), "ms");
}
