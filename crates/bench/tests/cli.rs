//! The `repro`/`bench` option table: every documented command line
//! parses to the typed options it means, and everything else is a typed
//! error naming the option and the subcommand.

use ule_bench::cli::{self, Action, CliError, Command, Sub, Tool};

/// Every `repro`/`bench` command line in the CI workflow, README,
/// EXPERIMENTS.md and DESIGN.md, then `=>` and `|`-separated pieces of
/// the `Debug` form of the typed [`Command`] it must parse to.
const CORPUS: &str = r#"
repro --list => action: List
repro fig7_1 t7_4 => ids: [Fig7_1, T7_4] | threads: None | json: false | profile: false
repro --profile --trace trace.jsonl --metrics-out metrics.jsonl fig7_1 t7_4 => trace: Some("trace.jsonl") | metrics_out: Some("metrics.jsonl") | profile: true
repro --metrics-out fresh_metrics.jsonl fig7_1 => ids: [Fig7_1] | metrics_out: Some("fresh_metrics.jsonl")
repro diff BASELINE_metrics.jsonl fresh_metrics.jsonl => old: "BASELINE_metrics.jsonl" | new: "fresh_metrics.jsonl" | max_cycles_frac: 0.0, max_energy_frac: 0.0
bench --out BENCH_current.json all => sub: Bench | ids: [Fig7_1, Fig7_2, | Summary] | out: "BENCH_current.json"
repro profile --curve P192 --arch isa_ext --workload sign --top 15 --flame p192_sign.folded --trace-events p192_sign_trace.json => curve: P192, arch: IsaExt, workload: Sign, fast_tier: false, top: 15, flame: Some("p192_sign.folded") | trace_events: Some("p192_sign_trace.json")
repro profile --curve P192 --arch isa_ext --workload sign --flame p192_sign_nj.folded --flame-weight nj => top: 20, flame: Some("p192_sign_nj.folded"), flame_weight: NanoJoules
repro check --flame p192_sign.folded --trace-events p192_sign_trace.json => flame: Some("p192_sign.folded"), trace_events: Some("p192_sign_trace.json"), journal: None, flight_dump: None
repro check --flame p192_sign_nj.folded => flame: Some("p192_sign_nj.folded")
repro profile --tier reference --curve P192 --arch baseline --workload sign --top 10 => curve: P192, arch: Baseline, workload: Sign, fast_tier: false, top: 10
repro profile --tier fast --curve P192 --arch baseline --workload sign --top 10 => fast_tier: true, top: 10
repro overhead --runs 10 => curve: K163, arch: Baseline, workload: Sign, runs: 10, max_pct: 5.0
repro --flight-dump selftest_dump.jsonl selftest-flight => flight_dump: "selftest_dump.jsonl" | action: SelftestFlight
repro check --flight-dump selftest_dump.jsonl => flight_dump: Some("selftest_dump.jsonl")
repro --no-progress --profile --trace-events merged_trace.json fig7_1 => progress: Some(false) | profile: true | trace_events: Some("merged_trace.json")
repro check --trace-events merged_trace.json => trace_events: Some("merged_trace.json")
repro verify --seed 0xULE --iters 2 --curve P192 --inject-fault => iters: 2, curves: [P192], edge: true, negative: true, inject_fault: true, only_case: None, only_config: None, tier: Alternate | oracle: None
repro verify --seed 0xULE --iters 8 => iters: 8, curves: [P192, P224, P256, P384, P521, K163, K233, K283, K409, K571, X25519, X448]
repro profile --curve X25519 --arch baseline --workload handshake --top 5 => curve: X25519, arch: Baseline, workload: Handshake
repro profile --curve X448 --arch monte --workload handshake --top 5 => curve: X448, arch: Monte, workload: Handshake
repro verify --seed 0xULE --iters 1 --curve X25519 --inject-fault => iters: 1, curves: [X25519] | inject_fault: true
repro verify --seed 0xULE --iters 2 --curve X25519 --curve X448 => iters: 2, curves: [X25519, X448]
repro explore --space handshake --seed 0xULE --out handshake.jsonl => space: Some("handshake") | out: Some("handshake.jsonl"), threads: None, report: false
repro check --journal handshake.jsonl => journal: Some("handshake.jsonl")
repro serve --no-progress --seed 0xULE --metrics-out serve_metrics.jsonl => progress: Some(false) | curves: [P256, K163], batch_sizes: [1, 4, 16], shards: 4, requests: 256 | arch: IsaExt, arrival_rate: 0.25, metrics_out: Some("serve_metrics.jsonl"), sla_out: None
repro check --serve serve_metrics.jsonl --serve-min-gain 1.5 => serve: Some("serve_metrics.jsonl"), serve_min_gain: Some(1.5)
repro --no-progress serve --seed 0xULE --metrics-out serve2.jsonl => progress: Some(false) | metrics_out: Some("serve2.jsonl")
repro verify --batch-oracle --seed 0xULE --curve P-192 --curve P-256 --curve K-163 --curve K-233 --batch-cases 12 => oracle: Some(BatchOracleConfig { | curves: [P192, P256, K163, K233], cases: 12, max_batch: 20, only_case: None })
repro --no-progress serve --curve p256 --requests 256 --shards 4 --seed 0xULE --sla-out sla.jsonl --trace-events serve_trace.json --metrics-out serve_metrics.jsonl => progress: Some(false) | curves: [P256], batch_sizes: [1, 4, 16], shards: 4 | sla_out: Some("sla.jsonl"), trace_events: Some("serve_trace.json")
repro check --sla sla.jsonl => sla: Some("sla.jsonl"), max_p99: None
repro check --trace-events serve_trace.json => trace_events: Some("serve_trace.json")
repro --no-progress serve --curve p256 --requests 256 --shards 4 --seed 0xULE --sla-out sla2.jsonl => shards: 4 | metrics_out: None, sla_out: Some("sla2.jsonl")
repro --no-progress serve --curve p256 --requests 256 --shards 2 --seed 0xULE --sla-out sla_s2.jsonl => shards: 2 | sla_out: Some("sla_s2.jsonl")
repro explore --space billie-digit --seed 0xULE --out grid.jsonl => space: Some("billie-digit") | out: Some("grid.jsonl")
repro check --journal grid.jsonl => journal: Some("grid.jsonl")
repro explore --out grid.jsonl --report => space: None | out: Some("grid.jsonl"), threads: None, report: true
repro all => ids: [Fig7_1, Fig7_2, | S8Gating, Summary]
repro fig7_1 => ids: [Fig7_1]
repro explore --space billie-digit --out frontier.jsonl => space: Some("billie-digit") | out: Some("frontier.jsonl")
repro --threads 2 all => threads: Some(2)
repro --format json t7_4 => ids: [T7_4] | json: true
repro --profile --metrics-out m.jsonl fig7_1 => metrics_out: Some("m.jsonl"), profile: true
repro --trace trace.jsonl fig7_1 => trace: Some("trace.jsonl") | ids: [Fig7_1]
bench => sub: Bench | Summary] | threads: None, out: "BENCH_sweep.json"
bench fig7_1 t7_4 --threads 4 => ids: [Fig7_1, T7_4], threads: Some(4)
bench --threads 4 => threads: Some(4)
bench --threads 1 all => threads: Some(1)
repro diff BASELINE_metrics.jsonl fresh.jsonl => new: "fresh.jsonl"
repro diff old.jsonl new.jsonl --max-cycles-pct 1 --max-energy-pct 1 => old: "old.jsonl", new: "new.jsonl" | max_cycles_frac: 0.01, max_energy_frac: 0.01
repro explore --space billie-digit --seed 0xULE --out frontier.jsonl => out: Some("frontier.jsonl")
repro explore --out frontier.jsonl --report => report: true
repro check --journal frontier.jsonl => journal: Some("frontier.jsonl")
repro explore --space my.json => space: Some("my.json")
repro --no-progress serve --metrics-out serve.jsonl => progress: Some(false) | metrics_out: Some("serve.jsonl")
repro serve --curve K-233 --batch-size 2 --batch-size 8 --batch-size 32 --shards 8 --requests 512 => curves: [K233], batch_sizes: [1, 2, 8, 32], shards: 8, requests: 512
repro check --serve serve.jsonl --serve-min-gain 1.5 => serve: Some("serve.jsonl"), serve_min_gain: Some(1.5)
repro verify --batch-oracle --curve P-192 --curve K-163 => curves: [P192, K163], cases: 24
repro check --sla sla.jsonl --max-p99 1100000000 => max_p99: Some(1100000000)
repro serve --curve K-163 --arrival-rate 16 --sla-out hot.jsonl => curves: [K163] | arrival_rate: 16.0 | sla_out: Some("hot.jsonl")
repro profile --curve P-256 --arch isa_ext --workload sign --top 20 => curve: P256, arch: IsaExt, workload: Sign, fast_tier: false, top: 20
repro profile --curve P-256 --arch isa_ext --workload sign --flame p256_sign.folded --trace-events p256_sign_trace.json => flame: Some("p256_sign.folded") | trace_events: Some("p256_sign_trace.json")
repro profile --curve P-256 --arch isa_ext --workload sign --flame p256_sign_nj.folded --flame-weight nj => flame_weight: NanoJoules
repro check --flame p256_sign.folded --trace-events p256_sign_trace.json => flame: Some("p256_sign.folded"), trace_events: Some("p256_sign_trace.json")
repro --profile --flame out.folded --trace-events out.json fig7_1 => profile: true, flame: Some("out.folded"), flame_weight: Cycles, trace_events: Some("out.json")
repro profile --tier fast --curve P-256 --arch baseline --workload sign => curve: P256, arch: Baseline, workload: Sign, fast_tier: true
repro overhead --runs 20 => runs: 20
repro overhead --curve P-192 --max-pct 10 => curve: P192, arch: Baseline, workload: Sign, runs: 3, max_pct: 10.0
repro --progress all => progress: Some(true)
repro verify --progress --iters 64 => progress: Some(true) | iters: 64
repro explore --progress --space billie-digit => progress: Some(true) | space: Some("billie-digit")
repro --flight-dump flight_dump.jsonl fig7_1 => flight_dump: "flight_dump.jsonl"
repro check --flight-dump flight_dump.jsonl => flight_dump: Some("flight_dump.jsonl")
repro --trace-events t.json fig7_1 => trace_events: Some("t.json")
repro verify --seed 0xULE --iters 64 => iters: 64
repro profile --curve X25519 --arch monte --workload xdh => curve: X25519, arch: Monte, workload: Xdh
repro profile --curve X25519 --arch monte --workload handshake => workload: Handshake
repro explore --space handshake --seed 0xULE --out hs.jsonl => out: Some("hs.jsonl")
repro verify --seed 0xULE --iters 8 --curve X25519 --curve X448 => iters: 8, curves: [X25519, X448]
repro verify --tier alternate => iters: 16 | tier: Alternate
repro verify --seed 0xULE --curve P-192 --case random:0 --config baseline => curves: [P192] | only_case: Some(Random(0)), only_config: Some(Baseline)
repro verify --inject-fault => inject_fault: true
repro verify --batch-oracle --seed 0xULE --curve P-192 --batch-case 3 --batch-cases 24 --max-batch 20 => curves: [P192], cases: 24, max_batch: 20, only_case: Some(3)
repro --help => action: Help
repro -h => sub: Run | action: Help
bench --help => sub: Bench | action: Help
repro profile --arch isa-ext --workload sign-verify --curve P192 --top 3 => arch: IsaExt, workload: SignVerify
"#;

fn parse(line: &str) -> Result<Command, CliError> {
    let mut words = line.split_whitespace();
    let tool = match words.next() {
        Some("bench") => Tool::Bench,
        _ => Tool::Repro,
    };
    cli::parse(tool, &words.map(String::from).collect::<Vec<_>>())
}

fn err(line: &str) -> CliError {
    parse(line).expect_err(line)
}

#[test]
fn corpus_parses_to_what_it_meant() {
    for entry in CORPUS.lines().filter(|l| !l.is_empty()) {
        let (line, expected) = entry.split_once(" => ").expect("corpus lines have =>");
        let command = parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let debug = format!("{command:?}");
        for piece in expected.split(" | ") {
            assert!(
                debug.contains(piece),
                "{line}:\n  {piece}\nnot in\n  {debug}"
            );
        }
    }
    // CI requires this one to be refused: xdh needs an RFC 7748 curve.
    let xdh = err("repro profile --curve P192 --workload xdh");
    assert!(matches!(
        xdh,
        CliError::Conflict {
            sub: Sub::Profile,
            ..
        }
    ));
}

#[test]
fn every_subcommand_rejects_an_unknown_option_by_name_and_has_help() {
    for sub in Sub::ALL {
        let line = match sub {
            Sub::Run | Sub::Bench => sub.title().to_string(),
            _ => format!("repro {}", &sub.title()[6..]),
        };
        let unknown = err(&format!("{line} --bogus"));
        assert_eq!(
            unknown,
            CliError::Unknown {
                arg: "--bogus".into(),
                sub
            }
        );
        assert!(unknown.to_string().contains("--bogus"), "{unknown}");
        let help = parse(&format!("{line} --help")).expect("help parses");
        assert!(matches!(help.action, Action::Help) && help.sub == sub);
        assert!(cli::help(sub).starts_with(&format!("usage: {} ", sub.title())));
    }
}

#[test]
fn observability_options_are_accepted_on_either_side() {
    // The old per-subcommand parsers refused these.
    for line in [
        "repro profile --no-progress",
        "repro overhead --no-progress",
        "repro --no-progress diff a b",
        "repro check --journal j --no-progress",
        "repro --no-progress selftest-flight",
        "bench --no-progress",
    ] {
        assert_eq!(parse(line).expect(line).obs.progress, Some(false), "{line}");
    }
    for line in [
        "repro verify --trace t.jsonl",
        "repro --trace t.jsonl verify",
    ] {
        assert_eq!(parse(line).expect(line).obs.trace, Some("t.jsonl".into()));
    }
}

#[test]
fn options_of_other_subcommands_are_typed_errors() {
    // The old parsers dropped the first six silently.
    for (line, flag, sub) in [
        ("repro --profile verify --iters 1", "--profile", Sub::Verify),
        (
            "repro --metrics-out m.jsonl verify",
            "--metrics-out",
            Sub::Verify,
        ),
        ("repro --format json verify", "--format", Sub::Verify),
        ("repro --profile serve", "--profile", Sub::Serve),
        ("repro --format json serve", "--format", Sub::Serve),
        (
            "repro --threads 2 selftest-flight",
            "--threads",
            Sub::SelftestFlight,
        ),
        ("repro verify --threads 2", "--threads", Sub::Verify),
        ("repro --list verify", "--list", Sub::Verify),
        ("bench --profile", "--profile", Sub::Bench),
    ] {
        assert_eq!(err(line), CliError::NotFor { flag, sub }, "{line}");
    }
    // serve has its own --metrics-out, and explore its own --threads,
    // on either side; the old parsers dropped both.
    let serve = format!(
        "{:?}",
        parse("repro --metrics-out m.jsonl serve").expect("serve")
    );
    assert!(serve.contains(r#"metrics_out: Some("m.jsonl")"#), "{serve}");
    let explore = format!(
        "{:?}",
        parse("repro --threads 4 explore --space smoke").expect("ok")
    );
    assert!(explore.contains("threads: Some(4)"), "{explore}");
}

#[test]
fn malformed_missing_and_conflicting_options() {
    let malformed = CliError::Malformed {
        flag: "--threads",
        value: "0".into(),
        expected: "N>0".into(),
        sub: Sub::Run,
    };
    assert_eq!(err("repro --threads 0 fig7_1"), malformed);
    for line in [
        "repro profile --arch sparc",
        "repro verify --case nope",
        "repro --format xml fig7_1",
        "repro check --serve s --serve-min-gain 0.5",
    ] {
        assert!(matches!(err(line), CliError::Malformed { .. }), "{line}");
    }
    for line in [
        "repro",
        "repro verify --seed",
        "repro diff a",
        "repro check",
        "repro explore",
        "repro explore --report",
    ] {
        assert!(matches!(err(line), CliError::Missing { .. }), "{line}");
    }
    for line in [
        "repro --flame f.folded fig7_1",
        "repro profile --tier fast --flame f.folded",
        "repro profile --tier alternate",
        "repro serve --curve X25519",
        "repro serve --curve K-163 --arch monte",
        "repro overhead --curve X448 --workload sign",
    ] {
        assert!(matches!(err(line), CliError::Conflict { .. }), "{line}");
    }
    for line in [
        "repro nosuch",
        "repro diff a b c",
        "repro verify extra",
        "bench nosuch",
    ] {
        assert!(matches!(err(line), CliError::Unknown { .. }), "{line}");
    }
    assert!(err("repro nosuch")
        .to_string()
        .contains("unknown experiment id"));
}
