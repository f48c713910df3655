//! Cross-crate integration tests: the whole system — host crypto,
//! assembler, simulator, accelerators, energy model — exercised through
//! the public `ule-core` API, pinning the paper's headline *shapes*.

use ule_repro::core_api::{RunOptions, System, SystemConfig, Workload};
use ule_repro::curves::params::CurveId;
use ule_repro::energy::Component;
use ule_repro::monte::MonteConfig;
use ule_repro::pete::icache::CacheConfig;
use ule_repro::swlib::builder::Arch;

fn sv(curve: CurveId, arch: Arch) -> ule_repro::core_api::RunReport {
    System::new(SystemConfig::new(curve, arch)).run_with(RunOptions::new(Workload::SignVerify))
}

#[test]
fn design_space_ordering_prime() {
    // Fig 1.1 / Fig 7.1: more acceleration, less energy.
    let base = sv(CurveId::P192, Arch::Baseline);
    let ext = sv(CurveId::P192, Arch::IsaExt);
    let monte = sv(CurveId::P192, Arch::Monte);
    assert!(ext.energy_uj() < base.energy_uj());
    assert!(monte.energy_uj() < ext.energy_uj());
    // Monte's improvement factor lands in the paper's 5.17x..6.34x band
    // (allow a little slack around it).
    let factor = base.energy_uj() / monte.energy_uj();
    assert!((4.5..7.5).contains(&factor), "Monte factor {factor}");
}

#[test]
fn design_space_ordering_binary() {
    let base = sv(CurveId::K163, Arch::Baseline);
    let ext = sv(CurveId::K163, Arch::IsaExt);
    let billie = sv(CurveId::K163, Arch::Billie);
    assert!(ext.energy_uj() < base.energy_uj());
    assert!(billie.energy_uj() < ext.energy_uj());
    // §7.2: software-only binary fields are several times worse.
    assert!(base.energy_uj() / ext.energy_uj() > 3.0);
}

#[test]
fn energy_grows_superlinearly_with_key_size() {
    // §7.1: "the energy consumed increases quite rapidly as the key size
    // is increased" — substantially more than linearly for software.
    let e192 = sv(CurveId::P192, Arch::Baseline).energy_uj();
    let e256 = sv(CurveId::P256, Arch::Baseline).energy_uj();
    let linear = 256.0 / 192.0;
    assert!(e256 / e192 > linear * 1.5, "{}", e256 / e192);
}

#[test]
fn binary_beats_prime_at_equal_security_on_ext() {
    // Fig 7.7: binary ISA extensions beat prime ISA extensions at every
    // equivalent-security pairing.
    for (p, b) in [
        (CurveId::P192, CurveId::K163),
        (CurveId::P256, CurveId::K283),
    ] {
        let pe = sv(p, Arch::IsaExt).energy_uj();
        let be = sv(b, Arch::IsaExt).energy_uj();
        assert!(be < pe, "{}: {} !< {}", p.name(), be, pe);
    }
}

#[test]
fn breakdown_components_sum_to_total() {
    let r = sv(CurveId::P192, Arch::Monte);
    let sum: f64 = r.energy.components().iter().map(|(_, uj)| uj).sum();
    assert!((sum - r.energy.total_uj()).abs() < 1e-6);
    assert!(r.energy.component_uj(Component::Monte) > 0.0);
}

#[test]
fn rom_dominates_software_configurations() {
    // §7.1: instruction fetch from program ROM is a dominant consumer on
    // the baseline, comparable to the core itself.
    let r = sv(CurveId::P192, Arch::Baseline);
    let rom = r.energy.component_uj(Component::Rom);
    let core = r.energy.component_uj(Component::PeteCore);
    assert!(rom > 0.5 * core, "rom {rom} core {core}");
}

#[test]
fn icache_saves_energy_and_rom_reads() {
    let plain = sv(CurveId::P192, Arch::IsaExt);
    let cached = System::new(
        SystemConfig::new(CurveId::P192, Arch::IsaExt).with_icache(CacheConfig::best()),
    )
    .run_with(RunOptions::new(Workload::SignVerify));
    assert!(cached.energy_uj() < plain.energy_uj());
    assert!(cached.activity.rom_word_reads < plain.activity.rom_word_reads / 10);
    // Uncore appears only in the cached configuration.
    assert!(cached.energy.component_uj(Component::Uncore) > 0.0);
    assert_eq!(plain.energy.component_uj(Component::Uncore), 0.0);
}

#[test]
fn monte_double_buffering_saves_time_and_energy() {
    // §7.7 ablation.
    let no_db = SystemConfig::new(CurveId::P192, Arch::Monte).with_monte(MonteConfig {
        double_buffer: false,
        forwarding: false,
        queue_depth: 4,
    });
    let with = sv(CurveId::P192, Arch::Monte);
    let without = System::new(no_db).run_with(RunOptions::new(Workload::SignVerify));
    assert!(with.cycles < without.cycles);
    assert!(with.energy_uj() < without.energy_uj());
}

#[test]
fn billie_config_draws_the_most_power() {
    // Fig 7.10 ordering: Billie > baseline > Monte-with-accelerator-idle.
    let (bd, bs) = sv(CurveId::K163, Arch::Billie).energy.power_mw();
    let (dd, ds) = sv(CurveId::K163, Arch::Baseline).energy.power_mw();
    let (md, ms) = sv(CurveId::P192, Arch::Monte).energy.power_mw();
    assert!(
        bd + bs > dd + ds,
        "billie {} !> baseline {}",
        bd + bs,
        dd + ds
    );
    assert!(
        md + ms < dd + ds,
        "monte {} !< baseline {}",
        md + ms,
        dd + ds
    );
}

#[test]
fn static_power_is_a_small_share() {
    // §7.4: static power ≈ 8.5 % of the total.
    for (c, a) in [
        (CurveId::P192, Arch::Baseline),
        (CurveId::P192, Arch::Monte),
        (CurveId::K163, Arch::Billie),
    ] {
        let f = sv(c, a).energy.static_fraction();
        assert!(f > 0.01 && f < 0.2, "{:?} {:?}: {f}", c, a);
    }
}

#[test]
fn simulated_signature_verifies_across_architectures() {
    // A signature produced by the baseline machine must verify on the
    // ISA-extended machine: the architectures implement the same ECDSA.
    use ule_repro::curves::ecdsa::{self, Keypair};
    use ule_repro::mpmath::mp::Mp;
    use ule_repro::pete::cpu::{Machine, MachineConfig};
    use ule_repro::swlib::builder::build_suite;
    use ule_repro::swlib::harness::{read_buf, run_entry_expect, write_buf};

    let curve = CurveId::K163.curve();
    let k = 6;
    let keys = Keypair::derive(&curve, b"interop");
    let e = ecdsa::hash_to_scalar(&curve, b"interop message");
    let nonce = ecdsa::derive_scalar(&curve, b"interop nonce", b"n");
    // sign on the baseline
    let s_base = build_suite(&curve, Arch::Baseline);
    let mut m = Machine::new(&s_base.program, MachineConfig::baseline());
    write_buf(&mut m, &s_base.program, "arg_e", &e.to_limbs(k));
    write_buf(
        &mut m,
        &s_base.program,
        "arg_d",
        &keys.private().to_limbs(k),
    );
    write_buf(&mut m, &s_base.program, "arg_k", &nonce.to_limbs(k));
    run_entry_expect(&mut m, &s_base.program, "main_sign", u64::MAX / 2);
    let r = read_buf(&m, &s_base.program, "out_r", k);
    let s = read_buf(&m, &s_base.program, "out_s", k);
    // verify on the ISA-extended machine
    let s_ext = build_suite(&curve, Arch::IsaExt);
    let mut m2 = Machine::new(&s_ext.program, MachineConfig::isa_ext());
    let (qx, qy) = match keys.public() {
        ule_repro::curves::ecdsa::PublicKey::Binary(
            ule_repro::curves::binary::AffinePoint2m::Point { x, y },
        ) => (x.limbs().to_vec(), y.limbs().to_vec()),
        _ => unreachable!(),
    };
    write_buf(&mut m2, &s_ext.program, "arg_e", &e.to_limbs(k));
    write_buf(&mut m2, &s_ext.program, "arg_r", &r);
    write_buf(&mut m2, &s_ext.program, "arg_s", &s);
    write_buf(&mut m2, &s_ext.program, "arg_qx", &qx);
    write_buf(&mut m2, &s_ext.program, "arg_qy", &qy);
    run_entry_expect(&mut m2, &s_ext.program, "main_verify", u64::MAX / 2);
    assert_eq!(read_buf(&m2, &s_ext.program, "out_ok", 1), vec![1]);
    // And the host agrees.
    let sig = ecdsa::Signature {
        r: Mp::from_limbs(&r),
        s: Mp::from_limbs(&s),
    };
    assert!(ecdsa::verify_prehashed(&curve, &keys.public(), &e, &sig));
}

#[test]
fn sweep_engine_reprices_energy_only_knobs_from_one_simulation() {
    // Gating and the SRAM register file change power, never timing: the
    // engine answers the variant from the base point's simulation, and
    // the repriced report equals a direct run bit for bit.
    use ule_repro::bench::SweepEngine;
    use ule_repro::energy::report::Gating;
    let engine = SweepEngine::new();
    let base = SystemConfig::new(CurveId::K163, Arch::Billie);
    let variant = base.with_gating(Gating::Power).with_billie_sram_rf(true);
    let base_report = engine.run(base, Workload::ScalarMul);
    let repriced = engine.run(variant, Workload::ScalarMul);
    assert_eq!(engine.simulations(), 1);
    let direct = System::new(variant).run_with(RunOptions::new(Workload::ScalarMul));
    assert_eq!(*repriced, direct);
    assert_eq!(
        repriced.energy.total_uj().to_bits(),
        direct.energy.total_uj().to_bits()
    );
    assert_eq!(repriced.counters, base_report.counters);
    assert_ne!(repriced.energy, base_report.energy);
}

#[test]
fn cli_table_parses_every_subcommand() {
    // One argv per subcommand through the option table, plus one it
    // must refuse; nothing is simulated.
    use ule_repro::bench::cli::{self, Action, CliError, Sub, Tool};
    let parse = |line: &str| {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        cli::parse(Tool::Repro, &argv)
    };
    let ok = |line: &str| parse(line).unwrap_or_else(|e| panic!("{line}: {e}")).action;
    assert!(matches!(ok("--threads 2 fig7_1"), Action::Run(a) if a.threads == Some(2)));
    assert!(matches!(ok("verify --iters 3"), Action::Verify(a) if a.campaign.iters == 3));
    assert!(matches!(ok("diff a.jsonl b.jsonl"), Action::Diff(_)));
    assert!(matches!(ok("check --journal j.jsonl"), Action::Check(_)));
    assert!(
        matches!(ok("profile --arch isa-ext --curve P192"), Action::Profile(a) if a.arch == Arch::IsaExt)
    );
    assert!(matches!(ok("overhead --runs 2"), Action::Overhead(a) if a.runs == 2));
    assert!(matches!(ok("serve --curve K-163"), Action::Serve(a) if a.batch_sizes == [1, 4, 16]));
    assert!(
        matches!(ok("--threads 3 explore --space smoke"), Action::Explore(a) if a.threads == Some(3))
    );
    assert!(matches!(
        ok("selftest-flight --no-progress"),
        Action::SelftestFlight
    ));
    let bench = cli::parse(Tool::Bench, &["--threads".to_string(), "1".to_string()]);
    assert!(matches!(bench.map(|c| c.action), Ok(Action::Bench(a)) if a.threads == Some(1)));
    assert_eq!(
        parse("--metrics-out m.jsonl verify")
            .map(|c| c.action)
            .err(),
        Some(CliError::NotFor {
            flag: "--metrics-out",
            sub: Sub::Verify
        })
    );
}

#[test]
fn identity_codec_round_trips_every_job_and_lattice_point() {
    // Every experiment job and every built-in lattice point goes through
    // encode -> JSON text -> decode and comes back unchanged; nothing is
    // simulated.
    use ule_repro::bench::ExperimentId;
    use ule_repro::core_api::metrics::{config_identity, decode_identity, push_identity};
    use ule_repro::dse::spaces;
    use ule_repro::obs::{json, record::Record};
    let mut points: Vec<(SystemConfig, Workload)> =
        ExperimentId::ALL.iter().flat_map(|id| id.jobs()).collect();
    for name in spaces::BUILTIN_NAMES {
        let space = spaces::builtin(name).unwrap();
        let lattice = space.enumerate().unwrap();
        points.extend(lattice.into_iter().map(|c| (c, space.workload)));
    }
    assert!(points.len() > 300, "{}", points.len());
    for (config, workload) in points {
        let mut record = Record::new("design_point");
        push_identity(&mut record, &config, workload);
        let text = record.to_json();
        let doc = json::parse(&text).unwrap();
        let decoded = decode_identity(&doc).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(decoded, (config, workload), "{text}");
        assert_eq!(
            config_identity(&decoded.0, decoded.1),
            config_identity(&config, workload)
        );
    }
}
