//! One reproduction function per table/figure of Chapter 7. Each returns
//! the regenerated rows/series as text; `repro -- all` concatenates them.

use crate::prior;
use crate::sweep::{Job, SweepEngine};
use std::fmt::Write as _;
use std::str::FromStr;
use ule_core::{MultVariant, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_energy::ffau::{montmul_energy_nj, ARM_CORTEX_M3, FFAU_POWER};
use ule_energy::Component;
use ule_monte::{Ffau, MonteConfig};
use ule_pete::icache::CacheConfig;
use ule_swlib::builder::Arch;

const PRIMES: [CurveId; 5] = CurveId::PRIMES;
const BINARY: [CurveId; 5] = CurveId::BINARY;

fn head(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n==== {title} ====");
}

fn breakdown_line(out: &mut String, label: &str, r: &ule_core::RunReport) {
    let e = &r.energy;
    let _ = writeln!(
        out,
        "{:26} total {:9.1} uJ | core {:8.1} | ROM {:8.1} | RAM {:6.1} | uncore {:6.1} | accel {:6.1}",
        label,
        e.total_uj(),
        e.component_uj(Component::PeteCore),
        e.component_uj(Component::Rom),
        e.component_uj(Component::Ram),
        e.component_uj(Component::Uncore).max(0.0),
        (e.component_uj(Component::Monte) + e.component_uj(Component::Billie)).max(0.0),
    );
}

/// Fig 7.1: energy per Sign+Verify vs key size for the four prime-field
/// configurations.
pub fn fig7_1(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.1  energy per Sign+Verify vs key size (prime fields)",
    );
    let _ = writeln!(
        out,
        "{:8} {:>12} {:>12} {:>14} {:>12}",
        "curve", "Baseline uJ", "ISA Ext uJ", "ISA+4KB I$ uJ", "Monte uJ"
    );
    for id in PRIMES {
        let base = r.sv(id, Arch::Baseline).energy_uj();
        let ext = r.sv(id, Arch::IsaExt).energy_uj();
        let cached = r
            .sv_cached(id, Arch::IsaExt, CacheConfig::best())
            .energy_uj();
        let monte = r.sv(id, Arch::Monte).energy_uj();
        let _ = writeln!(
            out,
            "{:8} {:>12.1} {:>12.1} {:>14.1} {:>12.1}",
            id.name(),
            base,
            ext,
            cached,
            monte
        );
    }
    // Headline factors (abstract / §7.1).
    let b192 = r.sv(CurveId::P192, Arch::Baseline).energy_uj();
    let b521 = r.sv(CurveId::P521, Arch::Baseline).energy_uj();
    let e192 = r.sv(CurveId::P192, Arch::IsaExt).energy_uj();
    let e521 = r.sv(CurveId::P521, Arch::IsaExt).energy_uj();
    let m192 = r.sv(CurveId::P192, Arch::Monte).energy_uj();
    let m521 = r.sv(CurveId::P521, Arch::Monte).energy_uj();
    let _ = writeln!(
        out,
        "ISA-ext improvement {:.2}x..{:.2}x (paper 1.32x..1.45x); Monte {:.2}x..{:.2}x (paper 5.17x..6.34x)",
        b192 / e192,
        b521 / e521,
        b192 / m192,
        b521 / m521
    );
    out
}

/// Fig 7.2: energy breakdown for 192- and 256-bit keys across the prime
/// configurations.
pub fn fig7_2(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(&mut out, "Fig 7.2  energy breakdown, 192/256-bit (prime)");
    for id in [CurveId::P192, CurveId::P256] {
        for arch in [Arch::Baseline, Arch::IsaExt, Arch::Monte] {
            let rep = r.sv(id, arch);
            breakdown_line(&mut out, &format!("{} {}", id.name(), arch.name()), &rep);
        }
        let rep = r.sv_cached(id, Arch::IsaExt, CacheConfig::best());
        breakdown_line(&mut out, &format!("{} ISA+4KB I$", id.name()), &rep);
    }
    out
}

/// Fig 7.3: baseline breakdown across the five prime fields.
pub fn fig7_3(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.3  baseline energy breakdown vs prime field",
    );
    for id in PRIMES {
        let rep = r.sv(id, Arch::Baseline);
        breakdown_line(&mut out, id.name(), &rep);
    }
    out
}

/// Fig 7.4: ISA-extended and Monte breakdowns across the prime fields.
pub fn fig7_4(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.4  ISA-ext and Monte breakdowns vs prime field",
    );
    for id in PRIMES {
        let rep = r.sv(id, Arch::IsaExt);
        breakdown_line(&mut out, &format!("{} ISA Ext", id.name()), &rep);
    }
    for id in PRIMES {
        let rep = r.sv(id, Arch::Monte);
        breakdown_line(&mut out, &format!("{} w/ Monte", id.name()), &rep);
    }
    out
}

/// Fig 7.5: binary fields, software-only versus binary ISA extensions.
pub fn fig7_5(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.5  energy per Sign+Verify vs key size (binary fields)",
    );
    let _ = writeln!(
        out,
        "{:8} {:>14} {:>12} {:>8}",
        "curve", "SW-only uJ", "ISA Ext uJ", "factor"
    );
    for id in BINARY {
        let base = r.sv(id, Arch::Baseline).energy_uj();
        let ext = r.sv(id, Arch::IsaExt).energy_uj();
        let _ = writeln!(
            out,
            "{:8} {:>14.1} {:>12.1} {:>8.2}",
            id.name(),
            base,
            ext,
            base / ext
        );
    }
    let _ = writeln!(out, "(paper: software-only is 6.40x..8.46x worse)");
    out
}

/// Fig 7.6: binary ISA-extension breakdown across fields.
pub fn fig7_6(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.6  binary ISA-ext energy breakdown vs field",
    );
    for id in BINARY {
        let rep = r.sv(id, Arch::IsaExt);
        breakdown_line(&mut out, id.name(), &rep);
    }
    out
}

/// Fig 7.7: prime vs binary at equivalent security, all four hardware
/// tiers including the accelerators.
pub fn fig7_7(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.7  prime vs binary at equivalent security (incl. Monte & Billie)",
    );
    let _ = writeln!(
        out,
        "{:14} {:>12} {:>12} {:>12} {:>12}",
        "security pair", "prime ISA", "binary ISA", "Monte", "Billie"
    );
    for p in PRIMES {
        let b = p.security_pair();
        let pe = r.sv(p, Arch::IsaExt).energy_uj();
        let be = r.sv(b, Arch::IsaExt).energy_uj();
        let me = r.sv(p, Arch::Monte).energy_uj();
        let bl = r.sv(b, Arch::Billie).energy_uj();
        let _ = writeln!(
            out,
            "{:>6}/{:<7} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            p.name(),
            b.name(),
            pe,
            be,
            me,
            bl
        );
    }
    let m = r.sv(CurveId::P192, Arch::Monte).energy_uj();
    let b = r.sv(CurveId::K163, Arch::Billie).energy_uj();
    let _ = writeln!(
        out,
        "Billie vs Monte at 163/192: {:.2}x (paper 1.92x); binary ISA saves {:.1}% at 163/192 (paper 52.2%)",
        m / b,
        100.0 * (1.0 - r.sv(CurveId::K163, Arch::IsaExt).energy_uj() / r.sv(CurveId::P192, Arch::IsaExt).energy_uj())
    );
    out
}

/// Fig 7.8: Monte and Billie breakdowns across their fields.
pub fn fig7_8(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.8  Monte (prime) and Billie (binary) breakdowns",
    );
    for id in PRIMES {
        let rep = r.sv(id, Arch::Monte);
        breakdown_line(&mut out, &format!("{} w/ Monte", id.name()), &rep);
    }
    for id in BINARY {
        let rep = r.sv(id, Arch::Billie);
        breakdown_line(&mut out, &format!("{} w/ Billie", id.name()), &rep);
    }
    out
}

/// Fig 7.9: accelerated-architecture breakdowns at the 192/163 and
/// 256/283 security levels.
pub fn fig7_9(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.9  accelerated breakdowns at 192/163 and 256/283",
    );
    for (p, b) in [
        (CurveId::P192, CurveId::K163),
        (CurveId::P256, CurveId::K283),
    ] {
        let rep = r.sv_cached(p, Arch::IsaExt, CacheConfig::best());
        breakdown_line(&mut out, &format!("{} ISA+I$", p.name()), &rep);
        let rep = r.sv(p, Arch::Monte);
        breakdown_line(&mut out, &format!("{} Monte", p.name()), &rep);
        let rep = r.sv(b, Arch::Billie);
        breakdown_line(&mut out, &format!("{} Billie", b.name()), &rep);
    }
    out
}

/// Fig 7.10: static and dynamic power of every microarchitecture.
pub fn fig7_10(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.10  static and dynamic power per microarchitecture",
    );
    let line = |label: String, rep: &ule_core::RunReport, out: &mut String| {
        let (d, s) = rep.energy.power_mw();
        let _ = writeln!(
            out,
            "{:26} dynamic {:7.2} mW  static {:5.2} mW  (static share {:4.1}%)",
            label,
            d,
            s,
            100.0 * s / (d + s)
        );
    };
    // Averages over fields, as the paper does.
    for arch in [Arch::Baseline, Arch::IsaExt] {
        for id in [CurveId::P192, CurveId::K163] {
            let rep = r.sv(id, arch);
            line(format!("{} {}", id.name(), arch.name()), &rep, &mut out);
        }
    }
    let rep = r.sv_cached(CurveId::P192, Arch::IsaExt, CacheConfig::best());
    line("P-192 ISA+4KB I$".into(), &rep, &mut out);
    let rep = r.sv(CurveId::P192, Arch::Monte);
    line("P-192 w/ Monte".into(), &rep, &mut out);
    for id in BINARY {
        let rep = r.sv(id, Arch::Billie);
        line(format!("{} w/ Billie", id.name()), &rep, &mut out);
    }
    out
}

/// Fig 7.11: energy improvement with an *ideal* instruction cache.
pub fn fig7_11(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.11  energy improvement with an ideal 4KB I$",
    );
    let _ = writeln!(
        out,
        "{:8} {:>10} {:>10} {:>10}",
        "curve", "Baseline", "ISA Ext", "Monte"
    );
    for id in [CurveId::P192, CurveId::P256, CurveId::P384] {
        let mut cells = Vec::new();
        for arch in [Arch::Baseline, Arch::IsaExt, Arch::Monte] {
            let plain = r.sv(id, arch).energy_uj();
            let ideal = r.sv_cached(id, arch, CacheConfig::ideal()).energy_uj();
            cells.push(plain / ideal);
        }
        let _ = writeln!(
            out,
            "{:8} {:>9.2}x {:>9.2}x {:>9.2}x",
            id.name(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    let _ = writeln!(
        out,
        "(paper: large benefit for baseline/ISA-ext, small and shrinking for Monte)"
    );
    out
}

/// Fig 7.12: real instruction cache, P-192 Sign+Verify, 1–8 KB with and
/// without the prefetcher.
pub fn fig7_12(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.12  energy with a real I$ (P-192 ISA-ext S+V)",
    );
    let plain = r.sv(CurveId::P192, Arch::IsaExt).energy_uj();
    let _ = writeln!(
        out,
        "{:14} {:>10} {:>10} {:>10}",
        "config", "uJ", "vs none", "miss rate"
    );
    let _ = writeln!(
        out,
        "{:14} {:>10.1} {:>10} {:>10}",
        "no cache", plain, "1.00x", "-"
    );
    for size_kb in [1u32, 2, 4, 8] {
        for prefetch in [false, true] {
            let rep = r.sv_cached(
                CurveId::P192,
                Arch::IsaExt,
                CacheConfig::real(size_kb * 1024, prefetch),
            );
            let miss = rep
                .activity
                .icache
                .map(|c| {
                    // fills over accesses approximates the miss rate
                    c.fills as f64 / c.accesses as f64
                })
                .unwrap_or(0.0);
            let label = format!("{size_kb}KB{}", if prefetch { "-p" } else { "" });
            let _ = writeln!(
                out,
                "{:14} {:>10.1} {:>9.2}x {:>9.3}%",
                label,
                rep.energy_uj(),
                plain / rep.energy_uj(),
                100.0 * miss
            );
        }
    }
    out
}

/// Fig 7.13: the prime ISA-ext + 4 KB I$ configuration across fields.
pub fn fig7_13(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.13  prime ISA-ext + 4KB I$ breakdown vs field",
    );
    for id in PRIMES {
        let rep = r.sv_cached(id, Arch::IsaExt, CacheConfig::best());
        breakdown_line(&mut out, id.name(), &rep);
    }
    out
}

/// Fig 7.14: 163-bit scalar-multiply performance vs multiplier digit
/// size, Billie (sliding window and Montgomery ladder) vs prior work.
pub fn fig7_14(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.14  163-bit kG cycles vs digit size (Billie vs prior work)",
    );
    let _ = writeln!(
        out,
        "{:>3} {:>16} {:>16} {:>18}",
        "D", "window (sim)", "ladder (model)", "Guo et al. (model)"
    );
    for d in [1usize, 2, 3, 4, 6, 8] {
        let window = r.kg_billie(CurveId::K163, d).cycles;
        let ladder = prior::billie_ladder_cycles(d);
        let guo = prior::guo_ladder_cycles(d);
        let _ = writeln!(out, "{:>3} {:>16} {:>16} {:>18}", d, window, ladder, guo);
    }
    let _ = writeln!(
        out,
        "(paper: the window algorithm beats both ladders; Billie's ladder beats prior work)"
    );
    out
}

/// Fig 7.15 + Table 7.4: energy per Montgomery multiplication vs FFAU
/// datapath width, with the ARM Cortex-M3 reference.
pub fn fig7_15(_r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Fig 7.15 / Table 7.4  FFAU energy per MontMult vs datapath width",
    );
    let _ = writeln!(
        out,
        "{:>4} {:>8} {:>12} {:>12} {:>12}",
        "w", "key", "cycles", "time ns", "energy nJ"
    );
    for key in [192usize, 256, 384] {
        for w in [8usize, 16, 32, 64] {
            let k = key.div_ceil(w) as u64;
            let cycles = Ffau::montmul_cycles(k, 3);
            let e = montmul_energy_nj(w, key, cycles).expect("table row");
            let _ = writeln!(
                out,
                "{:>4} {:>8} {:>12} {:>12} {:>12.3}",
                w,
                key,
                cycles,
                cycles * 10,
                e
            );
        }
    }
    for (key, t, p, e) in ARM_CORTEX_M3 {
        let _ = writeln!(
            out,
            "ARM Cortex-M3 {key}-bit: {t:.0} ns at {p:.0} uW = {e} nJ (Table 7.5)"
        );
    }
    out
}

/// Table 7.1: latency per operation for the prime-field architectures.
pub fn t7_1(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Table 7.1  latency per operation (100K cycles), prime fields",
    );
    let _ = writeln!(
        out,
        "{:10} {:8} {:>10} {:>10} {:>12}",
        "uarch", "curve", "Sign", "Verify", "Sign+Verify"
    );
    for arch in [Arch::Baseline, Arch::IsaExt, Arch::Monte] {
        for id in PRIMES {
            let s = r.run(SystemConfig::new(id, arch), Workload::Sign).cycles;
            let v = r.run(SystemConfig::new(id, arch), Workload::Verify).cycles;
            let _ = writeln!(
                out,
                "{:10} {:8} {:>10.1} {:>10.1} {:>12.1}",
                arch.name(),
                id.name(),
                s as f64 / 1e5,
                v as f64 / 1e5,
                (s + v) as f64 / 1e5
            );
        }
    }
    out
}

/// Table 7.2: latency per operation for the binary-field architectures.
pub fn t7_2(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Table 7.2  latency per operation (100K cycles), binary fields",
    );
    let _ = writeln!(
        out,
        "{:10} {:8} {:>10} {:>10} {:>12}",
        "uarch", "curve", "Sign", "Verify", "Sign+Verify"
    );
    for arch in [Arch::Baseline, Arch::IsaExt, Arch::Billie] {
        for id in BINARY {
            let s = r.run(SystemConfig::new(id, arch), Workload::Sign).cycles;
            let v = r.run(SystemConfig::new(id, arch), Workload::Verify).cycles;
            let _ = writeln!(
                out,
                "{:10} {:8} {:>10.1} {:>10.1} {:>12.1}",
                arch.name(),
                id.name(),
                s as f64 / 1e5,
                v as f64 / 1e5,
                (s + v) as f64 / 1e5
            );
        }
    }
    out
}

/// Table 7.3: FFAU area and power vs datapath width (the embedded §7.9
/// measurements that power the fig7_15 model).
pub fn t7_3(_r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Table 7.3  FFAU area / static / dynamic power vs width",
    );
    let _ = writeln!(
        out,
        "{:>4} {:>8} {:>12} {:>12} {:>12}",
        "w", "key", "area cells", "static uW", "dynamic uW"
    );
    for row in FFAU_POWER {
        let _ = writeln!(
            out,
            "{:>4} {:>8} {:>12} {:>12.1} {:>12.1}",
            row.width, row.key_bits, row.area_cells, row.static_uw, row.dynamic_uw
        );
    }
    out
}

/// Table 7.4 is produced together with Fig 7.15 (same data).
pub fn t7_4(r: &SweepEngine) -> String {
    fig7_15(r)
}

/// Table 7.5: the ARM Cortex-M3 reference rows.
pub fn t7_5(_r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Table 7.5  ARM Cortex-M3 reference (100 MHz, 0.9 V)",
    );
    for (key, t, p, e) in ARM_CORTEX_M3 {
        let _ = writeln!(
            out,
            "{key}-bit: {t:.0} ns, {p:.0} uW, {e} nJ per modular multiply"
        );
    }
    out
}

/// §7.7: the double-buffer ablation on Monte.
pub fn s7_7(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(&mut out, "Sec 7.7  Monte double-buffering ablation");
    for id in [CurveId::P192, CurveId::P384] {
        let with = r.sv_monte(id, MonteConfig::default());
        let without = r.sv_monte(
            id,
            MonteConfig {
                double_buffer: false,
                forwarding: false,
                queue_depth: 4,
            },
        );
        let _ = writeln!(
            out,
            "{:8} with {:>10.1} uJ / {:>9} cyc   without {:>10.1} uJ / {:>9} cyc   saving {:4.1}%",
            id.name(),
            with.energy_uj(),
            with.cycles,
            without.energy_uj(),
            without.cycles,
            100.0 * (1.0 - with.energy_uj() / without.energy_uj())
        );
    }
    let _ = writeln!(out, "(paper: 9.4% at 192-bit, 13.5% at 384-bit)");
    out
}

/// §7.8: multiplier-variant power ablation (identical cycles).
pub fn s7_8(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(
        &mut out,
        "Sec 7.8  multiplier variants (baseline P-192 S+V)",
    );
    for (v, name) in [
        (MultVariant::Karatsuba, "Karatsuba multi-cycle"),
        (MultVariant::OperandScan, "operand-scan multi-cycle"),
        (MultVariant::Parallel, "parallel pipelined"),
    ] {
        let rep = r.run(
            SystemConfig::new(CurveId::P192, Arch::Baseline).with_mult_variant(v),
            Workload::SignVerify,
        );
        let (d, s) = rep.energy.power_mw();
        let _ = writeln!(
            out,
            "{:26} {:>10.1} uJ at {:>6.2} mW",
            name,
            rep.energy_uj(),
            d + s
        );
    }
    out
}

/// §8 extension: idle-accelerator gating — the paper's stated future
/// work ("turn off Billie when she is not in use").
pub fn s8_gating(r: &SweepEngine) -> String {
    use ule_energy::report::Gating;
    let mut out = String::new();
    head(&mut out, "Sec 8 ext.  idle-accelerator clock/power gating");
    let _ = writeln!(
        out,
        "{:18} {:>12} {:>12} {:>12} {:>10}",
        "config", "no gating", "clock-gated", "power-gated", "saving"
    );
    let row = |label: String, curve: CurveId, arch: Arch, out: &mut String, r: &SweepEngine| {
        let mut energies = Vec::new();
        for gating in [Gating::None, Gating::Clock, Gating::Power] {
            let cfg = SystemConfig::new(curve, arch).with_gating(gating);
            energies.push(r.run(cfg, Workload::SignVerify).energy_uj());
        }
        let _ = writeln!(
            out,
            "{:18} {:>12.1} {:>12.1} {:>12.1} {:>9.1}%",
            label,
            energies[0],
            energies[1],
            energies[2],
            100.0 * (1.0 - energies[2] / energies[0])
        );
    };
    for id in BINARY {
        row(
            format!("{} w/ Billie", id.name()),
            id,
            Arch::Billie,
            &mut out,
            r,
        );
    }
    row(
        "P-192 w/ Monte".into(),
        CurveId::P192,
        Arch::Monte,
        &mut out,
        r,
    );
    let _ = writeln!(
        out,
        "(Billie idles ~half the operation while Pete runs the protocol math,"
    );
    let _ = writeln!(
        out,
        " so gating recovers a large share of her energy — §7.4's prediction)"
    );
    // Second §8 item: the SRAM register file.
    let _ = writeln!(
        out,
        "\nSRAM register file instead of flip-flops (§8 future work):"
    );
    for id in BINARY {
        let ff = r.sv(id, Arch::Billie).energy_uj();
        let cfg = SystemConfig::new(id, Arch::Billie).with_billie_sram_rf(true);
        let sram = r.run(cfg, Workload::SignVerify).energy_uj();
        let _ = writeln!(
            out,
            "{:18} flip-flops {:>8.1} uJ   SRAM {:>8.1} uJ   saving {:4.1}%",
            format!("{} w/ Billie", id.name()),
            ff,
            sram,
            100.0 * (1.0 - sram / ff)
        );
    }
    out
}

/// Headline summary: every shape target from DESIGN.md in one table.
pub fn summary(r: &SweepEngine) -> String {
    let mut out = String::new();
    head(&mut out, "Summary  headline factors vs the paper");
    let b192 = r.sv(CurveId::P192, Arch::Baseline).energy_uj();
    let b521 = r.sv(CurveId::P521, Arch::Baseline).energy_uj();
    let e192 = r.sv(CurveId::P192, Arch::IsaExt).energy_uj();
    let e521 = r.sv(CurveId::P521, Arch::IsaExt).energy_uj();
    let m192 = r.sv(CurveId::P192, Arch::Monte).energy_uj();
    let m521 = r.sv(CurveId::P521, Arch::Monte).energy_uj();
    let c192 = r
        .sv_cached(CurveId::P192, Arch::IsaExt, CacheConfig::best())
        .energy_uj();
    let kb163 = r.sv(CurveId::K163, Arch::Baseline).energy_uj();
    let ke163 = r.sv(CurveId::K163, Arch::IsaExt).energy_uj();
    let bl163 = r.sv(CurveId::K163, Arch::Billie).energy_uj();
    let bl571 = r.sv(CurveId::K571, Arch::Billie).energy_uj();
    let rows = [
        (
            "prime ISA ext vs baseline",
            format!("{:.2}x..{:.2}x", b192 / e192, b521 / e521),
            "1.32x..1.45x",
        ),
        (
            "Monte vs baseline",
            format!("{:.2}x..{:.2}x", b192 / m192, b521 / m521),
            "5.17x..6.34x",
        ),
        (
            "ISA ext + 4KB I$ vs baseline",
            format!("{:.2}x", b192 / c192),
            "1.67x..2.08x",
        ),
        (
            "binary SW-only vs binary ISA",
            format!("{:.2}x", kb163 / ke163),
            "6.40x..8.46x",
        ),
        (
            "binary ISA vs prime ISA (163/192)",
            format!("{:.2}x", e192 / ke163),
            "2.09x",
        ),
        (
            "Billie vs Monte (163/192)",
            format!("{:.2}x", m192 / bl163),
            "1.92x",
        ),
        (
            "Billie vs Monte (571/521)",
            format!("{:.2}x", m521 / bl571),
            "converging",
        ),
    ];
    for (what, got, paper) in rows {
        let _ = writeln!(out, "{:36} {:>14}   (paper {paper})", what, got);
    }
    out
}

/// Every experiment in [`ExperimentId::ALL`] order.
pub fn all(r: &SweepEngine) -> String {
    let mut out = String::new();
    for id in ExperimentId::ALL {
        out.push_str(&id.run(r));
    }
    out
}

/// Typed identifier for every reproduced table/figure — the dispatch,
/// parsing, and batch-planning surface of the harness.
///
/// `FromStr` accepts the historic lowercase ids (`"fig7_1"`, `"t7_4"`,
/// `"s8_gating"`, …); `Display` prints them back; [`ExperimentId::ALL`]
/// is the canonical `repro -- all` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the ids are the documentation: one per paper table/figure
pub enum ExperimentId {
    Fig7_1,
    Fig7_2,
    Fig7_3,
    Fig7_4,
    Fig7_5,
    Fig7_6,
    Fig7_7,
    Fig7_8,
    Fig7_9,
    Fig7_10,
    Fig7_11,
    Fig7_12,
    Fig7_13,
    Fig7_14,
    Fig7_15,
    T7_1,
    T7_2,
    T7_3,
    T7_4,
    T7_5,
    S7_7,
    S7_8,
    S8Gating,
    Summary,
}

impl ExperimentId {
    /// Every experiment in `repro -- all` order. (`T7_4` parses and
    /// runs but is excluded: its output *is* `fig7_15`.)
    pub const ALL: [ExperimentId; 23] = [
        ExperimentId::Fig7_1,
        ExperimentId::Fig7_2,
        ExperimentId::Fig7_3,
        ExperimentId::Fig7_4,
        ExperimentId::Fig7_5,
        ExperimentId::Fig7_6,
        ExperimentId::Fig7_7,
        ExperimentId::Fig7_8,
        ExperimentId::Fig7_9,
        ExperimentId::Fig7_10,
        ExperimentId::Fig7_11,
        ExperimentId::Fig7_12,
        ExperimentId::Fig7_13,
        ExperimentId::Fig7_14,
        ExperimentId::Fig7_15,
        ExperimentId::T7_1,
        ExperimentId::T7_2,
        ExperimentId::T7_3,
        ExperimentId::T7_5,
        ExperimentId::S7_7,
        ExperimentId::S7_8,
        ExperimentId::S8Gating,
        ExperimentId::Summary,
    ];

    /// Every parseable id (ALL plus the `fig7_15` alias `t7_4`).
    pub const VARIANTS: [ExperimentId; 24] = [
        ExperimentId::Fig7_1,
        ExperimentId::Fig7_2,
        ExperimentId::Fig7_3,
        ExperimentId::Fig7_4,
        ExperimentId::Fig7_5,
        ExperimentId::Fig7_6,
        ExperimentId::Fig7_7,
        ExperimentId::Fig7_8,
        ExperimentId::Fig7_9,
        ExperimentId::Fig7_10,
        ExperimentId::Fig7_11,
        ExperimentId::Fig7_12,
        ExperimentId::Fig7_13,
        ExperimentId::Fig7_14,
        ExperimentId::Fig7_15,
        ExperimentId::T7_1,
        ExperimentId::T7_2,
        ExperimentId::T7_3,
        ExperimentId::T7_4,
        ExperimentId::T7_5,
        ExperimentId::S7_7,
        ExperimentId::S7_8,
        ExperimentId::S8Gating,
        ExperimentId::Summary,
    ];

    /// The id string (what `FromStr` parses and `repro` accepts).
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::Fig7_1 => "fig7_1",
            ExperimentId::Fig7_2 => "fig7_2",
            ExperimentId::Fig7_3 => "fig7_3",
            ExperimentId::Fig7_4 => "fig7_4",
            ExperimentId::Fig7_5 => "fig7_5",
            ExperimentId::Fig7_6 => "fig7_6",
            ExperimentId::Fig7_7 => "fig7_7",
            ExperimentId::Fig7_8 => "fig7_8",
            ExperimentId::Fig7_9 => "fig7_9",
            ExperimentId::Fig7_10 => "fig7_10",
            ExperimentId::Fig7_11 => "fig7_11",
            ExperimentId::Fig7_12 => "fig7_12",
            ExperimentId::Fig7_13 => "fig7_13",
            ExperimentId::Fig7_14 => "fig7_14",
            ExperimentId::Fig7_15 => "fig7_15",
            ExperimentId::T7_1 => "t7_1",
            ExperimentId::T7_2 => "t7_2",
            ExperimentId::T7_3 => "t7_3",
            ExperimentId::T7_4 => "t7_4",
            ExperimentId::T7_5 => "t7_5",
            ExperimentId::S7_7 => "s7_7",
            ExperimentId::S7_8 => "s7_8",
            ExperimentId::S8Gating => "s8_gating",
            ExperimentId::Summary => "summary",
        }
    }

    /// Regenerates this experiment's text.
    pub fn run(self, r: &SweepEngine) -> String {
        match self {
            ExperimentId::Fig7_1 => fig7_1(r),
            ExperimentId::Fig7_2 => fig7_2(r),
            ExperimentId::Fig7_3 => fig7_3(r),
            ExperimentId::Fig7_4 => fig7_4(r),
            ExperimentId::Fig7_5 => fig7_5(r),
            ExperimentId::Fig7_6 => fig7_6(r),
            ExperimentId::Fig7_7 => fig7_7(r),
            ExperimentId::Fig7_8 => fig7_8(r),
            ExperimentId::Fig7_9 => fig7_9(r),
            ExperimentId::Fig7_10 => fig7_10(r),
            ExperimentId::Fig7_11 => fig7_11(r),
            ExperimentId::Fig7_12 => fig7_12(r),
            ExperimentId::Fig7_13 => fig7_13(r),
            ExperimentId::Fig7_14 => fig7_14(r),
            ExperimentId::Fig7_15 => fig7_15(r),
            ExperimentId::T7_1 => t7_1(r),
            ExperimentId::T7_2 => t7_2(r),
            ExperimentId::T7_3 => t7_3(r),
            ExperimentId::T7_4 => t7_4(r),
            ExperimentId::T7_5 => t7_5(r),
            ExperimentId::S7_7 => s7_7(r),
            ExperimentId::S7_8 => s7_8(r),
            ExperimentId::S8Gating => s8_gating(r),
            ExperimentId::Summary => summary(r),
        }
    }

    /// The design points this experiment reads — what `repro` submits
    /// to [`SweepEngine::run_batch`] before rendering any text, so the
    /// whole selection simulates in parallel. An experiment that misses
    /// a point here still renders correctly (the point just simulates
    /// serially at render time); the `experiment_jobs_cover_*` tests
    /// pin the lists that matter.
    pub fn jobs(self) -> Vec<Job> {
        let sv = |c: CurveId, a: Arch| (SystemConfig::new(c, a), Workload::SignVerify);
        let sv_cached = |c: CurveId, a: Arch, cache: CacheConfig| {
            (
                SystemConfig::new(c, a).with_icache(cache),
                Workload::SignVerify,
            )
        };
        let cross = |curves: &[CurveId], archs: &[Arch]| -> Vec<Job> {
            curves
                .iter()
                .flat_map(|&c| archs.iter().map(move |&a| sv(c, a)))
                .collect()
        };
        match self {
            ExperimentId::Fig7_1 => {
                let mut j = cross(&PRIMES, &[Arch::Baseline, Arch::IsaExt, Arch::Monte]);
                j.extend(
                    PRIMES
                        .iter()
                        .map(|&c| sv_cached(c, Arch::IsaExt, CacheConfig::best())),
                );
                j
            }
            ExperimentId::Fig7_2 => {
                let two = [CurveId::P192, CurveId::P256];
                let mut j = cross(&two, &[Arch::Baseline, Arch::IsaExt, Arch::Monte]);
                j.extend(
                    two.iter()
                        .map(|&c| sv_cached(c, Arch::IsaExt, CacheConfig::best())),
                );
                j
            }
            ExperimentId::Fig7_3 => cross(&PRIMES, &[Arch::Baseline]),
            ExperimentId::Fig7_4 => cross(&PRIMES, &[Arch::IsaExt, Arch::Monte]),
            ExperimentId::Fig7_5 => cross(&BINARY, &[Arch::Baseline, Arch::IsaExt]),
            ExperimentId::Fig7_6 => cross(&BINARY, &[Arch::IsaExt]),
            ExperimentId::Fig7_7 => {
                let mut j = cross(&PRIMES, &[Arch::IsaExt, Arch::Monte]);
                j.extend(cross(&BINARY, &[Arch::IsaExt, Arch::Billie]));
                j
            }
            ExperimentId::Fig7_8 => {
                let mut j = cross(&PRIMES, &[Arch::Monte]);
                j.extend(cross(&BINARY, &[Arch::Billie]));
                j
            }
            ExperimentId::Fig7_9 => {
                let mut j = Vec::new();
                for (p, b) in [
                    (CurveId::P192, CurveId::K163),
                    (CurveId::P256, CurveId::K283),
                ] {
                    j.push(sv_cached(p, Arch::IsaExt, CacheConfig::best()));
                    j.push(sv(p, Arch::Monte));
                    j.push(sv(b, Arch::Billie));
                }
                j
            }
            ExperimentId::Fig7_10 => {
                let mut j = cross(
                    &[CurveId::P192, CurveId::K163],
                    &[Arch::Baseline, Arch::IsaExt],
                );
                j.push(sv_cached(CurveId::P192, Arch::IsaExt, CacheConfig::best()));
                j.push(sv(CurveId::P192, Arch::Monte));
                j.extend(cross(&BINARY, &[Arch::Billie]));
                j
            }
            ExperimentId::Fig7_11 => {
                let three = [CurveId::P192, CurveId::P256, CurveId::P384];
                let archs = [Arch::Baseline, Arch::IsaExt, Arch::Monte];
                let mut j = cross(&three, &archs);
                for &c in &three {
                    for &a in &archs {
                        j.push(sv_cached(c, a, CacheConfig::ideal()));
                    }
                }
                j
            }
            ExperimentId::Fig7_12 => {
                let mut j = vec![sv(CurveId::P192, Arch::IsaExt)];
                for size_kb in [1u32, 2, 4, 8] {
                    for prefetch in [false, true] {
                        j.push(sv_cached(
                            CurveId::P192,
                            Arch::IsaExt,
                            CacheConfig::real(size_kb * 1024, prefetch),
                        ));
                    }
                }
                j
            }
            ExperimentId::Fig7_13 => PRIMES
                .iter()
                .map(|&c| sv_cached(c, Arch::IsaExt, CacheConfig::best()))
                .collect(),
            ExperimentId::Fig7_14 => [1usize, 2, 3, 4, 6, 8]
                .iter()
                .map(|&d| {
                    (
                        SystemConfig::new(CurveId::K163, Arch::Billie).with_billie_digit(d),
                        Workload::ScalarMul,
                    )
                })
                .collect(),
            // Pure table lookups — nothing to simulate.
            ExperimentId::Fig7_15
            | ExperimentId::T7_3
            | ExperimentId::T7_4
            | ExperimentId::T7_5 => Vec::new(),
            ExperimentId::T7_1 => PRIMES
                .iter()
                .flat_map(|&c| {
                    [Arch::Baseline, Arch::IsaExt, Arch::Monte]
                        .into_iter()
                        .flat_map(move |a| {
                            [Workload::Sign, Workload::Verify]
                                .into_iter()
                                .map(move |w| (SystemConfig::new(c, a), w))
                        })
                })
                .collect(),
            ExperimentId::T7_2 => BINARY
                .iter()
                .flat_map(|&c| {
                    [Arch::Baseline, Arch::IsaExt, Arch::Billie]
                        .into_iter()
                        .flat_map(move |a| {
                            [Workload::Sign, Workload::Verify]
                                .into_iter()
                                .map(move |w| (SystemConfig::new(c, a), w))
                        })
                })
                .collect(),
            ExperimentId::S7_7 => {
                let no_db = MonteConfig {
                    double_buffer: false,
                    forwarding: false,
                    queue_depth: 4,
                };
                [CurveId::P192, CurveId::P384]
                    .iter()
                    .flat_map(|&c| {
                        [MonteConfig::default(), no_db].into_iter().map(move |m| {
                            (
                                SystemConfig::new(c, Arch::Monte).with_monte(m),
                                Workload::SignVerify,
                            )
                        })
                    })
                    .collect()
            }
            ExperimentId::S7_8 => vec![sv(CurveId::P192, Arch::Baseline)],
            ExperimentId::S8Gating => {
                use ule_energy::report::Gating;
                let mut j = Vec::new();
                for &c in BINARY.iter() {
                    for g in [Gating::None, Gating::Clock, Gating::Power] {
                        j.push((
                            SystemConfig::new(c, Arch::Billie).with_gating(g),
                            Workload::SignVerify,
                        ));
                    }
                }
                for g in [Gating::None, Gating::Clock, Gating::Power] {
                    j.push((
                        SystemConfig::new(CurveId::P192, Arch::Monte).with_gating(g),
                        Workload::SignVerify,
                    ));
                }
                for &c in BINARY.iter() {
                    j.push(sv(c, Arch::Billie));
                    j.push((
                        SystemConfig::new(c, Arch::Billie).with_billie_sram_rf(true),
                        Workload::SignVerify,
                    ));
                }
                j
            }
            ExperimentId::Summary => {
                let mut j = cross(
                    &[CurveId::P192, CurveId::P521],
                    &[Arch::Baseline, Arch::IsaExt, Arch::Monte],
                );
                j.push(sv_cached(CurveId::P192, Arch::IsaExt, CacheConfig::best()));
                j.extend(cross(
                    &[CurveId::K163],
                    &[Arch::Baseline, Arch::IsaExt, Arch::Billie],
                ));
                j.push(sv(CurveId::K571, Arch::Billie));
                j
            }
        }
    }
}

impl std::fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The error `ExperimentId::from_str` returns for an unknown id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown experiment id {:?}", self.0)
    }
}

impl std::error::Error for UnknownExperiment {}

impl FromStr for ExperimentId {
    type Err = UnknownExperiment;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ExperimentId::VARIANTS
            .into_iter()
            .find(|id| id.name() == s)
            .ok_or_else(|| UnknownExperiment(s.to_string()))
    }
}
