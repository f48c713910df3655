//! Differential tests: binary-field assembly vs the host reference.

use ule_isa::reg::Reg;
use ule_mpmath::f2m::BinaryField;
use ule_mpmath::nist::NistBinary;
use ule_pete::cpu::{Machine, MachineConfig};
use ule_swlib::f2m::{
    emit_f2m_add, emit_f2m_eea_inv, emit_f2m_mul_comb, emit_f2m_mul_ps_ext, emit_f2m_red,
    emit_f2m_sqr_ext, emit_f2m_sqr_table, spread_table_words, F2mEeaBufs,
};
use ule_swlib::gen::Gen;
use ule_swlib::harness::{read_buf, run_entry_expect, write_buf};

struct F2mProgram {
    program: ule_isa::asm::Program,
    k: usize,
}

fn build_f2m_program(field: &BinaryField, ext: bool) -> F2mProgram {
    let k = field.k();
    let width = 2 * k + 1;
    let mut g = Gen::new();
    g.a.ram_alloc("arg_a", k as u32);
    g.a.ram_alloc("arg_b", k as u32);
    g.a.ram_alloc("out", k as u32);
    g.a.ram_alloc("wide_in", width as u32);
    let wide = g.a.ram_alloc("wide", width as u32);
    let table = g.a.ram_alloc("comb_table", (16 * (k + 1)) as u32);
    let u = g.a.ram_alloc("eea_u", width as u32);
    let v = g.a.ram_alloc("eea_v", width as u32);
    let g1 = g.a.ram_alloc("eea_g1", width as u32);
    let g2 = g.a.ram_alloc("eea_g2", width as u32);

    for (entry, routine, two) in [
        ("main_add", "xadd", true),
        ("main_mul", "xmul", true),
        ("main_sqr", "xsqr", false),
        ("main_inv", "xinv", false),
    ] {
        g.a.label(entry);
        g.a.la(Reg::A0, "out");
        g.a.la(Reg::A1, "arg_a");
        if two {
            g.a.la(Reg::A2, "arg_b");
        }
        g.a.jal(routine);
        g.a.nop();
        g.a.brk(0);
    }
    g.a.label("main_red");
    g.a.la(Reg::A0, "wide_in");
    g.a.la(Reg::A1, "out");
    g.a.jal("xred");
    g.a.nop();
    g.a.brk(0);

    emit_f2m_add(&mut g, "xadd", k);
    emit_f2m_red(&mut g, "xred", field, width);
    if ext {
        emit_f2m_mul_ps_ext(&mut g, "xmul", field, wide, "xred");
        emit_f2m_sqr_ext(&mut g, "xsqr", field, wide, "xred");
    } else {
        emit_f2m_mul_comb(&mut g, "xmul", field, table, wide, "xred");
        emit_f2m_sqr_table(&mut g, "xsqr", field, wide, "spread_tbl", "xred");
    }
    emit_f2m_eea_inv(&mut g, "xinv", field, F2mEeaBufs { u, v, g1, g2 }, "xred");
    g.a.data_label("spread_tbl");
    g.a.words(&spread_table_words());

    F2mProgram {
        program: g.a.link("main_add").expect("link"),
        k,
    }
}

fn sample(field: &BinaryField, seed: u64) -> Vec<u32> {
    let mut x = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
    let k = field.k();
    let mut limbs = vec![0u32; k];
    for l in limbs.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *l = x as u32;
    }
    limbs[k - 1] &= (1u32 << (field.m() % 32)) - 1;
    limbs
}

fn cfg(ext: bool) -> MachineConfig {
    if ext {
        MachineConfig::isa_ext()
    } else {
        MachineConfig::baseline()
    }
}

fn run_op(fp: &F2mProgram, ext: bool, entry: &str, a: &[u32], b: Option<&[u32]>) -> Vec<u32> {
    let mut m = Machine::new(&fp.program, cfg(ext));
    write_buf(&mut m, &fp.program, "arg_a", a);
    if let Some(b) = b {
        write_buf(&mut m, &fp.program, "arg_b", b);
    }
    run_entry_expect(&mut m, &fp.program, entry, 100_000_000);
    read_buf(&m, &fp.program, "out", fp.k)
}

#[test]
fn add_matches_host() {
    let field = BinaryField::nist(NistBinary::B163);
    let fp = build_f2m_program(&field, false);
    let a = sample(&field, 1);
    let b = sample(&field, 2);
    let expect = field
        .add(&field.from_limbs(&a), &field.from_limbs(&b))
        .limbs()
        .to_vec();
    assert_eq!(run_op(&fp, false, "main_add", &a, Some(&b)), expect);
}

#[test]
fn comb_mul_matches_host_all_fields() {
    for nb in NistBinary::ALL {
        let field = BinaryField::nist(nb);
        let fp = build_f2m_program(&field, false);
        for seed in 0..2u64 {
            let a = sample(&field, seed + 5);
            let b = sample(&field, seed + 50);
            let expect = field
                .mul_comb(&field.from_limbs(&a), &field.from_limbs(&b))
                .limbs()
                .to_vec();
            assert_eq!(
                run_op(&fp, false, "main_mul", &a, Some(&b)),
                expect,
                "{} comb seed {seed}",
                nb.name()
            );
        }
    }
}

#[test]
fn ext_mul_matches_host_all_fields() {
    for nb in NistBinary::ALL {
        let field = BinaryField::nist(nb);
        let fp = build_f2m_program(&field, true);
        for seed in 0..2u64 {
            let a = sample(&field, seed + 9);
            let b = sample(&field, seed + 90);
            let expect = field
                .mul_clmul(&field.from_limbs(&a), &field.from_limbs(&b))
                .limbs()
                .to_vec();
            assert_eq!(
                run_op(&fp, true, "main_mul", &a, Some(&b)),
                expect,
                "{} ext mul seed {seed}",
                nb.name()
            );
        }
    }
}

#[test]
fn sqr_matches_host_both_tiers() {
    for nb in [NistBinary::B163, NistBinary::B571] {
        let field = BinaryField::nist(nb);
        for ext in [false, true] {
            let fp = build_f2m_program(&field, ext);
            let a = sample(&field, 77);
            let expect = field.sqr(&field.from_limbs(&a)).limbs().to_vec();
            assert_eq!(
                run_op(&fp, ext, "main_sqr", &a, None),
                expect,
                "{} sqr ext={ext}",
                nb.name()
            );
        }
    }
}

#[test]
fn reduction_matches_host_on_extremes() {
    for nb in NistBinary::ALL {
        let field = BinaryField::nist(nb);
        let fp = build_f2m_program(&field, false);
        let width = 2 * field.k() + 1;
        for wide in [vec![0u32; width], vec![u32::MAX; width]] {
            let mut m = Machine::new(&fp.program, cfg(false));
            write_buf(&mut m, &fp.program, "wide_in", &wide);
            run_entry_expect(&mut m, &fp.program, "main_red", 10_000_000);
            let got = read_buf(&m, &fp.program, "out", fp.k);
            let expect = field.reduce(&wide);
            assert_eq!(got, expect.limbs(), "{} red", nb.name());
        }
    }
}

#[test]
fn inversion_matches_host() {
    for nb in [NistBinary::B163, NistBinary::B283] {
        let field = BinaryField::nist(nb);
        let fp = build_f2m_program(&field, false);
        for seed in 0..2u64 {
            let a = sample(&field, seed + 3);
            let expect = field
                .inv(&field.from_limbs(&a))
                .expect("nonzero")
                .limbs()
                .to_vec();
            assert_eq!(
                run_op(&fp, false, "main_inv", &a, None),
                expect,
                "{} inv seed {seed}",
                nb.name()
            );
        }
    }
}

#[test]
fn ext_mul_is_dramatically_faster_than_comb() {
    // The §7.2 claim: binary fields without carry-less hardware are
    // impractical; the ISA extensions recover the efficiency.
    let field = BinaryField::nist(NistBinary::B163);
    let base = build_f2m_program(&field, false);
    let ext = build_f2m_program(&field, true);
    let a = sample(&field, 11);
    let b = sample(&field, 12);
    let mut mb = Machine::new(&base.program, cfg(false));
    write_buf(&mut mb, &base.program, "arg_a", &a);
    write_buf(&mut mb, &base.program, "arg_b", &b);
    let comb_cycles = run_entry_expect(&mut mb, &base.program, "main_mul", 10_000_000);
    let mut me = Machine::new(&ext.program, cfg(true));
    write_buf(&mut me, &ext.program, "arg_a", &a);
    write_buf(&mut me, &ext.program, "arg_b", &b);
    let ext_cycles = run_entry_expect(&mut me, &ext.program, "main_mul", 10_000_000);
    assert!(
        ext_cycles * 2 < comb_cycles,
        "ext {ext_cycles} vs comb {comb_cycles}"
    );
}
