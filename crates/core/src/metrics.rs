//! Flattening [`RunReport`]s into versioned metrics records, and the
//! one codec for a design point's identity.
//!
//! [`design_point_record`] turns one `(config, workload, report)` into
//! one flat [`Record`] — the JSONL line behind `repro --metrics-out`.
//! Every counter struct the simulator produces is destructured
//! **exhaustively** (no `..` patterns): adding a field to
//! `pete::Counters`, `MemStats`, `CacheStats`, or `CopStats` without
//! exporting it here is a compile error, not a silently-dropped
//! counter. The exact key set is pinned by the golden-file test in
//! `ule-bench`.
//!
//! A design point is named by the 15 [`IDENTITY_KEYS`]. This module is
//! the only place a knob is named: [`identity_values`] encodes a
//! `(SystemConfig, Workload)` into them (metrics records, journal
//! `frontier` records and [`config_identity`] all go through it), and
//! [`decode_identity`] is its exact inverse, turning a parsed record
//! back into the pair or into a typed [`IdentityError`] naming the key.

use crate::space::{SpaceError, BILLIE_DIGIT_RANGE};
use crate::{MultVariant, RawStats, RunReport, SystemConfig, Workload, WorkloadError};
use std::fmt::{self, Write as _};
use ule_curves::params::CurveId;
use ule_energy::report::{Component, EnergyBreakdown, Gating, RoutineActivity};
use ule_monte::MonteConfig;
use ule_obs::json::{Json, JsonBuf};
use ule_obs::record::Record;
use ule_obs::Value;
use ule_pete::cop::CopStats;
use ule_pete::cpu::Counters;
use ule_pete::icache::{CacheConfig, CacheStats};
use ule_pete::mem::MemStats;
use ule_pete::profile::RoutineProfile;
use ule_swlib::builder::Arch;

/// Every architecture, in declaration order.
pub const ARCHS: [Arch; 4] = [Arch::Baseline, Arch::IsaExt, Arch::Monte, Arch::Billie];

/// Stable identifier for an architecture.
pub fn arch_key(a: Arch) -> &'static str {
    match a {
        Arch::Baseline => "baseline",
        Arch::IsaExt => "isa_ext",
        Arch::Monte => "monte",
        Arch::Billie => "billie",
    }
}

/// The architecture whose [`arch_key`] is exactly `key`.
pub fn arch_from_key(key: &str) -> Option<Arch> {
    ARCHS.into_iter().find(|&a| arch_key(a) == key)
}

/// The curve whose name is exactly `key` (`"P-192"`, `"X25519"`, …).
pub fn curve_from_key(key: &str) -> Option<CurveId> {
    CurveId::ALL
        .into_iter()
        .chain(CurveId::XCURVES)
        .find(|c| c.name() == key)
}

/// Every §7.8 multiplier variant, in declaration order.
pub const MULT_VARIANTS: [MultVariant; 3] = [
    MultVariant::Karatsuba,
    MultVariant::OperandScan,
    MultVariant::Parallel,
];

/// Stable identifier for a §7.8 multiplier variant.
pub fn mult_variant_key(v: MultVariant) -> &'static str {
    match v {
        MultVariant::Karatsuba => "karatsuba",
        MultVariant::OperandScan => "operand_scan",
        MultVariant::Parallel => "parallel",
    }
}

/// The multiplier variant whose [`mult_variant_key`] is exactly `key`.
pub fn mult_variant_from_key(key: &str) -> Option<MultVariant> {
    MULT_VARIANTS
        .into_iter()
        .find(|&v| mult_variant_key(v) == key)
}

/// Every gating strategy, in declaration order.
pub const GATINGS: [Gating; 3] = [Gating::None, Gating::Clock, Gating::Power];

/// Stable identifier for a gating strategy.
pub fn gating_key(g: Gating) -> &'static str {
    match g {
        Gating::None => "none",
        Gating::Clock => "clock",
        Gating::Power => "power",
    }
}

/// The gating strategy whose [`gating_key`] is exactly `key`.
pub fn gating_from_key(key: &str) -> Option<Gating> {
    GATINGS.into_iter().find(|&g| gating_key(g) == key)
}

/// Every workload, in declaration order.
pub const WORKLOADS: [Workload; 7] = [
    Workload::Sign,
    Workload::Verify,
    Workload::SignVerify,
    Workload::ScalarMul,
    Workload::FieldMul,
    Workload::Xdh,
    Workload::Handshake,
];

/// The workload whose [`workload_key`] is exactly `key`.
pub fn workload_from_key(key: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|&w| workload_key(w) == key)
}

/// Stable identifier for a workload.
pub fn workload_key(w: Workload) -> &'static str {
    match w {
        Workload::Sign => "sign",
        Workload::Verify => "verify",
        Workload::SignVerify => "sign_verify",
        Workload::ScalarMul => "scalar_mul",
        Workload::FieldMul => "field_mul",
        Workload::Xdh => "xdh",
        Workload::Handshake => "handshake",
    }
}

/// The record keys that identify a design point. Two records with
/// equal values for all of these describe the same configuration ×
/// workload; `repro diff` joins on them, and the explorer's journal
/// resume matches persisted points against the lattice with them.
pub const IDENTITY_KEYS: [&str; 15] = [
    "curve",
    "arch",
    "workload",
    "icache_present",
    "icache_size_bytes",
    "icache_prefetch",
    "icache_ideal",
    "icache_miss_penalty",
    "monte_double_buffer",
    "monte_forwarding",
    "monte_queue_depth",
    "billie_digit",
    "mult_variant",
    "gating",
    "billie_sram_rf",
];

/// One identity value, typed as a record carries it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdentityValue {
    /// A stable identifier (`"P-192"`, `"billie"`, `"clock"`, …).
    Str(&'static str),
    /// An integer knob.
    U64(u64),
    /// A boolean knob.
    Bool(bool),
}

impl IdentityValue {
    fn matches(self, json: &Json) -> bool {
        match (self, json) {
            (IdentityValue::Str(a), Json::Str(b)) => a == b,
            (IdentityValue::U64(a), Json::U64(b)) => a == *b,
            (IdentityValue::Bool(a), Json::Bool(b)) => a == *b,
            _ => false,
        }
    }
}

impl fmt::Display for IdentityValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdentityValue::Str(s) => f.write_str(s),
            IdentityValue::U64(n) => write!(f, "{n}"),
            IdentityValue::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
        }
    }
}

impl From<IdentityValue> for Value {
    fn from(v: IdentityValue) -> Self {
        match v {
            IdentityValue::Str(s) => Value::from(s),
            IdentityValue::U64(n) => Value::U64(n),
            IdentityValue::Bool(b) => Value::Bool(b),
        }
    }
}

/// What an absent instruction cache encodes as.
const NO_ICACHE: CacheConfig = CacheConfig {
    size_bytes: 0,
    prefetch: false,
    ideal: false,
    miss_penalty: 0,
};

/// The encoder: the values of [`IDENTITY_KEYS`] for one design point,
/// in key order. The configuration and its nested knobs are
/// destructured exhaustively, so a new knob fails to compile here
/// until it is named.
pub fn identity_values(config: &SystemConfig, workload: Workload) -> [IdentityValue; 15] {
    use IdentityValue::{Bool, Str, U64};
    let SystemConfig {
        curve,
        arch,
        icache,
        monte,
        billie_digit,
        mult_variant,
        gating,
        billie_sram_rf,
    } = *config;
    let CacheConfig {
        size_bytes,
        prefetch,
        ideal,
        miss_penalty,
    } = icache.unwrap_or(NO_ICACHE);
    let MonteConfig {
        double_buffer,
        forwarding,
        queue_depth,
    } = monte;
    [
        Str(curve.name()),
        Str(arch_key(arch)),
        Str(workload_key(workload)),
        Bool(icache.is_some()),
        U64(size_bytes.into()),
        Bool(prefetch),
        Bool(ideal),
        U64(miss_penalty.into()),
        Bool(double_buffer),
        Bool(forwarding),
        U64(queue_depth as u64),
        U64(billie_digit as u64),
        Str(mult_variant_key(mult_variant)),
        Str(gating_key(gating)),
        Bool(billie_sram_rf),
    ]
}

/// Pushes the [`IDENTITY_KEYS`] of one design point onto a record, in
/// key order.
pub fn push_identity(r: &mut Record, config: &SystemConfig, workload: Workload) {
    for (key, value) in IDENTITY_KEYS
        .into_iter()
        .zip(identity_values(config, workload))
    {
        r.push(key, value);
    }
}

/// The canonical identity string of one design point: every
/// [`IDENTITY_KEYS`] entry as `key=value|`, in key order. The join key
/// of `repro diff` and of journal resume; a parsed record's identity
/// is this string of what [`decode_identity`] reads back.
pub fn config_identity(config: &SystemConfig, workload: Workload) -> String {
    let mut s = String::with_capacity(384);
    for (key, value) in IDENTITY_KEYS
        .into_iter()
        .zip(identity_values(config, workload))
    {
        s.push_str(key);
        s.push('=');
        let _ = write!(s, "{value}");
        s.push('|');
    }
    s
}

/// What is wrong with one identity key of a record.
#[derive(Clone, Debug, PartialEq)]
pub enum IdentityProblem {
    /// The key is absent.
    Missing,
    /// The value has the wrong JSON type (`"a string"`, …).
    WrongType(&'static str),
    /// The string is no stable identifier of this knob.
    Unknown(String),
    /// A Billie digit outside [`BILLIE_DIGIT_RANGE`].
    Invalid(SpaceError),
    /// The curve/arch/workload triple is not simulable.
    Unsupported(WorkloadError),
    /// Not the value the decoded configuration encodes to (an absent
    /// I$ with a nonzero size, an integer wider than its knob).
    NotCanonical(IdentityValue),
}

/// A record's identity keys name no design point: the offending key
/// and what is wrong with it.
#[derive(Clone, Debug, PartialEq)]
pub struct IdentityError {
    /// One of [`IDENTITY_KEYS`].
    pub key: &'static str,
    /// What is wrong with its value.
    pub problem: IdentityProblem,
}

impl fmt::Display for IdentityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "identity key {:?}: ", self.key)?;
        match &self.problem {
            IdentityProblem::Missing => write!(f, "missing"),
            IdentityProblem::WrongType(t) => write!(f, "expected {t}"),
            IdentityProblem::Unknown(s) => write!(f, "unknown value {s:?}"),
            IdentityProblem::Invalid(e) => write!(f, "{e}"),
            IdentityProblem::Unsupported(e) => write!(f, "{e}"),
            IdentityProblem::NotCanonical(v) => write!(f, "the point it names encodes it as {v}"),
        }
    }
}

impl std::error::Error for IdentityError {}

fn at(key: &'static str, problem: IdentityProblem) -> IdentityError {
    IdentityError { key, problem }
}

/// `doc[key]` read by `as_t`, which names the JSON type it expects.
fn get<'a, T>(
    doc: &'a Json,
    key: &'static str,
    what: &'static str,
    as_t: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, IdentityError> {
    let v = doc.get(key).ok_or(at(key, IdentityProblem::Missing))?;
    as_t(v).ok_or(at(key, IdentityProblem::WrongType(what)))
}

/// `doc[key]` read through an exact key inverse.
fn keyed<T>(
    doc: &Json,
    key: &'static str,
    from_key: fn(&str) -> Option<T>,
) -> Result<T, IdentityError> {
    let s = get(doc, key, "a string", Json::as_str)?;
    from_key(s).ok_or_else(|| at(key, IdentityProblem::Unknown(s.to_owned())))
}

/// The decoder: the design point a parsed record's [`IDENTITY_KEYS`]
/// name — the exact inverse of [`identity_values`]. A value that is
/// missing, mistyped or impossible (a triple [`crate::validate_workload`]
/// refuses, a digit outside [`BILLIE_DIGIT_RANGE`], anything the
/// encoder would not write back verbatim) is an [`IdentityError`]
/// naming the key.
pub fn decode_identity(doc: &Json) -> Result<(SystemConfig, Workload), IdentityError> {
    let int = |key| get(doc, key, "an integer", Json::as_u64);
    let flag = |key| get(doc, key, "a boolean", Json::as_bool);
    let curve = keyed(doc, "curve", curve_from_key)?;
    let arch = keyed(doc, "arch", arch_from_key)?;
    let workload = keyed(doc, "workload", workload_from_key)?;
    crate::validate_workload(curve, arch, workload).map_err(|e| {
        let key = match e {
            WorkloadError::ArchCurveMismatch { .. } => "arch",
            _ => "workload",
        };
        at(key, IdentityProblem::Unsupported(e))
    })?;
    let cache = CacheConfig {
        size_bytes: int("icache_size_bytes")? as u32,
        prefetch: flag("icache_prefetch")?,
        ideal: flag("icache_ideal")?,
        miss_penalty: int("icache_miss_penalty")? as u32,
    };
    let icache = flag("icache_present")?.then_some(cache);
    let monte = MonteConfig {
        double_buffer: flag("monte_double_buffer")?,
        forwarding: flag("monte_forwarding")?,
        queue_depth: int("monte_queue_depth")? as usize,
    };
    let billie_digit = int("billie_digit")? as usize;
    if !BILLIE_DIGIT_RANGE.contains(&billie_digit) {
        let e = SpaceError::InvalidDigit(billie_digit);
        return Err(at("billie_digit", IdentityProblem::Invalid(e)));
    }
    let config = SystemConfig {
        curve,
        arch,
        icache,
        monte,
        billie_digit,
        mult_variant: keyed(doc, "mult_variant", mult_variant_from_key)?,
        gating: keyed(doc, "gating", gating_from_key)?,
        billie_sram_rf: flag("billie_sram_rf")?,
    };
    let encoded = identity_values(&config, workload);
    for (key, value) in IDENTITY_KEYS.into_iter().zip(encoded) {
        if !doc.get(key).is_some_and(|v| value.matches(v)) {
            return Err(at(key, IdentityProblem::NotCanonical(value)));
        }
    }
    Ok((config, workload))
}

/// Flattens one design point (config + workload + simulation report)
/// into a `design_point` record — one JSONL line of `--metrics-out`.
pub fn design_point_record(
    config: &SystemConfig,
    workload: Workload,
    report: &RunReport,
) -> Record {
    let mut r = Record::new("design_point");

    // Configuration: the identity codec names every knob.
    push_identity(&mut r, config, workload);

    // Headline results (area is a pure function of the config — the
    // third objective of the `ule-dse` Pareto frontiers).
    r.push("cycles", report.cycles);
    r.push("time_ms", report.time_ms());
    r.push("energy_uj", report.energy_uj());
    r.push("area_kge", crate::space::area_kge(config));

    // Pipeline counters. Exhaustive.
    let Counters {
        instructions,
        cycles: counter_cycles,
        stall_cycles,
        load_use_stalls,
        branches,
        mispredicts,
        mult_active_cycles,
        mult_stalls,
        mult_ops,
        div_ops,
        cop2_ops,
        cop2_stalls,
        fetches,
    } = report.counters;
    r.push("pete_instructions", instructions);
    r.push("pete_cycles", counter_cycles);
    r.push("pete_stall_cycles", stall_cycles);
    r.push("pete_load_use_stalls", load_use_stalls);
    r.push("pete_branches", branches);
    r.push("pete_mispredicts", mispredicts);
    r.push("pete_mult_active_cycles", mult_active_cycles);
    r.push("pete_mult_stalls", mult_stalls);
    r.push("pete_mult_ops", mult_ops);
    r.push("pete_div_ops", div_ops);
    r.push("pete_cop2_ops", cop2_ops);
    r.push("pete_cop2_stalls", cop2_stalls);
    r.push("pete_fetches", fetches);

    // Memory, cache, and accelerator stats. Exhaustive.
    let RawStats {
        rom,
        ram,
        icache: icache_stats,
        cop,
    } = report.raw;
    let MemStats {
        reads: rom_reads,
        writes: rom_writes,
        line_reads: rom_line_reads,
    } = rom;
    r.push("rom_reads", rom_reads);
    r.push("rom_writes", rom_writes);
    r.push("rom_line_reads", rom_line_reads);
    let MemStats {
        reads: ram_reads,
        writes: ram_writes,
        line_reads: ram_line_reads,
    } = ram;
    r.push("ram_reads", ram_reads);
    r.push("ram_writes", ram_writes);
    r.push("ram_line_reads", ram_line_reads);
    let CacheStats {
        accesses,
        misses,
        prefetch_hits,
        rom_line_reads: icache_rom_line_reads,
        fills,
        stall_cycles: icache_stall_cycles,
    } = icache_stats.unwrap_or_default();
    r.push("icache_accesses", accesses);
    r.push("icache_misses", misses);
    r.push("icache_prefetch_hits", prefetch_hits);
    r.push("icache_rom_line_reads", icache_rom_line_reads);
    r.push("icache_fills", fills);
    r.push("icache_stall_cycles", icache_stall_cycles);
    let CopStats {
        busy_cycles,
        dma_cycles,
        instructions: cop_instructions,
        ram_reads: cop_ram_reads,
        ram_writes: cop_ram_writes,
        ucode_reads,
        mul_ops: cop_mul_ops,
        ls_ops,
    } = cop;
    r.push("cop_busy_cycles", busy_cycles);
    r.push("cop_dma_cycles", dma_cycles);
    r.push("cop_instructions", cop_instructions);
    r.push("cop_ram_reads", cop_ram_reads);
    r.push("cop_ram_writes", cop_ram_writes);
    r.push("cop_ucode_reads", ucode_reads);
    r.push("cop_mul_ops", cop_mul_ops);
    r.push("cop_ls_ops", ls_ops);

    // Per-component energy, every component always present (zero when
    // the component is absent from this configuration).
    for c in [
        Component::PeteCore,
        Component::Rom,
        Component::Ram,
        Component::Uncore,
        Component::Monte,
        Component::Billie,
    ] {
        r.push(
            &format!("energy_{}_uj", c.key()),
            report.energy.component_uj(c),
        );
    }
    r.push("energy_static_fraction", report.energy.static_fraction());

    // Per-routine cycle profile (present only on profiled runs, as a
    // nested array — the one non-flat field, pinned separately).
    if let Some(p) = &report.profile {
        r.push(
            "profile",
            ule_obs::Value::Raw(profile_json(p, &report.energy)),
        );
    }
    r
}

/// Serializes a routine profile as a JSON array of bucket objects:
/// one per routine in reporting order (cycles descending, then name),
/// carrying the activity counters and the attributed energy (schema
/// v2). The `energy_uj` fields sum bit-exactly to the headline
/// `energy_uj` of the enclosing record.
pub fn profile_json(p: &RoutineProfile, energy: &EnergyBreakdown) -> String {
    let acts = crate::attr::routine_activities(p);
    let att = energy.attribute(&acts);
    let mut b = JsonBuf::new();
    b.begin_array();
    for (a, e) in acts.iter().zip(&att.routines) {
        // Exhaustive: every activity counter is exported.
        let RoutineActivity {
            name,
            cycles,
            instructions,
            rom_reads,
            rom_line_reads,
            ram_reads,
            ram_writes,
            icache_accesses,
            icache_misses,
            cop_mul_ops,
            cop_ls_ops,
        } = a;
        b.begin_object();
        b.key("name").value_str(name);
        b.key("instructions").value_u64(*instructions);
        b.key("cycles").value_u64(*cycles);
        b.key("rom_reads").value_u64(*rom_reads);
        b.key("rom_line_reads").value_u64(*rom_line_reads);
        b.key("ram_reads").value_u64(*ram_reads);
        b.key("ram_writes").value_u64(*ram_writes);
        b.key("icache_accesses").value_u64(*icache_accesses);
        b.key("icache_misses").value_u64(*icache_misses);
        b.key("cop_mul_ops").value_u64(*cop_mul_ops);
        b.key("cop_ls_ops").value_u64(*cop_ls_ops);
        b.key("energy_uj").value_f64(e.total_uj);
        b.end_object();
    }
    b.end_array();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOptions, System, Workload};
    use ule_curves::params::CurveId;
    use ule_obs::json::is_valid;

    #[test]
    fn arch_and_workload_keys_round_trip() {
        for a in ARCHS {
            assert_eq!(arch_from_key(arch_key(a)), Some(a));
        }
        for w in WORKLOADS {
            assert_eq!(workload_from_key(workload_key(w)), Some(w));
        }
        for v in MULT_VARIANTS {
            assert_eq!(mult_variant_from_key(mult_variant_key(v)), Some(v));
        }
        for g in GATINGS {
            assert_eq!(gating_from_key(gating_key(g)), Some(g));
        }
        for c in CurveId::ALL.into_iter().chain(CurveId::XCURVES) {
            assert_eq!(curve_from_key(c.name()), Some(c));
        }
        // Keys are exact: the CLI's dash spellings are not keys.
        assert_eq!(arch_from_key("isa-ext"), None);
        assert_eq!(workload_from_key("sign-verify"), None);
        assert_eq!(curve_from_key("P192"), None);
    }

    #[test]
    fn decoder_names_the_key_it_refuses() {
        let cfg = SystemConfig::new(CurveId::K163, Arch::Billie).with_billie_digit(5);
        let mut r = Record::new("design_point");
        push_identity(&mut r, &cfg, Workload::ScalarMul);
        let line = r.to_json();
        let decode = |from: &str, to: &str| {
            let doc = ule_obs::json::parse(&line.replace(from, to)).unwrap();
            decode_identity(&doc)
        };
        assert_eq!(decode("", ""), Ok((cfg, Workload::ScalarMul)));
        let refused = |from, to| decode(from, to).unwrap_err();
        let e = refused(r#""gating":"none","#, "");
        assert_eq!((e.key, e.problem), ("gating", IdentityProblem::Missing));
        let e = refused(r#""billie_digit":5"#, r#""billie_digit":"5""#);
        assert_eq!(e.problem, IdentityProblem::WrongType("an integer"));
        let e = refused(r#""mult_variant":"karatsuba""#, r#""mult_variant":"booth""#);
        assert_eq!(e.problem, IdentityProblem::Unknown("booth".into()));
        let e = refused(r#""billie_digit":5"#, r#""billie_digit":17"#);
        assert_eq!(e.key, "billie_digit");
        let e = refused(r#""workload":"scalar_mul""#, r#""workload":"xdh""#);
        assert_eq!(e.key, "workload");
        // An absent I$ with a size is not what the encoder writes.
        let e = refused(r#""icache_size_bytes":0"#, r#""icache_size_bytes":4096"#);
        let problem = IdentityProblem::NotCanonical(IdentityValue::U64(0));
        assert_eq!((e.key, &e.problem), ("icache_size_bytes", &problem));
        assert_eq!(
            e.to_string(),
            r#"identity key "icache_size_bytes": the point it names encodes it as 0"#
        );
    }

    #[test]
    fn design_point_record_is_flat_valid_json() {
        let cfg = SystemConfig::new(CurveId::P192, Arch::Baseline);
        let report = System::new(cfg).run_with(RunOptions::new(Workload::FieldMul));
        let rec = design_point_record(&cfg, Workload::FieldMul, &report);
        let line = rec.to_json();
        assert!(is_valid(&line), "{line}");
        assert_eq!(rec.get("curve"), Some(&ule_obs::Value::Str("P-192".into())));
        assert_eq!(rec.get("cycles"), Some(&ule_obs::Value::U64(report.cycles)));
        // Non-profiled run: no profile field.
        assert!(rec.get("profile").is_none());
    }

    #[test]
    fn profiled_record_profile_is_sorted_and_energy_conserving() {
        let cfg = SystemConfig::new(CurveId::P192, Arch::IsaExt);
        let report = System::new(cfg).run_with(RunOptions::new(Workload::FieldMul).profiled());
        let rec = design_point_record(&cfg, Workload::FieldMul, &report);
        let line = rec.to_json();
        assert!(is_valid(&line), "{line}");
        let doc = ule_obs::json::parse(&line).unwrap();
        let prof = doc.get("profile").unwrap().as_array().unwrap();
        assert!(!prof.is_empty());
        // Sorted: cycles descending, then name ascending.
        let keys: Vec<(u64, String)> = prof
            .iter()
            .map(|e| {
                (
                    e.get("cycles").unwrap().as_u64().unwrap(),
                    e.get("name").unwrap().as_str().unwrap().to_owned(),
                )
            })
            .collect();
        for w in keys.windows(2) {
            assert!(
                w[1].0 < w[0].0 || (w[1].0 == w[0].0 && w[1].1 > w[0].1),
                "not sorted: {w:?}"
            );
        }
        // Attributed energy sums to the headline total (parse-level
        // check; the bit-exact invariant is tested in ule-energy).
        let total: f64 = prof
            .iter()
            .map(|e| e.get("energy_uj").unwrap().as_f64().unwrap())
            .sum();
        let headline = doc.get("energy_uj").unwrap().as_f64().unwrap();
        assert!(
            (total - headline).abs() <= 1e-9 * headline.abs(),
            "{total} vs {headline}"
        );
        // Counters conserve: per-routine cycles sum to the headline.
        let cyc: u64 = keys.iter().map(|(c, _)| c).sum();
        assert_eq!(cyc, report.cycles);
    }
}
