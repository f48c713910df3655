//! The resumable exploration journal (JSONL) and its validator.
//!
//! During a run the explorer *appends* one `design_point` record per
//! evaluated point — crash-safe progress. On successful completion it
//! *rewrites* the file in canonical form: every design point in lattice
//! order, then one `frontier` record per frontier point (rank order),
//! then one `dse_summary`. Because every record is a deterministic
//! function of (space, evaluated set), the completed journal is
//! byte-identical across re-runs, resumes, and thread counts.
//!
//! Resume parses `design_point` lines back by their *identity* (the
//! [`ule_core::metrics::config_identity`] string) and skips anything it
//! does not understand — a torn final line from a killed run, or record
//! kinds from a future schema — so a journal is never a worse starting
//! point than an empty file.

use crate::pareto::Objectives;
use std::collections::HashMap;
use ule_core::metrics::{arch_key, gating_key, mult_variant_key, workload_key, IDENTITY_KEYS};
use ule_core::{SystemConfig, Workload};
use ule_obs::json::{self, Json};
use ule_obs::record::Record;

/// Pushes the 15 identity keys of one design point onto a record, in
/// [`IDENTITY_KEYS`] order with the same value formatting as
/// `design_point_record`.
pub fn push_identity(r: &mut Record, config: &SystemConfig, workload: Workload) {
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
    r.push("curve", curve.name());
    r.push("arch", arch_key(arch));
    r.push("workload", workload_key(workload));
    r.push("icache_present", icache.is_some());
    r.push(
        "icache_size_bytes",
        icache.map(|c| c.size_bytes as u64).unwrap_or(0),
    );
    r.push(
        "icache_prefetch",
        icache.map(|c| c.prefetch).unwrap_or(false),
    );
    r.push("icache_ideal", icache.map(|c| c.ideal).unwrap_or(false));
    r.push(
        "icache_miss_penalty",
        icache.map(|c| c.miss_penalty as u64).unwrap_or(0),
    );
    r.push("monte_double_buffer", monte.double_buffer);
    r.push("monte_forwarding", monte.forwarding);
    r.push("monte_queue_depth", monte.queue_depth as u64);
    r.push("billie_digit", billie_digit as u64);
    r.push("mult_variant", mult_variant_key(mult_variant));
    r.push("gating", gating_key(gating));
    r.push("billie_sram_rf", billie_sram_rf);
}

/// One `frontier` record: rank, the point's identity, and its three
/// objectives. Nothing run-dependent, so a space's frontier lines can
/// be pinned as a golden file and compared with a literal `diff`.
pub fn frontier_record(
    space: &str,
    rank: usize,
    config: &SystemConfig,
    workload: Workload,
    objectives: &Objectives,
) -> Record {
    let mut r = Record::new("frontier");
    r.push("space", space);
    r.push("rank", rank as u64);
    push_identity(&mut r, config, workload);
    r.push("cycles", objectives.cycles);
    r.push("energy_uj", objectives.energy_uj);
    r.push("area_kge", objectives.area_kge);
    r
}

/// The closing `dse_summary` record. Deliberately excludes anything
/// resume-dependent (how many points came from a previous journal):
/// a resumed run and a fresh one finish with the same summary.
#[allow(clippy::too_many_arguments)]
pub fn dse_summary_record(
    space: &str,
    workload: Workload,
    strategy: &str,
    seed: u64,
    lattice_points: usize,
    pruned: usize,
    evaluated: usize,
    frontier_size: usize,
) -> Record {
    let mut r = Record::new("dse_summary");
    r.push("space", space);
    r.push("workload", workload_key(workload));
    r.push("strategy", strategy);
    r.push("seed", seed);
    r.push("lattice_points", lattice_points as u64);
    r.push("pruned", pruned as u64);
    r.push("evaluated", evaluated as u64);
    r.push("frontier_size", frontier_size as u64);
    r
}

/// Reconstructs the configuration and workload a record's identity
/// keys describe — the inverse of [`push_identity`], used by
/// `repro explore --report` to rebuild frontier configs from a journal
/// without re-running the exploration.
pub fn config_from_record(doc: &Json) -> Result<(SystemConfig, Workload), String> {
    let get_str = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("record: missing string {key:?}"))
    };
    let get_u64 = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("record: missing integer {key:?}"))
    };
    let get_bool = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_bool())
            .ok_or_else(|| format!("record: missing boolean {key:?}"))
    };
    let curve = crate::spaces::parse_curve(get_str("curve")?)?;
    let arch = crate::spaces::parse_arch(get_str("arch")?)?;
    let workload = crate::spaces::parse_workload(get_str("workload")?)?;
    let icache = if get_bool("icache_present")? {
        Some(ule_pete::icache::CacheConfig {
            size_bytes: get_u64("icache_size_bytes")? as u32,
            prefetch: get_bool("icache_prefetch")?,
            ideal: get_bool("icache_ideal")?,
            miss_penalty: get_u64("icache_miss_penalty")? as u32,
        })
    } else {
        None
    };
    let mut config = SystemConfig::new(curve, arch);
    config.icache = icache;
    config.monte = ule_monte::MonteConfig {
        double_buffer: get_bool("monte_double_buffer")?,
        forwarding: get_bool("monte_forwarding")?,
        queue_depth: get_u64("monte_queue_depth")? as usize,
    };
    config.billie_digit = get_u64("billie_digit")? as usize;
    config.mult_variant = crate::spaces::parse_mult_variant(get_str("mult_variant")?)?;
    config.gating = crate::spaces::parse_gating(get_str("gating")?)?;
    config.billie_sram_rf = get_bool("billie_sram_rf")?;
    Ok((config, workload))
}

/// One design point recovered from a journal.
#[derive(Clone, Debug, PartialEq)]
pub struct ResumedPoint {
    /// Simulated cycles.
    pub cycles: u64,
    /// Total energy, µJ (bit-exact: the JSON writer uses shortest-
    /// round-trip formatting).
    pub energy_uj: f64,
    /// The record's original JSONL line, re-emitted verbatim by the
    /// canonical rewrite so a resumed journal stays byte-identical to a
    /// fresh one.
    pub line: String,
}

fn identity_of(doc: &Json) -> Option<String> {
    let mut s = String::new();
    for key in IDENTITY_KEYS {
        let v = doc.get(key)?;
        match v {
            Json::Bool(b) => s.push_str(&format!("{key}={b}|")),
            Json::U64(n) => s.push_str(&format!("{key}={n}|")),
            Json::Str(t) => s.push_str(&format!("{key}={t}|")),
            _ => return None,
        }
    }
    Some(s)
}

/// Parses the `design_point` lines of a (possibly torn or partial)
/// journal, keyed by identity. Unknown record kinds, malformed lines,
/// and design points missing required fields are skipped — their count
/// comes back alongside the map. Later lines win on duplicate identity.
pub fn parse_design_points(text: &str) -> (HashMap<String, ResumedPoint>, usize) {
    let mut points = HashMap::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = json::parse(line).and_then(|doc| {
            if doc.get("record")?.as_str()? != "design_point" {
                return None;
            }
            Some((
                identity_of(&doc)?,
                ResumedPoint {
                    cycles: doc.get("cycles")?.as_u64()?,
                    energy_uj: doc.get("energy_uj")?.as_f64()?,
                    line: line.to_owned(),
                },
            ))
        });
        match parsed {
            Some((identity, point)) => {
                points.insert(identity, point);
            }
            None => skipped += 1,
        }
    }
    (points, skipped)
}

/// What a validated journal contains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// `design_point` records.
    pub design_points: usize,
    /// `frontier` records.
    pub frontier_points: usize,
    /// `dse_summary` records.
    pub summaries: usize,
    /// Records of kinds this validator does not know (tolerated, per
    /// the skip-and-count forward-compatibility rule).
    pub unknown: usize,
}

fn require<'a>(doc: &'a Json, ctx: &str, key: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("{ctx}: missing {key:?}"))
}

/// Structurally validates an exploration journal (`repro check
/// --journal`): every line is valid JSON with a record kind and schema
/// version; design points carry their identity and objectives;
/// frontier ranks are contiguous in file order and every frontier
/// point's identity also appears as a design point; the summary's
/// counts agree with the records around it.
pub fn validate_journal(text: &str) -> Result<JournalStats, String> {
    let mut stats = JournalStats::default();
    let mut design_identities: Vec<String> = Vec::new();
    let mut frontier_identities: Vec<String> = Vec::new();
    let mut summary: Option<(u64, u64)> = None; // (evaluated, frontier_size)
    for (n, line) in text.lines().enumerate() {
        let n = n + 1;
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).ok_or_else(|| format!("line {n}: not valid JSON"))?;
        let kind = require(&doc, &format!("line {n}"), "record")?
            .as_str()
            .ok_or_else(|| format!("line {n}: \"record\" must be a string"))?
            .to_owned();
        require(&doc, &format!("line {n}"), "schema_version")?
            .as_u64()
            .ok_or_else(|| format!("line {n}: \"schema_version\" must be an integer"))?;
        let ctx = format!("line {n} ({kind})");
        match kind.as_str() {
            "design_point" => {
                let id =
                    identity_of(&doc).ok_or_else(|| format!("{ctx}: incomplete identity keys"))?;
                require(&doc, &ctx, "cycles")?;
                require(&doc, &ctx, "energy_uj")?;
                design_identities.push(id);
                stats.design_points += 1;
            }
            "frontier" => {
                require(&doc, &ctx, "space")?;
                let rank = require(&doc, &ctx, "rank")?
                    .as_u64()
                    .ok_or_else(|| format!("{ctx}: \"rank\" must be an integer"))?;
                if rank as usize != frontier_identities.len() {
                    return Err(format!(
                        "{ctx}: rank {rank} out of order (expected {})",
                        frontier_identities.len()
                    ));
                }
                let id =
                    identity_of(&doc).ok_or_else(|| format!("{ctx}: incomplete identity keys"))?;
                require(&doc, &ctx, "cycles")?;
                require(&doc, &ctx, "energy_uj")?;
                require(&doc, &ctx, "area_kge")?;
                frontier_identities.push(id);
                stats.frontier_points += 1;
            }
            "dse_summary" => {
                for key in [
                    "space",
                    "workload",
                    "strategy",
                    "seed",
                    "lattice_points",
                    "pruned",
                ] {
                    require(&doc, &ctx, key)?;
                }
                let evaluated = require(&doc, &ctx, "evaluated")?
                    .as_u64()
                    .ok_or_else(|| format!("{ctx}: \"evaluated\" must be an integer"))?;
                let frontier_size = require(&doc, &ctx, "frontier_size")?
                    .as_u64()
                    .ok_or_else(|| format!("{ctx}: \"frontier_size\" must be an integer"))?;
                summary = Some((evaluated, frontier_size));
                stats.summaries += 1;
            }
            _ => stats.unknown += 1,
        }
    }
    for id in &frontier_identities {
        if !design_identities.contains(id) {
            return Err(format!(
                "frontier point {id:?} has no matching design_point record \
                 (the frontier must be a subset of the evaluated set)"
            ));
        }
    }
    if let Some((evaluated, frontier_size)) = summary {
        if evaluated as usize != stats.design_points {
            return Err(format!(
                "dse_summary says evaluated={evaluated} but the journal has {} design points",
                stats.design_points
            ));
        }
        if frontier_size as usize != stats.frontier_points {
            return Err(format!(
                "dse_summary says frontier_size={frontier_size} but the journal has {} frontier records",
                stats.frontier_points
            ));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_core::metrics::config_identity;
    use ule_curves::params::CurveId;
    use ule_swlib::builder::Arch;

    fn cfg() -> SystemConfig {
        SystemConfig::new(CurveId::K163, Arch::Billie).with_billie_digit(4)
    }

    fn obj() -> Objectives {
        Objectives {
            cycles: 12345,
            energy_uj: 6.5,
            area_kge: 210.25,
        }
    }

    fn design_line() -> String {
        let mut r = Record::new("design_point");
        push_identity(&mut r, &cfg(), Workload::ScalarMul);
        r.push("cycles", 12345u64);
        r.push("energy_uj", 6.5);
        r.push("area_kge", 210.25);
        r.to_json()
    }

    #[test]
    fn identity_round_trips_through_a_journal_line() {
        let (points, skipped) = parse_design_points(&design_line());
        assert_eq!(skipped, 0);
        let identity = config_identity(&cfg(), Workload::ScalarMul);
        let p = &points[&identity];
        assert_eq!(p.cycles, 12345);
        assert_eq!(p.energy_uj, 6.5);
    }

    #[test]
    fn torn_and_unknown_lines_are_skipped() {
        let good = design_line();
        let torn = &good[..good.len() / 2];
        let text = format!("{good}\n{torn}\n{{\"record\":\"mystery\",\"schema_version\":9}}\n");
        let (points, skipped) = parse_design_points(&text);
        assert_eq!(points.len(), 1);
        assert_eq!(skipped, 2);
    }

    #[test]
    fn validator_accepts_a_canonical_journal() {
        let f = frontier_record("s", 0, &cfg(), Workload::ScalarMul, &obj());
        let s = dse_summary_record("s", Workload::ScalarMul, "grid", 7, 1, 0, 1, 1);
        let text = format!("{}\n{}\n{}\n", design_line(), f.to_json(), s.to_json());
        let stats = validate_journal(&text).unwrap();
        assert_eq!(
            stats,
            JournalStats {
                design_points: 1,
                frontier_points: 1,
                summaries: 1,
                unknown: 0
            }
        );
    }

    #[test]
    fn validator_rejects_inconsistencies() {
        // Frontier point without its design point.
        let f = frontier_record("s", 0, &cfg(), Workload::ScalarMul, &obj());
        let err = validate_journal(&format!("{}\n", f.to_json())).unwrap_err();
        assert!(err.contains("no matching design_point"), "{err}");
        // Out-of-order rank.
        let f1 = frontier_record("s", 1, &cfg(), Workload::ScalarMul, &obj());
        let err = validate_journal(&format!("{}\n{}\n", design_line(), f1.to_json())).unwrap_err();
        assert!(err.contains("rank 1 out of order"), "{err}");
        // Summary count mismatch.
        let s = dse_summary_record("s", Workload::ScalarMul, "grid", 7, 2, 0, 2, 0);
        let err = validate_journal(&format!("{}\n{}\n", design_line(), s.to_json())).unwrap_err();
        assert!(err.contains("evaluated=2"), "{err}");
        // Torn line is a hard error here (unlike resume).
        let good = design_line();
        assert!(validate_journal(&good[..good.len() / 2]).is_err());
    }

    #[test]
    fn unknown_kinds_are_counted_not_fatal() {
        let text = "{\"record\":\"future_thing\",\"schema_version\":9}\n";
        let stats = validate_journal(text).unwrap();
        assert_eq!(stats.unknown, 1);
    }
}
