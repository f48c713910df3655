//! The resumable exploration journal (JSONL) and its one strict reader.
//!
//! During a run the explorer *appends* one `design_point` record per
//! evaluated point — crash-safe progress. On successful completion it
//! *rewrites* the file in canonical form: every design point in lattice
//! order, then one `frontier` record per frontier point (rank order),
//! then one `dse_summary`. Because every record is a deterministic
//! function of (space, evaluated set), the completed journal is
//! byte-identical across re-runs, resumes, and thread counts.
//!
//! Every identity goes through the `ule_core::metrics` codec: records
//! are written with [`push_identity`] and read back with
//! [`decode_identity`], so resume, `repro check --journal`, `repro
//! explore --report` and `repro diff` agree on which lines name a
//! design point; `check` and `--report` share [`read_journal`].
//! Resume keys `design_point` lines by that identity and skips
//! anything it does not understand — a torn final line from a killed
//! run, an identity the codec refuses, or record kinds from a future
//! schema — so a journal is never a worse starting point than an empty
//! file.

use crate::explore::{ExploreOutcome, FrontierEntry};
use crate::pareto::Objectives;
use std::collections::{HashMap, HashSet};
use ule_core::metrics::{
    config_identity, decode_identity, push_identity, workload_from_key, workload_key,
};
use ule_core::{SystemConfig, Workload};
use ule_obs::json::{self, Json};
use ule_obs::record::Record;

/// One `frontier` record: rank, the point's identity, and its three
/// objectives. Nothing run-dependent, so a space's frontier lines can
/// be pinned as a golden file and compared with a literal `diff`.
pub fn frontier_record(space: &str, workload: Workload, entry: &FrontierEntry) -> Record {
    let FrontierEntry {
        rank,
        config,
        objectives,
    } = entry;
    let mut r = Record::new("frontier");
    r.push("space", space);
    r.push("rank", *rank);
    push_identity(&mut r, config, workload);
    r.push("cycles", objectives.cycles);
    r.push("energy_uj", objectives.energy_uj);
    r.push("area_kge", objectives.area_kge);
    r
}

/// The closing `dse_summary` record. Deliberately excludes anything
/// resume-dependent (`resumed`, `simulated`): a resumed run and a
/// fresh one finish with the same summary.
pub fn dse_summary_record(outcome: &ExploreOutcome) -> Record {
    let mut r = Record::new("dse_summary");
    r.push("space", outcome.space.as_str());
    r.push("workload", workload_key(outcome.workload));
    r.push("strategy", outcome.strategy.as_str());
    r.push("seed", outcome.seed);
    r.push("lattice_points", outcome.lattice_points);
    r.push("pruned", outcome.pruned);
    r.push("evaluated", outcome.evaluated);
    r.push("frontier_size", outcome.frontier.len());
    r
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

/// A field of a journal record, typed.
fn field<'a, T>(
    doc: &'a Json,
    ctx: &str,
    key: &str,
    what: &str,
    as_t: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, String> {
    let v = doc
        .get(key)
        .ok_or_else(|| format!("{ctx}: missing {key:?}"))?;
    as_t(v).ok_or_else(|| format!("{ctx}: {key:?} must be {what}"))
}

/// The identity string, configuration and headline objectives of a
/// `design_point` or `frontier` record.
fn point(doc: &Json, ctx: &str) -> Result<(String, SystemConfig, u64, f64), String> {
    let (config, workload) = decode_identity(doc).map_err(|e| format!("{ctx}: {e}"))?;
    Ok((
        config_identity(&config, workload),
        config,
        field(doc, ctx, "cycles", "an integer", Json::as_u64)?,
        field(doc, ctx, "energy_uj", "a number", Json::as_f64)?,
    ))
}

/// Parses the `design_point` lines of a (possibly torn or partial)
/// journal, keyed by identity. Unknown record kinds, malformed lines,
/// and design points [`read_journal`] would refuse are skipped — their
/// count comes back alongside the map. Later lines win on duplicate
/// identity.
pub fn parse_design_points(text: &str) -> (HashMap<String, ResumedPoint>, usize) {
    let mut points = HashMap::new();
    let mut skipped = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let parsed = json::parse(line)
            .filter(|doc| doc.get("record").and_then(Json::as_str) == Some("design_point"))
            .and_then(|doc| point(&doc, "").ok());
        match parsed {
            Some((identity, _, cycles, energy_uj)) => {
                let line = line.to_owned();
                points.insert(
                    identity,
                    ResumedPoint {
                        cycles,
                        energy_uj,
                        line,
                    },
                );
            }
            None => skipped += 1,
        }
    }
    (points, skipped)
}

/// What a journal contains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// `design_point` records.
    pub design_points: usize,
    /// `frontier` records.
    pub frontier_points: usize,
    /// `dse_summary` records.
    pub summaries: usize,
    /// Records of kinds this reader does not know (tolerated, per the
    /// skip-and-count forward-compatibility rule).
    pub unknown: usize,
}

/// An exploration journal as [`read_journal`] reads it.
#[derive(Clone, Debug)]
pub struct Journal {
    /// What it contains.
    pub stats: JournalStats,
    /// The finished exploration its `dse_summary` and `frontier`
    /// records describe; `None` without a summary (an incomplete run).
    /// The per-run `resumed`/`simulated` counts are resume-dependent,
    /// not journaled, and come back as zero.
    pub outcome: Option<ExploreOutcome>,
}

/// Reads an exploration journal strictly — the one reader behind both
/// `repro check --journal` and `repro explore --report` (which must
/// not re-simulate). Every line is valid JSON with a record kind and
/// schema version; design points and frontier points carry an identity
/// the `ule_core::metrics` codec decodes, and their objectives;
/// frontier ranks are contiguous in file order and every frontier
/// point's identity also appears as a design point; the summary's
/// counts agree with the records around it.
pub fn read_journal(text: &str) -> Result<Journal, String> {
    let mut stats = JournalStats::default();
    let mut design_identities = HashSet::new();
    let mut frontier: Vec<(String, FrontierEntry)> = Vec::new();
    let mut summary: Option<(ExploreOutcome, u64)> = None; // (outcome, frontier_size)
    for (n, line) in text.lines().enumerate() {
        let n = n + 1;
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).ok_or_else(|| format!("line {n}: not valid JSON"))?;
        let kind = field(
            &doc,
            &format!("line {n}"),
            "record",
            "a string",
            Json::as_str,
        )?;
        field(
            &doc,
            &format!("line {n}"),
            "schema_version",
            "an integer",
            Json::as_u64,
        )?;
        let ctx = format!("line {n} ({kind})");
        match kind {
            "design_point" => {
                design_identities.insert(point(&doc, &ctx)?.0);
                stats.design_points += 1;
            }
            "frontier" => {
                field(&doc, &ctx, "space", "a string", Json::as_str)?;
                let rank = field(&doc, &ctx, "rank", "an integer", Json::as_u64)? as usize;
                if rank != frontier.len() {
                    return Err(format!(
                        "{ctx}: rank {rank} out of order (expected {})",
                        frontier.len()
                    ));
                }
                let (identity, config, cycles, energy_uj) = point(&doc, &ctx)?;
                let area_kge = field(&doc, &ctx, "area_kge", "a number", Json::as_f64)?;
                let objectives = Objectives {
                    cycles,
                    energy_uj,
                    area_kge,
                };
                frontier.push((
                    identity,
                    FrontierEntry {
                        rank,
                        config,
                        objectives,
                    },
                ));
                stats.frontier_points += 1;
            }
            "dse_summary" => {
                let text = |key| field(&doc, &ctx, key, "a string", Json::as_str);
                let count = |key| field(&doc, &ctx, key, "an integer", Json::as_u64);
                let workload =
                    crate::spaces::keyed("workload", text("workload")?, workload_from_key)
                        .map_err(|e| format!("{ctx}: {e}"))?;
                let outcome = ExploreOutcome {
                    space: text("space")?.to_owned(),
                    workload,
                    strategy: text("strategy")?.to_owned(),
                    seed: count("seed")?,
                    lattice_points: count("lattice_points")? as usize,
                    pruned: count("pruned")? as usize,
                    evaluated: count("evaluated")? as usize,
                    resumed: 0,
                    simulated: 0,
                    frontier: Vec::new(),
                };
                summary = Some((outcome, count("frontier_size")?));
                stats.summaries += 1;
            }
            _ => stats.unknown += 1,
        }
    }
    for (id, _) in &frontier {
        if !design_identities.contains(id) {
            return Err(format!(
                "frontier point {id:?} has no matching design_point record \
                 (the frontier must be a subset of the evaluated set)"
            ));
        }
    }
    if let Some((outcome, frontier_size)) = &mut summary {
        if outcome.evaluated != stats.design_points {
            return Err(format!(
                "dse_summary says evaluated={} but the journal has {} design points",
                outcome.evaluated, stats.design_points
            ));
        }
        if *frontier_size as usize != stats.frontier_points {
            return Err(format!(
                "dse_summary says frontier_size={frontier_size} but the journal has {} frontier records",
                stats.frontier_points
            ));
        }
        outcome.frontier = frontier.into_iter().map(|(_, e)| e).collect();
    }
    Ok(Journal {
        stats,
        outcome: summary.map(|(outcome, _)| outcome),
    })
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

    fn entry(rank: usize) -> FrontierEntry {
        FrontierEntry {
            rank,
            config: cfg(),
            objectives: obj(),
        }
    }

    fn frontier_line(rank: usize) -> String {
        frontier_record("s", Workload::ScalarMul, &entry(rank)).to_json()
    }

    /// A summary of `evaluated` points and the given frontier.
    fn summary_line(evaluated: usize, frontier: Vec<FrontierEntry>) -> String {
        let outcome = ExploreOutcome {
            space: "s".into(),
            workload: Workload::ScalarMul,
            strategy: "grid".into(),
            seed: 7,
            lattice_points: evaluated,
            pruned: 0,
            evaluated,
            resumed: 0,
            simulated: 0,
            frontier,
        };
        dse_summary_record(&outcome).to_json()
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
        let (f, s) = (frontier_line(0), summary_line(1, vec![entry(0)]));
        let text = format!("{}\n{f}\n{s}\n", design_line());
        let journal = read_journal(&text).unwrap();
        let outcome = journal.outcome.unwrap();
        assert_eq!((outcome.evaluated, outcome.seed), (1, 7));
        assert_eq!(outcome.frontier[0].config, cfg());
        assert_eq!(outcome.frontier[0].objectives, obj());
        assert_eq!(
            journal.stats,
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
        let err = read_journal(&format!("{}\n", frontier_line(0))).unwrap_err();
        assert!(err.contains("no matching design_point"), "{err}");
        // Out-of-order rank.
        let err = read_journal(&format!("{}\n{}\n", design_line(), frontier_line(1))).unwrap_err();
        assert!(err.contains("rank 1 out of order"), "{err}");
        // Summary count mismatch.
        let s = summary_line(2, Vec::new());
        let err = read_journal(&format!("{}\n{s}\n", design_line())).unwrap_err();
        assert!(err.contains("evaluated=2"), "{err}");
        // Torn line is a hard error here (unlike resume).
        let good = design_line();
        assert!(read_journal(&good[..good.len() / 2]).is_err());
    }

    /// `design_line()` and a frontier line for it, with one identity
    /// value rewritten.
    fn impossible(from: &str, to: &str) -> (String, String) {
        let design = design_line().replace(from, to);
        let frontier = frontier_line(0).replace(from, to);
        assert_ne!(design, design_line(), "{from} not in the line");
        (design, frontier)
    }

    fn assert_refused(from: &str, to: &str, key: &str) {
        let (design, frontier) = impossible(from, to);
        for (line, kind) in [(&design, "design_point"), (&frontier, "frontier")] {
            let err = read_journal(line).unwrap_err();
            let named = format!("line 1 ({kind}): identity key {key:?}");
            assert!(err.starts_with(&named), "{err}");
        }
        let (points, skipped) = parse_design_points(&design);
        assert!(points.is_empty());
        assert_eq!(skipped, 1);
    }

    #[test]
    fn p192_on_billie_is_refused() {
        assert_refused(r#""curve":"K-163""#, r#""curve":"P-192""#, "arch");
    }

    #[test]
    fn billie_digit_zero_is_refused() {
        assert_refused(r#""billie_digit":4"#, r#""billie_digit":0"#, "billie_digit");
    }

    #[test]
    fn billie_digit_string_is_refused() {
        assert_refused(
            r#""billie_digit":4"#,
            r#""billie_digit":"x""#,
            "billie_digit",
        );
    }

    #[test]
    fn unknown_kinds_are_counted_not_fatal() {
        let text = "{\"record\":\"future_thing\",\"schema_version\":9}\n";
        let stats = read_journal(text).unwrap().stats;
        assert_eq!(stats.unknown, 1);
    }
}
