//! The regression observatory: `repro diff OLD.jsonl NEW.jsonl`.
//!
//! Joins the `design_point` records of two metrics files by *config
//! identity* (the full set of configuration keys — curve, arch,
//! workload and every hardware knob) and reports drift in the
//! deterministic headline metrics: simulated `cycles` (compared
//! exactly, as integers) and `energy_uj` (compared against a relative
//! threshold, default 0). `engine_summary` records are ignored — they
//! carry host wall-clock and are not deterministic. The outcome maps
//! to a process exit code so CI can gate on it: 0 clean, 1 drift,
//! 2 usage/parse error.

use std::collections::BTreeMap;
use std::fmt;

use ule_core::metrics::{arch_key, config_identity, decode_identity, workload_key};
use ule_obs::json;

/// Relative drift thresholds (fractions, not percent). The defaults are
/// zero: the simulator is deterministic, so any drift is a change.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiffThresholds {
    /// Allowed relative cycle drift (0.0 = exact match required).
    pub max_cycles_frac: f64,
    /// Allowed relative energy drift (0.0 = exact match required).
    pub max_energy_frac: f64,
}

/// One design point present in both files, with its headline deltas.
#[derive(Clone, Debug)]
pub struct PointDiff {
    /// Human-readable identity, `curve/arch/workload[ +changed-knobs]`.
    pub label: String,
    /// Cycles in the old and new files.
    pub cycles: (u64, u64),
    /// Energy (µJ) in the old and new files.
    pub energy_uj: (f64, f64),
    /// Whether this point exceeds the thresholds.
    pub regressed: bool,
}

impl PointDiff {
    /// Relative cycle drift, new vs old.
    pub fn cycles_frac(&self) -> f64 {
        rel(self.cycles.0 as f64, self.cycles.1 as f64)
    }

    /// Relative energy drift, new vs old.
    pub fn energy_frac(&self) -> f64 {
        rel(self.energy_uj.0, self.energy_uj.1)
    }
}

/// The full comparison of two metrics files.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Points present in both files (changed or not).
    pub matched: Vec<PointDiff>,
    /// Points only in the old file — a lost design point is a failure.
    pub removed: Vec<String>,
    /// Points only in the new file — informational, not a failure.
    pub added: Vec<String>,
    /// Non-`design_point` records skipped while parsing (both files),
    /// by record kind. Forward compatibility: an exploration journal's
    /// `frontier`/`dse_summary` lines — or kinds from a future schema —
    /// must not break a diff, but their presence is reported.
    pub skipped: BTreeMap<String, usize>,
}

impl DiffReport {
    /// True when nothing regressed: no matched point over threshold and
    /// no removed points.
    pub fn is_clean(&self) -> bool {
        self.removed.is_empty() && self.matched.iter().all(|p| !p.regressed)
    }

    /// The matched points that exceed the thresholds.
    pub fn regressions(&self) -> impl Iterator<Item = &PointDiff> {
        self.matched.iter().filter(|p| p.regressed)
    }

    /// Process exit code for CI: 0 clean, 1 drift/removed points.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.is_clean())
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let changed: Vec<&PointDiff> = self
            .matched
            .iter()
            .filter(|p| p.cycles.0 != p.cycles.1 || p.energy_uj.0 != p.energy_uj.1)
            .collect();
        writeln!(
            f,
            "{} design points matched, {} changed, {} removed, {} added",
            self.matched.len(),
            changed.len(),
            self.removed.len(),
            self.added.len()
        )?;
        for p in &changed {
            writeln!(
                f,
                "  {} {}: cycles {} -> {} ({:+.4}%), energy {:.6} -> {:.6} uJ ({:+.4}%)",
                if p.regressed { "DRIFT" } else { "ok   " },
                p.label,
                p.cycles.0,
                p.cycles.1,
                100.0 * p.cycles_frac(),
                p.energy_uj.0,
                p.energy_uj.1,
                100.0 * p.energy_frac(),
            )?;
        }
        for l in &self.removed {
            writeln!(f, "  REMOVED {l}")?;
        }
        for l in &self.added {
            writeln!(f, "  added   {l}")?;
        }
        if !self.skipped.is_empty() {
            let kinds: Vec<String> = self
                .skipped
                .iter()
                .map(|(k, n)| format!("{k} x{n}"))
                .collect();
            writeln!(
                f,
                "  skipped non-design-point records: {}",
                kinds.join(", ")
            )?;
        }
        Ok(())
    }
}

fn rel(old: f64, new: f64) -> f64 {
    if old == new {
        0.0
    } else if old == 0.0 {
        f64::INFINITY
    } else {
        (new - old) / old.abs()
    }
}

/// A parsed design point: identity string + headline metrics.
struct Point {
    identity: String,
    label: String,
    cycles: u64,
    energy_uj: f64,
}

/// Parses the `design_point` records of a metrics JSONL document.
/// Other record kinds — `engine_summary`, an exploration journal's
/// `frontier`/`dse_summary`, anything from a future schema — are
/// skipped and counted into `skipped`; malformed JSON, or a design
/// point whose identity the `ule_core::metrics` codec refuses or that
/// lacks its headline metrics, is an error.
fn parse_points(
    name: &str,
    text: &str,
    skipped: &mut BTreeMap<String, usize>,
) -> Result<Vec<Point>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let doc =
            json::parse(line).ok_or_else(|| format!("{name}:{n}: not valid JSON: {line:?}"))?;
        let kind = doc
            .get("record")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{name}:{n}: no \"record\" kind"))?;
        if kind != "design_point" {
            *skipped.entry(kind.to_owned()).or_insert(0) += 1;
            continue;
        }
        let (config, workload) =
            decode_identity(&doc).map_err(|e| format!("{name}:{n}: design point {e}"))?;
        let label = format!(
            "{}/{}/{}",
            config.curve.name(),
            arch_key(config.arch),
            workload_key(workload)
        );
        let cycles = doc
            .get("cycles")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("{name}:{n}: design point without integer cycles"))?;
        let energy_uj = doc
            .get("energy_uj")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{name}:{n}: design point without numeric energy_uj"))?;
        out.push(Point {
            identity: config_identity(&config, workload),
            label,
            cycles,
            energy_uj,
        });
    }
    Ok(out)
}

/// Disambiguates labels when several points share curve/arch/workload
/// (differing only in hardware knobs): appends `#k` to repeats, in
/// file order, so every reported label is unique per file.
fn disambiguate(points: &mut [Point]) {
    use std::collections::HashMap;
    let mut counts: HashMap<String, usize> = HashMap::new();
    for p in points.iter_mut() {
        let k = counts.entry(p.label.clone()).or_insert(0);
        if *k > 0 {
            p.label = format!("{}#{}", p.label, k);
        }
        *k += 1;
    }
}

/// Compares two metrics JSONL documents. `old_name`/`new_name` are used
/// in error messages only.
pub fn diff_metrics(
    old_name: &str,
    old_text: &str,
    new_name: &str,
    new_text: &str,
    thresholds: DiffThresholds,
) -> Result<DiffReport, String> {
    let mut skipped = BTreeMap::new();
    let mut old_points = parse_points(old_name, old_text, &mut skipped)?;
    let mut new_points = parse_points(new_name, new_text, &mut skipped)?;
    disambiguate(&mut old_points);
    disambiguate(&mut new_points);
    let mut report = DiffReport {
        skipped,
        ..DiffReport::default()
    };
    let mut new_used = vec![false; new_points.len()];
    for o in &old_points {
        match new_points
            .iter()
            .position(|p| p.identity == o.identity)
            .filter(|&i| !std::mem::replace(&mut new_used[i], true))
        {
            Some(i) => {
                let p = &new_points[i];
                let cycles_frac = rel(o.cycles as f64, p.cycles as f64);
                let energy_frac = rel(o.energy_uj, p.energy_uj);
                report.matched.push(PointDiff {
                    label: o.label.clone(),
                    cycles: (o.cycles, p.cycles),
                    energy_uj: (o.energy_uj, p.energy_uj),
                    regressed: cycles_frac.abs() > thresholds.max_cycles_frac
                        || energy_frac.abs() > thresholds.max_energy_frac,
                });
            }
            None => report.removed.push(o.label.clone()),
        }
    }
    for (p, used) in new_points.iter().zip(&new_used) {
        if !used {
            report.added.push(p.label.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(curve: &str, cycles: u64, energy: f64) -> String {
        format!(
            concat!(
                r#"{{"record":"design_point","schema_version":2,"curve":"{}","#,
                r#""arch":"isa_ext","workload":"sign","icache_present":false,"#,
                r#""icache_size_bytes":0,"icache_prefetch":false,"icache_ideal":false,"#,
                r#""icache_miss_penalty":0,"monte_double_buffer":false,"#,
                r#""monte_forwarding":false,"monte_queue_depth":1,"billie_digit":4,"#,
                r#""mult_variant":"karatsuba","gating":"clock","billie_sram_rf":false,"#,
                r#""cycles":{},"time_ms":1.0,"energy_uj":{}}}"#
            ),
            curve, cycles, energy
        )
    }

    const SUMMARY: &str =
        r#"{"record":"engine_summary","schema_version":2,"sim_wall_us_total":123456}"#;

    #[test]
    fn identical_files_are_clean() {
        let doc = format!(
            "{}\n{}\n{SUMMARY}\n",
            point("P-192", 100, 1.5),
            point("P-256", 200, 3.0)
        );
        let r = diff_metrics("a", &doc, "b", &doc, DiffThresholds::default()).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.exit_code(), 0);
        assert_eq!(r.matched.len(), 2);
        assert!(r.removed.is_empty() && r.added.is_empty());
    }

    #[test]
    fn wall_clock_differences_are_ignored() {
        let old = format!("{}\n{SUMMARY}\n", point("P-192", 100, 1.5));
        let new = format!(
            "{}\n{}\n",
            point("P-192", 100, 1.5),
            r#"{"record":"engine_summary","schema_version":2,"sim_wall_us_total":999999}"#
        );
        let r = diff_metrics("a", &old, "b", &new, DiffThresholds::default()).unwrap();
        assert!(r.is_clean());
    }

    #[test]
    fn cycle_drift_fails_at_zero_threshold() {
        let old = point("P-192", 100, 1.5);
        let new = point("P-192", 101, 1.5);
        let r = diff_metrics("a", &old, "b", &new, DiffThresholds::default()).unwrap();
        assert!(!r.is_clean());
        assert_eq!(r.exit_code(), 1);
        assert_eq!(r.regressions().count(), 1);
        let p = r.regressions().next().unwrap();
        assert_eq!(p.cycles, (100, 101));
        // ...but passes under a 2 % threshold.
        let lax = DiffThresholds {
            max_cycles_frac: 0.02,
            max_energy_frac: 0.02,
        };
        let r = diff_metrics("a", &old, "b", &new, lax).unwrap();
        assert!(r.is_clean());
    }

    #[test]
    fn removed_points_fail_added_points_inform() {
        let old = format!(
            "{}\n{}\n",
            point("P-192", 100, 1.5),
            point("P-256", 200, 3.0)
        );
        let new = format!(
            "{}\n{}\n",
            point("P-192", 100, 1.5),
            point("P-384", 400, 9.0)
        );
        let r = diff_metrics("a", &old, "b", &new, DiffThresholds::default()).unwrap();
        assert!(!r.is_clean(), "a removed point is a regression");
        assert_eq!(r.removed, vec!["P-256/isa_ext/sign"]);
        assert_eq!(r.added, vec!["P-384/isa_ext/sign"]);
        // Added-only (superset) stays clean.
        let r = diff_metrics(
            "a",
            &point("P-192", 100, 1.5),
            "b",
            &new,
            DiffThresholds::default(),
        )
        .unwrap();
        assert!(r.is_clean());
    }

    #[test]
    fn journal_records_are_skipped_and_counted() {
        // A dse exploration journal diffs cleanly against a plain
        // metrics file: its frontier/dse_summary lines (and any future
        // kind) are counted, not fatal, and don't affect the verdict.
        let old = point("P-192", 100, 1.5);
        let new = format!(
            "{}\n{}\n{}\n{}\n",
            point("P-192", 100, 1.5),
            r#"{"record":"frontier","schema_version":3,"space":"s","rank":0}"#,
            r#"{"record":"dse_summary","schema_version":3,"space":"s"}"#,
            r#"{"record":"from_the_future","schema_version":9}"#,
        );
        let r = diff_metrics("a", &old, "b", &new, DiffThresholds::default()).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.skipped.get("frontier"), Some(&1));
        assert_eq!(r.skipped.get("dse_summary"), Some(&1));
        assert_eq!(r.skipped.get("from_the_future"), Some(&1));
        let s = r.to_string();
        assert!(s.contains("skipped non-design-point records"), "{s}");
        assert!(s.contains("frontier x1"), "{s}");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_pass() {
        assert!(diff_metrics("a", "not json\n", "b", "", DiffThresholds::default()).is_err());
        let no_cycles = r#"{"record":"design_point"}"#;
        assert!(diff_metrics("a", no_cycles, "b", "", DiffThresholds::default()).is_err());
    }

    #[test]
    fn display_reports_drift_lines() {
        let old = point("P-192", 100, 1.5);
        let new = point("P-192", 110, 1.65);
        let r = diff_metrics("a", &old, "b", &new, DiffThresholds::default()).unwrap();
        let s = r.to_string();
        assert!(s.contains("DRIFT"), "{s}");
        assert!(s.contains("100 -> 110"), "{s}");
    }
}
