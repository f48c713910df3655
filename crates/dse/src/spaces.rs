//! Built-in exploration spaces and the JSON space-file format.
//!
//! Built-ins cover the paper's own sweep axes so the explorer can be
//! exercised without writing a space file:
//!
//! * `billie-digit` — the Fig 7.14 axis: K-163 scalar multiplication on
//!   Billie across every digit width, crossed with the §7.8 multiplier
//!   variants (48 points; the variants only reprice, so 16 simulations);
//! * `monte-gating` — P-192 Monte front-end ablations (§7.7) crossed
//!   with the idle-gating strategies;
//! * `handshake` — the RFC 7748 ladder curves (X25519/X448) running the
//!   DTLS-style ECDHE + ECDSA handshake workload on every prime-field
//!   architecture, so ladder design points land on the same frontier as
//!   the ECDSA studies;
//! * `smoke` — a seconds-fast CI space over the baseline/ISA-ext cores.
//!
//! A space file is a JSON object with `name`, `workload`, and an
//! optional array per axis (see [`parse_space_file`]); omitted axes
//! keep the single-point default of [`SpaceSpec::new`].

use ule_core::metrics::{
    arch_from_key, curve_from_key, gating_from_key, mult_variant_from_key, workload_from_key,
};
use ule_core::space::{Axis, SpaceSpec};
use ule_core::{MultVariant, Workload};
use ule_curves::params::CurveId;
use ule_energy::report::Gating;
use ule_monte::MonteConfig;
use ule_obs::json::{self, Json};
use ule_pete::icache::CacheConfig;
use ule_swlib::builder::Arch;

/// Names of the built-in spaces, in presentation order.
pub const BUILTIN_NAMES: [&str; 4] = ["billie-digit", "monte-gating", "handshake", "smoke"];

/// Looks up a built-in space by name.
pub fn builtin(name: &str) -> Option<SpaceSpec> {
    match name {
        "billie-digit" => Some(
            SpaceSpec::new("billie-digit", Workload::ScalarMul)
                .axis(Axis::Curves(vec![CurveId::K163]))
                .axis(Axis::Archs(vec![Arch::Billie]))
                .axis(Axis::BillieDigits((1..=16).collect()))
                .axis(Axis::MultVariants(vec![
                    MultVariant::Karatsuba,
                    MultVariant::OperandScan,
                    MultVariant::Parallel,
                ])),
        ),
        "monte-gating" => Some(
            SpaceSpec::new("monte-gating", Workload::ScalarMul)
                .axis(Axis::Curves(vec![CurveId::P192]))
                .axis(Axis::Archs(vec![Arch::Monte]))
                .axis(Axis::Montes(vec![
                    MonteConfig::default(),
                    MonteConfig {
                        double_buffer: false,
                        ..MonteConfig::default()
                    },
                    MonteConfig {
                        forwarding: false,
                        ..MonteConfig::default()
                    },
                ]))
                .axis(Axis::Gatings(vec![
                    Gating::Clock,
                    Gating::None,
                    Gating::Power,
                ])),
        ),
        "handshake" => Some(
            SpaceSpec::new("handshake", Workload::Handshake)
                .axis(Axis::Curves(vec![CurveId::X25519, CurveId::X448]))
                .axis(Axis::Archs(vec![Arch::Baseline, Arch::IsaExt, Arch::Monte]))
                .axis(Axis::Gatings(vec![Gating::Clock, Gating::None])),
        ),
        "smoke" => Some(
            SpaceSpec::new("smoke", Workload::FieldMul)
                .axis(Axis::Curves(vec![CurveId::P192]))
                .axis(Axis::Archs(vec![Arch::Baseline, Arch::IsaExt]))
                .axis(Axis::Icaches(vec![None, Some(CacheConfig::best())]))
                .axis(Axis::MultVariants(vec![
                    MultVariant::Karatsuba,
                    MultVariant::OperandScan,
                    MultVariant::Parallel,
                ])),
        ),
        _ => None,
    }
}

/// Reads one stable identifier through the codec's exact key inverse
/// (`ule_core::metrics::*_from_key`).
pub(crate) fn keyed<T>(knob: &str, s: &str, from_key: fn(&str) -> Option<T>) -> Result<T, String> {
    from_key(s).ok_or_else(|| format!("unknown {knob} {s:?}"))
}

/// The entries of the axis array `key` (`None` when the axis is
/// omitted), each read by `entry`; `what` names the entries it accepts.
fn items<'a, T>(
    doc: &'a Json,
    key: &str,
    what: &str,
    entry: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<Vec<T>>, String> {
    let Some(v) = doc.get(key) else {
        return Ok(None);
    };
    let arr = v
        .as_array()
        .ok_or_else(|| format!("space file: {key:?} must be an array"))?;
    arr.iter()
        .map(|e| entry(e).ok_or_else(|| format!("space file: {key:?} entries must be {what}")))
        .collect::<Result<_, _>>()
        .map(Some)
}

/// A string axis, read through [`keyed`].
fn keyed_items<T>(
    doc: &Json,
    key: &str,
    knob: &str,
    from_key: fn(&str) -> Option<T>,
) -> Result<Option<Vec<T>>, String> {
    items(doc, key, "strings", Json::as_str)?
        .map(|v| v.into_iter().map(|s| keyed(knob, s, from_key)).collect())
        .transpose()
}

fn icache_entry(e: &Json) -> Option<Option<CacheConfig>> {
    if matches!(e, Json::Null) {
        return Some(None);
    }
    let size = e.get("size_bytes")?.as_u64()? as u32;
    let mut c = CacheConfig::real(size, e.get("prefetch")?.as_bool()?);
    if let Some(ideal) = e.get("ideal") {
        c.ideal = ideal.as_bool()?;
    }
    if let Some(p) = e.get("miss_penalty") {
        c.miss_penalty = p.as_u64()? as u32;
    }
    Some(Some(c))
}

fn monte_entry(e: &Json) -> Option<MonteConfig> {
    Some(MonteConfig {
        double_buffer: e.get("double_buffer")?.as_bool()?,
        forwarding: e.get("forwarding")?.as_bool()?,
        queue_depth: e.get("queue_depth")?.as_u64()? as usize,
    })
}

/// Parses a JSON space file. Supported keys: `name` (string, required),
/// `workload` (string, required), and per-axis arrays `curves`,
/// `archs`, `billie_digits`, `mult_variants`, `gatings`,
/// `billie_sram_rf`, `icaches` (entries `null` or
/// `{"size_bytes": …, "prefetch": …}` with optional `ideal`/
/// `miss_penalty`), and `montes` (entries `{"double_buffer": …,
/// "forwarding": …, "queue_depth": …}`). Omitted axes keep the
/// defaults of [`SpaceSpec::new`]. Identifiers use the same stable keys
/// as the metrics schema (`"billie"`, `"operand_scan"`, `"clock"`,
/// `"P-192"`, …).
pub fn parse_space_file(text: &str) -> Result<SpaceSpec, String> {
    let doc = json::parse(text).ok_or("space file: not valid JSON")?;
    let string = |key| {
        doc.get(key)
            .and_then(Json::as_str)
            .ok_or(format!("space file: missing string {key:?}"))
    };
    let name = string("name")?;
    let workload = keyed("workload", string("workload")?, workload_from_key)?;
    let axes = [
        keyed_items(&doc, "curves", "curve", curve_from_key)?.map(Axis::Curves),
        keyed_items(&doc, "archs", "arch", arch_from_key)?.map(Axis::Archs),
        keyed_items(&doc, "mult_variants", "mult_variant", mult_variant_from_key)?
            .map(Axis::MultVariants),
        keyed_items(&doc, "gatings", "gating", gating_from_key)?.map(Axis::Gatings),
        items(&doc, "billie_digits", "integers", |e| {
            e.as_u64().map(|d| d as usize)
        })?
        .map(Axis::BillieDigits),
        items(&doc, "billie_sram_rf", "booleans", Json::as_bool)?.map(Axis::BillieSramRf),
        items(
            &doc,
            "icaches",
            r#"null or {"size_bytes", "prefetch"} objects"#,
            icache_entry,
        )?
        .map(Axis::Icaches),
        items(
            &doc,
            "montes",
            r#"{"double_buffer", "forwarding", "queue_depth"} objects"#,
            monte_entry,
        )?
        .map(Axis::Montes),
    ];
    let space = axes
        .into_iter()
        .flatten()
        .fold(SpaceSpec::new(name, workload), SpaceSpec::axis);
    space.validate().map_err(|e| format!("space file: {e}"))?;
    Ok(space)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_enumerate() {
        for name in BUILTIN_NAMES {
            let space = builtin(name).unwrap();
            let lattice = space.enumerate().unwrap();
            assert!(!lattice.is_empty(), "{name}");
        }
        assert!(builtin("no-such-space").is_none());
        // The Fig 7.14 axis: 16 digits × 3 variants.
        assert_eq!(
            builtin("billie-digit").unwrap().enumerate().unwrap().len(),
            48
        );
        // 3 front ends × 3 gatings.
        assert_eq!(
            builtin("monte-gating").unwrap().enumerate().unwrap().len(),
            9
        );
        // 2 X-curves × (baseline + isa-ext collapsing the gating knob,
        // Monte keeping both gatings).
        assert_eq!(builtin("handshake").unwrap().enumerate().unwrap().len(), 8);
        // 2 cores × 2 cache options × 3 variants.
        assert_eq!(builtin("smoke").unwrap().enumerate().unwrap().len(), 12);
    }

    #[test]
    fn handshake_space_points_are_valid_ladder_points() {
        let points = builtin("handshake").unwrap().enumerate().unwrap();
        assert!(points.iter().all(|c| c.curve.is_mont()));
        assert!(points
            .iter()
            .all(|c| ule_core::supports(c.curve, c.arch, Workload::Handshake)));
        // Both curves are represented.
        assert!(points.iter().any(|c| c.curve == CurveId::X25519));
        assert!(points.iter().any(|c| c.curve == CurveId::X448));
    }

    #[test]
    fn space_file_round_trips() {
        let text = r#"{
            "name": "custom",
            "workload": "scalar_mul",
            "curves": ["K-163", "K-233"],
            "archs": ["billie"],
            "billie_digits": [1, 4],
            "billie_sram_rf": [true, false],
            "mult_variants": ["karatsuba"],
            "gatings": ["clock", "none"]
        }"#;
        let space = parse_space_file(text).unwrap();
        assert_eq!(space.name, "custom");
        // 2 curves × 2 digits × 2 rf × 2 gatings.
        assert_eq!(space.enumerate().unwrap().len(), 16);
    }

    #[test]
    fn space_file_errors_are_descriptive() {
        assert!(parse_space_file("{}").unwrap_err().contains("name"));
        let bad = r#"{"name": "x", "workload": "jog"}"#;
        assert!(parse_space_file(bad).unwrap_err().contains("jog"));
        let bad = r#"{"name": "x", "workload": "sign", "curves": ["Q-1"]}"#;
        assert!(parse_space_file(bad).unwrap_err().contains("Q-1"));
        let bad = r#"{"name": "x", "workload": "sign",
                      "icaches": [{"size_bytes": 3000, "prefetch": false}]}"#;
        assert!(parse_space_file(bad).unwrap_err().contains("power of two"));
        let bad = r#"{"name": "x", "workload": "sign", "montes": [{"forwarding": true}]}"#;
        assert!(parse_space_file(bad)
            .unwrap_err()
            .contains("\"montes\" entries"));
    }
}
