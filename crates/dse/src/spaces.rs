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

pub(crate) fn parse_workload(s: &str) -> Result<Workload, String> {
    Ok(match s {
        "sign" => Workload::Sign,
        "verify" => Workload::Verify,
        "sign_verify" => Workload::SignVerify,
        "scalar_mul" => Workload::ScalarMul,
        "field_mul" => Workload::FieldMul,
        "xdh" => Workload::Xdh,
        "handshake" => Workload::Handshake,
        other => return Err(format!("unknown workload {other:?}")),
    })
}

pub(crate) fn parse_curve(s: &str) -> Result<CurveId, String> {
    CurveId::ALL
        .into_iter()
        .chain(CurveId::XCURVES)
        .find(|c| c.name() == s)
        .ok_or_else(|| format!("unknown curve {s:?}"))
}

pub(crate) fn parse_arch(s: &str) -> Result<Arch, String> {
    Ok(match s {
        "baseline" => Arch::Baseline,
        "isa_ext" => Arch::IsaExt,
        "monte" => Arch::Monte,
        "billie" => Arch::Billie,
        other => return Err(format!("unknown arch {other:?}")),
    })
}

pub(crate) fn parse_mult_variant(s: &str) -> Result<MultVariant, String> {
    Ok(match s {
        "karatsuba" => MultVariant::Karatsuba,
        "operand_scan" => MultVariant::OperandScan,
        "parallel" => MultVariant::Parallel,
        other => return Err(format!("unknown mult_variant {other:?}")),
    })
}

pub(crate) fn parse_gating(s: &str) -> Result<Gating, String> {
    Ok(match s {
        "none" => Gating::None,
        "clock" => Gating::Clock,
        "power" => Gating::Power,
        other => return Err(format!("unknown gating {other:?}")),
    })
}

fn str_items<'a>(doc: &'a Json, key: &str) -> Result<Option<Vec<&'a str>>, String> {
    let Some(v) = doc.get(key) else {
        return Ok(None);
    };
    let arr = v
        .as_array()
        .ok_or_else(|| format!("space file: {key:?} must be an array"))?;
    arr.iter()
        .map(|e| {
            e.as_str()
                .ok_or_else(|| format!("space file: {key:?} entries must be strings"))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

fn req_bool(obj: &Json, ctx: &str, key: &str) -> Result<bool, String> {
    obj.get(key)
        .and_then(|v| v.as_bool())
        .ok_or_else(|| format!("space file: {ctx} needs boolean {key:?}"))
}

fn req_u64(obj: &Json, ctx: &str, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("space file: {ctx} needs integer {key:?}"))
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
    let name = doc
        .get("name")
        .and_then(|v| v.as_str())
        .ok_or("space file: missing string \"name\"")?;
    let workload = parse_workload(
        doc.get("workload")
            .and_then(|v| v.as_str())
            .ok_or("space file: missing string \"workload\"")?,
    )?;
    let mut space = SpaceSpec::new(name, workload);

    if let Some(items) = str_items(&doc, "curves")? {
        let v = items
            .into_iter()
            .map(parse_curve)
            .collect::<Result<_, _>>()?;
        space = space.axis(Axis::Curves(v));
    }
    if let Some(items) = str_items(&doc, "archs")? {
        let v = items
            .into_iter()
            .map(parse_arch)
            .collect::<Result<_, _>>()?;
        space = space.axis(Axis::Archs(v));
    }
    if let Some(items) = str_items(&doc, "mult_variants")? {
        let v = items
            .into_iter()
            .map(parse_mult_variant)
            .collect::<Result<_, _>>()?;
        space = space.axis(Axis::MultVariants(v));
    }
    if let Some(items) = str_items(&doc, "gatings")? {
        let v = items
            .into_iter()
            .map(parse_gating)
            .collect::<Result<_, _>>()?;
        space = space.axis(Axis::Gatings(v));
    }
    if let Some(v) = doc.get("billie_digits") {
        let arr = v
            .as_array()
            .ok_or("space file: \"billie_digits\" must be an array")?;
        let digits = arr
            .iter()
            .map(|e| {
                e.as_u64().map(|d| d as usize).ok_or_else(|| {
                    "space file: \"billie_digits\" entries must be integers".to_owned()
                })
            })
            .collect::<Result<_, _>>()?;
        space = space.axis(Axis::BillieDigits(digits));
    }
    if let Some(v) = doc.get("billie_sram_rf") {
        let arr = v
            .as_array()
            .ok_or("space file: \"billie_sram_rf\" must be an array")?;
        let flags = arr
            .iter()
            .map(|e| {
                e.as_bool().ok_or_else(|| {
                    "space file: \"billie_sram_rf\" entries must be booleans".to_owned()
                })
            })
            .collect::<Result<_, _>>()?;
        space = space.axis(Axis::BillieSramRf(flags));
    }
    if let Some(v) = doc.get("icaches") {
        let arr = v
            .as_array()
            .ok_or("space file: \"icaches\" must be an array")?;
        let mut caches = Vec::new();
        for e in arr {
            if matches!(e, Json::Null) {
                caches.push(None);
                continue;
            }
            let size = req_u64(e, "icache entry", "size_bytes")? as u32;
            let mut c = CacheConfig::real(size, req_bool(e, "icache entry", "prefetch")?);
            if let Some(ideal) = e.get("ideal").and_then(|v| v.as_bool()) {
                c.ideal = ideal;
            }
            if let Some(p) = e.get("miss_penalty").and_then(|v| v.as_u64()) {
                c.miss_penalty = p as u32;
            }
            caches.push(Some(c));
        }
        space = space.axis(Axis::Icaches(caches));
    }
    if let Some(v) = doc.get("montes") {
        let arr = v
            .as_array()
            .ok_or("space file: \"montes\" must be an array")?;
        let mut montes = Vec::new();
        for e in arr {
            montes.push(MonteConfig {
                double_buffer: req_bool(e, "monte entry", "double_buffer")?,
                forwarding: req_bool(e, "monte entry", "forwarding")?,
                queue_depth: req_u64(e, "monte entry", "queue_depth")? as usize,
            });
        }
        space = space.axis(Axis::Montes(montes));
    }
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
    }
}
