//! Typed parameter lattices over [`SystemConfig`] — the declarative
//! half of the design-space explorer (`ule-dse`).
//!
//! A [`SpaceSpec`] names one candidate list per configuration knob
//! ([`Axis`]); [`SpaceSpec::enumerate`] takes the cross product,
//! applies the per-architecture validity rules (a Billie digit width
//! only distinguishes Billie points, Monte front-end knobs only Monte
//! points, gating only accelerator points), drops unsupported
//! `(curve, arch, workload)` triples via [`crate::supports`] (Monte
//! accelerates prime fields only, Billie binary fields only, ladder
//! workloads need the RFC 7748 curves and vice versa), and returns
//! the deduplicated lattice in a *canonical order*. That order is
//! load-bearing: the explorer's Pareto tie-breaking keys off a point's
//! index in the enumerated lattice, which is a pure function of the
//! spec — independent of threads and seeds.
//!
//! [`sim_point`] names the energy-only knobs: lattice points that share
//! a sim point share one simulation and differ only in how its
//! counters are priced (see `RunReport::priced_for`).
//!
//! ```
//! use ule_core::space::{Axis, SpaceSpec};
//! use ule_core::Workload;
//! use ule_curves::params::CurveId;
//! use ule_swlib::builder::Arch;
//!
//! let space = SpaceSpec::new("digit-demo", Workload::ScalarMul)
//!     .axis(Axis::Curves(vec![CurveId::K163]))
//!     .axis(Axis::Archs(vec![Arch::Billie]))
//!     .axis(Axis::BillieDigits(vec![1, 2, 3, 4]));
//! assert_eq!(space.enumerate().unwrap().len(), 4);
//! ```

use crate::{MultVariant, SystemConfig, Workload};
use std::collections::HashSet;
use ule_curves::params::CurveId;
use ule_energy::report::Gating;
use ule_monte::MonteConfig;
use ule_pete::icache::{CacheConfig, CacheGeometryError};
use ule_swlib::builder::Arch;

/// One knob's candidate list. Declaring an axis replaces that knob's
/// default single-value list in the [`SpaceSpec`]; list order fixes the
/// canonical enumeration order.
#[derive(Clone, Debug, PartialEq)]
pub enum Axis {
    /// Curves to cover.
    Curves(Vec<CurveId>),
    /// Architectures to cover.
    Archs(Vec<Arch>),
    /// Instruction-cache options (`None` = no cache).
    Icaches(Vec<Option<CacheConfig>>),
    /// Monte front-end configurations (only distinguishes Monte points).
    Montes(Vec<MonteConfig>),
    /// Billie multiplier digit widths (only distinguishes Billie
    /// points; each must be in [`BILLIE_DIGIT_RANGE`]).
    BillieDigits(Vec<usize>),
    /// §7.8 multiplier power variants.
    MultVariants(Vec<MultVariant>),
    /// Idle-accelerator gating strategies (only distinguishes
    /// accelerator points).
    Gatings(Vec<Gating>),
    /// Billie register-file technologies (only distinguishes Billie
    /// points).
    BillieSramRf(Vec<bool>),
}

impl Axis {
    /// The axis's display name (matches the `SystemConfig` field).
    pub fn name(&self) -> &'static str {
        match self {
            Axis::Curves(_) => "curve",
            Axis::Archs(_) => "arch",
            Axis::Icaches(_) => "icache",
            Axis::Montes(_) => "monte",
            Axis::BillieDigits(_) => "billie_digit",
            Axis::MultVariants(_) => "mult_variant",
            Axis::Gatings(_) => "gating",
            Axis::BillieSramRf(_) => "billie_sram_rf",
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Axis::Curves(v) => v.is_empty(),
            Axis::Archs(v) => v.is_empty(),
            Axis::Icaches(v) => v.is_empty(),
            Axis::Montes(v) => v.is_empty(),
            Axis::BillieDigits(v) => v.is_empty(),
            Axis::MultVariants(v) => v.is_empty(),
            Axis::Gatings(v) => v.is_empty(),
            Axis::BillieSramRf(v) => v.is_empty(),
        }
    }
}

/// Digit widths the Billie model supports (`Billie::with_config`
/// asserts the same bounds).
pub const BILLIE_DIGIT_RANGE: std::ops::RangeInclusive<usize> = 1..=16;

/// Why a [`SpaceSpec`] does not describe a valid lattice.
#[derive(Clone, Debug, PartialEq)]
pub enum SpaceError {
    /// An axis was declared with an empty candidate list.
    EmptyAxis(&'static str),
    /// An instruction-cache candidate has invalid geometry.
    InvalidCache(CacheGeometryError),
    /// A Billie digit width is outside [`BILLIE_DIGIT_RANGE`].
    InvalidDigit(usize),
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::EmptyAxis(name) => write!(f, "axis {name:?} has no candidate values"),
            SpaceError::InvalidCache(e) => write!(f, "{e}"),
            SpaceError::InvalidDigit(d) => write!(
                f,
                "billie digit width {d} outside the supported range {}..={}",
                BILLIE_DIGIT_RANGE.start(),
                BILLIE_DIGIT_RANGE.end()
            ),
        }
    }
}

impl std::error::Error for SpaceError {}

/// A declarative parameter lattice: one candidate list per knob plus
/// the workload every point runs.
#[derive(Clone, Debug, PartialEq)]
pub struct SpaceSpec {
    /// Space name (journal records and reports carry it).
    pub name: String,
    /// The workload simulated at every point.
    pub workload: Workload,
    curves: Vec<CurveId>,
    archs: Vec<Arch>,
    icaches: Vec<Option<CacheConfig>>,
    montes: Vec<MonteConfig>,
    billie_digits: Vec<usize>,
    mult_variants: Vec<MultVariant>,
    gatings: Vec<Gating>,
    billie_sram_rf: Vec<bool>,
}

impl SpaceSpec {
    /// A one-point space at the standard P-192 baseline; grow it with
    /// [`axis`](Self::axis).
    pub fn new(name: impl Into<String>, workload: Workload) -> Self {
        SpaceSpec {
            name: name.into(),
            workload,
            curves: vec![CurveId::P192],
            archs: vec![Arch::Baseline],
            icaches: vec![None],
            montes: vec![MonteConfig::default()],
            billie_digits: vec![3],
            mult_variants: vec![MultVariant::Karatsuba],
            gatings: vec![Gating::None],
            billie_sram_rf: vec![false],
        }
    }

    /// Replaces one knob's candidate list.
    pub fn axis(mut self, axis: Axis) -> Self {
        match axis {
            Axis::Curves(v) => self.curves = v,
            Axis::Archs(v) => self.archs = v,
            Axis::Icaches(v) => self.icaches = v,
            Axis::Montes(v) => self.montes = v,
            Axis::BillieDigits(v) => self.billie_digits = v,
            Axis::MultVariants(v) => self.mult_variants = v,
            Axis::Gatings(v) => self.gatings = v,
            Axis::BillieSramRf(v) => self.billie_sram_rf = v,
        }
        self
    }

    /// The declared candidate list of each axis, in canonical axis
    /// order (outermost enumeration loop first).
    pub fn axes(&self) -> [Axis; 8] {
        [
            Axis::Curves(self.curves.clone()),
            Axis::Archs(self.archs.clone()),
            Axis::Icaches(self.icaches.clone()),
            Axis::Montes(self.montes.clone()),
            Axis::BillieDigits(self.billie_digits.clone()),
            Axis::MultVariants(self.mult_variants.clone()),
            Axis::Gatings(self.gatings.clone()),
            Axis::BillieSramRf(self.billie_sram_rf.clone()),
        ]
    }

    /// Validates every axis value without enumerating.
    pub fn validate(&self) -> Result<(), SpaceError> {
        for axis in self.axes() {
            if axis.is_empty() {
                return Err(SpaceError::EmptyAxis(axis.name()));
            }
        }
        for ic in self.icaches.iter().flatten() {
            ic.validate().map_err(SpaceError::InvalidCache)?;
        }
        for &d in &self.billie_digits {
            if !BILLIE_DIGIT_RANGE.contains(&d) {
                return Err(SpaceError::InvalidDigit(d));
            }
        }
        Ok(())
    }

    /// Enumerates the lattice: the cross product of every axis,
    /// canonicalized by [`canonicalize`] and deduplicated (first
    /// occurrence wins), in row-major order with the axes of
    /// [`axes`](Self::axes) nested outermost-first.
    ///
    /// The returned order is deterministic and is the identity the
    /// explorer uses for tie-breaking: "point `i`" always means the
    /// same configuration for a given spec.
    pub fn enumerate(&self) -> Result<Vec<SystemConfig>, SpaceError> {
        self.validate()?;
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for &curve in &self.curves {
            for &arch in &self.archs {
                for &icache in &self.icaches {
                    for &monte in &self.montes {
                        for &billie_digit in &self.billie_digits {
                            for &mult_variant in &self.mult_variants {
                                for &gating in &self.gatings {
                                    for &billie_sram_rf in &self.billie_sram_rf {
                                        if !crate::supports(curve, arch, self.workload) {
                                            continue;
                                        }
                                        let cfg = canonicalize(SystemConfig {
                                            curve,
                                            arch,
                                            icache,
                                            monte,
                                            billie_digit,
                                            mult_variant,
                                            gating,
                                            billie_sram_rf,
                                        });
                                        if seen.insert(cfg) {
                                            out.push(cfg);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Whether the architecture can run the curve at all: Monte is a
/// GF(p) accelerator, Billie a GF(2^m) one (the same pairings the
/// paper evaluates, and the ones `build_suite` accepts).
pub fn arch_supports_curve(arch: Arch, curve: CurveId) -> bool {
    match arch {
        Arch::Monte => !curve.is_binary(),
        Arch::Billie => curve.is_binary(),
        _ => true,
    }
}

/// Applies the per-architecture validity rules: knobs that cannot
/// influence a point are pinned to their defaults, so two configs that
/// would simulate identically collapse onto one lattice point.
///
/// * `billie_digit`/`billie_sram_rf` only vary on Billie points;
/// * `monte` front-end knobs only vary on Monte points;
/// * `gating` only varies on accelerator (Monte/Billie) points.
pub fn canonicalize(mut cfg: SystemConfig) -> SystemConfig {
    if cfg.arch != Arch::Billie {
        cfg.billie_digit = 3;
        cfg.billie_sram_rf = false;
    }
    if cfg.arch != Arch::Monte {
        cfg.monte = MonteConfig::default();
    }
    if !matches!(cfg.arch, Arch::Monte | Arch::Billie) {
        cfg.gating = Gating::None;
    }
    cfg
}

/// The configuration a point actually has to simulate: `cfg` with the
/// energy-only knobs — `gating`, `mult_variant` and `billie_sram_rf` —
/// reset to their defaults. These knobs change power, never timing
/// (§7.8 multiplier variants, §8 gating and SRAM register file), so
/// every configuration with the same sim point has bit-identical
/// counters and raw statistics, and its report is the sim point's
/// report repriced with `RunReport::priced_for`.
pub fn sim_point(cfg: SystemConfig) -> SystemConfig {
    SystemConfig {
        gating: Gating::None,
        mult_variant: MultVariant::Karatsuba,
        billie_sram_rf: false,
        ..cfg
    }
}

/// The silicon-area proxy of one configuration, kilo-gate-equivalents
/// (see `ule_energy::area`) — the third Pareto objective. A pure
/// function of the configuration: no simulation required.
pub fn area_kge(config: &SystemConfig) -> f64 {
    use ule_energy::area::{AreaInputs, CopArea};
    let cop = match config.arch {
        Arch::Monte => Some(CopArea::Monte),
        Arch::Billie => Some(CopArea::Billie {
            m: config.curve.nist_binary().m(),
            digit: config.billie_digit,
        }),
        _ => None,
    };
    ule_energy::area::area_kge(&AreaInputs {
        icache_size_bytes: config.icache.map(|c| c.size_bytes),
        cop,
        billie_sram_rf: config.billie_sram_rf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_pins_inapplicable_knobs() {
        let cfg = SystemConfig::new(CurveId::P192, Arch::Baseline)
            .with_billie_digit(7)
            .with_gating(Gating::Power)
            .with_billie_sram_rf(true);
        let canon = canonicalize(cfg);
        assert_eq!(canon.billie_digit, 3);
        assert_eq!(canon.gating, Gating::None);
        assert!(!canon.billie_sram_rf);
        // Billie keeps its knobs.
        let cfg = SystemConfig::new(CurveId::K163, Arch::Billie)
            .with_billie_digit(7)
            .with_gating(Gating::Power);
        assert_eq!(canonicalize(cfg), cfg);
    }

    #[test]
    fn enumeration_dedups_collapsed_points() {
        // Digit only matters on Billie: baseline x 3 digits is 1 point,
        // billie x 3 digits is 3.
        let space = SpaceSpec::new("t", Workload::ScalarMul)
            .axis(Axis::Curves(vec![CurveId::K163]))
            .axis(Axis::Archs(vec![Arch::Baseline, Arch::Billie]))
            .axis(Axis::BillieDigits(vec![2, 3, 4]));
        let points = space.enumerate().unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].arch, Arch::Baseline);
        // Canonical order: billie digits in declared order.
        let digits: Vec<usize> = points[1..].iter().map(|c| c.billie_digit).collect();
        assert_eq!(digits, vec![2, 3, 4]);
    }

    #[test]
    fn enumeration_order_is_row_major_and_stable() {
        let space = SpaceSpec::new("t", Workload::SignVerify)
            .axis(Axis::Curves(vec![CurveId::P192, CurveId::P256]))
            .axis(Axis::MultVariants(vec![
                MultVariant::Karatsuba,
                MultVariant::Parallel,
            ]));
        let points = space.enumerate().unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].curve, CurveId::P192);
        assert_eq!(points[0].mult_variant, MultVariant::Karatsuba);
        assert_eq!(points[1].mult_variant, MultVariant::Parallel);
        assert_eq!(points[2].curve, CurveId::P256);
        assert_eq!(points, space.enumerate().unwrap());
    }

    #[test]
    fn invalid_axes_are_typed_errors() {
        let space = SpaceSpec::new("t", Workload::Sign).axis(Axis::Curves(vec![]));
        assert_eq!(space.enumerate(), Err(SpaceError::EmptyAxis("curve")));

        let space = SpaceSpec::new("t", Workload::Sign)
            .axis(Axis::Icaches(vec![Some(CacheConfig::real(3000, false))]));
        assert!(matches!(
            space.enumerate(),
            Err(SpaceError::InvalidCache(_))
        ));

        let space = SpaceSpec::new("t", Workload::Sign)
            .axis(Axis::Archs(vec![Arch::Billie]))
            .axis(Axis::BillieDigits(vec![0]));
        assert_eq!(space.enumerate(), Err(SpaceError::InvalidDigit(0)));
        let space = SpaceSpec::new("t", Workload::Sign)
            .axis(Axis::Archs(vec![Arch::Billie]))
            .axis(Axis::BillieDigits(vec![17]));
        assert_eq!(space.enumerate(), Err(SpaceError::InvalidDigit(17)));
    }

    #[test]
    fn unsupported_pairings_are_skipped() {
        // Monte/P192 and Billie/K163 are valid; the cross pairings are
        // not and must vanish from the lattice rather than panic later.
        let space = SpaceSpec::new("t", Workload::ScalarMul)
            .axis(Axis::Curves(vec![CurveId::P192, CurveId::K163]))
            .axis(Axis::Archs(vec![Arch::Monte, Arch::Billie]));
        let points = space.enumerate().unwrap();
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|c| arch_supports_curve(c.arch, c.curve)));
    }

    #[test]
    fn area_proxy_is_config_monotone() {
        let base = area_kge(&SystemConfig::new(CurveId::P192, Arch::Baseline));
        let cached = area_kge(
            &SystemConfig::new(CurveId::P192, Arch::Baseline).with_icache(CacheConfig::best()),
        );
        assert!(cached > base);
        let d3 = area_kge(&SystemConfig::new(CurveId::K163, Arch::Billie));
        let d8 = area_kge(&SystemConfig::new(CurveId::K163, Arch::Billie).with_billie_digit(8));
        assert!(d8 > d3);
    }
}
