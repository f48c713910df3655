//! Differential oracle for batch verification (`repro verify
//! --batch-oracle`).
//!
//! [`ule_curves::ecdsa::verify_batch_prehashed`]'s contract is
//! elementwise equality with `verify_prehashed` — the random-linear-
//! combination fast path may only ever conclude *all-accept*, and the
//! fallback is structurally the same per-item check. This oracle
//! attacks that contract with seeded mixed batches: valid signatures
//! (hinted and hint-less), bit-flipped `r`/`s`, the reject-path
//! components `r, s ∈ {0, n, n+1}`, inconsistent hints, and wrong-
//! message items, across every study curve.
//!
//! A divergence is shrunk to the smallest still-diverging sub-batch
//! (greedy one-item removal — batch verdicts are order-preserving, so
//! elementwise comparison survives subsetting) and reported with a
//! one-line `repro verify --batch-oracle` reproducer that replays
//! exactly the offending case.

use ule_curves::ecdsa::{self, BatchItem, Keypair, PublicKey, Signature};
use ule_curves::params::{Curve, CurveId};
use ule_mpmath::mp::Mp;
use ule_testkit::Rng;

use crate::NothingChecked;

/// One batch-oracle campaign.
#[derive(Clone, Debug)]
pub struct BatchOracleConfig {
    /// Master seed; each (curve, case) derives its own stream.
    pub seed: u64,
    /// Curves to cover.
    pub curves: Vec<CurveId>,
    /// Batches per curve (before the big-field cost tiering of
    /// [`crate::Campaign`]-style runs — the oracle is host-only and
    /// cheap, so every curve gets the full budget).
    pub cases: usize,
    /// Largest batch size the generator draws.
    pub max_batch: usize,
    /// Replay exactly one case index (reproducer mode).
    pub only_case: Option<usize>,
}

impl BatchOracleConfig {
    /// A full campaign over all ten curves.
    pub fn new(seed: u64, cases: usize) -> Self {
        BatchOracleConfig {
            seed,
            curves: CurveId::ALL.to_vec(),
            cases,
            max_batch: 20,
            only_case: None,
        }
    }
}

/// One shrunk divergence between batch and single verification.
#[derive(Clone, Debug)]
pub struct BatchDivergence {
    /// The curve.
    pub curve: CurveId,
    /// The diverging case index.
    pub case: usize,
    /// Indices (within the original batch) of the shrunk sub-batch
    /// that still diverges.
    pub kept: Vec<usize>,
    /// Per-item `(index, single_verdict, batch_verdict)` mismatches in
    /// the shrunk sub-batch.
    pub mismatches: Vec<(usize, bool, bool)>,
    /// One-line replay command.
    pub reproducer: String,
}

/// Campaign outcome.
#[derive(Clone, Debug, Default)]
pub struct BatchOracleReport {
    /// Batches checked.
    pub batches: usize,
    /// Items compared elementwise.
    pub items: usize,
    /// Batches the RLC fast path proved whole.
    pub rlc_batches: usize,
    /// Divergences, already shrunk.
    pub divergences: Vec<BatchDivergence>,
}

impl BatchOracleReport {
    /// Deterministic one-paragraph summary.
    pub fn render(&self, cfg: &BatchOracleConfig) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "batch-oracle: seed={:#018x} curves={} cases={} max_batch={}",
            cfg.seed,
            cfg.curves.len(),
            cfg.cases,
            cfg.max_batch
        );
        let _ = writeln!(
            out,
            "batch-oracle: {} batches, {} items, {} rlc-proven, {} divergence(s)",
            self.batches,
            self.items,
            self.rlc_batches,
            self.divergences.len()
        );
        for d in &self.divergences {
            let _ = writeln!(
                out,
                "DIVERGENCE {} case {} items {:?}: {:?} (single vs batch)",
                d.curve.name(),
                d.case,
                d.kept,
                d.mismatches
            );
            let _ = writeln!(out, "  reproduce: {}", d.reproducer);
        }
        out
    }
}

/// Runs the campaign: every case builds one adversarial batch, compares
/// `verify_batch_prehashed` elementwise against `verify_prehashed`, and
/// shrinks any divergence. A campaign that checks no batch at all (only
/// RFC 7748 curves, or a `--batch-case` past the case count) is an
/// error, not a clean report.
pub fn run_batch_oracle(cfg: &BatchOracleConfig) -> Result<BatchOracleReport, NothingChecked> {
    let _span = ule_obs::span("verify.batch_oracle");
    let mut report = BatchOracleReport::default();
    for &id in &cfg.curves {
        if id.is_mont() {
            // Batch verification is an ECDSA construct; the RFC 7748
            // curves carry no signatures, so a campaign whose curve
            // list includes them simply skips them here.
            continue;
        }
        let curve = id.curve();
        let keys = Keypair::derive(
            &curve,
            &[b"batch-oracle key".as_slice(), &cfg.seed.to_be_bytes()].concat(),
        );
        let public = keys.public();
        for case in 0..cfg.cases {
            if cfg.only_case.is_some_and(|only| only != case) {
                continue;
            }
            // Per-case stream: replaying one case never depends on the
            // draws of earlier ones.
            let mut rng =
                Rng::new(cfg.seed ^ (id.bits() as u64) << 32 ^ (case as u64).wrapping_mul(0x9e37));
            let batch_seed = rng.next_u64();
            let items = build_batch(&curve, &keys, cfg.max_batch, &mut rng);
            let expected: Vec<bool> = items
                .iter()
                .map(|it| ecdsa::verify_prehashed(&curve, &public, &it.e, &it.sig))
                .collect();
            let verdict = ecdsa::verify_batch_prehashed(&curve, &public, &items, batch_seed);
            report.batches += 1;
            report.items += items.len();
            if verdict.rlc_accepted {
                report.rlc_batches += 1;
            }
            if verdict.ok != expected {
                report.divergences.push(shrink_batch(
                    &curve, &public, id, case, cfg, batch_seed, &items, &expected,
                ));
            }
        }
        ule_obs::obs_event!(
            "verify.batch_oracle.curve",
            curve = id.name(),
            batches = report.batches as u64,
        );
    }
    if report.batches == 0 {
        let selector = if cfg.curves.iter().all(|id| id.is_mont()) {
            let curves: Vec<String> = cfg
                .curves
                .iter()
                .map(|id| format!("--curve {}", id.name()))
                .collect();
            format!("{} (no ECDSA curve)", curves.join(" "))
        } else {
            format!(
                "--batch-case {} (cases 0..{})",
                cfg.only_case.unwrap_or(0),
                cfg.cases
            )
        };
        return Err(NothingChecked { selector });
    }
    Ok(report)
}

/// One adversarial batch: a seeded mix of every item kind.
fn build_batch(curve: &Curve, keys: &Keypair, max_batch: usize, rng: &mut Rng) -> Vec<BatchItem> {
    let n = curve.n();
    let size = rng.range(1, max_batch.max(1) + 1);
    let mut items = Vec::with_capacity(size);
    for index in 0..size {
        let e = ecdsa::hash_to_scalar(curve, &rng.next_u64().to_be_bytes());
        let (sig, hint) = sign(curve, keys, &e, rng);
        let item = match rng.below(8) {
            // Valid, hinted — the RLC fast path's bread and butter.
            0..=2 => BatchItem {
                e,
                sig,
                hint: Some(hint),
            },
            // Valid, hint-less — forces the fallback for the batch.
            3 => BatchItem { e, sig, hint: None },
            // One bit of s (or r) flipped — must reject exactly like
            // the single verifier, hint left in place (still
            // consistent when r is untouched).
            4 => {
                let flip_r = rng.next_bool();
                let target = if flip_r { &sig.r } else { &sig.s };
                let flipped = flip_bit(target, rng.below(target.bit_len().max(1) as u64) as usize);
                let sig = if flip_r {
                    Signature {
                        r: flipped,
                        s: sig.s,
                    }
                } else {
                    Signature {
                        r: sig.r,
                        s: flipped,
                    }
                };
                BatchItem {
                    e,
                    sig,
                    hint: Some(hint),
                }
            }
            // Reject path: r or s ∈ {0, n, n+1}.
            5 => {
                let bad = match rng.below(3) {
                    0 => Mp::zero(),
                    1 => n.clone(),
                    _ => n.add(&Mp::one()),
                };
                let sig = if rng.next_bool() {
                    Signature { r: bad, s: sig.s }
                } else {
                    Signature { r: sig.r, s: bad }
                };
                BatchItem {
                    e,
                    sig,
                    hint: Some(hint),
                }
            }
            // Inconsistent hint (the public key is almost never the
            // nonce point): the verifier must fall back, never
            // mis-verdict.
            6 => BatchItem {
                e,
                sig,
                hint: Some(keys.public()),
            },
            // Valid signature over a *different* message — in-range
            // reject whose hint is still consistent with r, the case
            // that forces RLC failure and exact fallback.
            _ => {
                let other =
                    ecdsa::hash_to_scalar(curve, format!("other message {index}").as_bytes());
                BatchItem {
                    e: other,
                    sig,
                    hint: Some(hint),
                }
            }
        };
        items.push(item);
    }
    items
}

fn sign(curve: &Curve, keys: &Keypair, e: &Mp, rng: &mut Rng) -> (Signature, PublicKey) {
    loop {
        let k = ecdsa::derive_scalar(curve, &rng.next_u64().to_be_bytes(), b"nonce");
        if let Some(pair) = ecdsa::sign_with_nonce_recoverable(curve, keys.private(), e, &k) {
            return pair;
        }
    }
}

fn flip_bit(v: &Mp, bit: usize) -> Mp {
    let limb = bit / 32;
    let mut limbs = v.to_limbs((limb + 1).max(v.bit_len().div_ceil(32)));
    limbs[limb] ^= 1 << (bit % 32);
    Mp::from_limbs(&limbs)
}

/// Greedy one-item shrink: drop items whose removal keeps the batch
/// diverging, then record the surviving mismatches.
#[allow(clippy::too_many_arguments)]
fn shrink_batch(
    curve: &Curve,
    public: &PublicKey,
    id: CurveId,
    case: usize,
    cfg: &BatchOracleConfig,
    batch_seed: u64,
    items: &[BatchItem],
    expected: &[bool],
) -> BatchDivergence {
    let diverges = |keep: &[usize]| -> bool {
        let sub: Vec<BatchItem> = keep.iter().map(|&i| items[i].clone()).collect();
        let want: Vec<bool> = keep.iter().map(|&i| expected[i]).collect();
        ecdsa::verify_batch_prehashed(curve, public, &sub, batch_seed).ok != want
    };
    let mut kept: Vec<usize> = (0..items.len()).collect();
    let mut i = 0;
    while i < kept.len() {
        let mut candidate = kept.clone();
        candidate.remove(i);
        if !candidate.is_empty() && diverges(&candidate) {
            kept = candidate;
        } else {
            i += 1;
        }
    }
    let sub: Vec<BatchItem> = kept.iter().map(|&i| items[i].clone()).collect();
    let got = ecdsa::verify_batch_prehashed(curve, public, &sub, batch_seed).ok;
    let mismatches: Vec<(usize, bool, bool)> = kept
        .iter()
        .zip(&got)
        .filter(|(&orig, &g)| expected[orig] != g)
        .map(|(&orig, &g)| (orig, expected[orig], g))
        .collect();
    BatchDivergence {
        curve: id,
        case,
        kept,
        mismatches,
        reproducer: format!(
            "repro verify --batch-oracle --seed {:#018x} --curve {} --batch-case {case} \
             --batch-cases {} --max-batch {}",
            cfg.seed,
            id.name(),
            cfg.cases,
            cfg.max_batch
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_finds_no_divergence_on_cheap_curves() {
        let cfg = BatchOracleConfig {
            seed: 0x0b5e_55ed,
            curves: vec![CurveId::P192, CurveId::K163],
            cases: 6,
            max_batch: 12,
            only_case: None,
        };
        let report = run_batch_oracle(&cfg).expect("two ECDSA curves");
        assert_eq!(report.batches, 12);
        assert!(report.items > 12);
        assert!(report.divergences.is_empty(), "{}", report.render(&cfg));
        assert!(report.rlc_batches > 0, "some all-valid batch should RLC");
    }

    #[test]
    fn only_case_replays_one_batch_identically() {
        let full = BatchOracleConfig {
            seed: 3,
            curves: vec![CurveId::P192],
            cases: 4,
            max_batch: 6,
            only_case: None,
        };
        let replay = BatchOracleConfig {
            only_case: Some(2),
            ..full.clone()
        };
        let a = run_batch_oracle(&full).expect("four cases");
        let b = run_batch_oracle(&replay).expect("case 2 exists");
        assert_eq!(a.batches, 4);
        assert_eq!(b.batches, 1);
        assert!(b.items <= a.items);
    }

    #[test]
    fn an_oracle_that_checks_no_batch_is_an_error() {
        let past_the_end = BatchOracleConfig {
            only_case: Some(999_999),
            ..BatchOracleConfig::new(1, 1)
        };
        let err = run_batch_oracle(&past_the_end).expect_err("no such case");
        assert_eq!(err.selector, "--batch-case 999999 (cases 0..1)");
        let ladder_only = BatchOracleConfig {
            curves: vec![CurveId::X25519],
            ..BatchOracleConfig::new(1, 1)
        };
        let err = run_batch_oracle(&ladder_only).expect_err("no signatures");
        assert_eq!(err.selector, "--curve X25519 (no ECDSA curve)");
    }

    #[test]
    fn shrinker_isolates_an_injected_divergence() {
        // Build a batch, deliberately lie about one expectation, and
        // check the shrinker pins exactly that item — exercising the
        // shrink path without a real verifier bug.
        let curve = CurveId::P192.curve();
        let keys = Keypair::derive(&curve, b"shrink test");
        let public = keys.public();
        let mut rng = Rng::new(99);
        let items = build_batch(&curve, &keys, 8, &mut rng);
        let mut expected: Vec<bool> = items
            .iter()
            .map(|it| ecdsa::verify_prehashed(&curve, &public, &it.e, &it.sig))
            .collect();
        let victim = items.len() / 2;
        expected[victim] = !expected[victim];
        let cfg = BatchOracleConfig::new(1, 1);
        let d = shrink_batch(
            &curve,
            &public,
            CurveId::P192,
            0,
            &cfg,
            7,
            &items,
            &expected,
        );
        assert_eq!(d.kept, vec![victim]);
        assert_eq!(d.mismatches.len(), 1);
        assert_eq!(d.mismatches[0].0, victim);
        assert!(d.reproducer.contains("--batch-oracle"));
    }
}
