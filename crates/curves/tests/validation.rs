//! Full self-validation of all ten curve parameter sets and end-to-end
//! ECDSA on every one — the correctness bedrock under all energy numbers.

use ule_curves::ecdsa::{sign, verify, Keypair};
use ule_curves::params::CurveId;

#[test]
fn every_curve_validates() {
    for id in CurveId::ALL {
        let curve = id.curve();
        curve
            .validate()
            .unwrap_or_else(|e| panic!("{} failed validation: {e}", id.name()));
    }
}

#[test]
fn ecdsa_round_trip_every_curve() {
    for id in CurveId::ALL {
        let curve = id.curve();
        let keys = Keypair::derive(&curve, format!("signer for {}", id.name()).as_bytes());
        let msg = b"design space of ultra-low energy asymmetric cryptography";
        let sig = sign(&curve, &keys, msg, b"deterministic nonce seed");
        assert!(
            verify(&curve, &keys.public(), msg, &sig),
            "{}: genuine signature rejected",
            id.name()
        );
        assert!(
            !verify(&curve, &keys.public(), b"a different message", &sig),
            "{}: forged message accepted",
            id.name()
        );
    }
}

#[test]
fn group_orders_have_expected_bit_lengths() {
    for id in CurveId::ALL {
        let curve = id.curve();
        let n_bits = curve.n().bit_len();
        let q_bits = id.bits();
        assert!(
            n_bits <= q_bits + 1 && n_bits + 3 >= q_bits,
            "{}: order has {} bits for a {}-bit field",
            id.name(),
            n_bits,
            q_bits
        );
    }
}

/// The group-order fields have bit counts that are not multiples of 32, so
/// their reductions end in the bit-granular fold; check it against
/// division on zero, all-ones and random double-width inputs.
#[test]
fn order_field_reduce_wide_matches_division() {
    let mut rng = ule_testkit::Rng::new(0x0bde_4ed0);
    for id in CurveId::ALL.into_iter().chain(CurveId::XCURVES) {
        let curve = id.curve();
        let f = curve.order_field();
        let k = f.k();
        let mut inputs = vec![vec![0; 2 * k], vec![u32::MAX; 2 * k]];
        inputs.extend((0..8).map(|_| rng.vec_u32(2 * k)));
        for wide in inputs {
            let got = f.reduce_wide(&wide).to_mp();
            let expect = ule_mpmath::Mp::from_limbs(&wide).rem(f.modulus());
            assert_eq!(got, expect, "{} order, input {wide:x?}", id.name());
        }
    }
}
