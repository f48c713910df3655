//! Monte's run-time reconfigurability (§5.4.2.1) and the §7.9 datapath
//! design space.
//!
//! The whole point of the microcoded accelerator: *one* piece of
//! hardware — one 64-entry microprogram — serves every key size; moving
//! from P-192 to P-521 is a constant-RAM write (`ctc2`), not a new chip.
//! This example drives the microcoded FFAU control unit directly through
//! every NIST prime, then sweeps the datapath width the way Fig 7.15
//! does.
//!
//! ```text
//! cargo run --release --example monte_reconfig
//! ```

use ule_repro::monte::{assemble_cios, Ffau, MicroEngine};
use ule_repro::mpmath::mont::Montgomery;
use ule_repro::mpmath::mp::Mp;
use ule_repro::mpmath::nist::NistPrime;

fn main() {
    println!("One microprogram, every key size (Monte's reconfigurability):\n");
    let mut engine = MicroEngine::new(32, assemble_cios());
    for prime in NistPrime::ALL {
        let p = prime.modulus();
        let k = prime.limbs();
        let mont = Montgomery::new(&p);
        // Reconfigure: write the element width into the constant RAM.
        engine.set_const(0, k as u64);
        let a = p.sub(&Mp::from_u64(1_234_567));
        let b = p.sub(&Mp::from_u64(89));
        let a64: Vec<u64> = a.to_limbs(k).iter().map(|&x| x as u64).collect();
        let b64: Vec<u64> = b.to_limbs(k).iter().map(|&x| x as u64).collect();
        let n64: Vec<u64> = p.to_limbs(k).iter().map(|&x| x as u64).collect();
        let mut result = vec![0; k];
        let cycles = engine.run(&a64, &b64, &n64, mont.n0_prime() as u64, &mut result);
        // Check against the host Montgomery reference.
        let expect: Vec<u64> = mont
            .mul(&a.to_limbs(k), &b.to_limbs(k))
            .iter()
            .map(|&x| x as u64)
            .collect();
        assert_eq!(result, expect, "{}", prime.name());
        assert_eq!(cycles, Ffau::montmul_cycles(k as u64, 3));
        println!(
            "  {:6}  k = {:2} words  MontMult in {:5} cycles (eq. 5.2 exactly)",
            prime.name(),
            k,
            cycles
        );
    }

    println!("\nDatapath-width design space (Fig 7.15, 100 MHz / Table 7.3 power):\n");
    println!(
        "  {:>5} {:>8} {:>10} {:>12}",
        "width", "key", "cycles", "energy nJ"
    );
    for key in [192usize, 256, 384] {
        for w in [8usize, 16, 32, 64] {
            let k = key.div_ceil(w) as u64;
            let cycles = Ffau::montmul_cycles(k, 3);
            let nj = ule_repro::energy::ffau::montmul_energy_nj(w, key, cycles)
                .expect("modeled width/key");
            println!("  {:>5} {:>8} {:>10} {:>12.3}", w, key, cycles, nj);
        }
    }
    println!("\nThe O(k^2) algorithm favors wide datapaths: 32-bit is the energy");
    println!("optimum for 192-bit keys, 64-bit for 384-bit keys — the paper's");
    println!("Fig 7.15 conclusion.");
}
