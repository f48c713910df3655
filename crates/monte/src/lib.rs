//! "Monte" — the reconfigurable, microcoded GF(p) accelerator of §5.4.
//!
//! Monte hangs off Pete's COP2 interface and shares the true dual-port
//! 16 KB RAM (Fig 5.7). It consists of:
//!
//! * the **FFAU** ([`ffau::Ffau`]) — a microcoded finite-field arithmetic
//!   unit with a two-stage pipelined multiply-add core, AB/T scratchpad
//!   memories, index-register address generation, and a 64-entry
//!   microcode store (Fig 5.8–5.10). It executes **CIOS Montgomery
//!   multiplication** (Algorithm 5) plus modular add/subtract, at the
//!   cycle cost of eq. 5.2: `cc = 2k² + 6k + (k+1)p + 22`;
//! * the **front end** ([`frontend::Monte`]) — instruction queue, DMA
//!   unit with a store reservation register, operand/result **double
//!   buffering** that overlaps data movement with computation, and
//!   result→operand forwarding (§5.4.1). The §7.7 ablation switches the
//!   double buffering off.
//!
//! Run-time reconfigurability (the point of Monte versus Billie): the
//! element width `k` and the quotient constant `n0'` are control
//! registers written by `ctc2`, and the modulus is just another DMA'd
//! operand — so one synthesized Monte serves every key size up to 521
//! bits (§5.4.2.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ffau;
pub mod frontend;
pub mod ucode;

pub use ffau::{Ffau, FfauStats, Operand, BUFFER_LIMBS};
pub use frontend::{Monte, MonteConfig};
pub use ucode::{assemble_addsub, assemble_cios, assemble_cmul_fold, MicroEngine};
