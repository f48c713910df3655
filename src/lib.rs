//! Umbrella crate for the ULE asymmetric-cryptography reproduction.
//!
//! Re-exports every workspace crate under one roof so that the
//! `examples/` and `tests/` at the repository root can exercise the full
//! system. See `README.md` for a tour and `DESIGN.md` for the system
//! inventory.

pub use ule_bench as bench;
pub use ule_billie as billie;
pub use ule_core as core_api;
pub use ule_curves as curves;
pub use ule_dse as dse;
pub use ule_energy as energy;
pub use ule_isa as isa;
pub use ule_monte as monte;
pub use ule_mpmath as mpmath;
pub use ule_obs as obs;
pub use ule_pete as pete;
pub use ule_swlib as swlib;
