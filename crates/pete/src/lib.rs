//! "Pete" — the study's ultra-low-power embedded RISC processor, as a
//! cycle-level simulator.
//!
//! Pete is a classic in-order five-stage pipeline (Fig 2.4, §5.1):
//! MIPS-II subset, no MMU, no cache in the baseline, a **statically
//! scheduled multi-cycle Karatsuba multiplier** hanging off the Hi/Lo
//! registers (§5.1.1–5.1.2), a branch predictor with the architectural
//! MIPS delay slot, and forwarding everywhere except the load-use case.
//!
//! The paper simulated synthesizable Verilog with Verilator (Ch. 6); this
//! crate substitutes a cycle-level timing model with explicit hazard rules
//! (see `DESIGN.md` §6 for the exact contracts), producing the same
//! quantities the RTL runs produced: cycle counts and event counts
//! (instruction fetches, ROM/RAM accesses, stall cycles, multiplier
//! activity), which the energy model turns into µJ.
//!
//! Sub-modules:
//!
//! * [`mem`] — program ROM and data RAM with access accounting;
//! * [`icache`] — the parameterizable direct-mapped instruction cache and
//!   single-entry stream-buffer prefetcher of §5.3;
//! * [`cpu`] — the pipeline timing model;
//! * [`cop`] — the coprocessor-2 interface the Monte and Billie
//!   accelerator models plug into (§5.4.1, §5.5.1).
//!
//! Two execution engines share the timing model (see `DESIGN.md` §6a):
//! the instrumented **reference** interpreter and a **fast** engine
//! built on a private translation cache (`xlate`) with superinstruction
//! fusion. [`cpu::ExecOptions`] selects the tier; cycles, counters, and
//! memory statistics are bit-identical between the two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cop;
pub mod cpu;
pub mod icache;
pub mod mem;
pub mod profile;
mod xlate;

pub use cop::{CopStats, Coprocessor};
pub use cpu::{
    Counters, EngineTier, ExecOptions, Instrumentation, Machine, MachineBuilder, MachineConfig,
    RunExit,
};
pub use icache::{CacheConfig, CacheStats};
pub use profile::{
    ActivitySlice, CallGraph, CallNode, ControlEvent, Profiler, RoutineCycles, RoutineProfile,
    Tally,
};
