//! Monte's value path allocates nothing per `Coprocessor::issue`: after a
//! warm-up, a long stream of load/mul/add/sub/store commands on P-256
//! (CIOS) and on X25519 (the `fmula24` fold) makes zero heap
//! allocations. A counting global allocator, armed only on the test's
//! own thread, does the counting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use ule_isa::asm::RAM_BASE;
use ule_isa::instr::Instr;
use ule_isa::reg::Reg;
use ule_monte::Monte;
use ule_mpmath::mont::Montgomery;
use ule_mpmath::mp::Mp;
use ule_mpmath::nist::NistPrime;
use ule_mpmath::xprime::XPrime;
use ule_pete::cop::Coprocessor;
use ule_pete::mem::Ram;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` needs; counting
// touches only an atomic and a thread-local flag, never the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` comes from our caller, who guarantees it is
        // valid and non-zero-sized.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`; our caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const A: u32 = RAM_BASE + 0x100;
const B: u32 = RAM_BASE + 0x200;
const OUT: u32 = RAM_BASE + 0x300;
const RT: Reg = Reg::T0;

/// A Monte configured for modulus `p` (k words, control regs 0–1, N
/// loaded), plus fold constants `(c, δ, offset)` when given, with
/// operands at `A` and `B`.
fn configured(p: &Mp, fold: Option<(u32, u32, u32)>, ram: &mut Ram) -> (Monte, u64) {
    let k = p.bit_len().div_ceil(32);
    let mut m = Monte::new();
    ram.poke_words(RAM_BASE, &p.to_limbs(k));
    ram.poke_words(A, &p.sub(&Mp::from_u64(77_777)).to_limbs(k));
    ram.poke_words(B, &p.sub(&Mp::from_u64(3)).to_limbs(k));
    let mut c = 0;
    let n0 = Montgomery::new(p).n0_prime();
    for (rd, v) in [(0, k as u32), (1, n0)] {
        c = m.issue(Instr::Ctc2 { rt: RT, rd }, v, c, ram);
    }
    if let Some((fc, delta, off)) = fold {
        for (rd, v) in [(3, fc), (4, delta), (5, off)] {
            c = m.issue(Instr::Ctc2 { rt: RT, rd }, v, c, ram);
        }
    }
    c = m.issue(Instr::Cop2LdN { rt: RT }, RAM_BASE, c, ram);
    (m, c)
}

/// One round of field work: mul, add, sub, each loaded and stored, and
/// in fold mode an `fmula24`-style constant multiply.
fn round(m: &mut Monte, mut c: u64, fold: bool, ram: &mut Ram) -> u64 {
    for op in [Instr::Cop2Mul, Instr::Cop2Add, Instr::Cop2Sub] {
        c = m.issue(Instr::Cop2LdA { rt: RT }, A, c, ram);
        c = m.issue(Instr::Cop2LdB { rt: RT }, B, c, ram);
        c = m.issue(op, 0, c, ram);
        c = m.issue(Instr::Cop2St { rt: RT }, OUT, c, ram);
    }
    if fold {
        c = m.issue(Instr::Ctc2 { rt: RT, rd: 2 }, 1, c, ram);
        c = m.issue(Instr::Cop2LdA { rt: RT }, OUT, c, ram);
        c = m.issue(Instr::Cop2Mul, 0, c, ram);
        c = m.issue(Instr::Cop2St { rt: RT }, OUT, c, ram);
        c = m.issue(Instr::Ctc2 { rt: RT, rd: 2 }, 0, c, ram);
    }
    c
}

#[test]
fn issue_allocates_nothing_after_warm_up() {
    let x = XPrime::P25519;
    let fold = (x.a24() as u32, x.fold_delta() as u32, 0);
    for (p, fold) in [(NistPrime::P256.modulus(), None), (x.modulus(), Some(fold))] {
        let mut ram = Ram::new();
        let (mut m, mut c) = configured(&p, fold, &mut ram);
        c = round(&mut m, c, fold.is_some(), &mut ram);
        let before = m.stats().instructions;
        let allocs = allocations(|| {
            for _ in 0..100 {
                c = round(&mut m, c, fold.is_some(), &mut ram);
            }
        });
        let issued = m.stats().instructions - before;
        assert!(issued >= 1000, "{issued} commands issued");
        assert_eq!(allocs, 0, "{allocs} allocations in {issued} commands");
    }
}
