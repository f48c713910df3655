//! Per-routine cycle and activity attribution (PC-range buckets plus a
//! shadow call stack).
//!
//! The assembler already knows every routine's start address
//! (`Program::text_symbols`), so profiling needs no instrumentation in
//! the software suite: when enabled, the machine bills what it counted
//! between two boundaries to the bucket owning the PC range (see
//! [`Profiler`] for where each engine tier puts the boundaries). The
//! intervals telescope, so the bucket totals sum *exactly* to the
//! machine's total cycles — the invariant the attribution test pins.
//!
//! On top of the flat buckets, the profiler maintains a **shadow call
//! stack** driven by retirement of the link instructions:
//!
//! * `jal`, and `jalr` with a non-zero destination, push a frame
//!   recording the architectural return address (`pc + 8`, past the
//!   delay slot) and the call-tree node the call was made from;
//! * any register jump (`jr`, or `jalr` with `rd == $zero`) whose
//!   target matches a recorded return address pops back to that
//!   frame's caller — intervening frames abandoned by tail calls are
//!   discarded in the same pop;
//! * a register jump that matches nothing (a `jalr`-style tail call or
//!   computed jump) leaves the stack alone: the leaf routine simply
//!   changes under the same caller, so the tail-callee appears as a
//!   sibling of the tail-caller — and the original frame still pops
//!   when the tail-callee eventually returns through the shared `$ra`.
//!
//! The current call-tree node is always `child(caller-node, routine of
//! pc)`, with one folding rule: if the caller node already *is* that
//! routine, the node folds into it. The fold makes the delay slot of a
//! call bill to the caller (its PC is still in the caller) and makes
//! direct recursion accumulate in the existing frame's node instead of
//! growing a chain, exactly like a collapsed flamegraph.
//!
//! Each bucket and each call-tree node also carries an
//! [`ActivitySlice`] of memory-system and coprocessor counters, billed
//! with the same intervals. All *counted* traffic happens while
//! instructions retire (harness `poke`/`peek` are uncounted by
//! design), so the per-routine slices sum exactly to the run's
//! `RawStats`.

use std::collections::HashMap;

/// Sentinel parent id for call-tree roots (and the profiler's initial
/// context before any call has been observed).
pub const ROOT: u32 = u32::MAX;

/// Shadow-stack depth cap; calls beyond it are folded into the current
/// node so a pathological (or leaked) stack cannot grow without bound.
const MAX_SHADOW_DEPTH: usize = 512;

/// Memory-system and coprocessor activity attributed to one routine or
/// call-tree node (the interval delta of the machine's counted
/// statistics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActivitySlice {
    /// ROM word reads (uncached instruction fetches + data reads).
    pub rom_reads: u64,
    /// ROM line reads (I-cache fills and prefetches).
    pub rom_line_reads: u64,
    /// RAM reads on Pete's port plus accelerator DMA reads.
    pub ram_reads: u64,
    /// RAM writes on Pete's port plus accelerator DMA writes.
    pub ram_writes: u64,
    /// Instruction-cache lookups (hits = accesses − misses).
    pub icache_accesses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Coprocessor multiply/square datapath operations started.
    pub cop_mul_ops: u64,
    /// Coprocessor load/store (DMA transfer) commands executed.
    pub cop_ls_ops: u64,
}

impl ActivitySlice {
    /// Adds another slice onto this one, field by field.
    ///
    /// The exhaustive destructuring (no `..`) is deliberate: adding a
    /// counter to this struct without deciding how it accumulates —
    /// and without exporting it to the metrics schema — fails to
    /// compile here.
    pub fn accumulate(&mut self, other: &ActivitySlice) {
        let ActivitySlice {
            rom_reads,
            rom_line_reads,
            ram_reads,
            ram_writes,
            icache_accesses,
            icache_misses,
            cop_mul_ops,
            cop_ls_ops,
        } = *other;
        self.rom_reads += rom_reads;
        self.rom_line_reads += rom_line_reads;
        self.ram_reads += ram_reads;
        self.ram_writes += ram_writes;
        self.icache_accesses += icache_accesses;
        self.icache_misses += icache_misses;
        self.cop_mul_ops += cop_mul_ops;
        self.cop_ls_ops += cop_ls_ops;
    }

    /// The delta between two monotonic snapshots.
    pub fn delta(before: &ActivitySlice, after: &ActivitySlice) -> ActivitySlice {
        let ActivitySlice {
            rom_reads,
            rom_line_reads,
            ram_reads,
            ram_writes,
            icache_accesses,
            icache_misses,
            cop_mul_ops,
            cop_ls_ops,
        } = *after;
        ActivitySlice {
            rom_reads: rom_reads - before.rom_reads,
            rom_line_reads: rom_line_reads - before.rom_line_reads,
            ram_reads: ram_reads - before.ram_reads,
            ram_writes: ram_writes - before.ram_writes,
            icache_accesses: icache_accesses - before.icache_accesses,
            icache_misses: icache_misses - before.icache_misses,
            cop_mul_ops: cop_mul_ops - before.cop_mul_ops,
            cop_ls_ops: cop_ls_ops - before.cop_ls_ops,
        }
    }
}

/// Control-flow event observed at an instruction's retirement, as far
/// as the shadow call stack is concerned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlEvent {
    /// A link-register write (`jal`, or `jalr` with `rd != $zero`):
    /// push a frame expecting a return to `ret`.
    Call {
        /// Architectural return address (`pc + 8`, past the delay slot).
        ret: u32,
    },
    /// A register jump (`jr`, or `jalr` with `rd == $zero`): pop if
    /// `target` matches a recorded return address.
    JumpReg {
        /// The jump target (the register's value at retirement).
        target: u32,
    },
}

/// One routine's share of the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutineCycles {
    /// Routine name; aliases sharing a start address come pre-merged as
    /// `"a/b"` by `Program::text_symbols`.
    pub name: String,
    /// Start address of the routine's PC range.
    pub start: u32,
    /// Retired instructions attributed to the range.
    pub instructions: u64,
    /// Cycles (issue + all stalls) attributed to the range.
    pub cycles: u64,
    /// Memory-system and coprocessor activity attributed to the range.
    pub activity: ActivitySlice,
}

/// One node of the call tree: a routine reached along a specific call
/// path. Counters are **exclusive** (cycles spent at PCs of this
/// routine while this path was live); inclusive totals are derived by
/// [`CallGraph::inclusive_cycles`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallNode {
    /// Parent node id, or [`ROOT`] for a top-level node.
    pub parent: u32,
    /// Index into [`RoutineProfile::routines`].
    pub routine: u32,
    /// Retired instructions attributed to this node.
    pub instructions: u64,
    /// Exclusive cycles attributed to this node.
    pub cycles: u64,
    /// Exclusive activity attributed to this node.
    pub activity: ActivitySlice,
}

/// The call tree of a run. Node ids are creation-ordered, so a parent's
/// id is always smaller than its children's — reverse iteration folds
/// children into parents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CallGraph {
    /// Creation-ordered nodes (deterministic for a deterministic run).
    pub nodes: Vec<CallNode>,
}

impl CallGraph {
    /// Sum of exclusive cycles over all nodes (equals the flat bucket
    /// total and the machine's total cycles).
    pub fn total_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.cycles).sum()
    }

    /// Inclusive cycles per node (self + all descendants), parallel to
    /// [`CallGraph::nodes`].
    pub fn inclusive_cycles(&self) -> Vec<u64> {
        let mut inc: Vec<u64> = self.nodes.iter().map(|n| n.cycles).collect();
        for i in (0..self.nodes.len()).rev() {
            let p = self.nodes[i].parent;
            if p != ROOT {
                inc[p as usize] += inc[i];
            }
        }
        inc
    }

    /// Sum of inclusive cycles over the root nodes (equals
    /// [`CallGraph::total_cycles`]; pinned by tests).
    pub fn root_inclusive_cycles(&self) -> u64 {
        let inc = self.inclusive_cycles();
        self.nodes
            .iter()
            .zip(&inc)
            .filter(|(n, _)| n.parent == ROOT)
            .map(|(_, c)| *c)
            .sum()
    }

    /// The routine-index path from a root down to `node` (inclusive).
    pub fn path(&self, node: usize) -> Vec<u32> {
        let mut rev = Vec::new();
        let mut i = node as u32;
        while i != ROOT {
            let n = &self.nodes[i as usize];
            rev.push(n.routine);
            i = n.parent;
        }
        rev.reverse();
        rev
    }

    /// Accumulates another call tree into this one, matching nodes by
    /// routine path (workloads run the same program image several
    /// times, e.g. Sign + Verify).
    pub fn merge(&mut self, other: &CallGraph) {
        let mut children: HashMap<(u32, u32), u32> = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            children.insert((n.parent, n.routine), i as u32);
        }
        // Creation order guarantees parents precede children, so the
        // id map is always populated before it is consulted.
        let mut map = vec![ROOT; other.nodes.len()];
        for (i, n) in other.nodes.iter().enumerate() {
            let parent = if n.parent == ROOT {
                ROOT
            } else {
                map[n.parent as usize]
            };
            let id = *children.entry((parent, n.routine)).or_insert_with(|| {
                let id = self.nodes.len() as u32;
                self.nodes.push(CallNode {
                    parent,
                    routine: n.routine,
                    instructions: 0,
                    cycles: 0,
                    activity: ActivitySlice::default(),
                });
                id
            });
            let s = &mut self.nodes[id as usize];
            s.instructions += n.instructions;
            s.cycles += n.cycles;
            s.activity.accumulate(&n.activity);
            map[i] = id;
        }
    }
}

/// The finished per-routine breakdown of a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutineProfile {
    /// Buckets in ascending address order; zero-activity routines are
    /// retained so the table shape is config-independent.
    pub routines: Vec<RoutineCycles>,
    /// The call tree (exclusive counters per call path).
    pub calls: CallGraph,
}

impl RoutineProfile {
    /// Sum of all bucket cycles (equals the machine's total cycles).
    pub fn total_cycles(&self) -> u64 {
        self.routines.iter().map(|r| r.cycles).sum()
    }

    /// Sum of all bucket instructions.
    pub fn total_instructions(&self) -> u64 {
        self.routines.iter().map(|r| r.instructions).sum()
    }

    /// The bucket for `name`, if present (exact match against the
    /// possibly alias-merged name).
    pub fn routine(&self, name: &str) -> Option<&RoutineCycles> {
        self.routines.iter().find(|r| r.name == name)
    }

    /// The bucket whose (alias-merged) name contains `part` — e.g.
    /// `find("fmul")` matches a `"fsqr/fmul"` merge.
    pub fn find(&self, part: &str) -> Option<&RoutineCycles> {
        self.routines
            .iter()
            .find(|r| r.name.split('/').any(|n| n == part))
    }

    /// The buckets in reporting order: cycles descending, then name
    /// ascending. All human-facing and serialized output uses this
    /// order so profiles are byte-stable across runs and thread counts.
    pub fn sorted_routines(&self) -> Vec<&RoutineCycles> {
        let mut v: Vec<&RoutineCycles> = self.routines.iter().collect();
        v.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.name.cmp(&b.name)));
        v
    }

    /// Every call path as a `;`-joined name string (root first, leaf
    /// last) with its node, in node-creation order.
    pub fn call_paths(&self) -> Vec<(String, &CallNode)> {
        (0..self.calls.nodes.len())
            .map(|i| {
                let names: Vec<&str> = self
                    .calls
                    .path(i)
                    .into_iter()
                    .map(|r| self.routines[r as usize].name.as_str())
                    .collect();
                (names.join(";"), &self.calls.nodes[i])
            })
            .collect()
    }

    /// Accumulates another profile over the same routine table
    /// (workloads run the same program image several times, e.g.
    /// Sign + Verify).
    pub fn merge(&mut self, other: &RoutineProfile) {
        if self.routines.is_empty() {
            self.routines = other.routines.clone();
            self.calls = other.calls.clone();
            return;
        }
        assert_eq!(
            self.routines.len(),
            other.routines.len(),
            "merging profiles over different routine tables"
        );
        for (a, b) in self.routines.iter_mut().zip(&other.routines) {
            debug_assert_eq!(a.start, b.start);
            a.instructions += b.instructions;
            a.cycles += b.cycles;
            a.activity.accumulate(&b.activity);
        }
        self.calls.merge(&other.calls);
    }

    /// Accumulates a profile taken over a *different* program image
    /// (e.g. the handshake's companion ECDSA program riding next to the
    /// ladder program). Foreign buckets are appended under
    /// `{prefix}{name}` so same-named routines from the two images stay
    /// distinct, and the foreign call tree is appended with its routine
    /// indices rebased onto the combined table. Bucket totals keep
    /// summing to the combined headline counters; the ascending-address
    /// bucket order holds only within each image (the two address
    /// spaces are unrelated), so an absorbed profile must not be fed
    /// back into [`RoutineProfile::merge`].
    pub fn absorb(&mut self, other: &RoutineProfile, prefix: &str) {
        let routine_base = self.routines.len() as u32;
        self.routines
            .extend(other.routines.iter().map(|r| RoutineCycles {
                name: format!("{prefix}{}", r.name),
                ..r.clone()
            }));
        let node_base = self.calls.nodes.len() as u32;
        self.calls
            .nodes
            .extend(other.calls.nodes.iter().map(|n| CallNode {
                parent: if n.parent == ROOT {
                    ROOT
                } else {
                    n.parent + node_base
                },
                routine: n.routine + routine_base,
                ..n.clone()
            }));
    }
}

/// Default *mean* stride of the sampled schedule, in cycles
/// (individual intervals are jittered over `[stride/2, 3*stride/2)` —
/// see [`Profiler::sample`]). 251 is the sparsest scanned stride at
/// which the sampled top-5 routine shares of both the P-192 and P-256
/// baseline sign profiles stay within 10% relative of the exact
/// profile, in exact order (the sim and the jitter are deterministic,
/// so this is a reproducible property of the programs, not a
/// statistical one); at sparser strides the third and fourth routines,
/// whose true shares differ by only ~7%, start swapping.
pub const DEFAULT_SAMPLE_STRIDE: u64 = 251;

/// The machine's cumulative counted totals at a boundary: what an
/// interval bills is the difference between two tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Counted memory-system and coprocessor activity.
    pub activity: ActivitySlice,
}

/// A live shadow-stack frame: where to return to, and which node the
/// call was made from.
#[derive(Clone, Copy, Debug)]
struct Frame {
    ret: u32,
    caller: u32,
}

/// The per-routine profiler attached to a
/// [`Machine`](crate::cpu::Machine).
///
/// It is billed by **interval**: at each boundary, everything counted
/// since the previous boundary — cycles, instructions and
/// [`ActivitySlice`] — goes to one routine bucket, and, when the
/// profile is exact, to one call-tree node. Intervals telescope, so
/// bucket totals equal the machine's headline counters whatever the
/// boundaries. The engine tier places them:
///
/// * **reference tier, exact profile** ([`Profiler::enter`] /
///   [`Profiler::boundary`]): an interval runs while the PC stays in
///   one routine's range and ends early after a retired `jal`, linking
///   `jalr` or register jump. Those are the only points where the
///   bucket or the call-tree node can change, so every bucket and node
///   gets exactly what billing each retired instruction would give it.
/// * **fast tier, sampled profile** ([`Profiler::sample`] /
///   [`Profiler::flush`]): an interval ends at the first block boundary
///   past a jittered stride threshold and is billed to the routine
///   owning the PC there. The split between routines is approximate
///   (bounded by the stride, DESIGN.md §11) and there is no call tree:
///   a profile with any sampled interval finishes with an empty
///   [`CallGraph`].
#[derive(Clone, Debug)]
pub struct Profiler {
    /// Sorted bucket start addresses (parallel to `buckets`).
    starts: Vec<u32>,
    buckets: Vec<RoutineCycles>,
    /// Call-tree nodes (creation-ordered).
    nodes: Vec<CallNode>,
    /// `(parent, routine) -> node id` lookup, consulted only at
    /// boundaries.
    children: HashMap<(u32, u32), u32>,
    /// The shadow call stack.
    stack: Vec<Frame>,
    /// The node calls are currently made from ([`ROOT`] at top level).
    context: u32,
    /// Bucket index of the open exact interval (`usize::MAX` before
    /// the first).
    cur_routine: usize,
    /// The node the open exact interval bills.
    cur_node: u32,
    /// Totals at the previous boundary (start of the open interval).
    last: Tally,
    /// `(index, start, last pc)` of the previously looked-up bucket.
    /// Boundaries cluster in the hot field-op routines, so most lookups
    /// resolve with one range check instead of a binary search.
    cached: (usize, u32, u32),
    /// Mean stride of the sampled schedule, in cycles.
    stride: u64,
    /// Cycle at which the next sampled boundary is due.
    next_sample: u64,
    /// Deterministic jitter state (splitmix64), advanced per sample.
    jitter: u64,
    /// Whether any interval was billed by the sampled schedule.
    sampled: bool,
}

impl Profiler {
    /// Builds buckets from `Program::text_symbols` output (sorted,
    /// alias-merged `(start, name)` pairs), with the given mean stride
    /// (in cycles) for sampled boundaries. A synthetic `(prelude)`
    /// bucket covers any code before the first label.
    pub fn new(text_symbols: &[(u32, String)], stride: u64) -> Self {
        assert!(stride > 0, "sample stride must be positive");
        let mut buckets = Vec::with_capacity(text_symbols.len() + 1);
        if text_symbols.first().is_none_or(|&(a, _)| a != 0) {
            buckets.push(RoutineCycles {
                name: "(prelude)".to_owned(),
                start: 0,
                instructions: 0,
                cycles: 0,
                activity: ActivitySlice::default(),
            });
        }
        for (start, name) in text_symbols {
            buckets.push(RoutineCycles {
                name: name.clone(),
                start: *start,
                instructions: 0,
                cycles: 0,
                activity: ActivitySlice::default(),
            });
        }
        let starts = buckets.iter().map(|b| b.start).collect();
        Profiler {
            starts,
            buckets,
            nodes: Vec::new(),
            children: HashMap::new(),
            stack: Vec::new(),
            context: ROOT,
            cur_routine: usize::MAX,
            cur_node: ROOT,
            last: Tally::default(),
            cached: (0, 0, 0),
            stride,
            next_sample: stride,
            jitter: 0x9e37_79b9_7f4a_7c15,
            sampled: false,
        }
    }

    /// The bucket owning `pc`, with its inclusive PC range.
    fn routine_at(&mut self, pc: u32) -> (usize, u32, u32) {
        let (_, start, last) = self.cached;
        if (start..=last).contains(&pc) {
            return self.cached;
        }
        let i = match self.starts.binary_search(&pc) {
            Ok(i) => i,
            Err(i) => i - 1, // starts[0] == 0 covers every pc
        };
        let last = self.starts.get(i + 1).map_or(u32::MAX, |&s| s - 1);
        self.cached = (i, self.starts[i], last);
        self.cached
    }

    /// The node for `routine` under `context`, folding into `context`
    /// itself when it already is that routine (delay slots of calls and
    /// direct recursion).
    fn node_for(&mut self, context: u32, routine: u32) -> u32 {
        if context != ROOT && self.nodes[context as usize].routine == routine {
            return context;
        }
        match self.children.entry((context, routine)) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.nodes.len() as u32;
                self.nodes.push(CallNode {
                    parent: context,
                    routine,
                    instructions: 0,
                    cycles: 0,
                    activity: ActivitySlice::default(),
                });
                e.insert(id);
                id
            }
        }
    }

    /// The one billing step: everything counted between the previous
    /// boundary and `now` goes to bucket `routine` and, for an exact
    /// interval, to call-tree node `node`.
    fn bill(&mut self, routine: usize, node: Option<u32>, now: &Tally) {
        let cycles = now.cycles - self.last.cycles;
        let instructions = now.instructions - self.last.instructions;
        let activity = ActivitySlice::delta(&self.last.activity, &now.activity);
        let b = &mut self.buckets[routine];
        b.cycles += cycles;
        b.instructions += instructions;
        b.activity.accumulate(&activity);
        if let Some(n) = node {
            let n = &mut self.nodes[n as usize];
            n.cycles += cycles;
            n.instructions += instructions;
            n.activity.accumulate(&activity);
        }
        self.last = *now;
    }

    /// Opens an exact interval whose first instruction is at `pc` and
    /// returns the inclusive PC range it may run in: the interval must
    /// end ([`Profiler::boundary`]) before an instruction outside the
    /// range retires.
    pub fn enter(&mut self, pc: u32) -> (u32, u32) {
        let (idx, start, last) = self.routine_at(pc);
        if idx != self.cur_routine {
            self.cur_routine = idx;
            self.cur_node = self.node_for(self.context, idx as u32);
        }
        (start, last)
    }

    /// Closes the open exact interval at `now`, billing its routine and
    /// call-tree node, then lets `event` — the control event retired
    /// last, if any — advance the shadow call stack.
    pub fn boundary(&mut self, now: &Tally, event: Option<ControlEvent>) {
        self.bill(self.cur_routine, Some(self.cur_node), now);
        match event {
            Some(ControlEvent::Call { ret }) if self.stack.len() < MAX_SHADOW_DEPTH => {
                self.stack.push(Frame {
                    ret,
                    caller: self.cur_node,
                });
                self.context = self.cur_node;
                self.cur_node = self.node_for(self.context, self.cur_routine as u32);
            }
            Some(ControlEvent::JumpReg { target }) => {
                // Pop to the youngest frame expecting this return
                // address; frames above it were abandoned by tail
                // calls. A miss means a tail call or computed jump:
                // the stack is untouched and the leaf just changes.
                if let Some(pos) = self.stack.iter().rposition(|f| f.ret == target) {
                    let frame = self.stack[pos];
                    self.stack.truncate(pos);
                    self.context = frame.caller;
                    self.cur_node = self.node_for(self.context, self.cur_routine as u32);
                }
            }
            // Calls past MAX_SHADOW_DEPTH fold into the current node.
            Some(ControlEvent::Call { .. }) | None => {}
        }
    }

    /// The cycle at which the next sampled boundary is due. Dispatch
    /// loops bound their span by it.
    #[inline]
    pub fn next_sample_at(&self) -> u64 {
        self.next_sample
    }

    /// A sampled boundary: bills the interval since the previous
    /// boundary to the routine owning `pc`, then arms the next
    /// threshold past `now`.
    ///
    /// The next interval is jittered deterministically (splitmix64)
    /// over `[stride/2, 3*stride/2)` — mean `stride` — so sample
    /// points cannot phase-lock onto *any* loop period. The field ops
    /// are fixed-length loops whose periods vary per curve; a fixed
    /// stride resonates with some of them and systematically over- or
    /// under-bills whichever routine the boundary keeps landing after.
    pub fn sample(&mut self, pc: u32, now: &Tally) {
        self.flush(pc, now);
        self.jitter = self.jitter.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.jitter;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        self.next_sample = now.cycles + self.stride / 2 + z % self.stride;
    }

    /// Bills the final partial sampled interval at the end of a
    /// fast-tier run to the routine owning `pc`, so totals stay exact.
    pub fn flush(&mut self, pc: u32, now: &Tally) {
        let (idx, _, _) = self.routine_at(pc);
        self.bill(idx, None, now);
        self.sampled = true;
    }

    /// Finishes the run, yielding the per-routine breakdown. The call
    /// graph is empty if any interval was sampled.
    pub fn finish(self) -> RoutineProfile {
        let nodes = if self.sampled { Vec::new() } else { self.nodes };
        RoutineProfile {
            routines: self.buckets,
            calls: CallGraph { nodes },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms() -> Vec<(u32, String)> {
        vec![(0x10, "a".to_owned()), (0x40, "b/c".to_owned())]
    }

    fn act(ram_reads: u64) -> ActivitySlice {
        ActivitySlice {
            ram_reads,
            ..Default::default()
        }
    }

    fn tally(cycles: u64, instructions: u64, activity: ActivitySlice) -> Tally {
        Tally {
            cycles,
            instructions,
            activity,
        }
    }

    /// Drives a [`Profiler`] the way the reference tier does, one
    /// retired instruction at a time: an exact interval stays open
    /// while the PC stays in the entered routine's range and closes
    /// after every control event.
    struct Retire {
        p: Profiler,
        now: Tally,
        open: Option<(u32, u32)>,
    }

    impl Retire {
        fn new(text_symbols: &[(u32, String)]) -> Self {
            Retire {
                p: Profiler::new(text_symbols, DEFAULT_SAMPLE_STRIDE),
                now: Tally::default(),
                open: None,
            }
        }

        fn record(
            &mut self,
            pc: u32,
            cycles: u64,
            activity: &ActivitySlice,
            event: Option<ControlEvent>,
        ) {
            if let Some((start, last)) = self.open {
                if !(start..=last).contains(&pc) {
                    self.p.boundary(&self.now, None);
                    self.open = None;
                }
            }
            if self.open.is_none() {
                self.open = Some(self.p.enter(pc));
            }
            self.now.cycles += cycles;
            self.now.instructions += 1;
            self.now.activity.accumulate(activity);
            if event.is_some() {
                self.p.boundary(&self.now, event);
                self.open = None;
            }
        }

        fn finish(mut self) -> RoutineProfile {
            if self.open.is_some() {
                self.p.boundary(&self.now, None);
            }
            self.p.finish()
        }
    }

    #[test]
    fn attribution_covers_prelude_and_boundaries() {
        let mut p = Retire::new(&syms());
        p.record(0x0, 3, &act(1), None); // prelude
        p.record(0x10, 2, &act(0), None); // first instr of a
        p.record(0x3c, 1, &act(2), None); // last instr of a
        p.record(0x40, 5, &act(0), None); // b/c
        p.record(0x1000, 7, &act(4), None); // past last label -> b/c
        let prof = p.finish();
        assert_eq!(prof.total_cycles(), 18);
        assert_eq!(prof.total_instructions(), 5);
        assert_eq!(prof.routine("(prelude)").unwrap().cycles, 3);
        assert_eq!(prof.routine("a").unwrap().cycles, 3);
        assert_eq!(prof.routine("a").unwrap().activity.ram_reads, 2);
        assert_eq!(prof.routine("b/c").unwrap().cycles, 12);
        assert_eq!(prof.routine("b/c").unwrap().activity.ram_reads, 4);
        assert_eq!(prof.find("c").unwrap().start, 0x40);
        assert!(prof.find("zz").is_none());
        // Flat and call-tree exclusive totals agree.
        assert_eq!(prof.calls.total_cycles(), 18);
        assert_eq!(prof.calls.root_inclusive_cycles(), 18);
    }

    #[test]
    fn no_prelude_bucket_when_label_at_zero() {
        let mut p = Retire::new(&[(0, "start".to_owned())]);
        p.record(0, 1, &act(0), None);
        let prof = p.finish();
        assert_eq!(prof.routines.len(), 1);
        assert_eq!(prof.routine("start").unwrap().cycles, 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RoutineProfile::default();
        let mut p = Retire::new(&syms());
        p.record(0x10, 2, &act(1), None);
        a.merge(&p.finish());
        let mut p = Retire::new(&syms());
        p.record(0x10, 3, &act(1), None);
        p.record(0x40, 4, &act(0), None);
        a.merge(&p.finish());
        assert_eq!(a.routine("a").unwrap().cycles, 5);
        assert_eq!(a.routine("a").unwrap().activity.ram_reads, 2);
        assert_eq!(a.routine("b/c").unwrap().cycles, 4);
        assert_eq!(a.total_cycles(), 9);
        // Call trees merged by path: one node for `a`, one for `b/c`.
        assert_eq!(a.calls.nodes.len(), 2);
        assert_eq!(a.calls.total_cycles(), 9);
    }

    /// A scripted call scenario: main calls a (twice), a calls b; with
    /// the delay slot of each call billed to the caller.
    #[test]
    fn shadow_stack_builds_call_tree() {
        let syms = vec![
            (0x00, "main".to_owned()),
            (0x40, "a".to_owned()),
            (0x80, "b".to_owned()),
        ];
        let mut p = Retire::new(&syms);
        let a0 = act(0);
        // main: jal a (ret 0x10), delay slot, then a runs.
        p.record(0x08, 1, &a0, Some(ControlEvent::Call { ret: 0x10 }));
        p.record(0x0c, 1, &a0, None); // delay slot -> main's node
                                      // a: jal b (ret 0x50), delay slot, b body, jr back to a.
        p.record(0x40, 1, &a0, None);
        p.record(0x48, 1, &a0, Some(ControlEvent::Call { ret: 0x50 }));
        p.record(0x4c, 1, &a0, None); // delay slot -> main;a
        p.record(0x80, 2, &a0, None); // b body -> main;a;b
        p.record(0x84, 1, &a0, Some(ControlEvent::JumpReg { target: 0x50 }));
        p.record(0x88, 1, &a0, None); // return delay slot -> main;a;b
                                      // back in a; jr back to main.
        p.record(0x50, 1, &a0, Some(ControlEvent::JumpReg { target: 0x10 }));
        p.record(0x54, 1, &a0, None); // return delay slot -> main;a
                                      // main again; second call to a.
        p.record(0x10, 1, &a0, Some(ControlEvent::Call { ret: 0x18 }));
        p.record(0x14, 1, &a0, None);
        p.record(0x40, 3, &a0, Some(ControlEvent::JumpReg { target: 0x18 }));
        p.record(0x44, 1, &a0, None);
        p.record(0x18, 1, &a0, None);
        let prof = p.finish();

        let paths: Vec<(String, u64)> = prof
            .call_paths()
            .into_iter()
            .map(|(path, n)| (path, n.cycles))
            .collect();
        assert_eq!(
            paths,
            vec![
                ("main".to_owned(), 5),
                ("main;a".to_owned(), 9),
                ("main;a;b".to_owned(), 4),
            ]
        );
        // Exclusive sums == root inclusive == flat total.
        assert_eq!(prof.calls.total_cycles(), prof.total_cycles());
        assert_eq!(prof.calls.root_inclusive_cycles(), prof.total_cycles());
        let inc = prof.calls.inclusive_cycles();
        assert_eq!(inc, vec![18, 13, 4]);
    }

    /// Direct recursion folds into the existing frame: f -> f -> f
    /// yields a single `main;f` node, and the same-site return
    /// addresses pop one frame at a time.
    #[test]
    fn direct_recursion_folds() {
        let syms = vec![(0x00, "main".to_owned()), (0x40, "f".to_owned())];
        let mut p = Retire::new(&syms);
        let a0 = act(0);
        p.record(0x00, 1, &a0, Some(ControlEvent::Call { ret: 0x08 }));
        // f calls itself twice from the same site (ret 0x50 both times).
        p.record(0x40, 1, &a0, None);
        p.record(0x48, 1, &a0, Some(ControlEvent::Call { ret: 0x50 }));
        p.record(0x40, 1, &a0, None);
        p.record(0x48, 1, &a0, Some(ControlEvent::Call { ret: 0x50 }));
        p.record(0x40, 1, &a0, None);
        // Innermost returns, then the outer recursive call returns.
        p.record(0x5c, 1, &a0, Some(ControlEvent::JumpReg { target: 0x50 }));
        p.record(0x50, 1, &a0, Some(ControlEvent::JumpReg { target: 0x50 }));
        p.record(0x50, 1, &a0, Some(ControlEvent::JumpReg { target: 0x08 }));
        p.record(0x08, 1, &a0, None);
        let prof = p.finish();
        let paths: Vec<String> = prof.call_paths().into_iter().map(|(s, _)| s).collect();
        assert_eq!(paths, vec!["main".to_owned(), "main;f".to_owned()]);
        assert_eq!(prof.calls.nodes[1].cycles, 8);
        assert_eq!(prof.calls.total_cycles(), prof.total_cycles());
    }

    /// A tail call (`jr` to a routine entry, matching no return
    /// address) swaps the leaf under the same caller; the tail-callee's
    /// eventual `jr $ra` pops the original frame.
    #[test]
    fn tail_call_is_sibling_and_return_pops_original_frame() {
        let syms = vec![
            (0x00, "main".to_owned()),
            (0x40, "a".to_owned()),
            (0x80, "c".to_owned()),
        ];
        let mut p = Retire::new(&syms);
        let a0 = act(0);
        p.record(0x00, 1, &a0, Some(ControlEvent::Call { ret: 0x08 }));
        p.record(0x40, 2, &a0, None); // a body
                                      // a tail-jumps to c: target 0x80 matches no frame.
        p.record(0x44, 1, &a0, Some(ControlEvent::JumpReg { target: 0x80 }));
        p.record(0x80, 3, &a0, None); // c body -> main;c (sibling of main;a)
                                      // c returns through the shared $ra, popping main's frame.
        p.record(0x84, 1, &a0, Some(ControlEvent::JumpReg { target: 0x08 }));
        p.record(0x08, 1, &a0, None);
        let prof = p.finish();
        let paths: Vec<(String, u64)> = prof
            .call_paths()
            .into_iter()
            .map(|(path, n)| (path, n.cycles))
            .collect();
        assert_eq!(
            paths,
            vec![
                ("main".to_owned(), 2),
                ("main;a".to_owned(), 3),
                ("main;c".to_owned(), 4),
            ]
        );
        assert_eq!(prof.calls.root_inclusive_cycles(), prof.total_cycles());
    }

    /// Sampled attribution telescopes: whatever the stride and sample
    /// placement, bucket totals equal the final machine counters
    /// exactly.
    #[test]
    fn sampled_intervals_telescope_to_exact_totals() {
        let mut p = Profiler::new(&syms(), 10);
        assert_eq!(p.next_sample_at(), 10);
        // First interval [0, 13) lands on a PC in routine `a`.
        p.sample(0x14, &tally(13, 4, act(2)));
        // Threshold re-arms past the sample point, jittered over
        // [cycle + stride/2, cycle + 3*stride/2).
        let next = p.next_sample_at();
        assert!((13 + 5..13 + 15).contains(&next), "next = {next}");
        // Second interval [13, 27) lands in `b/c`.
        p.sample(0x44, &tally(27, 9, act(5)));
        // Final partial interval [27, 31) flushed into the prelude.
        p.flush(0x0, &tally(31, 11, act(6)));
        let prof = p.finish();
        assert_eq!(prof.total_cycles(), 31);
        assert_eq!(prof.total_instructions(), 11);
        assert_eq!(prof.routine("a").unwrap().cycles, 13);
        assert_eq!(prof.routine("a").unwrap().activity.ram_reads, 2);
        assert_eq!(prof.routine("b/c").unwrap().cycles, 14);
        assert_eq!(prof.routine("b/c").unwrap().activity.ram_reads, 3);
        assert_eq!(prof.routine("(prelude)").unwrap().cycles, 4);
        assert!(prof.calls.nodes.is_empty());
        // Same bucket table shape as an exact profile, so merging the
        // two would be well-formed.
        assert_eq!(prof.routines.len(), 3);
    }

    /// One giant block spanning several strides re-arms in O(1) past
    /// the boundary (relative to the sample cycle), not at some
    /// multiple merely >= the old threshold.
    #[test]
    fn sampled_stride_skips_over_long_blocks() {
        let mut p = Profiler::new(&syms(), 10);
        p.sample(0x10, &tally(57, 1, act(0)));
        let next = p.next_sample_at();
        assert!((57 + 5..57 + 15).contains(&next), "next = {next}");
    }

    /// The jittered schedule is deterministic: two profilers over the
    /// same run take identical samples.
    #[test]
    fn sampled_schedule_is_deterministic() {
        let mut a = Profiler::new(&syms(), 10);
        let mut b = Profiler::new(&syms(), 10);
        for i in 0..100u64 {
            a.sample(0x10, &tally(i * 13, i, act(0)));
            b.sample(0x10, &tally(i * 13, i, act(0)));
            assert_eq!(a.next_sample_at(), b.next_sample_at());
        }
    }

    /// A sampled interval after exact ones drops the partial call tree:
    /// a profile's call graph is either exact or empty.
    #[test]
    fn any_sampled_interval_empties_the_call_graph() {
        let mut p = Profiler::new(&syms(), 10);
        p.enter(0x10);
        p.boundary(&tally(3, 2, act(0)), None);
        p.flush(0x40, &tally(5, 3, act(1)));
        let prof = p.finish();
        assert_eq!(prof.routine("a").unwrap().cycles, 3);
        assert_eq!(prof.routine("b/c").unwrap().cycles, 2);
        assert!(prof.calls.nodes.is_empty());
    }

    #[test]
    fn sorted_routines_orders_by_cycles_then_name() {
        let syms = vec![
            (0x00, "zz".to_owned()),
            (0x40, "aa".to_owned()),
            (0x80, "mm".to_owned()),
        ];
        let mut p = Retire::new(&syms);
        p.record(0x00, 5, &act(0), None);
        p.record(0x40, 5, &act(0), None);
        p.record(0x80, 9, &act(0), None);
        let prof = p.finish();
        let order: Vec<&str> = prof
            .sorted_routines()
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(order, vec!["mm", "aa", "zz"]);
    }
}
