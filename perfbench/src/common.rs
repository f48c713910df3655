//! Shared pieces: the pass loop, statistics, the result a workload hands
//! back, the paper's reference cells, and the routine-to-layer map.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calib::{self, Metered};

use ule_core::{RunReport, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_swlib::builder::Arch;

/// Command-line options every workload receives.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One output check: its name, whether it held, and what was compared.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted / failed in the timed phase.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of each untraced timed pass, at reference host speed
    /// (see `calib`), and as measured.
    pub pass_s: Vec<f64>,
    pub pass_raw_s: Vec<f64>,
    /// Peak RSS after set-up and the first timed pass, MB.
    pub peak_rss_mb: f64,
    /// Host ms per point and pass, first evaluation only.
    pub point_ms: BTreeMap<String, Vec<f64>>,
    /// Simulated totals over the workload's distinct points.
    pub sim_cycles: f64,
    pub sim_energy_uj: f64,
    /// Geometric-mean factor against the paper's Table 7.1/7.2 cells.
    pub paper_cycles_err: f64,
    /// Host-checked operations per host second.
    pub verify_per_s: f64,
    /// p99 latency in simulated cycles.
    pub p99_cycles: f64,
    /// Per-layer metrics (traced runs only), name -> (value, unit).
    pub layers: BTreeMap<String, (f64, &'static str)>,
    /// Lines printed above the result.
    pub notes: Vec<String>,
    /// The traced run's spans, written out at the end.
    pub trace_json: Option<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_owned(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn point(&mut self, point: String, ms: f64) {
        self.point_ms.entry(point).or_default().push(ms);
    }

    /// Each point's median over the passes.
    pub fn point_medians(&self) -> Vec<f64> {
        self.point_ms.values().map(|v| median(v)).collect()
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.insert(name.to_owned(), (value, unit));
    }
}

/// Runs `pass` at least once and again while another pass of median
/// length still fits in `seconds`, recording each pass's seconds (at
/// reference speed and raw) and the peak RSS after the first pass.
pub fn timed_passes(
    out: &mut Outcome,
    seconds: f64,
    mut pass: impl FnMut(&mut Outcome) -> Metered,
) {
    let started = Instant::now();
    loop {
        let m = pass(out);
        out.pass_s.push(m.seconds());
        out.pass_raw_s.push(m.raw_s);
        if out.pass_s.len() == 1 {
            out.peak_rss_mb = peak_rss_mb();
        }
        if started.elapsed().as_secs_f64() + median(&out.pass_raw_s) > seconds {
            return;
        }
    }
}

/// Runs `setup` `reps` times and returns each repetition's seconds (at
/// reference speed) with the last repetition's value.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (m, v) = calib::metered(&mut setup);
        times.push(m.seconds());
        last = Some(v);
    }
    (times, last.expect("at least one set-up"))
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// splitmix64: the benchmark's only source of seeded randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The submission order for `n` jobs under `seed` (Fisher-Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

pub use ule_core::metrics::arch_key;

/// The counters-only identity of a point: the config with the
/// energy-only knobs (gating, multiplier variant, SRAM register file)
/// dropped. Two points with the same key simulate identically.
pub fn sim_key(config: &SystemConfig, workload: Workload) -> String {
    let mut c = *config;
    c.gating = ule_energy::report::Gating::None;
    c.mult_variant = ule_core::MultVariant::Karatsuba;
    c.billie_sram_rf = false;
    ule_core::metrics::config_identity(&c, workload)
}

/// One Sign+Verify endpoint cell of the paper's Tables 7.1/7.2.
pub struct PaperCell {
    pub arch: Arch,
    pub curve: CurveId,
    /// Sign+Verify latency, cycles.
    pub cycles: f64,
}

/// The cells of `data/paper_cells.tsv`.
pub fn paper_cells() -> Vec<PaperCell> {
    include_str!("../data/paper_cells.tsv")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let arch = match f[0] {
                "baseline" => Arch::Baseline,
                "isa_ext" => Arch::IsaExt,
                "monte" => Arch::Monte,
                "billie" => Arch::Billie,
                other => panic!("paper_cells.tsv: unknown arch {other}"),
            };
            let curve = CurveId::ALL
                .into_iter()
                .find(|c| c.name() == f[1])
                .unwrap_or_else(|| panic!("paper_cells.tsv: unknown curve {}", f[1]));
            let hundred_k: f64 = f[2].parse().expect("paper_cells.tsv: cycles column");
            PaperCell {
                arch,
                curve,
                cycles: hundred_k * 1e5,
            }
        })
        .collect()
}

/// Geometric-mean factor by which simulated Sign+Verify cycles differ
/// from the paper's cells. `sv_cycles` looks up the simulated cycles
/// of a standard `(curve, arch)` configuration, `None` when the
/// workload did not simulate it. Returns the factor and the cell count.
pub fn paper_error(sv_cycles: impl Fn(CurveId, Arch) -> Option<u64>) -> (f64, usize) {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for cell in paper_cells() {
        if let Some(c) = sv_cycles(cell.curve, cell.arch) {
            log_sum += (c as f64 / cell.cycles).ln().abs();
            n += 1;
        }
    }
    if n == 0 {
        (0.0, 0)
    } else {
        ((log_sum / n as f64).exp(), n)
    }
}

/// Sums of the modelled Pete counters over a set of reports.
#[derive(Default)]
pub struct CounterSums {
    cycles: u64,
    instructions: u64,
    stall: u64,
    load_use: u64,
    mult_stalls: u64,
    branches: u64,
    mispredicts: u64,
    cop2_stalls: u64,
    cop2_ops: u64,
    ic_accesses: u64,
    ic_misses: u64,
    cop_ram_words: u64,
    monte: (u64, u64),
    billie: (u64, u64),
    energy_total: f64,
    energy_static: f64,
}

impl CounterSums {
    pub fn add(&mut self, arch: Arch, r: &RunReport) {
        let c = &r.counters;
        self.cycles += c.cycles;
        self.instructions += c.instructions;
        self.stall += c.stall_cycles;
        self.load_use += c.load_use_stalls;
        self.mult_stalls += c.mult_stalls;
        self.branches += c.branches;
        self.mispredicts += c.mispredicts;
        self.cop2_stalls += c.cop2_stalls;
        self.cop2_ops += c.cop2_ops;
        if let Some(ic) = r.raw.icache {
            self.ic_accesses += ic.accesses;
            self.ic_misses += ic.misses;
        }
        self.cop_ram_words += r.raw.cop.ram_reads + r.raw.cop.ram_writes;
        let busy = (r.raw.cop.busy_cycles, r.cycles);
        match arch {
            Arch::Monte => {
                self.monte.0 += busy.0;
                self.monte.1 += busy.1;
            }
            Arch::Billie => {
                self.billie.0 += busy.0;
                self.billie.1 += busy.1;
            }
            _ => {}
        }
        let total = r.energy.total_uj();
        self.energy_total += total;
        self.energy_static += total * r.energy.static_fraction();
    }

    /// The modelled-counter layer metrics.
    pub fn report(&self, out: &mut Outcome) {
        let cy = self.cycles as f64;
        out.layer(
            "pete.ipc",
            ratio(self.instructions as f64, cy),
            "instr/cycle",
        );
        out.layer("pete.stall_frac", ratio(self.stall as f64, cy), "ratio");
        out.layer(
            "pete.load_use_frac",
            ratio(self.load_use as f64, cy),
            "ratio",
        );
        out.layer(
            "pete.mult_stall_frac",
            ratio(self.mult_stalls as f64, cy),
            "ratio",
        );
        out.layer(
            "pete.mispredict_rate",
            ratio(self.mispredicts as f64, self.branches as f64),
            "ratio",
        );
        out.layer(
            "pete.cop2_stall_frac",
            ratio(self.cop2_stalls as f64, cy),
            "ratio",
        );
        out.layer(
            "icache.miss_rate",
            ratio(self.ic_misses as f64, self.ic_accesses as f64),
            "ratio",
        );
        out.layer(
            "monte.busy_frac",
            ratio(self.monte.0 as f64, self.monte.1 as f64),
            "ratio",
        );
        out.layer(
            "billie.busy_frac",
            ratio(self.billie.0 as f64, self.billie.1 as f64),
            "ratio",
        );
        out.layer("cop.issues", self.cop2_ops as f64, "count");
        out.layer("cop.ram_words", self.cop_ram_words as f64, "count");
        out.layer(
            "energy.static_frac",
            ratio(self.energy_static, self.energy_total),
            "ratio",
        );
    }
}

/// The paper layer of one profiled routine bucket, from its name.
///
/// The DSL inlines most field arithmetic into the point routines under
/// local labels (`.Los_inner_13`, `.Lripd_17`, …), so the map looks at
/// the label stem as well as at named routines. Code that carries no
/// label of its own counts toward its enclosing routine.
pub fn layer_of(bucket: &str) -> Layer {
    // "P-256:.Laddl_4/.Lfoo_5" -> "addl"
    let first = bucket.split('/').next().unwrap_or(bucket);
    let name = first.rsplit(':').next().unwrap_or(first);
    let stem = name
        .trim_start_matches(".L")
        .trim_end_matches(|c: char| c.is_ascii_digit())
        .trim_end_matches('_');
    const PROTOCOL: &[&str] = &[
        "main_",
        "ecdsa_",
        "ver_",
        "modn",
        "nmul",
        "ninv",
        "nadd",
        "cios_",
        "arch_init",
        "xdh_clamp",
    ];
    const SCALAR: &[&str] = &[
        "scalar_mul",
        "twin_mul",
        "sm_",
        "tw_",
        "bsm_",
        "btw_",
        "sbl_",
        "xdh_ladder",
        "xdh_bit",
        "xdh_done",
        "xdh_zero",
        "cswap",
    ];
    const POINT: &[&str] = &[
        "padd", "pdbl", "pt_", "toaff", "bil_padd", "bil_pdbl", "xdh_step",
    ];
    let starts = |set: &[&str]| set.iter().any(|p| stem.starts_with(p));
    if starts(PROTOCOL) {
        Layer::Protocol
    } else if starts(SCALAR) {
        Layer::Scalar
    } else if starts(POINT) {
        Layer::Point
    } else {
        // Field add/sub/mul/reduce/invert and their inline loops:
        // os_*, addl, subl, rip*, fold_skip, comb_*, sq*, f2red_*, eea_*,
        // copy, zero, cmp, shr1, xs_*, gf_*, ps_*, fermat_*, f*.
        Layer::Field
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Field,
    Point,
    Scalar,
    Protocol,
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
