//! One option table for `repro` and `bench`.
//!
//! Every command-line option is one row of `TABLE`: the subcommands
//! that take it, its name, its value kind, its default and its help
//! line. [`parse`] reads an argument list against the rows of its
//! subcommand into a typed [`Command`], and [`help`] renders the usage
//! text from the same rows, so the help cannot list an option the
//! parser rejects, or leave out one it accepts.
//!
//! Placement follows one rule: an option is accepted before or after
//! the subcommand name if and only if that subcommand has a row for it.
//! The observability options (`--trace`, `--flight-dump`, `--progress`,
//! `--no-progress`) and `--help` are in every subcommand. Anything else
//! is a [`CliError`] naming the option and the subcommand.

use std::fmt;
use std::path::PathBuf;

use ule_core::attr::FlameWeight;
use ule_core::metrics::{arch_from_key, arch_key, workload_from_key, workload_key};
use ule_core::metrics::{ARCHS, WORKLOADS};
use ule_core::Workload;
use ule_curves::params::CurveId;
use ule_swlib::builder::Arch;
use ule_verify::{BatchOracleConfig, Campaign, CaseSelector, ConfigKind, TierPolicy};

use crate::diff::DiffThresholds;
use crate::ExperimentId;

/// Per-thread flight-recorder ring size for CLI runs: large enough
/// that a full `repro all` keeps every harness-level span (jobs, sim
/// runs) for the merged trace export, still bounded.
const FLIGHT_CAPACITY: usize = 4096;

/// How an option's value is read.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Flag,
    /// A positive integer.
    Count,
    /// A non-negative integer.
    Index,
    /// A finite number `>= 0`.
    Percent,
    /// A finite number `> 0`.
    Rate,
    /// A finite number `>= 1`.
    Gain,
    Path,
    Text,
    Seed,
    Curve,
    Arch,
    Workload,
    Weight,
    Tier,
    Config,
    Case,
    Format,
}

#[derive(Clone, Debug)]
enum Value {
    Flag,
    Int(u64),
    Num(f64),
    Path(PathBuf),
    Text(String),
    Curve(CurveId),
    Arch(Arch),
    Workload(Workload),
    Weight(FlameWeight),
    Tier(TierPolicy),
    Config(ConfigKind),
    Case(CaseSelector),
}

impl Kind {
    /// Parses one value; each kind's parser is written once, here.
    fn parse(self, s: &str) -> Option<Value> {
        let int = || s.parse::<u64>().ok();
        let num = || s.parse::<f64>().ok().filter(|x| x.is_finite());
        // Arch and workload keys are spelled with `_`; the CLI also
        // takes `isa-ext`, `sign-verify`, ...
        let key = s.replace('-', "_");
        match self {
            Kind::Flag => Some(Value::Flag),
            Kind::Count => int().filter(|&n| n > 0).map(Value::Int),
            Kind::Index => int().map(Value::Int),
            Kind::Percent => num().filter(|&x| x >= 0.0).map(Value::Num),
            Kind::Rate => num().filter(|&x| x > 0.0).map(Value::Num),
            Kind::Gain => num().filter(|&x| x >= 1.0).map(Value::Num),
            Kind::Path => Some(Value::Path(s.into())),
            Kind::Text => Some(Value::Text(s.into())),
            Kind::Format => ["text", "json"].contains(&s).then(|| Value::Text(s.into())),
            Kind::Seed => Some(Value::Int(ule_verify::parse_seed(s))),
            Kind::Curve => ule_verify::parse_curve(s).map(Value::Curve),
            Kind::Arch => arch_from_key(&key).map(Value::Arch),
            Kind::Workload => workload_from_key(&key).map(Value::Workload),
            Kind::Weight => match s {
                "cycles" => Some(Value::Weight(FlameWeight::Cycles)),
                "nj" | "nanojoules" => Some(Value::Weight(FlameWeight::NanoJoules)),
                _ => None,
            },
            Kind::Tier => TierPolicy::parse(s).map(Value::Tier),
            Kind::Config => ConfigKind::parse(s).map(Value::Config),
            Kind::Case => CaseSelector::parse(s).map(Value::Case),
        }
    }

    /// The value placeholder in help text, which is also what a
    /// malformed value should have been.
    fn metavar(self) -> String {
        match self {
            Kind::Flag => "",
            Kind::Count => "N>0",
            Kind::Index => "N",
            Kind::Percent => "PCT>=0",
            Kind::Rate => "X>0",
            Kind::Gain => "X>=1",
            Kind::Path => "PATH",
            Kind::Text => "NAME|PATH",
            Kind::Format => "text|json",
            Kind::Seed => "SEED",
            Kind::Curve => "CURVE",
            Kind::Arch => return ARCHS.map(arch_key).join("|"),
            Kind::Workload => return WORKLOADS.map(workload_key).join("|"),
            Kind::Weight => "cycles|nj",
            Kind::Tier => "fast|reference|alternate",
            Kind::Config => "baseline|baseline+ic|isa-ext|isa-ext+ic|monte|billie",
            Kind::Case => "random:N|edge:NAME|negative:N",
        }
        .into()
    }
}

/// One option row. Rows sharing a name belong to disjoint subcommands.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Opt {
    subs: &'static [Sub],
    name: &'static str,
    kind: Kind,
    /// Every occurrence counts; otherwise the last one wins.
    repeat: bool,
    /// Used when the option is absent, in the option's own syntax; a
    /// repeatable option lists its values separated by spaces.
    default: Option<&'static str>,
    help: &'static str,
}

macro_rules! table {
    (@subs *) => { &Sub::ALL };
    (@subs [$($sub:ident)*]) => { &[$(Sub::$sub),*] };
    (@default -) => { None };
    (@default $d:literal) => { Some($d) };
    ($($subs:tt $name:literal $kind:ident $n:tt $default:tt $help:literal;)*) => {
        const TABLE: &[Opt] = &[$(Opt {
            subs: table!(@subs $subs),
            name: $name,
            kind: Kind::$kind,
            repeat: stringify!($n).as_bytes()[0] == b'*',
            default: table!(@default $default),
            help: $help,
        }),*];
    };
}

// Columns: subcommands (`*` = all), name, kind, `1` or `*` (repeatable),
// default (`-` = none), help line.
table! {
    [Run] "--list" Flag 1 - "list experiment ids and exit";
    [Run Explore Bench] "--threads" Count 1 - "batch fan-out width; default: ULE_SWEEP_THREADS \
        when it is a positive integer, else the available parallelism";
    [Run] "--format" Format 1 "text" "text tables, or flat JSONL metrics records on stdout";
    [Run] "--metrics-out" Path 1 - "write one JSONL metrics record per design point plus an \
        engine summary (memo hits, per-job wall-clock)";
    [Run] "--profile" Flag 1 - "attach the per-routine cycle profiler to every simulation \
        (adds a `profile` field to metrics records)";
    [Run] "--flame" Path 1 - "with --profile: write the call graph of every profiled design \
        point as collapsed flamegraph stacks, label-prefixed, in one file";
    [Run Profile] "--flame-weight" Weight 1 "cycles" "stack weight: cycles, or nj \
        (attributed energy, nanojoules)";
    [Run] "--trace-events" Path 1 - "write Chrome trace-event JSON: the harness (SweepEngine \
        batches, jobs, sim runs) plus, with --profile, one process per design point";
    [Verify Serve Explore] "--seed" Seed 1 "0xULE" "seed: hex, decimal, or any token \
        (hashed deterministically)";
    [Verify] "--iters" Count 1 "16" "random cases per curve before cost tiering (big fields \
        run fewer)";
    [Verify] "--curve" Curve * - "restrict to this curve; default: all ten ECDSA curves plus \
        X25519 and X448";
    [Verify] "--config" Config 1 - "restrict to one configuration (monte and billie both name \
        the family coprocessor)";
    [Verify] "--case" Case 1 - "replay one case";
    [Verify] "--tier" Tier 1 "alternate" "engine tier the cases run on; alternate splits the \
        corpus across both";
    [Verify] "--no-edge" Flag 1 - "skip the adversarial edge corpus";
    [Verify] "--no-negative" Flag 1 - "skip bit-flip negative tests";
    [Verify] "--inject-fault" Flag 1 - "corrupt one RAM limb in the first simulated \
        verification (self-test: the campaign must catch and shrink it)";
    [Verify] "--batch-oracle" Flag 1 - "host-only differential oracle instead: random batches \
        through verify_batch_prehashed vs per-signature verify_prehashed";
    [Verify] "--batch-cases" Count 1 "24" "oracle batches per curve";
    [Verify] "--max-batch" Count 1 "20" "largest random oracle batch size";
    [Verify] "--batch-case" Index 1 - "replay exactly one oracle batch (reproducer)";
    [Diff] "--max-cycles-pct" Percent 1 "0" "allowed relative cycle drift, percent";
    [Diff] "--max-energy-pct" Percent 1 "0" "allowed relative energy drift, percent";
    [Check] "--flame" Path 1 - "validate collapsed flamegraph stacks";
    [Check] "--trace-events" Path 1 - "validate Chrome trace-event JSON";
    [Check] "--journal" Path 1 - "validate an explorer journal";
    [Check] "--serve" Path 1 - "validate serve_point/serve_summary/serve_frontier records";
    [Check] "--serve-min-gain" Gain 1 - "with --serve: fail below this batching gain (host ops)";
    [Check] "--sla" Path 1 - "validate serve_latency/sla_summary records";
    [Check] "--max-p99" Count 1 - "with --sla: fail when a p99 latency exceeds N cycles";
    [Profile] "--curve" Curve 1 "P-256" "curve";
    [Overhead] "--curve" Curve 1 "K-163" "curve";
    [Profile] "--arch" Arch 1 "isa_ext" "architecture";
    [Overhead] "--arch" Arch 1 "baseline" "architecture";
    [Profile Overhead] "--workload" Workload 1 "sign" "workload (xdh and handshake need an \
        RFC 7748 curve: X25519 or X448)";
    [Profile] "--tier" Tier 1 "reference" "reference: exact profiler with full call graph; \
        fast: sampled profiler on the fast engine (exact totals, approximate split)";
    [Profile] "--top" Index 1 "20" "table rows before aggregation (0 = all)";
    [Profile] "--flame" Path 1 - "also write collapsed flamegraph stacks (reference tier)";
    [Profile] "--trace-events" Path 1 - "also write Chrome trace-event JSON (reference tier)";
    [Overhead] "--runs" Count 1 "3" "timed runs per mode, best-of";
    [Overhead] "--max-pct" Percent 1 "5" "failure threshold, percent";
    [Serve] "--curve" Curve * "P-256 K-163" "curve to serve (ECDSA curves only)";
    [Serve] "--batch-size" Count * "1 4 16" "verification batch size; the batch-size-1 \
        reference is always included";
    [Serve] "--shards" Count 1 "4" "worker shards, one keypair each";
    [Serve] "--requests" Count 1 "256" "total requests across shards";
    [Serve] "--arch" Arch 1 "isa_ext" "arch whose simulated verify cost anchors the energy \
        projection (the serve_frontier spans the family's archs)";
    [Serve] "--arrival-rate" Rate 1 "0.25" "offered load in units of single-verify service \
        time; above the shard count the fleet saturates";
    [Serve] "--metrics-out" Path 1 - "write serve_point/serve_summary/serve_frontier JSONL; \
        a gain line is appended to BENCH_history.jsonl next to it either way";
    [Serve] "--sla-out" Path 1 - "write serve_latency/sla_summary JSONL (virtual time, \
        byte-identical across reruns)";
    [Serve] "--trace-events" Path 1 - "write the virtual request timeline as Chrome \
        trace-event JSON: a process per (curve, batch size), a track per shard";
    [Explore] "--space" Text 1 - "built-in space (billie-digit, monte-gating, handshake, \
        smoke) or a JSON space file (DESIGN.md section 12)";
    [Explore] "--out" Path 1 - "resumable JSONL journal; an existing journal is resumed";
    [Explore] "--report" Flag 1 - "print the frontier table of the journal at --out (no \
        exploration)";
    [Bench] "--out" Path 1 "BENCH_sweep.json" "sweep record to write; BENCH_history.jsonl \
        next to it gets one line appended";
    * "--trace" Path 1 - "stream structured trace events (JSONL) to PATH";
    * "--flight-dump" Path 1 "flight_dump.jsonl" "where the always-on flight recorder dumps \
        the last events per thread on a panic or a cycle-budget abort; check validates it";
    * "--progress" Flag 1 - "print live heartbeat lines to stderr (default: iff stderr is a \
        terminal)";
    * "--no-progress" Flag 1 - "force the heartbeat off";
    * "--help" Flag 1 - "show this help (also -h)";
}

macro_rules! subs {
    ($($sub:ident $title:literal $synopsis:literal $about:literal;)*) => {
        /// A subcommand: the experiment-id run, each named `repro`
        /// subcommand, and the `bench` binary.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Sub { $(#[doc = $about] $sub),* }

        impl Sub {
            /// Every subcommand; `bench` last.
            pub const ALL: [Sub; 10] = [$(Sub::$sub),*];

            /// The command as typed, its arguments, and what it does.
            fn meta(self) -> (&'static str, &'static str, &'static str) {
                match self { $(Sub::$sub => ($title, $synopsis, $about)),* }
            }
        }
    };
}

subs! {
    Run "repro" "[options] <experiment-id>... | all" "Regenerates the paper's tables and figures.";
    Verify "repro verify" "[options]" "Differential verification: simulated runs cross-checked \
        against the host reference. Exit 1 on a divergence, 2 if no case matches.";
    Diff "repro diff" "OLD.jsonl NEW.jsonl [options]" "Compares two --metrics-out files on \
        simulated cycles and energy. Exit 0 no drift, 1 drift or removed points, 2 error.";
    Check "repro check" "[options]" "Validates exported observability files the way a \
        consumer would. Exit 1 if any is invalid.";
    Profile "repro profile" "[options]" "Simulates one design point with per-routine energy \
        attribution.";
    Overhead "repro overhead" "[options]" "Sampled-profiler wall-clock A/B against a \
        never-firing ballast sampler. Exit 1 above --max-pct.";
    Serve "repro serve" "[options]" "Batched signing/verification service model. Exit 1 if a \
        batch verdict disagrees with single verification.";
    Explore "repro explore" "[options]" "Design-space exploration with Pareto extraction.";
    SelftestFlight "repro selftest-flight" "[options]" "Panics on purpose: the armed flight \
        recorder must dump first (CI self-test).";
    Bench "bench" "[options] [<experiment-id>... | all]" "Times a sweep and writes \
        BENCH_sweep.json (default: all experiments).";
}

impl Sub {
    /// The command as typed, e.g. `repro verify`.
    pub fn title(self) -> &'static str {
        self.meta().0
    }

    /// The rows this subcommand takes.
    fn rows(self) -> Vec<Opt> {
        TABLE
            .iter()
            .filter(|o| o.subs.contains(&self))
            .copied()
            .collect()
    }
}

/// A command line that does not parse. `main` prints it and exits 2.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// An option no subcommand takes, or an argument the subcommand
    /// does not take (for the experiment run: an unknown id).
    Unknown { arg: String, sub: Sub },
    /// An option other subcommands take, but not this one.
    NotFor { flag: &'static str, sub: Sub },
    /// A value or a required argument is absent.
    Missing { what: String, sub: Sub },
    /// A value its option does not accept.
    Malformed {
        flag: &'static str,
        value: String,
        expected: String,
        sub: Sub,
    },
    /// Options that parse alone but not together.
    Conflict { message: String, sub: Sub },
}

impl CliError {
    /// The subcommand the error is about.
    pub fn sub(&self) -> Sub {
        match self {
            CliError::Unknown { sub, .. }
            | CliError::NotFor { sub, .. }
            | CliError::Missing { sub, .. }
            | CliError::Malformed { sub, .. }
            | CliError::Conflict { sub, .. } => *sub,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.sub().title())?;
        match self {
            CliError::Unknown {
                arg,
                sub: Sub::Run | Sub::Bench,
            } if !arg.starts_with('-') => {
                let ids: Vec<&str> = ExperimentId::VARIANTS.iter().map(|id| id.name()).collect();
                write!(
                    f,
                    "unknown experiment id {arg:?}; valid ids: {} all",
                    ids.join(" ")
                )
            }
            CliError::Unknown { arg, .. } if arg.starts_with('-') => {
                write!(f, "unknown option {arg:?}")
            }
            CliError::Unknown { arg, .. } => write!(f, "unexpected argument {arg:?}"),
            CliError::NotFor { flag, .. } => write!(f, "{flag} is not an option of this command"),
            CliError::Missing { what, .. } => write!(f, "missing {what}"),
            CliError::Malformed {
                flag,
                value,
                expected,
                ..
            } => write!(f, "{flag} expects {expected}, got {value:?}"),
            CliError::Conflict { message, .. } => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

/// The observability options every subcommand takes.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsOptions {
    /// `--trace`: stream every event to a JSONL file, chained behind
    /// the flight recorder.
    pub trace: Option<PathBuf>,
    /// `--flight-dump`: where panic and cycle-limit post-mortems go.
    pub flight_dump: PathBuf,
    /// The last of `--progress`/`--no-progress`; `None` means on iff
    /// stderr is a terminal.
    pub progress: Option<bool>,
}

impl ObsOptions {
    /// Installs the flight recorder (chaining the `--trace` sink when
    /// requested) and arms post-mortem dumping. Called once, before the
    /// first simulation.
    pub fn install(&self) -> Result<(), String> {
        let inner: Option<Box<dyn ule_obs::EventSink>> = match &self.trace {
            Some(path) => match ule_obs::JsonlFileSink::create(path) {
                Ok(sink) => Some(Box::new(sink)),
                Err(e) => return Err(format!("cannot open trace file {}: {e}", path.display())),
            },
            None => None,
        };
        ule_obs::flight::install(FLIGHT_CAPACITY, inner);
        ule_obs::flight::arm_auto_dump(self.flight_dump.clone());
        Ok(())
    }

    /// Whether to run the live progress reporter.
    pub fn progress_on(&self) -> bool {
        self.progress
            .unwrap_or_else(ule_obs::progress::stderr_is_tty)
    }
}

/// Declares the typed options of each subcommand: one struct whose
/// every field names the expression, over the parsed command line (the
/// first token), it is read from.
macro_rules! args {
    ($p:ident; $($(#[doc = $doc:literal])* $name:ident { $($field:ident: $ty:ty = $e:expr,)* })*) => {$(
        $(#[doc = $doc])*
        #[allow(missing_docs)]
        #[derive(Clone, Debug)]
        pub struct $name { $(pub $field: $ty,)* }

        impl $name {
            fn read($p: &Parsed) -> Result<Self, CliError> {
                Ok($name { $($field: $e,)* })
            }
        }
    )*};
}

args! {
    p;
    /// `repro <experiment-id>...`; `flame` only with `profile`.
    RunArgs {
        ids: Vec<ExperimentId> = p.ids()?,
        threads: Option<usize> = p.get("--threads"),
        json: bool = p.one::<String>("--format") == "json",
        metrics_out: Option<PathBuf> = p.get("--metrics-out"),
        profile: bool = p.flag("--profile"),
        flame: Option<PathBuf> = p.get("--flame"),
        flame_weight: FlameWeight = p.one("--flame-weight"),
        trace_events: Option<PathBuf> = p.get("--trace-events"),
    }
    /// `repro verify`: the campaign, or with `--batch-oracle` the oracle
    /// instead (over the campaign's seed and curves).
    VerifyArgs {
        campaign: Campaign = p.campaign(),
        oracle: Option<BatchOracleConfig> = p.flag("--batch-oracle").then(|| BatchOracleConfig {
            cases: p.one("--batch-cases"),
            max_batch: p.one("--max-batch"),
            only_case: p.get("--batch-case"),
            curves: p.campaign().curves,
            seed: p.one("--seed"),
        }),
    }
    /// `repro diff OLD NEW`
    DiffArgs {
        old: PathBuf = p.positionals[0].clone().into(),
        new: PathBuf = p.positionals[1].clone().into(),
        thresholds: DiffThresholds = DiffThresholds {
            max_cycles_frac: p.one::<f64>("--max-cycles-pct") / 100.0,
            max_energy_frac: p.one::<f64>("--max-energy-pct") / 100.0,
        },
    }
    /// `repro check`, with at least one file to check.
    CheckArgs {
        flame: Option<PathBuf> = p.get("--flame"),
        trace_events: Option<PathBuf> = p.get("--trace-events"),
        journal: Option<PathBuf> = p.get("--journal"),
        flight_dump: Option<PathBuf> = p.flag("--flight-dump").then(|| p.one("--flight-dump")),
        serve: Option<PathBuf> = p.get("--serve"),
        serve_min_gain: Option<f64> = p.get("--serve-min-gain"),
        sla: Option<PathBuf> = p.get("--sla"),
        max_p99: Option<u64> = p.get("--max-p99"),
    }
    /// `repro profile` of one valid design point; with `fast_tier` (the
    /// sampled profiler on the fast engine) there are no exports.
    ProfileArgs {
        curve: CurveId = p.one("--curve"),
        arch: Arch = p.one("--arch"),
        workload: Workload = p.one("--workload"),
        fast_tier: bool = p.one::<TierPolicy>("--tier") == TierPolicy::Fast,
        top: usize = p.one("--top"),
        flame: Option<PathBuf> = p.get("--flame"),
        flame_weight: FlameWeight = p.one("--flame-weight"),
        trace_events: Option<PathBuf> = p.get("--trace-events"),
    }
    /// `repro overhead` of one valid design point.
    OverheadArgs {
        curve: CurveId = p.one("--curve"),
        arch: Arch = p.one("--arch"),
        workload: Workload = p.one("--workload"),
        runs: usize = p.one("--runs"),
        max_pct: f64 = p.one("--max-pct"),
    }
    /// `repro serve` of ECDSA curves whose family `arch` serves; batch
    /// sizes ascend from 1 (the reference that anchors the gains).
    ServeArgs {
        curves: Vec<CurveId> = p.all("--curve"),
        batch_sizes: Vec<usize> = {
            let mut sizes: Vec<usize> = p.all("--batch-size");
            sizes.push(1);
            sizes.sort_unstable();
            sizes.dedup();
            sizes
        },
        shards: usize = p.one("--shards"),
        requests: usize = p.one("--requests"),
        seed: u64 = p.one("--seed"),
        arch: Arch = p.one("--arch"),
        arrival_rate: f64 = p.one("--arrival-rate"),
        metrics_out: Option<PathBuf> = p.get("--metrics-out"),
        sla_out: Option<PathBuf> = p.get("--sla-out"),
        trace_events: Option<PathBuf> = p.get("--trace-events"),
    }
    /// `repro explore`: `space` is set, or `report` and `out` are.
    ExploreArgs {
        space: Option<String> = p.get("--space"),
        seed: u64 = p.one("--seed"),
        out: Option<PathBuf> = p.get("--out"),
        threads: Option<usize> = p.get("--threads"),
        report: bool = p.flag("--report"),
    }
    /// `bench`; no ids means all.
    BenchArgs {
        ids: Vec<ExperimentId> = Some(p.ids()?)
            .filter(|ids| !ids.is_empty())
            .unwrap_or_else(|| ExperimentId::ALL.to_vec()),
        threads: Option<usize> = p.get("--threads"),
        out: PathBuf = p.one("--out"),
    }
}

/// What a command line asks for: help, the id list, or one subcommand
/// with its typed options.
#[allow(missing_docs)]
#[derive(Clone, Debug)]
pub enum Action {
    Help,
    List,
    Run(RunArgs),
    Verify(VerifyArgs),
    Diff(DiffArgs),
    Check(CheckArgs),
    Profile(ProfileArgs),
    Overhead(OverheadArgs),
    Serve(ServeArgs),
    Explore(ExploreArgs),
    SelftestFlight,
    Bench(BenchArgs),
}

/// A parsed command line.
#[derive(Clone, Debug)]
pub struct Command {
    /// The subcommand.
    pub sub: Sub,
    /// Observability options.
    pub obs: ObsOptions,
    /// What to do.
    pub action: Action,
}

/// The binary being parsed for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tool {
    /// `repro`: experiment ids or a named subcommand.
    Repro,
    /// `bench`: one command.
    Bench,
}

/// The row named `arg` in `rows` (`-h` is `--help`).
fn row_of(rows: impl IntoIterator<Item = Opt>, arg: &str) -> Option<Opt> {
    let name = if arg == "-h" { "--help" } else { arg };
    rows.into_iter().find(|o| o.name == name)
}

fn is_option(arg: &str) -> bool {
    arg.len() > 1 && arg.starts_with('-')
}

/// Parses the arguments after the program name. For `repro` the
/// subcommand is the first argument that is neither an option nor an
/// option's value (one name has one kind in every row, so any row
/// tells whether an option takes a value); with none it is the
/// experiment run.
pub fn parse(tool: Tool, args: &[String]) -> Result<Command, CliError> {
    let (mut sub, mut word_at) = (Sub::Bench, None);
    if tool == Tool::Repro {
        sub = Sub::Run;
        let mut i = 0;
        while i < args.len() {
            if !is_option(&args[i]) {
                let word =
                    (Sub::ALL.iter()).find(|s| s.title().strip_prefix("repro ") == Some(&args[i]));
                (sub, word_at) = word.map_or((Sub::Run, None), |&s| (s, Some(i)));
                break;
            }
            let row = row_of(TABLE.iter().copied(), &args[i]);
            i += if row.is_some_and(|o| o.kind != Kind::Flag) {
                2
            } else {
                1
            };
        }
    }
    let rows = sub.rows();
    let mut p = Parsed {
        sub,
        given: Vec::new(),
        positionals: Vec::new(),
    };
    let mut args = args.iter().enumerate().filter(|&(i, _)| Some(i) != word_at);
    while let Some((_, arg)) = args.next() {
        if !is_option(arg) {
            p.positionals.push(arg.clone());
            continue;
        }
        let Some(row) = row_of(rows.iter().copied(), arg) else {
            return Err(match row_of(TABLE.iter().copied(), arg) {
                Some(o) => CliError::NotFor { flag: o.name, sub },
                None => p.unknown(arg),
            });
        };
        let value = match row.kind {
            Kind::Flag => Value::Flag,
            kind => {
                let Some((_, raw)) = args.next() else {
                    return Err(p.missing(format!("the value of {}", row.name)));
                };
                kind.parse(raw).ok_or_else(|| CliError::Malformed {
                    flag: row.name,
                    value: raw.clone(),
                    expected: kind.metavar(),
                    sub,
                })?
            }
        };
        p.given.push((row.name, value));
    }
    let progress = p.given.iter().rev().find_map(|(name, _)| match *name {
        "--progress" => Some(true),
        "--no-progress" => Some(false),
        _ => None,
    });
    let obs = ObsOptions {
        trace: p.get("--trace"),
        flight_dump: p.one("--flight-dump"),
        progress,
    };
    let action = if p.flag("--help") {
        Action::Help
    } else {
        p.action()?
    };
    Ok(Command { sub, obs, action })
}

/// Reads one [`Value`] variant back out.
trait Pick: Sized {
    fn pick(v: Value) -> Option<Self>;
}

macro_rules! pick {
    ($($t:ty => $variant:ident),*) => {$(
        impl Pick for $t {
            fn pick(v: Value) -> Option<Self> {
                match v { Value::$variant(x) => Some(x), _ => None }
            }
        }
    )*};
}

pick!(u64 => Int, f64 => Num, PathBuf => Path, String => Text, CurveId => Curve, Arch => Arch,
    Workload => Workload, FlameWeight => Weight, TierPolicy => Tier, ConfigKind => Config,
    CaseSelector => Case);

impl Pick for usize {
    fn pick(v: Value) -> Option<Self> {
        u64::pick(v).and_then(|n| usize::try_from(n).ok())
    }
}

/// The options and positionals of one command line.
struct Parsed {
    sub: Sub,
    given: Vec<(&'static str, Value)>,
    positionals: Vec<String>,
}

impl Parsed {
    /// Every value of `name`: the given ones, else the row's default.
    fn all<T: Pick>(&self, name: &str) -> Vec<T> {
        let row = row_of(self.sub.rows(), name).expect("the subcommand has the row it reads");
        let mut values: Vec<Value> = (self.given.iter())
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
            .collect();
        if values.is_empty() {
            let defaults = row.default.unwrap_or_default().split_whitespace();
            values = defaults
                .map(|d| row.kind.parse(d).expect("defaults parse"))
                .collect();
        }
        let pick = |v| T::pick(v).expect("the row's kind matches its reader");
        values.into_iter().map(pick).collect()
    }

    fn get<T: Pick>(&self, name: &str) -> Option<T> {
        self.all(name).pop()
    }

    /// The value of an option whose row has a default.
    fn one<T: Pick>(&self, name: &str) -> T {
        self.get(name).expect("the row has a default")
    }

    fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    fn unknown(&self, arg: &str) -> CliError {
        CliError::Unknown {
            arg: arg.into(),
            sub: self.sub,
        }
    }

    fn missing(&self, what: impl Into<String>) -> CliError {
        CliError::Missing {
            what: what.into(),
            sub: self.sub,
        }
    }

    fn conflict(&self, message: impl Into<String>) -> CliError {
        CliError::Conflict {
            message: message.into(),
            sub: self.sub,
        }
    }

    fn ids(&self) -> Result<Vec<ExperimentId>, CliError> {
        let mut ids = Vec::new();
        for arg in &self.positionals {
            match arg.as_str() {
                "all" => ids.extend(ExperimentId::ALL),
                id => ids.push(id.parse().map_err(|_| self.unknown(arg))?),
            }
        }
        Ok(ids)
    }

    fn campaign(&self) -> Campaign {
        let mut campaign = Campaign::new(self.one("--seed"), self.one("--iters"));
        let curves = self.all("--curve");
        if !curves.is_empty() {
            campaign.curves = curves;
        }
        campaign.only_config = self.get("--config");
        campaign.only_case = self.get("--case");
        campaign.tier = self.one("--tier");
        campaign.edge = !self.flag("--no-edge");
        campaign.negative = !self.flag("--no-negative");
        campaign.inject_fault = self.flag("--inject-fault");
        campaign
    }

    /// The typed options, after the checks that span several options.
    fn action(&self) -> Result<Action, CliError> {
        let p = self;
        let takes_positionals = matches!(p.sub, Sub::Run | Sub::Diff | Sub::Bench);
        if let (false, Some(arg)) = (takes_positionals, p.positionals.first()) {
            return Err(p.unknown(arg));
        }
        Ok(match p.sub {
            Sub::Run if p.flag("--list") => Action::List,
            Sub::Run => {
                let args = RunArgs::read(p)?;
                if args.ids.is_empty() {
                    return Err(p.missing("an experiment id (or all, or --list)"));
                }
                if args.flame.is_some() && !args.profile {
                    return Err(p.conflict(
                        "--flame needs --profile (only profiled runs build the call graph)",
                    ));
                }
                Action::Run(args)
            }
            Sub::Verify => Action::Verify(VerifyArgs::read(p)?),
            Sub::Diff => match p.positionals.get(2) {
                Some(extra) => return Err(p.unknown(extra)),
                None if p.positionals.len() < 2 => return Err(p.missing("OLD.jsonl NEW.jsonl")),
                None => Action::Diff(DiffArgs::read(p)?),
            },
            Sub::Check => {
                let a = CheckArgs::read(p)?;
                let files = [
                    &a.flame,
                    &a.trace_events,
                    &a.journal,
                    &a.flight_dump,
                    &a.serve,
                    &a.sla,
                ];
                if files.iter().all(|f| f.is_none()) {
                    return Err(p.missing(
                        "a file to check (--flame, --trace-events, --journal, \
                        --flight-dump, --serve or --sla)",
                    ));
                }
                Action::Check(a)
            }
            Sub::Profile => {
                let args = ProfileArgs::read(p)?;
                if p.one::<TierPolicy>("--tier") == TierPolicy::Alternate {
                    return Err(p.conflict("profile runs one tier: --tier fast or reference"));
                }
                if args.fast_tier && (args.flame.is_some() || args.trace_events.is_some()) {
                    return Err(p.conflict(
                        "--flame/--trace-events need the call graph, which \
                        the sampled profiler does not build; drop --tier fast",
                    ));
                }
                p.check_point(args.curve, args.arch, args.workload)?;
                Action::Profile(args)
            }
            Sub::Overhead => {
                let args = OverheadArgs::read(p)?;
                p.check_point(args.curve, args.arch, args.workload)?;
                Action::Overhead(args)
            }
            Sub::Serve => {
                let args = ServeArgs::read(p)?;
                for &curve in &args.curves {
                    if curve.is_mont() {
                        return Err(p.conflict(format!(
                            "serve is an ECDSA service model; {} \
                            carries no signatures",
                            curve.name()
                        )));
                    }
                    if !ule_core::space::arch_supports_curve(args.arch, curve) {
                        return Err(p.conflict(format!(
                            "arch {} is not valid on {} (family \
                            accelerator mismatch)",
                            arch_key(args.arch),
                            curve.name()
                        )));
                    }
                }
                Action::Serve(args)
            }
            Sub::Explore => {
                let args = ExploreArgs::read(p)?;
                if args.report && args.out.is_none() {
                    return Err(p.missing("--out, the journal --report renders"));
                }
                if !args.report && args.space.is_none() {
                    return Err(p.missing("--space: a built-in space or a space file"));
                }
                Action::Explore(args)
            }
            Sub::SelftestFlight => Action::SelftestFlight,
            Sub::Bench => Action::Bench(BenchArgs::read(p)?),
        })
    }

    /// Checks that `arch` runs `workload` on `curve`.
    fn check_point(&self, curve: CurveId, arch: Arch, workload: Workload) -> Result<(), CliError> {
        ule_core::validate_workload(curve, arch, workload).map_err(|e| self.conflict(e.to_string()))
    }
}

/// Help text for one subcommand, generated from its rows. For the
/// experiment run (`repro --help`) it covers every `repro` subcommand,
/// the shared rows listed once at the end.
pub fn help(sub: Sub) -> String {
    let subs = match sub {
        Sub::Run => &Sub::ALL[..Sub::ALL.len() - 1],
        _ => std::slice::from_ref(&sub),
    };
    let mut out = String::new();
    for (i, s) in subs.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "" };
        out += &format!("{lead:6} {} {}\n", s.title(), s.meta().1);
    }
    let mut shared = Vec::new();
    for &s in subs {
        out += "\n";
        push_wrapped(&mut out, &format!("{}:", s.title()), s.meta().2, 2);
        for row in s.rows() {
            if sub != Sub::Run || row.subs.len() < Sub::ALL.len() {
                push_row(&mut out, &row);
            } else if !shared.contains(&row) {
                shared.push(row);
            }
        }
    }
    if !shared.is_empty() {
        out += "\noptions every subcommand takes:\n";
        shared.iter().for_each(|row| push_row(&mut out, row));
    }
    if matches!(sub, Sub::Run | Sub::Bench) {
        let ids: Vec<&str> = ExperimentId::VARIANTS.iter().map(|id| id.name()).collect();
        out += &format!("\nids: {} all\n", ids.join(" "));
    }
    out
}

/// Appends one help row: the option and its value placeholder, then the
/// help line with its default, from column 24.
fn push_row(out: &mut String, row: &Opt) {
    let mut head = format!("  {} {}", row.name, row.kind.metavar());
    if head.len() >= 24 {
        *out += &format!("{head}\n");
        head.clear();
    }
    let repeat = if row.repeat { "; repeatable" } else { "" };
    let default = row.default.map(|d| format!(" (default {d})"));
    let text = format!("{}{repeat}{}", row.help, default.unwrap_or_default());
    push_wrapped(out, head.trim_end(), &text, 24);
}

/// Appends `head` and then `text`, word-wrapped at 80 columns, from
/// column `indent` or after `head`, whichever is later.
fn push_wrapped(out: &mut String, head: &str, text: &str, indent: usize) {
    let mut line = head.to_string();
    for word in text.split_whitespace() {
        if line.len() < indent {
            line = format!("{line:indent$}{word}");
        } else if line.len() + 1 + word.len() > 80 {
            *out += &format!("{line}\n");
            line = format!("{:indent$}{word}", "");
        } else {
            line = format!("{line} {word}");
        }
    }
    *out += &format!("{line}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_name_has_one_kind_and_every_default_parses() {
        for row in TABLE {
            for other in TABLE.iter().filter(|o| o.name == row.name) {
                assert_eq!(row.kind, other.kind, "{}", row.name);
            }
            for d in row.default.unwrap_or_default().split_whitespace() {
                assert!(row.kind.parse(d).is_some(), "{} default {d:?}", row.name);
            }
            assert!(row.repeat || !row.default.unwrap_or_default().contains(' '));
        }
        for sub in Sub::ALL {
            let mut names: Vec<&str> = sub.rows().iter().map(|o| o.name).collect();
            names.sort_unstable();
            assert!(names.windows(2).all(|w| w[0] != w[1]), "{}", sub.title());
            for name in ["--trace", "--flight-dump", "--progress", "--no-progress"] {
                assert!(names.contains(&name), "{} {name}", sub.title());
            }
        }
    }

    #[test]
    fn value_parsers() {
        let ok = |k: Kind, s: &str| k.parse(s).is_some();
        assert!(ok(Kind::Count, "3") && !ok(Kind::Count, "0") && !ok(Kind::Count, "-1"));
        assert!(ok(Kind::Index, "0") && ok(Kind::Percent, "0") && !ok(Kind::Percent, "-1"));
        assert!(!ok(Kind::Percent, "inf") && !ok(Kind::Rate, "0") && !ok(Kind::Gain, "0.5"));
        assert!(ok(Kind::Arch, "isa-ext") && ok(Kind::Arch, "isa_ext") && !ok(Kind::Arch, "Monte"));
        assert!(ok(Kind::Weight, "nj") && ok(Kind::Format, "json") && !ok(Kind::Format, "xml"));
        for w in WORKLOADS {
            let dashed = workload_key(w).replace('_', "-");
            assert!(matches!(Kind::Workload.parse(&dashed), Some(Value::Workload(x)) if x == w));
        }
        for a in ARCHS {
            assert!(matches!(Kind::Arch.parse(arch_key(a)), Some(Value::Arch(x)) if x == a));
        }
    }

    #[test]
    fn help_lists_exactly_the_rows() {
        for sub in Sub::ALL {
            let mut listed: Vec<String> = (help(sub).lines())
                .filter_map(|l| l.strip_prefix("  --")?.split_whitespace().next())
                .map(|name| format!("--{name}"))
                .collect();
            let subs = match sub {
                Sub::Run => &Sub::ALL[..Sub::ALL.len() - 1],
                _ => std::slice::from_ref(&sub),
            };
            let mut rows: Vec<String> = subs
                .iter()
                .flat_map(|s| s.rows())
                .map(|o| o.name.to_string())
                .collect();
            for names in [&mut listed, &mut rows] {
                names.sort();
                names.dedup();
            }
            assert_eq!(listed, rows, "{}", sub.title());
        }
        for name in ule_dse::spaces::BUILTIN_NAMES {
            assert!(row_of(Sub::Explore.rows(), "--space").is_some_and(|o| o.help.contains(name)));
        }
    }
}
