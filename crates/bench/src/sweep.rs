//! The thread-safe sweep engine: every (sim point, workload) pair is
//! simulated at most once per engine, concurrently callable from any
//! number of threads, with a scoped-thread fan-out for batch sweeps.
//!
//! This replaced the old single-threaded `Rc`-based `Runner` (since
//! deleted). The
//! design-space evaluation is an embarrassingly parallel batch workload
//! — 6 configurations × 10 curves × icache/digit/front-end ablations,
//! every point independent of every other — so the memo cache is a
//! sharded `Mutex<HashMap<ConfigKey, _>>` holding `Arc<RunReport>`s,
//! with per-key *in-flight de-duplication*: two threads asking for the
//! same point never simulate it twice; the second blocks until the
//! first publishes.
//!
//! The memo is keyed by [`sim_point`]: configurations that differ only
//! in energy-only knobs (gating, §7.8 multiplier variant, SRAM register
//! file) share one simulation, and each request gets that simulation
//! repriced for its own configuration ([`RunReport::priced_for`]).
//!
//! Determinism: a simulation is a pure function of its
//! `(sim point, Workload)` key and pricing a pure function of the
//! report and configuration, so every energy/cycle number is
//! independent of thread count and submission order — parallel sweeps
//! are bit-for-bit equal to serial ones.
//!
//! ```no_run
//! use ule_bench::SweepEngine;
//! use ule_core::{SystemConfig, Workload};
//! use ule_curves::params::CurveId;
//! use ule_swlib::builder::Arch;
//!
//! let engine = SweepEngine::new();
//! let jobs: Vec<_> = CurveId::PRIMES
//!     .iter()
//!     .map(|&c| (SystemConfig::new(c, Arch::Baseline), Workload::SignVerify))
//!     .collect();
//! for report in engine.run_batch(&jobs) {
//!     println!("{:.1} uJ", report.energy_uj());
//! }
//! ```

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use ule_core::space::sim_point;
use ule_core::{MultVariant, RunOptions, RunReport, System, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_monte::MonteConfig;
use ule_pete::icache::CacheConfig;
use ule_swlib::builder::Arch;

/// One design point plus the workload to run on it — a batch job.
pub type Job = (SystemConfig, Workload);

/// Typed key: one (configuration, workload) pair.
///
/// `Hash`/`Eq` are derived straight from [`SystemConfig`] and
/// [`Workload`], so every knob participates — two keys are equal
/// exactly when the requested points are identical. The engine's memo
/// uses the key of a request's [`sim_point`], so requests that differ
/// only in energy-only knobs share one simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConfigKey {
    /// The design point.
    pub config: SystemConfig,
    /// The workload run on it.
    pub workload: Workload,
}

impl ConfigKey {
    /// Key for one (configuration, workload) pair.
    pub fn new(config: SystemConfig, workload: Workload) -> Self {
        ConfigKey { config, workload }
    }

    /// Compact human/machine label, e.g.
    /// `P-192/monte/sign_verify` with non-default knobs appended
    /// (`ic1024p`, `d4`, …) — used by trace events and the engine
    /// summary of `--metrics-out`.
    pub fn label(&self) -> String {
        let c = &self.config;
        let mut s = format!(
            "{}/{}/{}",
            c.curve.name(),
            ule_core::metrics::arch_key(c.arch),
            ule_core::metrics::workload_key(self.workload),
        );
        if let Some(ic) = c.icache {
            s.push_str(&format!(
                "/ic{}{}{}",
                ic.size_bytes,
                if ic.prefetch { "p" } else { "" },
                if ic.ideal { "i" } else { "" }
            ));
        }
        if !c.monte.double_buffer {
            s.push_str("/nodb");
        }
        if !c.monte.forwarding {
            s.push_str("/nofwd");
        }
        if c.billie_digit != 3 {
            s.push_str(&format!("/d{}", c.billie_digit));
        }
        if c.mult_variant != MultVariant::Karatsuba {
            s.push_str(&format!("/{:?}", c.mult_variant));
        }
        if c.gating != ule_energy::report::Gating::None {
            s.push_str(&format!("/{:?}", c.gating));
        }
        if c.billie_sram_rf {
            s.push_str("/sramrf");
        }
        s
    }

    fn shard(&self) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

const SHARDS: usize = 16;

/// State of one in-flight simulation, shared between the computing
/// thread and any waiters.
struct InFlight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Running,
    Ready(Arc<RunReport>),
    /// The computing thread panicked (e.g. a simulated signature failed
    /// host verification). Waiters propagate the panic instead of
    /// hanging forever.
    Poisoned,
}

impl InFlight {
    fn new() -> Arc<Self> {
        Arc::new(InFlight {
            state: Mutex::new(FlightState::Running),
            done: Condvar::new(),
        })
    }

    fn wait(&self) -> Arc<RunReport> {
        let mut st = lock(&self.state);
        loop {
            match &*st {
                FlightState::Running => st = self.done.wait(st).unwrap_or_else(|e| e.into_inner()),
                FlightState::Ready(r) => return r.clone(),
                FlightState::Poisoned => {
                    panic!("simulation of this design point panicked in another thread")
                }
            }
        }
    }

    fn publish(&self, state: FlightState) {
        *lock(&self.state) = state;
        self.done.notify_all();
    }
}

enum Slot {
    InFlight(Arc<InFlight>),
    Done(Arc<RunReport>),
}

/// Locks a mutex, ignoring poisoning: shard maps stay structurally
/// valid across a payload panic, and in-flight poisoning is handled
/// explicitly via [`FlightState::Poisoned`].
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The thread-safe memoizing sweep engine.
///
/// Cheap to share: every method takes `&self`, so one engine can serve
/// a whole process (wrap it in an `Arc` or hand out plain references
/// from a scope). See the [module docs](self) for the caching and
/// determinism contract.
pub struct SweepEngine {
    /// Sharded report memo, keyed by sim point — `SHARDS` independent
    /// locks so unrelated points never contend.
    shards: Vec<Mutex<HashMap<ConfigKey, Slot>>>,
    /// Built systems by sim point, shared across the workloads and
    /// overlays of one simulated configuration (`System::run` takes
    /// `&self`, so concurrent runs share one program image).
    systems: Mutex<HashMap<SystemConfig, Arc<System>>>,
    threads: usize,
    simulations: AtomicU64,
    requests: AtomicU64,
    memo_hits: AtomicU64,
    inflight_waits: AtomicU64,
    /// Engine construction time — the zero point of job-span starts.
    epoch: Instant,
    /// One span per cold simulation, in cold-run completion order
    /// (memo hits and reprices don't append).
    spans: Mutex<Vec<JobSpan>>,
}

/// Wall-clock span of one cold simulation, relative to the engine's
/// construction — the harness-level track of the merged trace export.
#[derive(Clone, Debug)]
pub struct JobSpan {
    /// The request that triggered the simulation (the simulated point
    /// is its [`sim_point`]).
    pub key: ConfigKey,
    /// Start offset from engine construction.
    pub start: Duration,
    /// Simulation wall-clock.
    pub wall: Duration,
    /// OS thread that ran the simulation (worker threads are named).
    pub thread: String,
}

/// A snapshot of the engine's request/memoization counters — the
/// `engine_summary` record of `--metrics-out`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total `run` calls (batch jobs included).
    pub requests: u64,
    /// Requests answered from the finished-report memo, including
    /// requests repriced from another overlay's simulation.
    pub memo_hits: u64,
    /// Requests that blocked on another thread's in-flight simulation.
    pub inflight_waits: u64,
    /// Cold simulations actually executed.
    pub simulations: u64,
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

impl SweepEngine {
    /// Fresh engine sized from `std::thread::available_parallelism`,
    /// overridable with the `ULE_SWEEP_THREADS` environment variable
    /// (or [`SweepEngine::with_threads`]).
    pub fn new() -> Self {
        let default_threads = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let threads = match std::env::var("ULE_SWEEP_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    // Previously this fell back silently, making a typo'd
                    // override indistinguishable from a working one.
                    ule_obs::obs_warn_once!(
                        "ULE_SWEEP_THREADS must be a positive integer; \
                         falling back to available parallelism",
                        value = v.as_str(),
                    );
                    default_threads()
                }
            },
            Err(_) => default_threads(),
        };
        SweepEngine {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            systems: Mutex::new(HashMap::new()),
            threads,
            simulations: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Overrides the batch fan-out width (`n` is clamped to ≥ 1).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// The batch fan-out width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of cold simulations executed so far (memo misses). Memo
    /// and in-flight hits — reprices included — don't count: the
    /// difference between this and the number of requests is what the
    /// cache saved.
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Snapshot of the request/memoization counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.requests.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            inflight_waits: self.inflight_waits.load(Ordering::Relaxed),
            simulations: self.simulations.load(Ordering::Relaxed),
        }
    }

    /// Wall-clock of every cold simulation so far, `(key, duration)`,
    /// in cold-run completion order, keyed by the triggering request.
    /// Memo/in-flight hits don't appear — a sim point occurs at most
    /// once.
    pub fn job_timings(&self) -> Vec<(ConfigKey, Duration)> {
        lock(&self.spans).iter().map(|s| (s.key, s.wall)).collect()
    }

    /// Full spans of every cold simulation so far (start offset from
    /// engine construction, duration, worker thread), in cold-run
    /// completion order — the harness track of the merged trace export.
    pub fn job_spans(&self) -> Vec<JobSpan> {
        lock(&self.spans).clone()
    }

    /// The shared built system for one sim point.
    fn system(&self, config: SystemConfig) -> Arc<System> {
        if let Some(s) = lock(&self.systems).get(&config) {
            return s.clone();
        }
        // Built outside the lock: suite codegen is much cheaper than a
        // simulation, so a racing duplicate build is preferable to
        // serializing every build behind one lock. First insert wins.
        let sys = Arc::new(System::new(config));
        lock(&self.systems).entry(config).or_insert(sys).clone()
    }

    /// Runs (or recalls) one workload on one configuration.
    ///
    /// At most one call per (sim point, workload) simulates; the rest
    /// reuse its report. Concurrent calls with the same sim-point
    /// configuration return the *same* `Arc<RunReport>`; a request that
    /// differs in energy-only knobs gets that report repriced.
    pub fn run(&self, config: SystemConfig, workload: Workload) -> Arc<RunReport> {
        let key = ConfigKey::new(config, workload);
        let sim = ConfigKey::new(sim_point(config), workload);
        self.requests.fetch_add(1, Ordering::Relaxed);
        // Progress hooks are process-global no-ops unless the CLI
        // started a reporter; token 0 makes `job_done` a no-op too.
        let progress = ule_obs::progress::job_started(&key.label());
        let shard = &self.shards[sim.shard()];
        let flight = {
            let mut map = lock(shard);
            match map.get(&sim) {
                Some(Slot::Done(r)) => {
                    let r = r.clone();
                    drop(map);
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                    ule_obs::obs_event!("sweep.memo_hit", job = key.label());
                    ule_obs::progress::memo_hit();
                    ule_obs::progress::job_done(progress);
                    return priced(config, r);
                }
                Some(Slot::InFlight(f)) => {
                    let f = f.clone();
                    drop(map);
                    self.inflight_waits.fetch_add(1, Ordering::Relaxed);
                    ule_obs::obs_event!("sweep.inflight_wait", job = key.label());
                    let report = f.wait();
                    ule_obs::progress::job_done(progress);
                    return priced(config, report);
                }
                None => {
                    let f = InFlight::new();
                    map.insert(sim, Slot::InFlight(f.clone()));
                    f
                }
            }
        };
        // We own the simulation. If it panics (a simulated run that
        // fails host verification does), unpoison the slot so waiters
        // and retries see the failure rather than deadlocking.
        let mut guard = FlightGuard {
            engine: self,
            key: sim,
            flight: &flight,
            armed: true,
        };
        let started = Instant::now();
        let sys = self.system(sim.config);
        let report = Arc::new(sys.run_with(RunOptions::new(workload)));
        let wall = started.elapsed();
        self.simulations.fetch_add(1, Ordering::Relaxed);
        lock(&self.spans).push(JobSpan {
            key,
            start: started.duration_since(self.epoch),
            wall,
            thread: std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("{:?}", std::thread::current().id())),
        });
        ule_obs::obs_event!(
            "sweep.job",
            job = key.label(),
            wall_us = wall.as_micros() as u64,
            cycles = report.cycles,
        );
        guard.armed = false; // infallible from here on
        lock(shard).insert(sim, Slot::Done(report.clone()));
        flight.publish(FlightState::Ready(report.clone()));
        ule_obs::progress::job_done(progress);
        priced(config, report)
    }

    /// Fans `jobs` out across a scoped thread pool and returns their
    /// reports in submission order.
    ///
    /// Pool width is [`SweepEngine::threads`], capped at the job count.
    /// Duplicate jobs (and jobs already cached) are de-duplicated by the
    /// memo, so submitting the union of several experiments' points is
    /// cheap. Results are identical to calling [`SweepEngine::run`]
    /// serially — thread count never changes a number.
    pub fn run_batch(&self, jobs: &[Job]) -> Vec<Arc<RunReport>> {
        let workers = self.threads.min(jobs.len()).max(1);
        let mut batch_span = ule_obs::span("sweep.batch");
        batch_span
            .field("jobs", jobs.len())
            .field("workers", workers);
        ule_obs::progress::add_total(jobs.len() as u64);
        let mut results: Vec<Option<Arc<RunReport>>> = vec![None; jobs.len()];
        if workers == 1 {
            for (slot, &(config, workload)) in results.iter_mut().zip(jobs) {
                *slot = Some(self.run(config, workload));
            }
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<&mut Option<Arc<RunReport>>>> =
                results.iter_mut().map(Mutex::new).collect();
            let worker_loop = |worker: usize| {
                let spawned = Instant::now();
                let mut busy = Duration::ZERO;
                let mut processed = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(config, workload)) = jobs.get(i) else {
                        break;
                    };
                    let t0 = Instant::now();
                    let report = self.run(config, workload);
                    busy += t0.elapsed();
                    processed += 1;
                    **lock(&slots[i]) = Some(report);
                }
                // Per-thread utilization: busy/alive ≈ 1 means
                // the pool width was the bottleneck, not memo
                // contention or in-flight waits.
                ule_obs::obs_event!(
                    "sweep.worker",
                    worker = worker,
                    jobs = processed,
                    busy_us = busy.as_micros() as u64,
                    alive_us = spawned.elapsed().as_micros() as u64,
                );
            };
            std::thread::scope(|scope| {
                let worker_loop = &worker_loop;
                let mut spawned = 0usize;
                for worker in 0..workers {
                    // A spawn failure (thread limit, resource exhaustion)
                    // degrades the pool instead of panicking: already
                    // spawned workers — or, with none, the caller thread
                    // itself — drain the same atomic job queue, so every
                    // slot is still filled and results are unchanged.
                    let spawn = if ule_testkit::threads::spawn_blocked() {
                        Err(std::io::Error::other("spawn blocked by test shim"))
                    } else {
                        std::thread::Builder::new()
                            .name(format!("sweep-{worker}"))
                            .spawn_scoped(scope, move || worker_loop(worker))
                            .map(|_| ())
                    };
                    match spawn {
                        Ok(()) => spawned += 1,
                        Err(err) => {
                            ule_obs::obs_warn_once!(
                                "sweep worker spawn failed; continuing with fewer workers",
                                requested = workers,
                                spawned = spawned,
                                error = err.to_string(),
                            );
                            break;
                        }
                    }
                }
                if spawned == 0 {
                    worker_loop(0);
                }
            });
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch slot filled"))
            .collect()
    }

    // ---- The standard points of the paper's evaluation --------------

    /// Sign+Verify on the standard configuration of (curve, arch).
    pub fn sv(&self, curve: CurveId, arch: Arch) -> Arc<RunReport> {
        self.run(SystemConfig::new(curve, arch), Workload::SignVerify)
    }

    /// Sign+Verify with an instruction cache.
    pub fn sv_cached(&self, curve: CurveId, arch: Arch, cache: CacheConfig) -> Arc<RunReport> {
        self.run(
            SystemConfig::new(curve, arch).with_icache(cache),
            Workload::SignVerify,
        )
    }

    /// Monte with explicit front-end knobs.
    pub fn sv_monte(&self, curve: CurveId, monte: MonteConfig) -> Arc<RunReport> {
        self.run(
            SystemConfig::new(curve, Arch::Monte).with_monte(monte),
            Workload::SignVerify,
        )
    }

    /// Billie scalar multiplication with an explicit digit width.
    pub fn kg_billie(&self, curve: CurveId, digit: usize) -> Arc<RunReport> {
        self.run(
            SystemConfig::new(curve, Arch::Billie).with_billie_digit(digit),
            Workload::ScalarMul,
        )
    }
}

/// `report` — simulated at `config`'s sim point — as `config`'s report:
/// the cached `Arc` itself when `config` is the sim point, otherwise a
/// reprice under `config`'s energy-only knobs.
fn priced(config: SystemConfig, report: Arc<RunReport>) -> Arc<RunReport> {
    if config == sim_point(config) {
        report
    } else {
        Arc::new(report.priced_for(&config))
    }
}

/// Drop guard that marks an in-flight slot poisoned if the simulation
/// unwinds, so waiters panic instead of deadlocking and later calls
/// retry the point.
struct FlightGuard<'a> {
    engine: &'a SweepEngine,
    key: ConfigKey,
    flight: &'a Arc<InFlight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            lock(&self.engine.shards[self.key.shard()]).remove(&self.key);
            self.flight.publish(FlightState::Poisoned);
        }
    }
}
