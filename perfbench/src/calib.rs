//! Host-speed calibration.
//!
//! The benchmark shares its host with other work, and the speed the
//! host gives one thread drifts by tens of percent from one minute to
//! the next. So while a pass runs, the benchmark times a fixed
//! calibration loop of its own between operations, and scales the
//! pass's host times to the speed that loop has on the reference host
//! ([`REF_S`]). Drift that slows the workload slows the loop
//! too, and cancels. The loop is the benchmark's own code: a change to
//! the program under test cannot move it. Calibration time is kept out
//! of every reported time, and the raw seconds are printed beside the
//! scaled ones.
//!
//! One calibration chunk times three small loops, each sensitive to a
//! different kind of contention: a random walk over a 1 MiB table
//! (shared caches), a multi-word multiply chain (execution units, as a
//! busy sibling hyperthread takes them), and small-vector allocation
//! churn (the allocator). The chunk's slowness is the mean of the three
//! loops' times over their reference times. Measured on the reference
//! host, no single loop tracked every workload, but the mix cut the
//! pass-to-pass variation of the Pete fast tier, the Billie model and
//! host verification alike by two thirds.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Table words of the walk: 1 MiB.
const TABLE_WORDS: usize = 1 << 18;
const WALK_STEPS: u32 = 8_000;
const MUL_STEPS: u32 = 3_000;
const ALLOC_STEPS: u32 = 10_000;
/// Seconds each loop takes on the reference host (Intel Xeon at
/// 2.1 GHz, one thread, uncontended): walk, multiply, allocate.
const REF_S: [f64; 3] = [0.000_44, 0.000_33, 0.000_27];
/// Time between chunks while a pass runs.
const INTERVAL: Duration = Duration::from_millis(20);

struct Meter {
    table: Vec<u32>,
    state: u64,
    /// Start of the metered stretch, if one is open.
    started: Option<Instant>,
    last: Instant,
    /// Chunk seconds inside the open stretch.
    inner_s: f64,
    /// Slowness of each chunk of the open stretch, its opening chunk
    /// first.
    slow: Vec<f64>,
}

impl Meter {
    fn walk(&mut self) {
        let mask = TABLE_WORDS - 1;
        let mut x = self.state;
        let mut acc = 0u32;
        for _ in 0..WALK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = ((x as usize) ^ acc as usize) & mask;
            let v = self.table[i].wrapping_add(x as u32);
            self.table[i] = v;
            acc = if v & 1 == 0 {
                acc.wrapping_add(v >> 3)
            } else {
                acc.rotate_left(5) ^ v
            };
        }
        self.state = x;
        black_box(acc);
    }

    /// Runs one chunk: returns its seconds and its slowness.
    fn chunk(&mut self) -> (f64, f64) {
        let t0 = Instant::now();
        self.walk();
        let t1 = Instant::now();
        mul_chain();
        let t2 = Instant::now();
        alloc_churn();
        let t3 = Instant::now();
        let times = [t1 - t0, t2 - t1, t3 - t2];
        let slowness = times
            .iter()
            .zip(REF_S)
            .map(|(t, r)| t.as_secs_f64() / r)
            .sum::<f64>()
            / 3.0;
        ((t3 - t0).as_secs_f64(), slowness)
    }
}

fn mul_chain() {
    let mut a = [0x1234_5678u32; 16];
    let mut b = [0x9abc_def0u32; 16];
    for _ in 0..MUL_STEPS {
        let mut c = [0u64; 32];
        for i in 0..16 {
            for j in 0..16 {
                c[i + j] = c[i + j].wrapping_add(u64::from(a[i]) * u64::from(b[j]));
            }
        }
        for i in 0..16 {
            a[i] = (c[i] ^ (c[i + 16] >> 7)) as u32 | 1;
            b[i] = b[i].rotate_left(3) ^ a[i];
        }
        black_box(&a);
    }
}

fn alloc_churn() {
    let mut keep: Vec<Vec<u32>> = Vec::with_capacity(64);
    for i in 0..ALLOC_STEPS {
        let v: Vec<u32> = (0..8 + i % 12).map(|k| k ^ i).collect();
        let w: Vec<u32> = v.iter().map(|x| x.wrapping_mul(3)).collect();
        if keep.len() < 64 {
            keep.push(w);
        } else {
            keep[(i % 64) as usize] = w;
        }
    }
    black_box(&keep);
}

thread_local! {
    static METER: RefCell<Meter> = RefCell::new(Meter {
        table: (0..TABLE_WORDS as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect(),
        state: 0x2545_f491_4f6c_dd1d,
        started: None,
        last: Instant::now(),
        inner_s: 0.0,
        slow: Vec::new(),
    });
}

/// Host times of one metered stretch.
#[derive(Clone, Debug)]
pub struct Metered {
    /// Host seconds of the work alone (calibration excluded).
    pub raw_s: f64,
    /// Factor that scales the stretch's host times to reference speed.
    pub scale: f64,
    /// Slowness of each chunk, the closing chunk last.
    slow: Vec<f64>,
}

impl Metered {
    /// The stretch's seconds at reference speed.
    pub fn seconds(&self) -> f64 {
        self.raw_s * self.scale
    }

    /// The factor for one operation that began at `mark`: from the two
    /// chunks around it, which track contention that comes and goes
    /// within a pass.
    pub fn local_scale(&self, mark: usize) -> f64 {
        let before = self.slow[mark];
        let after = self.slow.get(mark + 1).copied().unwrap_or(before);
        2.0 / (before + after)
    }
}

/// Opens a metered stretch.
pub fn begin() {
    METER.with(|m| {
        let m = &mut *m.borrow_mut();
        let (_, slow) = m.chunk();
        m.slow = vec![slow];
        m.inner_s = 0.0;
        let now = Instant::now();
        m.started = Some(now);
        m.last = now;
    });
}

/// Between two operations of the open stretch: runs a chunk when one
/// is due.
pub fn tick() {
    METER.with(|m| {
        let m = &mut *m.borrow_mut();
        if m.started.is_some() && m.last.elapsed() >= INTERVAL {
            let (t, slow) = m.chunk();
            m.inner_s += t;
            m.slow.push(slow);
            m.last = Instant::now();
        }
    });
}

/// The latest chunk of the open stretch: an operation that starts now
/// lies between this chunk and the next.
pub fn mark() -> usize {
    METER.with(|m| m.borrow().slow.len() - 1)
}

/// Closes the stretch opened by [`begin`].
pub fn end() -> Metered {
    METER.with(|m| {
        let m = &mut *m.borrow_mut();
        let started = m.started.take().expect("calib::end after calib::begin");
        let raw_s = started.elapsed().as_secs_f64() - m.inner_s;
        let (_, slow) = m.chunk();
        m.slow.push(slow);
        let slow = std::mem::take(&mut m.slow);
        let mean = slow.iter().sum::<f64>() / slow.len() as f64;
        Metered {
            raw_s,
            scale: 1.0 / mean,
            slow,
        }
    })
}

/// Meters `f` as one stretch.
pub fn metered<R>(f: impl FnOnce() -> R) -> (Metered, R) {
    begin();
    let r = f();
    (end(), r)
}
