//! The direct-mapped instruction cache and stream-buffer prefetcher of
//! §5.3.
//!
//! Geometry follows the paper's implementation (Fig 5.5): 16-byte lines
//! (four instructions), parameterizable line count, tag + valid bit per
//! line. The prefetcher is a **single-entry stream buffer** (§5.3.3,
//! after Jouppi): on a miss the next sequential line is fetched into the
//! buffer; a miss that hits the buffer promotes the line to the cache for
//! free and starts the next prefetch.
//!
//! The model also supports the *ideal* mode used for the first-cut study
//! of §7.5 / Fig 7.11 (every access hits; only read energy is charged).

/// Cache geometry and behaviour knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes (1 KB – 8 KB in the study, Fig 7.12).
    pub size_bytes: u32,
    /// Enable the single-entry stream-buffer prefetcher.
    pub prefetch: bool,
    /// Ideal mode: never miss (Fig 7.11's best-case model).
    pub ideal: bool,
    /// Miss penalty in cycles (3 in the study: 128-bit ROM port, §7.5).
    pub miss_penalty: u32,
}

/// Why a [`CacheConfig`] does not describe a buildable cache.
///
/// Returned by [`CacheConfig::validate`] so that callers constructing
/// configurations programmatically (the `ule-dse` lattice in
/// particular) get a typed, printable error at the boundary instead of
/// a panic deep inside the I$ model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheGeometryError {
    /// Capacity is smaller than one line — the cache would have zero
    /// sets/ways.
    SmallerThanLine {
        /// The rejected capacity.
        size_bytes: u32,
    },
    /// Capacity is not a power of two, so the direct-mapped index
    /// cannot be taken from address bits.
    NotPowerOfTwo {
        /// The rejected capacity.
        size_bytes: u32,
    },
}

impl std::fmt::Display for CacheGeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CacheGeometryError::SmallerThanLine { size_bytes } => write!(
                f,
                "icache capacity {size_bytes} B is smaller than one {LINE_BYTES}-byte line"
            ),
            CacheGeometryError::NotPowerOfTwo { size_bytes } => write!(
                f,
                "icache capacity {size_bytes} B is not a power of two \
                 (the direct-mapped index needs one)"
            ),
        }
    }
}

impl std::error::Error for CacheGeometryError {}

impl CacheConfig {
    /// Checks the geometry: the capacity must hold at least one line
    /// and be a power of two (the direct-mapped index is address bits).
    pub fn validate(&self) -> Result<(), CacheGeometryError> {
        if self.size_bytes < LINE_BYTES {
            return Err(CacheGeometryError::SmallerThanLine {
                size_bytes: self.size_bytes,
            });
        }
        if !self.size_bytes.is_power_of_two() {
            return Err(CacheGeometryError::NotPowerOfTwo {
                size_bytes: self.size_bytes,
            });
        }
        Ok(())
    }
}

impl CacheConfig {
    /// The energy-optimal configuration the paper converges on: 4 KB,
    /// no prefetcher (§7.5).
    pub fn best() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024,
            prefetch: false,
            ideal: false,
            miss_penalty: DEFAULT_MISS_PENALTY,
        }
    }

    /// A real cache of the given size (16-byte lines), with or without
    /// the prefetcher.
    pub fn real(size_bytes: u32, prefetch: bool) -> Self {
        CacheConfig {
            size_bytes,
            prefetch,
            ideal: false,
            miss_penalty: DEFAULT_MISS_PENALTY,
        }
    }

    /// The ideal 4 KB model of Fig 7.11.
    pub fn ideal() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024,
            prefetch: false,
            ideal: true,
            miss_penalty: DEFAULT_MISS_PENALTY,
        }
    }

    /// Number of cache lines.
    pub fn lines(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize
    }
}

/// Miss penalty of the study's caches, in cycles (128-bit ROM port,
/// §7.5); every constructor uses it.
pub const DEFAULT_MISS_PENALTY: u32 = 3;

/// Line size in bytes (four 32-bit instructions, §5.3.1).
pub const LINE_BYTES: u32 = 16;

/// Cache event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Processor-side accesses (tag + data read each).
    pub accesses: u64,
    /// Misses that went to ROM (or were filled from the prefetch buffer).
    pub misses: u64,
    /// Misses satisfied by the prefetch buffer (no stall).
    pub prefetch_hits: u64,
    /// 128-bit line reads issued to ROM (fills + prefetches).
    pub rom_line_reads: u64,
    /// Line writes into the cache data array.
    pub fills: u64,
    /// Total stall cycles charged to the front end.
    pub stall_cycles: u64,
}

impl CacheStats {
    /// Miss rate over processor accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Adds another run's stats onto this one. Exhaustive
    /// destructuring: a new field must be accounted here (and in the
    /// metrics schema) to compile.
    pub fn accumulate(&mut self, other: &CacheStats) {
        let CacheStats {
            accesses,
            misses,
            prefetch_hits,
            rom_line_reads,
            fills,
            stall_cycles,
        } = *other;
        self.accesses += accesses;
        self.misses += misses;
        self.prefetch_hits += prefetch_hits;
        self.rom_line_reads += rom_line_reads;
        self.fills += fills;
        self.stall_cycles += stall_cycles;
    }
}

/// Outcome of one fetch, as seen by the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Extra stall cycles the front end must absorb (0 on a hit).
    pub stall: u32,
    /// 128-bit ROM line reads this access caused.
    pub rom_lines: u32,
}

/// The direct-mapped instruction cache with optional stream buffer.
#[derive(Clone, Debug)]
pub struct ICache {
    config: CacheConfig,
    /// Tag per line, `None` when invalid (reset state, §5.3.2).
    tags: Vec<Option<u32>>,
    /// Prefetch buffer: line address held, if any.
    prefetch_line: Option<u32>,
    stats: CacheStats,
}

impl ICache {
    /// Builds an invalidated cache.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects the geometry — call
    /// it first when the configuration is user- or search-supplied.
    pub fn new(config: CacheConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid icache geometry: {e}");
        }
        ICache {
            config,
            tags: vec![None; config.lines()],
            prefetch_line: None,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// One instruction fetch at `addr`; updates state and counters and
    /// returns the stall/traffic outcome.
    pub fn access(&mut self, addr: u32) -> FetchOutcome {
        self.stats.accesses += 1;
        if self.config.ideal {
            return FetchOutcome {
                stall: 0,
                rom_lines: 0,
            };
        }
        let line_addr = addr & !(LINE_BYTES - 1);
        let index = ((line_addr / LINE_BYTES) as usize) % self.tags.len();
        if self.tags[index] == Some(line_addr) {
            return FetchOutcome {
                stall: 0,
                rom_lines: 0,
            };
        }
        // Miss. Check the stream buffer first (§5.3.3).
        self.stats.misses += 1;
        let mut rom_lines = 0u32;
        let stall;
        if self.config.prefetch && self.prefetch_line == Some(line_addr) {
            // Forwarded from the buffer and written into the cache in the
            // same cycle: no stall. The controller immediately prefetches
            // the next line.
            self.stats.prefetch_hits += 1;
            self.tags[index] = Some(line_addr);
            self.stats.fills += 1;
            self.prefetch_line = Some(line_addr + LINE_BYTES);
            self.stats.rom_line_reads += 1;
            rom_lines += 1;
            stall = 0;
        } else {
            // Fill from ROM, stalling the front end.
            self.tags[index] = Some(line_addr);
            self.stats.fills += 1;
            self.stats.rom_line_reads += 1;
            rom_lines += 1;
            stall = self.config.miss_penalty;
            if self.config.prefetch {
                // Start prefetching the next sequential line.
                self.prefetch_line = Some(line_addr + LINE_BYTES);
                self.stats.rom_line_reads += 1;
                rom_lines += 1;
            }
        }
        self.stats.stall_cycles += stall as u64;
        FetchOutcome { stall, rom_lines }
    }

    /// Accounts `n` fetches that are statically known to hit: the
    /// trailing words of a 16-byte line inside a translated basic
    /// block, whose line the first word's fetch just left resident
    /// (hit, fill, or prefetch promotion all end with the line in the
    /// cache, and straight-line execution cannot evict it). A hit
    /// touches no cache state beyond the access counter, so this is
    /// exactly `n` repeats of [`ICache::access`] on the hit path.
    pub(crate) fn sequential_hits(&mut self, n: u64) {
        self.stats.accesses += n;
    }

    /// Invalidates every line (the reset routine of §5.3.2).
    pub fn invalidate_all(&mut self) {
        for t in &mut self.tags {
            *t = None;
        }
        self.prefetch_line = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_fetch(c: &mut ICache, start: u32, n: u32) -> u64 {
        let mut stalls = 0;
        for i in 0..n {
            stalls += c.access(start + i * 4).stall as u64;
        }
        stalls
    }

    #[test]
    fn cold_then_warm() {
        let mut c = ICache::new(CacheConfig::real(1024, false));
        // 16 sequential instructions = 4 lines: 4 misses then all hits.
        let stalls = seq_fetch(&mut c, 0, 16);
        assert_eq!(c.stats().misses, 4);
        assert_eq!(stalls, 4 * 3);
        let stalls2 = seq_fetch(&mut c, 0, 16);
        assert_eq!(stalls2, 0);
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn conflict_eviction() {
        let mut c = ICache::new(CacheConfig::real(1024, false));
        c.access(0);
        // Same index, different tag: 1024 bytes apart.
        c.access(1024);
        assert_eq!(c.stats().misses, 2);
        // Original line was evicted.
        c.access(0);
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn prefetcher_hides_sequential_misses() {
        let mut c = ICache::new(CacheConfig::real(1024, true));
        // A long sequential run: first line stalls, subsequent lines come
        // from the stream buffer for free.
        let stalls = seq_fetch(&mut c, 0, 64);
        assert_eq!(stalls, 3, "only the first miss should stall");
        assert!(c.stats().prefetch_hits >= 14);
        // The prefetcher reads more ROM lines than a plain cache would.
        assert!(c.stats().rom_line_reads > c.stats().misses);
    }

    #[test]
    fn ideal_never_misses() {
        let mut c = ICache::new(CacheConfig::ideal());
        let stalls = seq_fetch(&mut c, 0, 1000);
        assert_eq!(stalls, 0);
        assert_eq!(c.stats().misses, 0);
        assert_eq!(c.stats().accesses, 1000);
    }

    #[test]
    fn miss_rate_helper() {
        let mut c = ICache::new(CacheConfig::real(1024, false));
        seq_fetch(&mut c, 0, 8);
        let s = c.stats();
        assert!((s.miss_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn geometry_validation_is_typed() {
        assert_eq!(CacheConfig::best().validate(), Ok(()));
        assert_eq!(CacheConfig::ideal().validate(), Ok(()));
        assert_eq!(
            CacheConfig::real(8, false).validate(),
            Err(CacheGeometryError::SmallerThanLine { size_bytes: 8 })
        );
        assert_eq!(
            CacheConfig::real(3000, false).validate(),
            Err(CacheGeometryError::NotPowerOfTwo { size_bytes: 3000 })
        );
        // The error is printable (it crosses the CLI boundary).
        let msg = CacheConfig::real(3000, false).validate().unwrap_err();
        assert!(msg.to_string().contains("3000"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "invalid icache geometry")]
    fn construction_panics_with_the_typed_message() {
        ICache::new(CacheConfig::real(24, false));
    }

    #[test]
    fn invalidate_all_cools_the_cache() {
        let mut c = ICache::new(CacheConfig::real(1024, false));
        seq_fetch(&mut c, 0, 8);
        c.invalidate_all();
        let before = c.stats().misses;
        seq_fetch(&mut c, 0, 8);
        assert_eq!(c.stats().misses, before + 2);
    }
}
