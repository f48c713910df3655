//! Program ROM and data RAM models with access accounting.
//!
//! The baseline memory layout (Fig 5.1): 256 KB program ROM with a
//! dual-port 32-bit interface (instruction bus + data bus), and 16 KB RAM
//! on a single 32-bit data port. When an accelerator is attached the RAM
//! becomes true dual-port (§5.4); when the instruction cache is attached
//! the ROM becomes single-port with a 128-bit interface (§5.3.2).
//!
//! Every access is counted: the energy model charges per read/write as the
//! paper did with Cacti (Ch. 6).

use ule_isa::asm::{RAM_BASE, RAM_SIZE, ROM_SIZE};

/// Access counters for one memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// 32-bit word reads.
    pub reads: u64,
    /// 32-bit word writes.
    pub writes: u64,
    /// 128-bit line reads (cache fills / prefetches; ROM only).
    pub line_reads: u64,
}

impl MemStats {
    /// Adds another run's stats onto this one. Exhaustive
    /// destructuring: a new field must be accounted here (and in the
    /// metrics schema) to compile.
    pub fn accumulate(&mut self, other: &MemStats) {
        let MemStats {
            reads,
            writes,
            line_reads,
        } = *other;
        self.reads += reads;
        self.writes += writes;
        self.line_reads += line_reads;
    }
}

/// The program ROM.
#[derive(Clone, Debug)]
pub struct Rom {
    words: Vec<u32>,
    stats: MemStats,
}

impl Rom {
    /// Builds a ROM from an image (must fit in 256 KB).
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds the ROM capacity.
    pub fn new(image: &[u32]) -> Self {
        assert!(
            image.len() * 4 <= ROM_SIZE as usize,
            "ROM image exceeds {ROM_SIZE} bytes"
        );
        Rom {
            words: image.to_vec(),
            stats: MemStats::default(),
        }
    }

    /// Capacity in bytes (what the energy model sizes against).
    pub fn capacity_bytes(&self) -> u32 {
        ROM_SIZE
    }

    /// Instruction-bus word fetch (counted).
    pub fn fetch(&mut self, addr: u32) -> u32 {
        self.stats.reads += 1;
        self.peek(addr)
    }

    /// Accounts `n` instruction-bus word fetches at once, without
    /// touching the data — the fast engine's batched accounting for a
    /// translated basic block, whose words were all decoded up front.
    pub(crate) fn note_fetches(&mut self, n: u64) {
        self.stats.reads += n;
    }

    /// Data-bus word read (counted) — used for tables and constants in
    /// read-only data.
    pub fn read(&mut self, addr: u32) -> u32 {
        self.stats.reads += 1;
        self.peek(addr)
    }

    /// 128-bit line read for a cache fill or prefetch (counted once).
    pub fn read_line(&mut self, addr: u32) -> [u32; 4] {
        self.stats.line_reads += 1;
        let base = addr & !15;
        [
            self.peek(base),
            self.peek(base + 4),
            self.peek(base + 8),
            self.peek(base + 12),
        ]
    }

    /// Uncounted debug read.
    pub fn peek(&self, addr: u32) -> u32 {
        let idx = (addr / 4) as usize;
        self.words.get(idx).copied().unwrap_or(0)
    }

    /// Access counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }
}

/// The data RAM.
#[derive(Clone, Debug)]
pub struct Ram {
    words: Vec<u32>,
    stats: MemStats,
}

impl Default for Ram {
    fn default() -> Self {
        Self::new()
    }
}

impl Ram {
    /// Creates a zeroed 16 KB RAM.
    pub fn new() -> Self {
        Ram {
            words: vec![0; (RAM_SIZE / 4) as usize],
            stats: MemStats::default(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u32 {
        RAM_SIZE
    }

    /// True if `addr` falls inside the RAM.
    pub fn contains(addr: u32) -> bool {
        (RAM_BASE..RAM_BASE + RAM_SIZE).contains(&addr)
    }

    /// Counted word read.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range address (a wild pointer in the simulated
    /// software — always a bug worth failing loudly on).
    pub fn read(&mut self, addr: u32) -> u32 {
        self.stats.reads += 1;
        self.peek(addr)
    }

    /// Counted word write.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range address.
    pub fn write(&mut self, addr: u32, value: u32) {
        self.stats.writes += 1;
        let idx = self.index(addr);
        self.words[idx] = value;
    }

    /// Uncounted debug read.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range address.
    pub fn peek(&self, addr: u32) -> u32 {
        self.words[self.index(addr)]
    }

    /// Uncounted debug write (test setup / operand injection).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range address.
    pub fn poke(&mut self, addr: u32, value: u32) {
        let idx = self.index(addr);
        self.words[idx] = value;
    }

    /// Uncounted bulk write of little-endian words.
    pub fn poke_words(&mut self, addr: u32, values: &[u32]) {
        for (i, &v) in values.iter().enumerate() {
            self.poke(addr + (i as u32) * 4, v);
        }
    }

    /// Uncounted bulk read.
    pub fn peek_words(&self, addr: u32, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.peek(addr + (i as u32) * 4)).collect()
    }

    /// Access counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Adds externally performed accesses (the accelerators' DMA port —
    /// true dual-port RAM shares the array but has its own port, §5.4).
    pub fn count_external(&mut self, reads: u64, writes: u64) {
        self.stats.reads += reads;
        self.stats.writes += writes;
    }

    fn index(&self, addr: u32) -> usize {
        assert!(
            Self::contains(addr),
            "RAM access out of range: {addr:#010x}"
        );
        ((addr - RAM_BASE) / 4) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rom_counts_accesses() {
        let mut rom = Rom::new(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(rom.fetch(0), 1);
        assert_eq!(rom.read(4), 2);
        let line = rom.read_line(4); // within first line
        assert_eq!(line, [1, 2, 3, 4]);
        let s = rom.stats();
        assert_eq!((s.reads, s.line_reads), (2, 1));
    }

    #[test]
    fn ram_round_trip() {
        let mut ram = Ram::new();
        ram.write(RAM_BASE + 8, 0xdead_beef);
        assert_eq!(ram.read(RAM_BASE + 8), 0xdead_beef);
        assert_eq!(ram.stats().reads, 1);
        assert_eq!(ram.stats().writes, 1);
        ram.poke_words(RAM_BASE, &[1, 2, 3]);
        assert_eq!(ram.peek_words(RAM_BASE, 3), vec![1, 2, 3]);
        // pokes are uncounted
        assert_eq!(ram.stats().writes, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ram_wild_pointer_panics() {
        let mut ram = Ram::new();
        ram.write(0x2000_0000, 1);
    }
}
