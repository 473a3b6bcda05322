//! Set-associative cache models.
//!
//! The per-CU L1 is a *data* cache: it stores line contents, is
//! write-through (stores update the cached copy and the backing store), and
//! is **not** kept coherent with other CUs' L1s — a line can go stale, which
//! is exactly why the paper's inter-group communication must read flags with
//! `atomic_add(addr, 0)` (Section 7.2). The shared L2 is modelled tags-only:
//! its contents always equal the global backing store.

use crate::engine::PipeUnit;

/// Timing model of the banked L2: each bank is an independent
/// [`PipeUnit`] serving one line transaction per occupancy interval, with
/// lines striped across banks by line address. Purely a timing resource —
/// hit/miss bookkeeping stays in the tags-only [`Cache`].
#[derive(Debug)]
pub(crate) struct L2Banks {
    banks: Vec<PipeUnit>,
    line_bytes: u32,
}

impl L2Banks {
    /// `n` independent banks striped by `line_bytes`-sized lines.
    pub(crate) fn new(n: usize, line_bytes: u32) -> Self {
        L2Banks {
            banks: vec![PipeUnit::new(); n.max(1)],
            line_bytes,
        }
    }

    fn bank_of(&self, line_addr: u32) -> usize {
        ((line_addr / self.line_bytes) as usize) % self.banks.len()
    }

    /// Reserves the bank serving `line_addr` for `occupancy` ticks
    /// starting no earlier than `at`; returns the transaction start tick.
    pub(crate) fn reserve(&mut self, line_addr: u32, at: u64, occupancy: u64) -> u64 {
        let bank = self.bank_of(line_addr);
        self.banks[bank].reserve(at, occupancy)
    }
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read lookups that hit.
    pub read_hits: u64,
    /// Read lookups that missed.
    pub read_misses: u64,
    /// Write lookups (write-through; hit means the cached copy was updated).
    pub write_hits: u64,
    /// Write lookups that missed (no allocate on write).
    pub write_misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Read hit rate in [0, 1]; 0 when there were no reads.
    pub fn read_hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Way {
    tag: u64,
    valid: bool,
    stamp: u64,
    data: Vec<u8>, // empty for tags-only caches
}

/// A set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    assoc: usize,
    line: u32,
    ways: Vec<Way>, // sets * assoc
    with_data: bool,
    stamp: u64,
    /// Statistics (public for counter export).
    pub stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `bytes` capacity with `line`-byte lines and
    /// `assoc` ways. `with_data` selects whether line contents are stored.
    pub fn new(bytes: u32, line: u32, assoc: usize, with_data: bool) -> Self {
        let lines = (bytes / line) as usize;
        let sets = (lines / assoc).max(1);
        Cache {
            sets,
            assoc,
            line,
            ways: (0..sets * assoc)
                .map(|_| Way {
                    tag: 0,
                    valid: false,
                    stamp: 0,
                    data: Vec::new(),
                })
                .collect(),
            with_data,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Line-aligns an address.
    pub fn line_addr(&self, addr: u32) -> u32 {
        addr & !(self.line - 1)
    }

    fn set_of(&self, line_addr: u32) -> usize {
        ((line_addr / self.line) as usize) % self.sets
    }

    fn find(&self, line_addr: u32) -> Option<usize> {
        let set = self.set_of(line_addr);
        let tag = line_addr as u64;
        (set * self.assoc..(set + 1) * self.assoc)
            .find(|&i| self.ways[i].valid && self.ways[i].tag == tag)
    }

    /// `true` if the line is currently cached (no stats, no LRU update).
    #[allow(dead_code)] // exercised by tests; kept as API surface
    pub fn contains(&self, line_addr: u32) -> bool {
        self.find(self.line_addr(line_addr)).is_some()
    }

    /// Tags-only read access: records hit/miss and fills on miss.
    /// Returns `true` on hit.
    pub fn touch_read(&mut self, line_addr: u32) -> bool {
        let line_addr = self.line_addr(line_addr);
        self.stamp += 1;
        if let Some(i) = self.find(line_addr) {
            self.ways[i].stamp = self.stamp;
            self.stats.read_hits += 1;
            true
        } else {
            self.stats.read_misses += 1;
            self.insert(line_addr);
            false
        }
    }

    /// Reads a 32-bit word if its line is cached (data caches only);
    /// records hit/miss. On miss the caller must [`Cache::fill`] the line.
    pub fn load_word(&mut self, addr: u32) -> Option<u32> {
        debug_assert!(self.with_data);
        let line_addr = self.line_addr(addr);
        self.stamp += 1;
        match self.find(line_addr) {
            Some(i) => {
                self.ways[i].stamp = self.stamp;
                self.stats.read_hits += 1;
                let off = (addr - line_addr) as usize;
                let d = &self.ways[i].data;
                Some(u32::from_le_bytes(d[off..off + 4].try_into().expect("4B")))
            }
            None => {
                self.stats.read_misses += 1;
                None
            }
        }
    }

    /// The way holding `addr`'s line, if cached (no stats, no LRU update).
    /// A wavefront memory instruction looks each line up once and then
    /// serves its lanes through [`Cache::word_in`] / [`Cache::store_in`].
    pub fn way_of(&self, addr: u32) -> Option<usize> {
        self.find(self.line_addr(addr))
    }

    /// Reads the 32-bit word at `addr` from way `way`'s data copy, which
    /// must hold `addr`'s line (data caches only; no stats, no LRU update).
    pub fn word_in(&self, way: usize, addr: u32) -> u32 {
        let off = (addr & (self.line - 1)) as usize;
        let d = &self.ways[way].data;
        u32::from_le_bytes(d[off..off + 4].try_into().expect("4B"))
    }

    /// Installs a line after a miss. For data caches `write` fills the
    /// victim way's buffer in place with the line's contents.
    pub fn fill(&mut self, line_addr: u32, write: impl FnOnce(&mut [u8])) {
        let line_addr = self.line_addr(line_addr);
        if self.find(line_addr).is_none() {
            let i = self.insert(line_addr);
            if self.with_data {
                let data = &mut self.ways[i].data;
                data.resize(self.line as usize, 0);
                write(data);
            }
        }
    }

    /// One lane's write-through store to `addr`, whose line was looked up
    /// as `way` ([`Cache::way_of`]): updates the cached copy on a hit (no
    /// allocation on miss) and records the hit or miss.
    pub fn store_in(&mut self, way: Option<usize>, addr: u32, value: u32) {
        self.stamp += 1;
        match way {
            Some(i) => {
                self.ways[i].stamp = self.stamp;
                self.stats.write_hits += 1;
                if self.with_data {
                    let off = (addr & (self.line - 1)) as usize;
                    self.ways[i].data[off..off + 4].copy_from_slice(&value.to_le_bytes());
                }
            }
            None => self.stats.write_misses += 1,
        }
    }

    /// Drops a line (used when an atomic bypasses this cache).
    pub fn invalidate(&mut self, line_addr: u32) {
        let line_addr = self.line_addr(line_addr);
        if let Some(i) = self.find(line_addr) {
            self.ways[i].valid = false;
        }
    }

    /// Flips a bit in a cached line's data copy, if present. Returns `true`
    /// when applied (fault injection into the L1 array).
    pub fn flip_bit(&mut self, addr: u32, bit: u8) -> bool {
        if !self.with_data {
            return false;
        }
        let line_addr = self.line_addr(addr);
        if let Some(i) = self.find(line_addr) {
            let off = (addr - line_addr) as usize;
            self.ways[i].data[off] ^= 1 << (bit % 8);
            true
        } else {
            false
        }
    }

    /// Count of currently valid lines (for tests).
    #[allow(dead_code)]
    pub fn valid_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }

    /// Claims a way for `line_addr` (an invalid one, else the LRU) and
    /// returns it; its data buffer keeps the previous line's bytes until
    /// the caller overwrites them.
    fn insert(&mut self, line_addr: u32) -> usize {
        let set = self.set_of(line_addr);
        let range = set * self.assoc..(set + 1) * self.assoc;
        // Prefer an invalid way; otherwise evict LRU.
        let mut victim = set * self.assoc;
        let mut best = u64::MAX;
        for i in range {
            if !self.ways[i].valid {
                victim = i;
                break;
            }
            if self.ways[i].stamp < best {
                best = self.ways[i].stamp;
                victim = i;
            }
        }
        if self.ways[victim].valid {
            self.stats.evictions += 1;
        }
        self.stamp += 1;
        let w = &mut self.ways[victim];
        w.tag = line_addr as u64;
        w.valid = true;
        w.stamp = self.stamp;
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data(seed: u8) -> impl FnOnce(&mut [u8]) {
        move |buf| {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = seed.wrapping_add(i as u8);
            }
        }
    }

    fn store_word(c: &mut Cache, addr: u32, value: u32) -> bool {
        let way = c.way_of(addr);
        c.store_in(way, addr, value);
        way.is_some()
    }

    #[test]
    fn data_cache_miss_fill_hit() {
        let mut c = Cache::new(1024, 64, 2, true);
        assert_eq!(c.load_word(0x100), None);
        c.fill(0x100, line_data(0));
        let v = c.load_word(0x104).expect("hit after fill");
        assert_eq!(v, u32::from_le_bytes([4, 5, 6, 7]));
        assert_eq!(c.stats.read_hits, 1);
        assert_eq!(c.stats.read_misses, 1);
    }

    #[test]
    fn write_through_updates_copy_without_allocating() {
        let mut c = Cache::new(1024, 64, 2, true);
        assert!(!store_word(&mut c, 0x100, 7), "miss, no allocate");
        assert_eq!(c.valid_lines(), 0);
        c.fill(0x100, line_data(0));
        assert!(store_word(&mut c, 0x100, 0xAABBCCDD));
        assert_eq!(c.load_word(0x100), Some(0xAABBCCDD));
        assert_eq!(
            c.way_of(0x100).map(|w| c.word_in(w, 0x104)),
            Some(0x07060504)
        );
        assert_eq!((c.stats.write_hits, c.stats.write_misses), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, line 64, 128 bytes => 1 set.
        let mut c = Cache::new(128, 64, 2, true);
        c.fill(0x000, line_data(1));
        c.fill(0x040, line_data(2));
        assert!(c.load_word(0x000).is_some()); // refresh line 0
        c.fill(0x080, line_data(3)); // evicts 0x040 (LRU)
        assert!(c.contains(0x000));
        assert!(!c.contains(0x040));
        assert!(c.contains(0x080));
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn tags_only_touch() {
        let mut c = Cache::new(256, 64, 4, false);
        assert!(!c.touch_read(0x40));
        assert!(c.touch_read(0x40));
        assert!(c.touch_read(0x44), "same line");
        assert_eq!(c.stats.read_hits, 2);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(1024, 64, 2, true);
        c.fill(0x200, line_data(9));
        assert!(c.contains(0x200));
        c.invalidate(0x210); // any addr in line
        assert!(!c.contains(0x200));
    }

    #[test]
    fn flip_bit_corrupts_cached_copy() {
        let mut c = Cache::new(1024, 64, 2, true);
        c.fill(0x100, |buf| buf.fill(0));
        assert!(c.flip_bit(0x104, 3));
        assert_eq!(c.load_word(0x104), Some(8));
        assert!(!c.flip_bit(0x900, 0), "uncached line");
    }

    #[test]
    fn l2_banks_stripe_by_line() {
        let mut b = L2Banks::new(2, 64);
        // Lines 0x000 and 0x080 share bank 0; 0x040 is bank 1.
        assert_eq!(b.reserve(0x000, 10, 5), 10);
        assert_eq!(b.reserve(0x040, 10, 5), 10, "different bank, no wait");
        assert_eq!(b.reserve(0x080, 10, 5), 15, "same bank serializes");
    }

    #[test]
    fn hit_rate() {
        let mut c = Cache::new(256, 64, 4, false);
        c.touch_read(0);
        c.touch_read(0);
        c.touch_read(0);
        c.touch_read(64);
        assert!((c.stats.read_hit_rate() - 0.5).abs() < 1e-9);
    }
}
