//! Global device memory: a flat arena carved into buffers.
//!
//! Functionally this is the coherent backing store behind the L2 (the L2 is
//! write-through from the CUs' perspective, so its content always matches
//! this arena; only the per-CU L1s can go stale — see `machine.rs`).

use crate::engine::PipeUnit;
use crate::error::SimError;

/// Timing model of the DRAM bandwidth pipe behind the L2: one
/// [`PipeUnit`] shared by all CUs, reserved per 64 B line on an L2 miss.
/// Purely a timing resource — functional reads and writes go through
/// [`GlobalMemory`] directly.
#[derive(Debug, Default)]
pub(crate) struct DramTimer {
    pipe: PipeUnit,
}

impl DramTimer {
    /// A DRAM pipe that is free from tick 0.
    pub(crate) fn new() -> Self {
        DramTimer::default()
    }

    /// Reserves the pipe for one line transfer of `occupancy` ticks
    /// starting no earlier than `at`; returns the transfer start tick.
    pub(crate) fn reserve(&mut self, at: u64, occupancy: u64) -> u64 {
        self.pipe.reserve(at, occupancy)
    }
}

/// Base address of the first buffer (a small null guard region below).
const ARENA_BASE: u32 = 0x1000;
/// Buffer alignment in bytes (also ≥ cache line size).
const ALIGN: u32 = 256;

/// Global device memory.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    data: Vec<u8>,
    /// (base, size) per buffer, in allocation order; bases are ascending.
    ranges: Vec<(u32, u32)>,
}

impl GlobalMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        GlobalMemory {
            data: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// Allocates a buffer of `size` bytes, zero-initialized. Returns its
    /// index (the `BufferId` payload) — bases are stable forever.
    pub fn alloc(&mut self, size: u32) -> usize {
        let base = ARENA_BASE + self.data.len() as u32;
        let padded = size.div_ceil(ALIGN) * ALIGN;
        self.data.resize(self.data.len() + padded as usize, 0);
        self.ranges.push((base, size));
        self.ranges.len() - 1
    }

    /// Base byte address of buffer `idx`.
    pub fn base(&self, idx: usize) -> Option<u32> {
        self.ranges.get(idx).map(|r| r.0)
    }

    /// Declared size of buffer `idx`.
    pub fn size(&self, idx: usize) -> Option<u32> {
        self.ranges.get(idx).map(|r| r.1)
    }

    /// Number of buffers allocated.
    #[allow(dead_code)] // exercised by tests; kept as API surface
    pub fn buffer_count(&self) -> usize {
        self.ranges.len()
    }

    fn check(&self, addr: u32, kernel: &str) -> Result<usize, SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::UnalignedAccess { addr });
        }
        // Find the buffer containing addr: ranges are sorted by base.
        let i = self.ranges.partition_point(|&(b, _)| b <= addr);
        if i > 0 {
            let (base, size) = self.ranges[i - 1];
            // `addr >= base` here; compare offsets so no sum can wrap.
            if size >= 4 && addr - base <= size - 4 {
                return Ok((addr - ARENA_BASE) as usize);
            }
        }
        Err(SimError::BadGlobalAccess {
            addr,
            kernel: kernel.to_string(),
        })
    }

    /// Reads a 32-bit word at a validated byte address.
    pub fn load(&self, addr: u32, kernel: &str) -> Result<u32, SimError> {
        let off = self.check(addr, kernel)?;
        Ok(u32::from_le_bytes(
            self.data[off..off + 4].try_into().expect("4 bytes"),
        ))
    }

    /// Writes a 32-bit word at a validated byte address.
    pub fn store(&mut self, addr: u32, value: u32, kernel: &str) -> Result<(), SimError> {
        let off = self.check(addr, kernel)?;
        self.data[off..off + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads raw bytes of buffer `idx` (declared size).
    pub fn read_buffer(&self, idx: usize) -> Option<&[u8]> {
        let (base, size) = *self.ranges.get(idx)?;
        let off = (base - ARENA_BASE) as usize;
        Some(&self.data[off..off + size as usize])
    }

    /// Overwrites buffer `idx` starting at offset 0.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the buffer's size (host-side programming
    /// error).
    pub fn write_buffer(&mut self, idx: usize, bytes: &[u8]) {
        let (base, size) = self.ranges[idx];
        assert!(
            bytes.len() <= size as usize,
            "write of {} bytes into buffer of {} bytes",
            bytes.len(),
            size
        );
        let off = (base - ARENA_BASE) as usize;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Copies the cache line at line-aligned `line_addr` into `out` (one
    /// line long). Bytes outside the arena read as zero (they can only be
    /// padding — word-granular accesses are bounds-checked separately).
    pub fn read_line(&self, line_addr: u32, out: &mut [u8]) {
        out.fill(0);
        let start = line_addr as usize;
        let end = start + out.len();
        let arena = ARENA_BASE as usize..ARENA_BASE as usize + self.data.len();
        let (lo, hi) = (start.max(arena.start), end.min(arena.end));
        if lo < hi {
            out[lo - start..hi - start]
                .copy_from_slice(&self.data[lo - arena.start..hi - arena.start]);
        }
    }

    /// Flips one bit at an absolute byte address, if it maps to a buffer.
    /// Returns `true` when applied (used by the fault injector).
    pub fn flip_bit(&mut self, addr: u32, bit: u8) -> bool {
        let aligned = addr & !3;
        if let Ok(off) = self.check(aligned, "fault") {
            let byte = off + (addr % 4) as usize;
            self.data[byte] ^= 1 << (bit % 8);
            true
        } else {
            false
        }
    }
}

impl Default for GlobalMemory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(16);
        let b = m.alloc(16);
        let base_a = m.base(a).unwrap();
        let base_b = m.base(b).unwrap();
        assert!(base_b >= base_a + 16);
        assert_eq!(base_a % ALIGN, 0);
        m.store(base_a, 0xDEAD_BEEF, "t").unwrap();
        assert_eq!(m.load(base_a, "t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.load(base_b, "t").unwrap(), 0);
    }

    #[test]
    fn rejects_null_and_oob() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(8);
        let base = m.base(a).unwrap();
        assert!(matches!(
            m.load(0, "k"),
            Err(SimError::BadGlobalAccess { .. })
        ));
        // Last valid word is base+4; base+8 is out of the declared size.
        assert!(m.load(base + 4, "k").is_ok());
        assert!(m.load(base + 8, "k").is_err());
        // `addr + 4` wraps to 0 here; the check must not.
        assert!(matches!(
            m.load(0xFFFF_FFFC, "k"),
            Err(SimError::BadGlobalAccess { .. })
        ));
    }

    #[test]
    fn read_line_zero_fills_outside_the_arena() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(8);
        m.write_buffer(a, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let base = m.base(a).unwrap();
        let mut line = [0xAAu8; 16];
        m.read_line(base, &mut line);
        assert_eq!(line[..8], [1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(line[8..].iter().all(|&b| b == 0), "zeroed alloc padding");
        m.read_line(base - 16, &mut line);
        assert_eq!(line, [0; 16], "below the arena");
        m.read_line(base + 256, &mut line);
        assert_eq!(line, [0; 16], "past the arena");
    }

    #[test]
    fn rejects_unaligned() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(8);
        let base = m.base(a).unwrap();
        assert_eq!(
            m.load(base + 1, "k"),
            Err(SimError::UnalignedAccess { addr: base + 1 })
        );
    }

    #[test]
    fn buffer_io() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(12);
        m.write_buffer(a, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let back = m.read_buffer(a).unwrap();
        assert_eq!(&back[..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(back.len(), 12);
    }

    #[test]
    fn flip_bit_targets_buffers_only() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(4);
        let base = m.base(a).unwrap();
        assert!(m.flip_bit(base, 0));
        assert_eq!(m.load(base, "t").unwrap(), 1);
        assert!(!m.flip_bit(0x10, 0), "below arena");
    }
}
