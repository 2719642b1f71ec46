//! Packed 64-bit metadata words, bit-for-bit the layout of Figure 4.
//!
//! A memory-metadata entry is 16 bytes per 4-byte word of global memory:
//! one *last accessor* word and one *last writer* word.
//!
//! ```text
//! Last accessor:
//! [63-54] [53-48] [47-46] [45-31] [30-26]  [25-20]    [19-14]    [13-6]   [5-0]
//!  Tag     Flags   Unused  WarpID  ThreadID DevFenceID BlkFenceID BlkBarID WarpBarID
//!
//! Last writer:
//! [63-48] [47-46] [45-31] [30-26]  [25-20]    [19-14]    [13-6]   [5-0]
//!  Locks   Unused  WarpID  ThreadID DevFenceID BlkFenceID BlkBarID WarpBarID
//! ```
//!
//! Flags (6 bits): Valid, Modified, Atomic, Scope, DevShared, BlkShared.
//!
//! Counter fields deliberately *wrap* at their field width — the paper
//! accepts the resulting (very unlikely) false positives/negatives from,
//! e.g., exactly 256 `syncthreads` between two accesses (§6.7). The
//! reproduction keeps the same widths so it inherits the same behaviour.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Width of the WarpID field (bits).
pub const WARP_ID_BITS: u32 = 15;
/// Width of the ThreadID (lane) field (bits).
pub const THREAD_ID_BITS: u32 = 5;
/// Width of each fence counter (bits).
pub const FENCE_BITS: u32 = 6;
/// Width of the block barrier counter (bits).
pub const BLK_BAR_BITS: u32 = 8;
/// Width of the warp barrier counter (bits).
pub const WARP_BAR_BITS: u32 = 6;
/// Width of the address tag (bits).
pub const TAG_BITS: u32 = 10;
/// Width of the lock Bloom summary (bits).
pub const LOCK_BITS: u32 = 16;

const fn mask(bits: u32) -> u64 {
    (1u64 << bits) - 1
}

/// Flag bits of the accessor word, in place ([53-48]). The engine decides
/// P1–P3 and writes back on these without decoding the entry.
pub const VALID: u64 = 1 << 48;
/// Location has been written.
pub const MODIFIED: u64 = 1 << 49;
/// Location's last write was an atomic.
pub const ATOMIC: u64 = 1 << 50;
/// Scope of that atomic: set = block.
pub const SCOPE_BLOCK: u64 = 1 << 51;
/// Accessors span multiple threadblocks.
pub const DEV_SHARED: u64 = 1 << 52;
/// Accessors span multiple warps of one threadblock.
pub const BLK_SHARED: u64 = 1 << 53;
/// Bits [45-0] of either word: identity + synchronization snapshot.
pub const INFO_MASK: u64 = mask(46);
/// The address tag of the accessor word ([63-54]): position and field.
pub const TAG_SHIFT: u32 = 64 - TAG_BITS;
pub const TAG_FIELD: u64 = mask(TAG_BITS) << TAG_SHIFT;

/// The stored (15-bit) WarpID of a packed word.
#[must_use]
pub const fn stored_warp(word: u64) -> u32 {
    ((word >> 31) & mask(WARP_ID_BITS)) as u32
}

/// The stored (5-bit) ThreadID of a packed word.
#[must_use]
pub const fn stored_lane(word: u64) -> u32 {
    ((word >> 26) & mask(THREAD_ID_BITS)) as u32
}

/// Synchronization counters snapshot shared by both metadata words:
/// WarpID | ThreadID | DevFenceID | BlkFenceID | BlkBarID | WarpBarID
/// packed into bits [45-0].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessorInfo {
    /// Global warp id of the accessor (15-bit, wraps).
    pub warp_id: u32,
    /// Lane within the warp (5-bit).
    pub lane: u32,
    /// Device-scope fence counter of the accessor at access time (6-bit).
    pub dev_fence: u8,
    /// Block-scope fence counter at access time (6-bit).
    pub blk_fence: u8,
    /// Block barrier counter at access time (8-bit).
    pub blk_bar: u8,
    /// Warp barrier counter at access time (6-bit).
    pub warp_bar: u8,
}

impl AccessorInfo {
    /// Encodes to bits [45-0] of a metadata word (fields truncate).
    #[must_use]
    pub fn pack(self) -> u64 {
        ((self.warp_id as u64 & mask(WARP_ID_BITS)) << 31)
            | ((self.lane as u64 & mask(THREAD_ID_BITS)) << 26)
            | ((self.dev_fence as u64 & mask(FENCE_BITS)) << 20)
            | ((self.blk_fence as u64 & mask(FENCE_BITS)) << 14)
            | ((self.blk_bar as u64 & mask(BLK_BAR_BITS)) << 6)
            | (self.warp_bar as u64 & mask(WARP_BAR_BITS))
    }

    pub(crate) fn unpack(w: u64) -> Self {
        AccessorInfo {
            warp_id: stored_warp(w),
            lane: stored_lane(w),
            dev_fence: ((w >> 20) & mask(FENCE_BITS)) as u8,
            blk_fence: ((w >> 14) & mask(FENCE_BITS)) as u8,
            blk_bar: ((w >> 6) & mask(BLK_BAR_BITS)) as u8,
            warp_bar: (w & mask(WARP_BAR_BITS)) as u8,
        }
    }

    /// The accessor's block id, derived as the paper does (§6.2): WarpID
    /// divided by warps-per-block of the running kernel.
    #[must_use]
    pub fn block_id(&self, warps_per_block: u32) -> u32 {
        self.warp_id / warps_per_block.max(1)
    }
}

/// Entry flags ([53-48] of the accessor word).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Entry initialized.
    pub valid: bool,
    /// Location has been written.
    pub modified: bool,
    /// Location has been accessed via atomics.
    pub atomic: bool,
    /// Scope of the last atomic: false = device, true = block.
    pub scope_block: bool,
    /// Accessors span multiple threadblocks.
    pub dev_shared: bool,
    /// Accessors span multiple warps of one threadblock.
    pub blk_shared: bool,
}

impl Flags {
    fn pack(self) -> u64 {
        let bit = |on: bool, flag: u64| if on { flag } else { 0 };
        bit(self.valid, VALID)
            | bit(self.modified, MODIFIED)
            | bit(self.atomic, ATOMIC)
            | bit(self.scope_block, SCOPE_BLOCK)
            | bit(self.dev_shared, DEV_SHARED)
            | bit(self.blk_shared, BLK_SHARED)
    }

    fn unpack(acc: u64) -> Self {
        Flags {
            valid: acc & VALID != 0,
            modified: acc & MODIFIED != 0,
            atomic: acc & ATOMIC != 0,
            scope_block: acc & SCOPE_BLOCK != 0,
            dev_shared: acc & DEV_SHARED != 0,
            blk_shared: acc & BLK_SHARED != 0,
        }
    }
}

/// One decoded 16-byte memory-metadata entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetadataEntry {
    /// Address tag ([63-54] of the accessor word).
    pub tag: u16,
    /// Entry flags.
    pub flags: Flags,
    /// Identity + synchronization snapshot of the last accessor.
    pub accessor: AccessorInfo,
    /// Identity + synchronization snapshot of the last writer.
    pub writer: AccessorInfo,
    /// 16-bit, 2-hash Bloom summary of locks held by the last writer
    /// ([63-48] of the writer word).
    pub locks: u16,
}

impl MetadataEntry {
    /// Encodes to the two raw 64-bit words of Figure 4.
    #[must_use]
    pub fn pack(self) -> (u64, u64) {
        let acc = ((self.tag as u64 & mask(TAG_BITS)) << TAG_SHIFT)
            | self.flags.pack()
            | self.accessor.pack();
        let wr = ((self.locks as u64) << 48) | self.writer.pack();
        (acc, wr)
    }

    /// Decodes from the two raw 64-bit words.
    #[must_use]
    pub fn unpack(acc: u64, wr: u64) -> Self {
        MetadataEntry {
            tag: (acc >> TAG_SHIFT) as u16,
            flags: Flags::unpack(acc),
            accessor: AccessorInfo::unpack(acc),
            writer: AccessorInfo::unpack(wr),
            locks: ((wr >> 48) & mask(LOCK_BITS)) as u16,
        }
    }
}

/// Wrapping increment at a field's width, used by the synchronization
/// metadata counters.
#[must_use]
pub fn wrapping_inc(value: u8, bits: u32) -> u8 {
    (value.wrapping_add(1)) & (mask(bits) as u8)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample() -> MetadataEntry {
        MetadataEntry {
            tag: 0x2A5,
            flags: Flags {
                valid: true,
                modified: true,
                atomic: false,
                scope_block: true,
                dev_shared: false,
                blk_shared: true,
            },
            accessor: AccessorInfo {
                warp_id: 0x7ABC,
                lane: 19,
                dev_fence: 33,
                blk_fence: 12,
                blk_bar: 200,
                warp_bar: 61,
            },
            writer: AccessorInfo {
                warp_id: 0x0123,
                lane: 31,
                dev_fence: 63,
                blk_fence: 0,
                blk_bar: 255,
                warp_bar: 1,
            },
            locks: 0xBEEF,
        }
    }

    #[test]
    fn round_trip_preserves_all_fields() {
        let e = sample();
        let (a, w) = e.pack();
        assert_eq!(MetadataEntry::unpack(a, w), e);
    }

    #[test]
    fn entry_is_16_bytes() {
        // Two u64 words — the paper's 16-byte entry (§6.1).
        let (a, w) = sample().pack();
        assert_eq!(std::mem::size_of_val(&a) + std::mem::size_of_val(&w), 16);
    }

    #[test]
    fn fields_occupy_documented_positions() {
        let mut e = MetadataEntry::default();
        e.flags.valid = true;
        let (a, _) = e.pack();
        assert_eq!(a, 1 << 48, "Valid is bit 48 of the accessor word");

        let e = MetadataEntry {
            tag: 0x3FF,
            ..MetadataEntry::default()
        };
        let (a, _) = e.pack();
        assert_eq!(a, 0x3FF << 54, "Tag occupies [63-54]");

        let e = MetadataEntry {
            locks: 0xFFFF,
            ..MetadataEntry::default()
        };
        let (_, w) = e.pack();
        assert_eq!(
            w,
            0xFFFF_u64 << 48,
            "Locks occupy [63-48] of the writer word"
        );

        let mut e = MetadataEntry::default();
        e.accessor.warp_id = 1;
        let (a, _) = e.pack();
        assert_eq!(a, 1 << 31, "WarpID starts at bit 31");
    }

    #[test]
    fn field_widths_truncate_out_of_range_values() {
        let mut e = MetadataEntry::default();
        e.accessor.warp_id = 0xFFFF_FFFF;
        let (a, w) = e.pack();
        let d = MetadataEntry::unpack(a, w);
        assert_eq!(
            d.accessor.warp_id,
            mask(WARP_ID_BITS) as u32,
            "15-bit WarpID wraps"
        );
    }

    #[test]
    fn wrapping_counters() {
        assert_eq!(wrapping_inc(254, BLK_BAR_BITS), 255);
        assert_eq!(
            wrapping_inc(255, BLK_BAR_BITS),
            0,
            "8-bit barrier counter wraps at 256"
        );
        assert_eq!(
            wrapping_inc(63, FENCE_BITS),
            0,
            "6-bit fence counter wraps at 64"
        );
        assert_eq!(wrapping_inc(63, WARP_BAR_BITS), 0);
    }

    #[test]
    fn block_id_derivation_matches_paper() {
        // §6.2: block id = WarpID / warps-per-block.
        let a = AccessorInfo {
            warp_id: 13,
            ..AccessorInfo::default()
        };
        assert_eq!(a.block_id(4), 3);
        assert_eq!(a.block_id(1), 13);
    }
}
