//! Virtual-memory page mapping.
//!
//! Each core runs its workload in a private address space (the paper's
//! homogeneous multi-programmed setup: one process per core), or shares its
//! server process's space with the other cores of that process. A space
//! maps each virtual page to a frame inside its own reserved range through
//! a fixed hash, so a given (seed, workload, core) triple always produces
//! the same physical layout — a requirement for reproducible experiments —
//! whatever order the engine's workers touch the pages in.

use garibaldi_types::{LineAddr, PageNum, PhysAddr, VirtAddr, PAGE_OFFSET_BITS, PHYS_ADDR_BITS};

/// Frames reserved per address space: 2^24 pages = 64 GiB of VA-to-PA churn,
/// far beyond any modeled footprint.
const SPACE_FRAME_BITS: u32 = 24;

/// Deterministic address-space id allocator.
///
/// Each space receives a disjoint frame range (`space_id << 24`), so two
/// cores never map to the same physical page unless they explicitly share a
/// [`SharedAddressSpace`]. The 44-bit physical space fits 2^(44-12) = 4 M frames…
/// far more than the 2^20 spaces×frames product used here.
#[derive(Debug, Clone, Default)]
pub struct PpnAllocator {
    next_space: u64,
}

impl PpnAllocator {
    /// Creates an allocator with no spaces handed out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the next address-space id.
    pub fn alloc_space(&mut self) -> u64 {
        let s = self.next_space;
        self.next_space += 1;
        assert!(
            (s << SPACE_FRAME_BITS) >> (PHYS_ADDR_BITS - PAGE_OFFSET_BITS) == 0,
            "physical address space exhausted"
        );
        s
    }
}

/// A thread-safe address space with a *pure* VPN → PPN mapping.
///
/// The sharded engine steps cores of one server process on different worker
/// threads, so frame assignment must not depend on global touch order (as
/// first-touch bump allocation would): instead each VPN maps to a
/// pseudo-random frame inside the space's reserved range through a fixed
/// 64-bit mixer. Translation needs no mutation, so the space is freely
/// shareable (`&self`, `Sync`) and deterministic for any worker count or
/// interleaving. Distinct VPNs may alias the same frame with probability
/// ≈ `pages² / 2^25` — negligible at modeled footprints and identical for
/// every run of the same space id.
#[derive(Debug, Clone)]
pub struct SharedAddressSpace {
    space_id: u64,
}

impl SharedAddressSpace {
    /// Creates the space with the given id (from [`PpnAllocator`]).
    pub fn new(space_id: u64) -> Self {
        Self { space_id }
    }

    /// Identifier of this space.
    pub fn space_id(&self) -> u64 {
        self.space_id
    }

    /// Translates a virtual page (pure; no allocation state).
    pub fn translate_page(&self, vpn: PageNum) -> PageNum {
        // splitmix64 finalizer: full-avalanche, cheap, stable.
        let mut x = vpn.get() ^ self.space_id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let frame = x & ((1 << SPACE_FRAME_BITS) - 1);
        PageNum::new((self.space_id << SPACE_FRAME_BITS) | frame)
    }

    /// Translates a virtual address (pure).
    pub fn translate(&self, va: VirtAddr) -> PhysAddr {
        let ppn = self.translate_page(va.vpn());
        PhysAddr::new(ppn.base_phys().get() | va.page_offset())
    }

    /// Translates a virtual address to its physical cache line (pure).
    pub fn translate_line(&self, va: VirtAddr) -> LineAddr {
        self.translate(va).line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaces_are_disjoint() {
        let mut alloc = PpnAllocator::new();
        let s0 = SharedAddressSpace::new(alloc.alloc_space());
        let s1 = SharedAddressSpace::new(alloc.alloc_space());
        assert_ne!(s0.space_id(), s1.space_id());
        // The same page in the two spaces lands in disjoint frame ranges.
        for vpn in 0..1024u64 {
            let a = s0.translate_page(PageNum::new(vpn)).get();
            let b = s1.translate_page(PageNum::new(vpn)).get();
            assert_eq!(a >> SPACE_FRAME_BITS, s0.space_id());
            assert_eq!(b >> SPACE_FRAME_BITS, s1.space_id());
        }
    }

    #[test]
    fn shared_space_is_pure_and_disjoint_across_spaces() {
        let s0 = SharedAddressSpace::new(0);
        let s1 = SharedAddressSpace::new(1);
        let va = VirtAddr::new(0x40_0040);
        assert_eq!(s0.translate(va), s0.translate(va), "pure mapping");
        assert_ne!(s0.translate(va).ppn(), s1.translate(va).ppn(), "spaces disjoint");
        assert_eq!(s0.translate(va).page_offset(), 0x40, "offset preserved");
        // Same page, different offsets: same frame.
        assert_eq!(s0.translate_line(va).ppn(), s0.translate(VirtAddr::new(0x40_0fc0)).ppn());
    }

    #[test]
    fn shared_space_spreads_vpns() {
        let s = SharedAddressSpace::new(7);
        let mut frames = std::collections::HashSet::new();
        for vpn in 0..4096u64 {
            frames.insert(s.translate_page(PageNum::new(vpn)).get());
        }
        assert!(frames.len() >= 4090, "near-injective at small footprints: {}", frames.len());
    }
}
