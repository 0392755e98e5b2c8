//! The set-associative cache structure.
//!
//! Frames are stored in structure-of-arrays form: one contiguous array of
//! 32-bit tag words (the line address with its set index stripped, see
//! [`SetAssocCache`]) scanned in a single branch-light pass per lookup,
//! with the per-line metadata ([`LineFlags`] byte, sharer mask) in
//! parallel arrays touched only on hit or victim selection. The sharer
//! mask is stored at the width the directory needs,
//! [`CacheConfig::directory_bytes`] bytes per frame. See ARCHITECTURE.md
//! §"SoA tag arrays".

use crate::line::{LineFlags, LineMeta, MesiState};
use crate::policy::{build_policy, Lru, PolicyCtx, PolicyKind, ReplacementPolicy};
use crate::stats::CacheStats;
use garibaldi_types::fastdiv::FastDiv;
use garibaldi_types::{
    hint, rowmask, AccessKind, LineAddr, LINE_BYTES, LINE_OFFSET_BITS, PHYS_ADDR_BITS,
};

/// Geometry and identity of a cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name used in reports ("l1i0", "l2c1", "llc", …).
    pub name: String,
    /// Number of sets (need not be a power of two; index is `line % sets`).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Set-indexing scheme: whole cache (`line % sets`) or a shard view
    /// owning a contiguous range of a larger cache's index space.
    pub indexing: SetIndexing,
    /// Bytes of directory sharer mask per frame (1..=8): one presence bit
    /// per sharer cluster, see [`CacheConfig::with_directory_clusters`].
    dir_bytes: u8,
}

/// Directory width of a cache that does not say how many clusters share it:
/// the full 64-cluster `u64` mask.
const DIR_BYTES_MAX: u8 = 8;

/// How a line address maps to a set of this cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetIndexing {
    /// `set = line % sets` — the whole cache owns the index space.
    Modulo,
    /// This cache is one shard of a `modulus`-set cache and owns the
    /// contiguous global sets `[base, base + sets)`; local set =
    /// `(line % modulus) - base`. Callers must only present lines whose
    /// global set falls in the owned range.
    Shard {
        /// Total sets of the sharded parent cache.
        modulus: u64,
        /// First global set owned by this shard.
        base: u64,
    },
}

impl CacheConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or `ways` exceeds 64 (every way
    /// mask is a `u64`).
    pub fn new(name: impl Into<String>, sets: usize, ways: usize) -> Self {
        check_geometry(sets, ways);
        Self {
            name: name.into(),
            sets,
            ways,
            indexing: SetIndexing::Modulo,
            dir_bytes: DIR_BYTES_MAX,
        }
    }

    /// Creates a shard view owning global sets `[base, base + sets)` of a
    /// `modulus`-set cache (set-sharded LLC backends).
    ///
    /// # Panics
    ///
    /// Panics on the geometry [`CacheConfig::new`] rejects or a range
    /// outside the parent cache.
    pub fn shard(
        name: impl Into<String>,
        modulus: usize,
        base: usize,
        sets: usize,
        ways: usize,
    ) -> Self {
        check_geometry(sets, ways);
        assert!(base + sets <= modulus, "shard range exceeds parent sets");
        Self {
            name: name.into(),
            sets,
            ways,
            indexing: SetIndexing::Shard { modulus: modulus as u64, base: base as u64 },
            dir_bytes: DIR_BYTES_MAX,
        }
    }

    /// This geometry with a directory sized for `clusters` sharer
    /// clusters: `ceil(clusters / 8)` bytes of sharer mask per frame
    /// instead of the default 8. Sharer masks keep their `u64` API; a
    /// cluster index must stay below `clusters` rounded up to whole bytes.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero or exceeds 64 (the `u64` mask).
    pub fn with_directory_clusters(mut self, clusters: usize) -> Self {
        assert!((1..=64).contains(&clusters), "{clusters} sharer clusters out of [1,64]");
        self.dir_bytes = clusters.div_ceil(8) as u8;
        self
    }

    /// Bytes of directory sharer mask per frame.
    pub fn directory_bytes(&self) -> usize {
        self.dir_bytes as usize
    }

    /// Builds a config from a capacity in bytes and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one set.
    pub fn from_capacity(name: impl Into<String>, bytes: u64, ways: usize) -> Self {
        let lines = bytes / LINE_BYTES;
        let sets = (lines as usize / ways).max(1);
        Self::new(name, sets, ways)
    }
}

fn check_geometry(sets: usize, ways: usize) {
    assert!(sets > 0 && ways > 0, "degenerate cache geometry");
    assert!(ways <= 64, "{ways} ways exceed the 64-bit way masks");
}

/// Alias re-exported as the cache's access context.
pub type AccessCtx = PolicyCtx;

/// Result of a fill attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Way the line was placed in (`None` if the policy bypassed the fill).
    pub way: Option<usize>,
    /// Metadata of the valid line displaced by the fill, if any.
    pub evicted: Option<LineMeta>,
    /// Number of victim candidates protected by the guard before the final
    /// victim was chosen (0 when no guard ran or nothing was protected).
    pub protected: u32,
}

/// Precomputed set-index and tag arithmetic: `line % sets` and
/// `line / sets` cost a hardware divide each, which the hot path would pay
/// three-plus times per record (L1, L2, LLC). Power-of-two set counts —
/// every L1/L2 geometry `from_capacity` produces — reduce to a mask and a
/// shift; the non-power-of-two LLC divides by multiplication. Bit-identical
/// to the modulo and the divide in every case.
#[derive(Debug, Clone, Copy)]
enum SetIndexFast {
    /// `sets`/`modulus` is a power of two: index = `line & mask`,
    /// quotient = `line >> shift`.
    Mask { mask: u64, shift: u32, base: u64 },
    /// General case: index = `line % modulus - base`, quotient =
    /// `line / modulus`, both by multiplication.
    Mod { modulus: FastDiv, base: u64 },
}

impl SetIndexFast {
    fn new(cfg: &CacheConfig) -> Self {
        let (modulus, base) = match cfg.indexing {
            SetIndexing::Modulo => (cfg.sets as u64, 0),
            SetIndexing::Shard { modulus, base } => (modulus, base),
        };
        if modulus.is_power_of_two() {
            Self::Mask { mask: modulus - 1, shift: modulus.trailing_zeros(), base }
        } else {
            Self::Mod { modulus: FastDiv::new(modulus), base }
        }
    }

    #[inline]
    fn set_of(self, line: u64) -> usize {
        match self {
            Self::Mask { mask, base, .. } => ((line & mask) - base) as usize,
            Self::Mod { modulus, base } => (modulus.remainder(line) - base) as usize,
        }
    }

    /// `line / modulus`: the part of the line address its set does not
    /// name.
    #[inline]
    fn quotient(self, line: u64) -> u64 {
        match self {
            Self::Mask { shift, .. } => line >> shift,
            Self::Mod { modulus, .. } => modulus.quotient(line),
        }
    }

    /// Whether a physical line (below `2^38`) can have quotient
    /// `2^32 − 1`: only under a modulus of at most 64 sets.
    fn reaches_top_quotient(self) -> bool {
        let modulus = match self {
            Self::Mask { shift, .. } => 1 << shift,
            Self::Mod { modulus, .. } => modulus.divisor(),
        };
        (TAG_QUOTIENTS - 1).saturating_mul(modulus) >> (PHYS_ADDR_BITS - LINE_OFFSET_BITS) == 0
    }

    /// The line whose local set is `set` and whose quotient is `q`.
    #[inline]
    fn line_of(self, set: usize, q: u64) -> u64 {
        match self {
            Self::Mask { shift, base, .. } => (q << shift) | (base + set as u64),
            Self::Mod { modulus, base } => q * modulus.divisor() + base + set as u64,
        }
    }
}

/// Width of a frame's tag word: a cache stores a line as its quotient
/// `line / sets`, which must be below `2^TAG_WORD_BITS`.
pub const TAG_WORD_BITS: u32 = u32::BITS;

/// Quotients a tag word can hold: `[0, 2^32)`.
const TAG_QUOTIENTS: u64 = 1 << TAG_WORD_BITS;

/// Tag word of quotient `q < 2^32`: `(q + 1) mod 2^32`. Word 0 is an empty
/// frame, or a frame holding the one quotient that wraps to it, `2^32 − 1`
/// — the frame's flags byte tells the two apart (an occupied frame's byte
/// is never zero, see [`LineFlags`]). Only a cache that
/// [wraps](SetAssocCache) stores that quotient.
#[inline]
fn tag_word(q: u64) -> u32 {
    (q as u32).wrapping_add(1)
}

/// Quotient of an occupied frame's tag word (inverse of [`tag_word`]).
#[inline]
fn tag_quotient(word: u32) -> u64 {
    u64::from(word.wrapping_sub(1))
}

#[cold]
#[inline(never)]
fn tag_overflow(cache: &str, line: LineAddr) -> ! {
    panic!("cache {cache}: line {:#x} is past its 32-bit tag words", line.get())
}

/// Placement rule of one [`SetAssocCache::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fill {
    /// Ways the fill may take, as a free frame or a victim (way
    /// partitioning); bits at or above the associativity are ignored.
    pub allowed: u64,
    /// Whether a full set consults the policy's bypass decision.
    pub bypass: bool,
    /// Guard protections before the next victim is evicted
    /// unconditionally (QBS_MAX_ATTEMPTS); 0 runs no guard.
    pub max_protects: u32,
}

impl Fill {
    /// Any way, the policy's bypass honoured, no guard.
    pub const PLAIN: Fill = Fill { allowed: u64::MAX, bypass: true, max_protects: 0 };

    /// Way partitioning: only the `allowed` ways, no bypass, no guard.
    pub const fn partition(allowed: u64) -> Fill {
        Fill { allowed, bypass: false, max_protects: 0 }
    }
}

/// Findings of one tag scan ([`SetAssocCache::probe_fill`],
/// [`SetAssocCache::access_at`]) as plain data (no borrow of the cache is
/// held): the way holding the line, and the set's empty frames.
///
/// [`SetAssocCache::fill`] redeems a probe without re-walking the tag row
/// — but only while no intervening operation has filled or invalidated a
/// frame of the same set (the findings would go stale). Reads (`lookup`,
/// `peek`) and operations on *other* caches never invalidate a probe.
#[derive(Debug, Clone, Copy)]
pub struct FillProbe {
    set: usize,
    hit: Option<usize>,
    empties: u64,
}

impl FillProbe {
    /// True if the probed line was resident at probe time.
    #[inline]
    pub fn resident(&self) -> bool {
        self.hit.is_some()
    }

    /// Way holding the probed line at probe time (`None` on a miss).
    #[inline]
    pub fn way(&self) -> Option<usize> {
        self.hit
    }

    /// Set the probed line maps to (for staleness checks by callers that
    /// interleave other fills before redeeming the probe).
    #[inline]
    pub fn set(&self) -> usize {
        self.set
    }
}

/// Result of [`SetAssocCache::access_at`].
#[derive(Debug, Clone, Copy)]
pub enum AccessOutcome {
    /// Demand hit in this way.
    Hit(usize),
    /// Demand miss; the probe lets the follow-up fill skip its re-scan.
    Miss(FillProbe),
}

/// Mutable view of one resident line's metadata (directory state updates).
///
/// Exposes exactly the fields coherence is allowed to touch — dirty bit,
/// MESI state, sharer mask. The tag word and valid bit are *not* reachable,
/// so a caller can no longer desynchronize the tag store or replacement
/// state through a peeked reference (the array-of-structs `&mut LineMeta`
/// allowed exactly that); and like [`SetAssocCache::peek`], obtaining the
/// view never perturbs the replacement policy.
pub struct LineMut<'a> {
    flags: &'a mut u8,
    /// The frame's sharer mask, little-endian, at the directory's width.
    sharers: &'a mut [u8],
}

/// A sharer mask stored little-endian in `bytes` (at most 8).
#[inline]
fn load_mask(bytes: &[u8]) -> u64 {
    bytes.iter().enumerate().fold(0, |m, (k, &b)| m | (b as u64) << (8 * k))
}

impl LineMut<'_> {
    #[inline]
    fn f(&self) -> LineFlags {
        LineFlags::from_raw(*self.flags)
    }

    /// Dirty bit.
    #[inline]
    pub fn dirty(&self) -> bool {
        self.f().dirty()
    }

    /// Marks the line dirty (writeback absorbed at this level).
    #[inline]
    pub fn set_dirty(&mut self) {
        *self.flags |= LineFlags::DIRTY;
    }

    /// Prefetched bit.
    #[inline]
    pub fn prefetched(&self) -> bool {
        self.f().prefetched()
    }

    /// Instruction bit.
    #[inline]
    pub fn is_instr(&self) -> bool {
        self.f().is_instr()
    }

    /// Coherence state.
    #[inline]
    pub fn state(&self) -> MesiState {
        self.f().state()
    }

    /// Replaces the coherence state.
    #[inline]
    pub fn set_state(&mut self, s: MesiState) {
        let mut f = self.f();
        f.set_state(s);
        *self.flags = f.raw();
    }

    /// Sharer-cluster bitmask (LLC directory).
    #[inline]
    pub fn sharers(&self) -> u64 {
        load_mask(self.sharers)
    }

    /// Replaces the sharer mask.
    ///
    /// # Panics
    ///
    /// Panics if `mask` names a cluster beyond the directory's width.
    #[inline]
    pub fn set_sharers(&mut self, mask: u64) {
        let le = mask.to_le_bytes();
        let (kept, dropped) = le.split_at(self.sharers.len());
        assert!(dropped.iter().all(|&b| b == 0), "sharer mask {mask:#x} exceeds the directory");
        self.sharers.copy_from_slice(kept);
    }

    /// Adds one sharer cluster to the directory mask.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is beyond the directory's width.
    #[inline]
    pub fn add_sharer(&mut self, cluster: usize) {
        self.sharers[cluster / 8] |= 1 << (cluster % 8);
    }

    /// Number of sharer clusters recorded in the directory mask.
    #[inline]
    pub fn sharer_count(&self) -> u32 {
        load_mask(self.sharers).count_ones()
    }
}

/// Policy storage with a devirtualized LRU fast path.
///
/// Every private L1/L2 in both engines runs LRU, so the policy callbacks on
/// their access/insert paths — several per simulated record — would
/// otherwise all be virtual calls through `Box<dyn ReplacementPolicy>`.
/// Holding the LRU instance inline lets those calls resolve statically and
/// inline into the cache's hot paths; every other policy (and any custom
/// policy passed to [`SetAssocCache::with_policy`]) dispatches through the
/// box. The behaviour is identical either way — both arms drive the same
/// `Lru` type through the same trait methods — only the dispatch differs.
enum PolicySlot {
    /// Inline LRU (static dispatch on the hot paths).
    Lru(Lru),
    /// Any policy behind the object-safe trait (dynamic dispatch).
    Dyn(Box<dyn ReplacementPolicy>),
}

impl PolicySlot {
    #[inline]
    fn as_dyn(&self) -> &dyn ReplacementPolicy {
        match self {
            PolicySlot::Lru(p) => p,
            PolicySlot::Dyn(p) => &**p,
        }
    }

    #[inline]
    fn as_dyn_mut(&mut self) -> &mut dyn ReplacementPolicy {
        match self {
            PolicySlot::Lru(p) => p,
            PolicySlot::Dyn(p) => &mut **p,
        }
    }

    #[inline]
    fn on_insert(&mut self, set: usize, way: usize, ctx: &PolicyCtx) {
        match self {
            PolicySlot::Lru(p) => p.on_insert(set, way, ctx),
            PolicySlot::Dyn(p) => p.on_insert(set, way, ctx),
        }
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, ctx: &PolicyCtx) {
        match self {
            PolicySlot::Lru(p) => p.on_hit(set, way, ctx),
            PolicySlot::Dyn(p) => p.on_hit(set, way, ctx),
        }
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, ctx: &PolicyCtx, excluded: u64) -> usize {
        match self {
            PolicySlot::Lru(p) => p.choose_victim(set, ctx, excluded),
            PolicySlot::Dyn(p) => p.choose_victim(set, ctx, excluded),
        }
    }

    #[inline]
    fn reset_priority(&mut self, set: usize, way: usize) {
        match self {
            PolicySlot::Lru(p) => p.reset_priority(set, way),
            PolicySlot::Dyn(p) => p.reset_priority(set, way),
        }
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize) {
        match self {
            PolicySlot::Lru(p) => p.on_evict(set, way),
            PolicySlot::Dyn(p) => p.on_evict(set, way),
        }
    }

    #[inline]
    fn should_bypass(&mut self, set: usize, ctx: &PolicyCtx) -> bool {
        match self {
            PolicySlot::Lru(p) => p.should_bypass(set, ctx),
            PolicySlot::Dyn(p) => p.should_bypass(set, ctx),
        }
    }

    /// Perf-only host-CPU prefetch of the policy's per-set state row
    /// (recency ranks, RRPVs, ETRs — whatever the policy reads on every event).
    #[inline]
    fn prefetch_row(&self, set: usize) {
        match self {
            PolicySlot::Lru(p) => p.prefetch_row(set),
            PolicySlot::Dyn(p) => p.prefetch_row(set),
        }
    }
}

/// A set-associative cache with pluggable replacement and an optional
/// eviction guard (the Garibaldi QBS hook).
///
/// Storage is structure-of-arrays: `tags` holds one 32-bit word per frame
/// (`set * ways + way`), scanned in a single pass per lookup;
/// `flags`/`sharers` hold the per-line metadata and are only touched on
/// hit, fill, or victim selection. `sharers` holds `dir_bytes` bytes per
/// frame.
///
/// A frame's tag word is `(line / modulus + 1) mod 2^32`, where `modulus`
/// is the set count (a shard view's: its parent's): the set index is not
/// stored, and [`SetAssocCache::frame_meta`] rebuilds the line as
/// `quotient × modulus + global set`. A cache of at most 64 sets *wraps*:
/// it stores all `2^32` quotients, the top one as word 0, which only the
/// frame's flags byte tells from an empty frame. Any larger cache stores
/// quotients below `2^32 − 1` — every line of the 44-bit physical space —
/// so its occupied frames never hold word 0 and its scans never read the
/// flags row. Filling a line past the cache's quotients panics naming the
/// cache; the simulator's `SystemConfig::validate` keeps every
/// configuration it runs below that bound.
pub struct SetAssocCache {
    config: CacheConfig,
    set_index: SetIndexFast,
    ways: usize,
    dir_bytes: usize,
    tags: Vec<u32>,
    /// Whether an occupied frame may hold tag word 0 (see the type docs).
    wraps: bool,
    flags: Vec<u8>,
    sharers: Vec<u8>,
    policy: PolicySlot,
    stats: CacheStats,
}

impl std::fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("config", &self.config)
            .field("policy", &self.policy.as_dyn().name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SetAssocCache {
    /// Creates a cache with the given geometry and replacement policy.
    pub fn new(config: CacheConfig, policy: PolicyKind) -> Self {
        let slot = match policy {
            PolicyKind::Lru => PolicySlot::Lru(Lru::new(config.sets, config.ways)),
            other => PolicySlot::Dyn(build_policy(other, config.sets, config.ways)),
        };
        Self::build(config, slot)
    }

    /// Creates a cache with a custom policy instance.
    pub fn with_policy(config: CacheConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
        Self::build(config, PolicySlot::Dyn(policy))
    }

    fn build(config: CacheConfig, policy: PolicySlot) -> Self {
        let frames = config.sets * config.ways;
        let set_index = SetIndexFast::new(&config);
        Self {
            ways: config.ways,
            dir_bytes: config.directory_bytes(),
            config,
            set_index,
            tags: vec![0; frames],
            wraps: set_index.reaches_top_quotient(),
            flags: vec![LineFlags::EMPTY.raw(); frames],
            // Allocated on first `peek_mut`: only the LLC shards run
            // directory updates, so private L1/L2 caches never pay the
            // column's memory footprint or the cold-line store every fill
            // would otherwise make (clearing a frame's mask on an untouched
            // column is the only writer, so an unallocated column is
            // all-zero by construction).
            sharers: Vec::new(),
            policy,
            stats: CacheStats::default(),
        }
    }

    /// Byte range of frame `i`'s sharer mask in the directory column.
    #[inline]
    fn dir_range(&self, i: usize) -> std::ops::Range<usize> {
        i * self.dir_bytes..(i + 1) * self.dir_bytes
    }

    /// Sharer mask of frame `i` (0 while the column is unallocated).
    #[inline]
    fn sharers_at(&self, i: usize) -> u64 {
        self.sharers.get(self.dir_range(i)).map_or(0, load_mask)
    }

    /// Clears frame `i`'s sharer mask (a no-op while the column is
    /// unallocated).
    #[inline]
    fn clear_sharers(&mut self, i: usize) {
        let r = self.dir_range(i);
        if let Some(s) = self.sharers.get_mut(r) {
            s.fill(0);
        }
    }

    /// Bytes the directory column holds: 0 until the first directory edit,
    /// then [`CacheConfig::directory_bytes`] per frame.
    pub fn directory_heap_bytes(&self) -> usize {
        self.sharers.len()
    }

    /// Cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Event counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable event counters (for callers recording outcome-level events).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Exports the policy's PC-indexed learned state (see
    /// [`ReplacementPolicy::export_learned`]) into a caller-owned buffer
    /// (cleared first; left empty for policies without learned tables) —
    /// the epoch barrier exports every shard's learned state each sync,
    /// so the buffers are arena-reused across epochs instead of
    /// reallocated.
    pub fn export_policy_learned_into(&self, out: &mut Vec<u32>) {
        out.clear();
        self.policy.as_dyn().export_learned(out);
    }

    /// Computes the consensus of same-policy `peers` exports into `out`
    /// without mutating any state (see
    /// [`ReplacementPolicy::merge_learned`]). Pure in the exports, so one
    /// peer's merge can be installed into every slice.
    pub fn merge_policy_learned(&self, peers: &[Vec<u32>], out: &mut Vec<u32>) {
        self.policy.as_dyn().merge_learned(peers, out);
    }

    /// Installs a consensus table computed by
    /// [`SetAssocCache::merge_policy_learned`] (see
    /// [`ReplacementPolicy::install_learned`]).
    pub fn install_policy_learned(&mut self, merged: &[u32]) {
        self.policy.as_dyn_mut().install_learned(merged);
    }

    /// Set index of a line (local to this cache/shard).
    ///
    /// For shard views the caller must only present lines whose global set
    /// falls in the owned range; this is debug-asserted.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> usize {
        if let SetIndexing::Shard { modulus, base } = self.config.indexing {
            let global = line.get() % modulus;
            debug_assert!(
                global >= base && global < base + self.config.sets as u64,
                "line {line:?} (global set {global}) outside shard [{base}, {})",
                base + self.config.sets as u64
            );
        }
        self.set_index.set_of(line.get())
    }

    /// Tag word of `line`. Lines past the tag range never reach a scan
    /// (their fill panics); debug builds assert it here too.
    #[inline]
    fn word_of(&self, line: LineAddr) -> u32 {
        let q = self.set_index.quotient(line.get());
        if cfg!(debug_assertions) && q >= TAG_QUOTIENTS {
            tag_overflow(&self.config.name, line);
        }
        tag_word(q)
    }

    /// One pass over the set's contiguous tag words: the ways whose word is
    /// `word`, and the ways whose word is 0, as way bitmasks
    /// ([`rowmask::eq_masks_u32`], four ways per vector compare). No early
    /// exit: misses — the common case on the bigger caches — walk the
    /// full row anyway.
    #[inline]
    fn scan(&self, base: usize, word: u32) -> (u64, u64) {
        rowmask::eq_masks_u32(&self.tags[base..base + self.ways], word, 0)
    }

    /// The ways of the set at `base` whose frame is occupied, read from
    /// the flags row (only needed where the tag row holds a zero word and
    /// the cache wraps).
    #[inline]
    fn occupied(&self, base: usize) -> u64 {
        !rowmask::eq_mask_u8(&self.flags[base..base + self.ways], 0) & u64::MAX >> (64 - self.ways)
    }

    /// The one tag scan behind every access and fill. At most one way can
    /// match; lowest-index semantics are kept via `trailing_zeros`. Only a
    /// wrapping cache reads the flags row, and only when the tag row holds
    /// a zero word (an empty frame, or the one occupied quotient that wraps
    /// to 0), so a full set in steady state never reads it.
    #[inline]
    fn probe_at(&self, set: usize, line: LineAddr) -> FillProbe {
        let base = set * self.ways;
        let (mut hits, zeros) = self.scan(base, self.word_of(line));
        let mut empties = zeros;
        if self.wraps && zeros != 0 {
            empties &= !self.occupied(base);
        }
        hits &= !empties;
        let hit = (hits != 0).then(|| hits.trailing_zeros() as usize);
        FillProbe { set, hit, empties }
    }

    /// Way of `line` within its (precomputed) set: [`SetAssocCache::probe_at`]
    /// without the empty-frame mask, so only a probe whose own word is 0
    /// reads the flags row.
    #[inline]
    fn way_in(&self, set: usize, line: LineAddr) -> Option<usize> {
        let base = set * self.ways;
        let word = self.word_of(line);
        let (mut hits, _) = self.scan(base, word);
        if word == 0 && hits != 0 {
            hits &= self.occupied(base);
        }
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// Materializes the metadata of frame `(set, way)`
    /// ([`LineMeta::empty`] when the frame is invalid). Diagnostics and
    /// differential testing; the hot paths read the columns directly.
    #[inline]
    pub fn frame_meta(&self, set: usize, way: usize) -> LineMeta {
        let i = set * self.ways + way;
        let f = LineFlags::from_raw(self.flags[i]);
        if !f.valid() {
            return LineMeta::empty();
        }
        LineMeta {
            line: LineAddr::new(self.set_index.line_of(set, tag_quotient(self.tags[i]))),
            valid: true,
            dirty: f.dirty(),
            prefetched: f.prefetched(),
            is_instr: f.is_instr(),
            state: f.state(),
            sharers: self.sharers_at(i),
        }
    }

    /// Hints the host CPU to pull `line`'s tag/flag/replacement rows into
    /// its cache (perf-only: no architectural effect on the simulation —
    /// stats, policy and frame state are untouched). Callers that know a
    /// burst of lines is about to be probed (prefetch candidate batches,
    /// a record's data references) issue these up front so the row misses
    /// overlap instead of serializing.
    #[inline]
    pub fn prefetch_row(&self, line: LineAddr) {
        self.prefetch_row_set(self.set_index.set_of(line.get()));
    }

    /// [`SetAssocCache::prefetch_row`] with the set already computed by
    /// the caller — batched drains resolve every request's set in one
    /// prologue pass (the set computation is cheap, the row miss is not)
    /// and then hint rows from a lookahead window without re-hashing.
    #[inline]
    pub fn prefetch_row_set(&self, set: usize) {
        let base = set * self.ways;
        // Tag row: 4 bytes per way. Its first and last words name every
        // host line a row of up to 16 ways touches, aligned or not.
        hint::prefetch_index(&self.tags, base);
        hint::prefetch_index(&self.tags, base + self.ways - 1);
        hint::prefetch_index(&self.flags, base);
        self.policy.prefetch_row(set);
    }

    /// Pure lookup: way holding `line`, if present. No policy update.
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<usize> {
        self.way_in(self.set_of(line), line)
    }

    /// Metadata of a resident line. Pure: no policy or stats update.
    pub fn peek(&self, line: LineAddr) -> Option<LineMeta> {
        let set = self.set_of(line);
        self.way_in(set, line).map(|w| self.frame_meta(set, w))
    }

    /// Mutable metadata view of a resident line (directory state updates).
    /// Like [`SetAssocCache::peek`], never perturbs replacement state.
    #[inline]
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<LineMut<'_>> {
        let set = self.set_of(line);
        self.peek_mut_at(set, line)
    }

    /// [`SetAssocCache::peek_mut`] with the set precomputed by the caller
    /// (batched drains resolve every request's set in a prologue pass).
    #[inline]
    pub fn peek_mut_at(&mut self, set: usize, line: LineAddr) -> Option<LineMut<'_>> {
        debug_assert_eq!(set, self.set_of(line));
        let way = self.way_in(set, line)?;
        Some(self.frame_mut(set, way))
    }

    /// Mutable metadata view of frame `(set, way)` — a way just returned
    /// by an access or insert on the same set — without a tag re-scan.
    #[inline]
    pub fn frame_mut(&mut self, set: usize, way: usize) -> LineMut<'_> {
        let i = set * self.ways + way;
        if self.sharers.is_empty() {
            // First directory edit: materialize the (all-zero) column.
            self.sharers = vec![0; self.tags.len() * self.dir_bytes];
        }
        let r = self.dir_range(i);
        LineMut { flags: &mut self.flags[i], sharers: &mut self.sharers[r] }
    }

    /// Demand access: returns `true` on hit (recording stats and updating
    /// the policy), `false` on miss (recording stats only — the caller
    /// fills via [`SetAssocCache::insert`] after the lower levels answer).
    ///
    /// On a hit the prefetched bit is consumed (counted as a useful
    /// prefetch) and `dirty` is set for writes.
    #[inline]
    pub fn access(&mut self, ctx: &AccessCtx, is_write: bool) -> bool {
        let set = self.set_of(ctx.line);
        matches!(self.access_at(set, ctx, is_write), AccessOutcome::Hit(_))
    }

    /// [`SetAssocCache::access`] with the set precomputed by the caller:
    /// a hit returns its way (a drain can update directory state on it
    /// through [`SetAssocCache::frame_mut`] without re-probing), a miss the
    /// scan's [`FillProbe`] for the follow-up [`SetAssocCache::fill`].
    #[inline]
    pub fn access_at(&mut self, set: usize, ctx: &AccessCtx, is_write: bool) -> AccessOutcome {
        debug_assert_eq!(set, self.set_of(ctx.line));
        let kind = if ctx.is_instr { AccessKind::Instr } else { AccessKind::Data };
        let probe = self.probe_at(set, ctx.line);
        let Some(way) = probe.hit else {
            self.stats.record_access(kind, false);
            return AccessOutcome::Miss(probe);
        };
        self.stats.record_access(kind, true);
        let i = set * self.ways + way;
        let f = self.flags[i];
        if f & LineFlags::PREFETCHED != 0 {
            self.stats.prefetch_useful += 1;
        }
        // One masked store, skipped when it would be a no-op (the common
        // clean-read hit): consume the prefetched bit, set dirty on writes.
        let nf = (f & !LineFlags::PREFETCHED) | ((is_write as u8) * LineFlags::DIRTY);
        if nf != f {
            self.flags[i] = nf;
        }
        self.policy.on_hit(set, way, ctx);
        AccessOutcome::Hit(way)
    }

    /// Fills `line` with no eviction guard.
    #[inline]
    pub fn insert(&mut self, line: LineAddr, ctx: &AccessCtx, dirty: bool) -> InsertOutcome {
        self.fill(self.probe_fill(line), line, ctx, dirty, Fill::PLAIN, |_| false)
    }

    /// Residency probe for fill-if-absent paths (prefetch fills). Pure —
    /// no stats or policy update. See [`FillProbe`] for the staleness
    /// contract on redeeming it with [`SetAssocCache::fill`].
    #[inline]
    pub fn probe_fill(&self, line: LineAddr) -> FillProbe {
        self.probe_at(self.set_of(line), line)
    }

    /// [`SetAssocCache::probe_fill`] with the set precomputed by the
    /// caller: one tag scan answers residency (with the hit way) and, on a
    /// miss, feeds the follow-up [`SetAssocCache::fill`].
    #[inline]
    pub fn probe_fill_at(&self, set: usize, line: LineAddr) -> FillProbe {
        debug_assert_eq!(set, self.set_of(line));
        self.probe_at(set, line)
    }

    /// Fills `line` under `rule`, redeeming the fresh `probe` taken for it.
    ///
    /// * Resident line: a refresh — dirtiness accumulates, the instruction
    ///   bit follows `ctx`, directory state and replacement state are kept.
    /// * Otherwise the lowest free frame among `rule.allowed`; else, if
    ///   `rule.bypass`, the policy may bypass the fill; else a victim.
    /// * Victim selection is Garibaldi's QBS hook (§4.2): when the policy's
    ///   choice is a valid instruction line, `guard(&victim_meta)` is asked
    ///   whether to protect it. On protection the victim's priority is
    ///   reset, the way is excluded and selection repeats — at most
    ///   `rule.max_protects` times, and never excluding the last way.
    ///
    /// # Panics
    ///
    /// Panics if `rule.allowed` selects no way of the set. Debug-asserts
    /// that the probe was taken from this cache for `line`.
    #[inline]
    pub fn fill(
        &mut self,
        probe: FillProbe,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
        rule: Fill,
        mut guard: impl FnMut(&LineMeta) -> bool,
    ) -> InsertOutcome {
        let set = probe.set;
        debug_assert_eq!(set, self.set_of(line), "probe taken for a different line");
        let ways = self.ways;
        if let Some(way) = probe.hit {
            let i = set * ways + way;
            let mut f = LineFlags::from_raw(self.flags[i] | ((dirty as u8) * LineFlags::DIRTY));
            f.set_is_instr(ctx.is_instr);
            self.flags[i] = f.raw();
            return InsertOutcome { way: Some(way), evicted: None, protected: 0 };
        }

        let full = u64::MAX >> (64 - ways);
        let allowed = rule.allowed & full;
        assert!(allowed != 0, "partition mask selects no way");
        let free = probe.empties & allowed;
        if free != 0 {
            let way = free.trailing_zeros() as usize;
            self.fill_frame(set, way, line, ctx, dirty);
            return InsertOutcome { way: Some(way), evicted: None, protected: 0 };
        }
        if rule.bypass && self.policy.should_bypass(set, ctx) {
            self.stats.bypasses += 1;
            return InsertOutcome { way: None, evicted: None, protected: 0 };
        }

        let mut excluded = !allowed & full;
        let mut protected = 0u32;
        let victim = loop {
            let way = self.policy.choose_victim(set, ctx, excluded);
            debug_assert!(way < ways, "policy returned way {way} of {ways}");
            // Checked before the victim's metadata is materialized, so an
            // unguarded fill never pays for the guard.
            if protected < rule.max_protects && excluded.count_ones() + 1 < ways as u32 {
                let meta = self.frame_meta(set, way);
                if meta.valid && meta.is_instr && guard(&meta) {
                    self.policy.reset_priority(set, way);
                    excluded |= 1 << way;
                    protected += 1;
                    self.stats.guarded_protections += 1;
                    continue;
                }
            }
            break way;
        };
        let evicted = self.evict_frame(set, victim);
        self.fill_frame(set, victim, line, ctx, dirty);
        InsertOutcome { way: Some(victim), evicted, protected }
    }

    /// Records the eviction of `(set, victim)` if the frame is valid:
    /// stats, policy detraining, and the materialized victim metadata.
    /// Does not clear the frame — the caller overwrites it with the fill.
    #[inline]
    fn evict_frame(&mut self, set: usize, victim: usize) -> Option<LineMeta> {
        let old = self.frame_meta(set, victim);
        if !old.valid {
            return None;
        }
        self.stats.evictions += 1;
        if old.is_instr {
            self.stats.i_evictions += 1;
        }
        if old.dirty {
            self.stats.writebacks += 1;
        }
        self.policy.on_evict(set, victim);
        Some(old)
    }

    fn fill_frame(&mut self, set: usize, way: usize, line: LineAddr, ctx: &AccessCtx, dirty: bool) {
        let i = set * self.ways + way;
        let state = if dirty { MesiState::Modified } else { MesiState::Exclusive };
        let q = self.set_index.quotient(line.get());
        if q >= TAG_QUOTIENTS - u64::from(!self.wraps) {
            tag_overflow(&self.config.name, line);
        }
        self.tags[i] = tag_word(q);
        self.flags[i] = LineFlags::new(dirty, ctx.is_prefetch, ctx.is_instr, state).raw();
        self.clear_sharers(i);
        if ctx.is_prefetch {
            self.stats.prefetch_fills += 1;
        }
        self.policy.on_insert(set, way, ctx);
    }

    /// Resets the eviction priority of frame `(set, way)` — e.g. the way a
    /// fill just returned — to the lowest level (Garibaldi protection
    /// applied at fill time: a defended line enters as the least-likely
    /// victim).
    #[inline]
    pub fn protect_frame(&mut self, set: usize, way: usize) {
        self.policy.reset_priority(set, way);
    }

    /// Removes `line` (coherence invalidation). Returns its metadata.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineMeta> {
        let set = self.set_of(line);
        let way = self.way_in(set, line)?;
        let i = set * self.ways + way;
        let meta = self.frame_meta(set, way);
        self.tags[i] = 0;
        self.flags[i] = LineFlags::EMPTY.raw();
        self.clear_sharers(i);
        self.stats.invalidations += 1;
        Some(meta)
    }

    /// Iterates over the valid lines of a set (materialized; diagnostics).
    pub fn set_lines(&self, set: usize) -> impl Iterator<Item = LineMeta> + '_ {
        (0..self.ways).map(move |w| self.frame_meta(set, w)).filter(|m| m.valid)
    }

    /// Number of valid lines in the whole cache (O(size); diagnostics).
    pub fn occupancy(&self) -> usize {
        self.flags.iter().filter(|&&f| f != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize) -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new("t", sets, ways), PolicyKind::Lru)
    }

    fn dctx(line: u64) -> AccessCtx {
        AccessCtx::data(LineAddr::new(line), line ^ 0x55)
    }

    fn ictx(line: u64) -> AccessCtx {
        AccessCtx::instr(LineAddr::new(line), line ^ 0x55)
    }

    /// Clean data fill of `line` under a QBS-style guard.
    fn guarded(
        c: &mut SetAssocCache,
        line: u64,
        max_protects: u32,
        guard: impl FnMut(&LineMeta) -> bool,
    ) -> InsertOutcome {
        let rule = Fill { max_protects, ..Fill::PLAIN };
        let la = LineAddr::new(line);
        c.fill(c.probe_fill(la), la, &dctx(line), false, rule, guard)
    }

    #[test]
    fn from_capacity_geometry() {
        let c = CacheConfig::from_capacity("llc", 30 * 1024 * 1024, 12);
        assert_eq!(c.sets, 30 * 1024 * 1024 / 64 / 12);
        assert_eq!((c.sets * c.ways) as u64 * LINE_BYTES, 30 * 1024 * 1024);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cache(4, 2);
        let ctx = dctx(0x10);
        assert!(!c.access(&ctx, false));
        c.insert(LineAddr::new(0x10), &ctx, false);
        assert!(c.access(&ctx, false));
        assert_eq!(c.stats().d_accesses, 2);
        assert_eq!(c.stats().d_hits, 1);
    }

    #[test]
    fn write_sets_dirty_and_eviction_writes_back() {
        let mut c = cache(1, 2);
        c.insert(LineAddr::new(1), &dctx(1), false);
        assert!(c.access(&dctx(1), true));
        assert!(c.peek(LineAddr::new(1)).unwrap().dirty);
        c.insert(LineAddr::new(2), &dctx(2), false);
        // Evicting line 1 (LRU after line 2 was inserted… line 1 was just
        // touched, so fill 3 evicts line 2 first; force both out.)
        c.insert(LineAddr::new(3), &dctx(3), false);
        c.insert(LineAddr::new(4), &dctx(4), false);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = cache(2, 4);
        for i in 0..100 {
            c.insert(LineAddr::new(i), &dctx(i), false);
        }
        assert!(c.occupancy() <= 8);
    }

    #[test]
    fn probe_fill_matches_lookup_then_insert() {
        // The fused probe/fill pair must leave the cache in exactly the
        // state the unfused lookup-early-out + insert sequence would.
        let mut fused = cache(4, 2);
        let mut plain = cache(4, 2);
        let mut x = 0x9e37_79b9u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = LineAddr::new(x % 24);
            let ctx = AccessCtx { line, pc_sig: x, is_instr: x & 1 != 0, is_prefetch: x & 2 != 0 };
            let probe = fused.probe_fill(line);
            assert_eq!(probe.resident(), fused.lookup(line).is_some());
            assert_eq!(probe.set(), x as usize % 4);
            if !probe.resident() {
                let a = fused.fill(probe, line, &ctx, x & 4 != 0, Fill::PLAIN, |_| false);
                let b = plain.insert(line, &ctx, x & 4 != 0);
                assert_eq!(a, b);
            } else {
                assert!(plain.lookup(line).is_some());
            }
        }
        for set in 0..4 {
            for w in 0..2 {
                assert_eq!(fused.frame_meta(set, w), plain.frame_meta(set, w));
            }
        }
        assert_eq!(fused.stats(), plain.stats());
    }

    #[test]
    fn access_at_matches_access() {
        // Hit side: identical stats/flags/policy effect as plain access.
        // Miss side: the probe redeems into the same fill insert would do.
        let mut fused = cache(2, 2);
        let mut plain = cache(2, 2);
        let mut x = 0x2545_f491u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = LineAddr::new(x % 12);
            let ctx = dctx(line.get());
            let is_write = x & 1 != 0;
            match fused.access_at(fused.set_of(line), &ctx, is_write) {
                AccessOutcome::Hit(w) => {
                    assert!(plain.access(&ctx, is_write));
                    assert_eq!(plain.lookup(line), Some(w));
                }
                AccessOutcome::Miss(p) => {
                    assert!(!plain.access(&ctx, is_write));
                    let a = fused.fill(p, line, &ctx, is_write, Fill::PLAIN, |_| false);
                    let b = plain.insert(line, &ctx, is_write);
                    assert_eq!(a, b);
                }
            }
        }
        for set in 0..2 {
            for w in 0..2 {
                assert_eq!(fused.frame_meta(set, w), plain.frame_meta(set, w));
            }
        }
        assert_eq!(fused.stats(), plain.stats());
    }

    #[test]
    fn probe_consumes_free_way_before_victim() {
        let mut c = cache(1, 2);
        let fill = |c: &mut SetAssocCache, line: u64| {
            let p = c.probe_fill(LineAddr::new(line));
            assert!(!p.resident());
            c.fill(p, LineAddr::new(line), &dctx(line), false, Fill::PLAIN, |_| false)
        };
        assert_eq!(fill(&mut c, 1).way, Some(0));
        assert_eq!(fill(&mut c, 3).way, Some(1));
        // Full set: the next probed fill must evict the LRU way.
        let out = fill(&mut c, 5);
        assert_eq!(out.way, Some(0));
        assert_eq!(out.evicted.unwrap().line, LineAddr::new(1));
    }

    #[test]
    fn guard_protects_instruction_victims() {
        let mut c = cache(1, 2);
        c.insert(LineAddr::new(2), &ictx(2), false);
        c.insert(LineAddr::new(4), &dctx(4), false);
        // Touch the data line so the instruction line is the LRU victim.
        c.access(&dctx(4), false);
        // Guard protects all instruction lines: the data line must go.
        let out = guarded(&mut c, 6, 2, |m| m.is_instr);
        assert_eq!(out.protected, 1);
        assert!(!out.evicted.unwrap().is_instr);
        assert!(c.peek(LineAddr::new(2)).is_some(), "instruction line survived");
        assert_eq!(c.stats().guarded_protections, 1);
    }

    #[test]
    fn guard_attempts_are_bounded() {
        // 4-way set full of instruction lines: with max_protects=2 the
        // third choice is evicted even though the guard says protect.
        let mut c = cache(1, 4);
        for i in 0..4 {
            c.insert(LineAddr::new(i), &ictx(i), false);
        }
        let mut asked = 0;
        let out = guarded(&mut c, 9, 2, |_| {
            asked += 1;
            true
        });
        assert_eq!(out.protected, 2);
        assert!(out.evicted.is_some());
        assert_eq!(asked, 2, "guard consulted once per protection");
    }

    #[test]
    fn prefetched_bit_consumed_on_demand_hit() {
        let mut c = cache(4, 2);
        let mut ctx = dctx(0x20);
        ctx.is_prefetch = true;
        c.insert(LineAddr::new(0x20), &ctx, false);
        assert!(c.peek(LineAddr::new(0x20)).unwrap().prefetched);
        assert!(c.access(&dctx(0x20), false));
        assert!(!c.peek(LineAddr::new(0x20)).unwrap().prefetched);
        assert_eq!(c.stats().prefetch_useful, 1);
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = cache(4, 2);
        c.insert(LineAddr::new(0x30), &dctx(0x30), false);
        let meta = c.invalidate(LineAddr::new(0x30)).unwrap();
        assert_eq!(meta.line, LineAddr::new(0x30));
        assert!(c.peek(LineAddr::new(0x30)).is_none());
        assert!(c.invalidate(LineAddr::new(0x30)).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn refresh_of_resident_line_does_not_evict() {
        let mut c = cache(1, 2);
        c.insert(LineAddr::new(1), &dctx(1), false);
        c.insert(LineAddr::new(3), &dctx(3), false);
        let out = c.insert(LineAddr::new(1), &dctx(1), true);
        assert!(out.evicted.is_none());
        assert!(c.peek(LineAddr::new(1)).unwrap().dirty);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn shard_view_maps_global_sets_to_local_range() {
        // Parent: 8 sets. Shard owns global sets [4, 8).
        let mut c = SetAssocCache::new(CacheConfig::shard("llc.s1", 8, 4, 4, 2), PolicyKind::Lru);
        // Line 12 → global set 4 → local set 0; line 15 → global 7 → local 3.
        assert_eq!(c.set_of(LineAddr::new(12)), 0);
        assert_eq!(c.set_of(LineAddr::new(15)), 3);
        let parent = SetAssocCache::new(CacheConfig::new("llc", 8, 2), PolicyKind::Lru);
        assert_eq!(parent.set_of(LineAddr::new(12)), 4, "global set 4 = base 4 + local 0");
        c.insert(LineAddr::new(12), &dctx(12), false);
        assert!(c.access(&dctx(12), false));
        // Lines 4 and 12 collide in the same local set (both global set 4).
        c.insert(LineAddr::new(4), &dctx(4), false);
        assert_eq!(c.set_of(LineAddr::new(4)), 0);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn instruction_bit_recorded() {
        let mut c = cache(4, 2);
        c.insert(LineAddr::new(5), &ictx(5), false);
        assert!(c.peek(LineAddr::new(5)).unwrap().is_instr);
    }

    #[test]
    fn peek_mut_edits_only_directory_state() {
        let mut c = cache(4, 2);
        c.insert(LineAddr::new(7), &dctx(7), false);
        {
            let mut m = c.peek_mut(LineAddr::new(7)).unwrap();
            assert!(!m.dirty());
            m.set_dirty();
            m.add_sharer(3);
            m.add_sharer(5);
            m.set_state(MesiState::Shared);
            assert_eq!(m.sharer_count(), 2);
        }
        let meta = c.peek(LineAddr::new(7)).unwrap();
        assert!(meta.dirty);
        assert_eq!(meta.sharers, (1 << 3) | (1 << 5));
        assert_eq!(meta.state, MesiState::Shared);
        assert_eq!(meta.line, LineAddr::new(7), "tag untouched by directory edits");
        assert!(c.peek_mut(LineAddr::new(0x999)).is_none());
    }

    #[test]
    fn frame_meta_materializes_soa_columns() {
        let mut c = cache(2, 2);
        let set = c.set_of(LineAddr::new(6));
        assert_eq!(c.frame_meta(set, 0), LineMeta::empty());
        c.insert(LineAddr::new(6), &ictx(6), true);
        let way = c.lookup(LineAddr::new(6)).unwrap();
        let m = c.frame_meta(set, way);
        assert!(m.valid && m.dirty && m.is_instr);
        assert_eq!(m.state, MesiState::Modified);
        assert_eq!(m.line, LineAddr::new(6));
        assert_eq!(c.set_lines(set).count(), 1);
    }

    #[test]
    fn top_quotient_wraps_to_word_zero_and_stays_resident() {
        // 64 sets: quotient 2^32 − 1 is the line (2^32 − 1) × 64 + set,
        // whose tag word wraps to the empty frame's 0.
        let mut c = cache(64, 2);
        let top = LineAddr::new(((1 << 32) - 1) * 64 + 3);
        let low = LineAddr::new(3);
        assert!(c.lookup(top).is_none(), "an empty frame never matches word 0");
        c.insert(top, &ictx(top.get()), true);
        let way = c.lookup(top).expect("resident");
        assert_eq!(c.frame_meta(3, way).line, top);
        assert!(c.lookup(low).is_none());
        // The occupied word-0 frame is not free: the next fill takes the other way.
        let out = c.insert(low, &dctx(3), false);
        assert_eq!(out.way, Some(1 - way));
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.invalidate(top).map(|m| m.line), Some(top));
        assert!(c.lookup(top).is_none());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    #[should_panic(expected = "cache l1d7: line 0x4000000000 is past its 32-bit tag words")]
    fn a_line_past_the_tag_words_names_the_cache() {
        // 64 sets hold quotients below 2^32: lines below 2^38.
        let mut c = SetAssocCache::new(CacheConfig::new("l1d7", 64, 8), PolicyKind::Lru);
        c.insert(LineAddr::new(1 << 38), &dctx(1 << 38), false);
    }

    #[test]
    #[should_panic(expected = "cache llc: line 0x40ffffffbf is past its 32-bit tag words")]
    fn a_cache_of_more_than_64_sets_stores_no_word_zero() {
        // Quotient 2^32 − 1 of 65 sets lies past the 38-bit line space.
        let mut c = SetAssocCache::new(CacheConfig::new("llc", 65, 2), PolicyKind::Lru);
        let top = ((1 << 32) - 1) * 65;
        c.insert(LineAddr::new(top - 65), &dctx(top - 65), false);
        assert!(c.lookup(LineAddr::new(top)).is_none());
        c.insert(LineAddr::new(top), &dctx(top), false);
    }

    #[test]
    #[should_panic(expected = "65 ways exceed the 64-bit way masks")]
    fn more_ways_than_a_way_mask_holds_panic() {
        let _ = CacheConfig::new("x", 1, 65);
    }
}
