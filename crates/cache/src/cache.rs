//! The set-associative cache structure.
//!
//! Frames are stored in structure-of-arrays form: one contiguous array of
//! packed tag words ([`PackedTag`]: valid bit folded into the line address)
//! scanned in a single branch-light pass per lookup, with the per-line
//! metadata ([`LineFlags`] byte, sharer mask) in parallel arrays touched
//! only on hit or victim selection. See ARCHITECTURE.md §"SoA tag arrays".

use crate::line::{LineFlags, LineMeta, MesiState, PackedTag};
use crate::policy::{build_policy, Lru, PolicyCtx, PolicyKind, ReplacementPolicy};
use crate::stats::CacheStats;
use garibaldi_types::fastdiv::FastDiv;
use garibaldi_types::{hint, AccessKind, LineAddr, LINE_BYTES};

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
}

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
    /// Panics if `sets` or `ways` is zero.
    pub fn new(name: impl Into<String>, sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "degenerate cache geometry");
        Self { name: name.into(), sets, ways, indexing: SetIndexing::Modulo }
    }

    /// Creates a shard view owning global sets `[base, base + sets)` of a
    /// `modulus`-set cache (set-sharded LLC backends).
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry or a range outside the parent cache.
    pub fn shard(
        name: impl Into<String>,
        modulus: usize,
        base: usize,
        sets: usize,
        ways: usize,
    ) -> Self {
        assert!(sets > 0 && ways > 0, "degenerate cache geometry");
        assert!(base + sets <= modulus, "shard range exceeds parent sets");
        Self {
            name: name.into(),
            sets,
            ways,
            indexing: SetIndexing::Shard { modulus: modulus as u64, base: base as u64 },
        }
    }

    /// Global set index of `line` under this config's indexing (for shard
    /// views this is the parent cache's set, not the local one).
    #[inline]
    pub fn global_set_of(&self, line: LineAddr) -> usize {
        match self.indexing {
            SetIndexing::Modulo => (line.get() % self.sets as u64) as usize,
            SetIndexing::Shard { modulus, .. } => (line.get() % modulus) as usize,
        }
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

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * LINE_BYTES
    }
}

/// Alias re-exported as the cache's access context.
pub type AccessCtx = PolicyCtx;

/// A line pushed out of the cache by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The victim's metadata at eviction time.
    pub meta: LineMeta,
}

/// Result of a fill attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Way the line was placed in (`None` if the policy bypassed the fill).
    pub way: Option<usize>,
    /// Valid line displaced by the fill, if any.
    pub evicted: Option<EvictedLine>,
    /// Number of victim candidates protected by the guard before the final
    /// victim was chosen (0 when no guard ran or nothing was protected).
    pub protected: u32,
}

/// Precomputed set-index arithmetic: `line % sets` costs a hardware
/// divide per access, which the hot path pays three-plus times per
/// record (L1, L2, LLC). Power-of-two set counts — every L1/L2 geometry
/// `from_capacity` produces — reduce to a mask; the non-power-of-two LLC
/// keeps the modulo. Bit-identical to the modulo in every case.
#[derive(Debug, Clone, Copy)]
enum SetIndexFast {
    /// `sets`/`modulus` is a power of two: index = `line & mask`.
    Mask { mask: u64, base: u64 },
    /// General case: index = `line % modulus - base`, the remainder taken
    /// by multiplication.
    Mod { modulus: FastDiv, base: u64 },
}

impl SetIndexFast {
    fn new(cfg: &CacheConfig) -> Self {
        let (modulus, base) = match cfg.indexing {
            SetIndexing::Modulo => (cfg.sets as u64, 0),
            SetIndexing::Shard { modulus, base } => (modulus, base),
        };
        if modulus.is_power_of_two() {
            Self::Mask { mask: modulus - 1, base }
        } else {
            Self::Mod { modulus: FastDiv::new(modulus), base }
        }
    }

    #[inline]
    fn set_of(self, line: u64) -> usize {
        match self {
            Self::Mask { mask, base } => ((line & mask) - base) as usize,
            Self::Mod { modulus, base } => (modulus.remainder(line) - base) as usize,
        }
    }
}

/// Result of the fused tag scan: hit way, or the set's first free way.
#[derive(Debug, Clone, Copy)]
enum ScanHit {
    /// The probed line is resident in this way.
    Way(usize),
    /// Not resident; `Some(w)` is the lowest-index empty frame.
    Free(Option<usize>),
}

/// Findings of one [`SetAssocCache::probe_fill`] tag scan, as plain data
/// (no borrow of the cache is held).
///
/// A non-resident probe can be redeemed with [`SetAssocCache::fill_probed`]
/// to complete the fill without re-walking the tag row — but only while no
/// intervening operation has filled or invalidated a frame of the same
/// cache (the free-way finding would go stale). Reads (`lookup`, `peek`)
/// and operations on *other* caches never invalidate a probe.
#[derive(Debug, Clone, Copy)]
pub struct FillProbe {
    set: usize,
    hit: Option<usize>,
    free: Option<usize>,
}

impl FillProbe {
    /// True if the probed line was resident at probe time.
    #[inline]
    pub fn resident(&self) -> bool {
        self.hit.is_some()
    }

    /// Set the probed line maps to (for staleness checks by callers that
    /// interleave other fills before redeeming the probe).
    #[inline]
    pub fn set(&self) -> usize {
        self.set
    }
}

/// Result of [`SetAssocCache::access_or_probe`].
#[derive(Debug, Clone, Copy)]
pub enum AccessOutcome {
    /// Demand hit (stats and policy updated exactly as
    /// [`SetAssocCache::access`] would).
    Hit,
    /// Demand miss; the probe carries the scan's free-way finding so the
    /// follow-up fill can skip its residency re-scan.
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
    sharers: &'a mut u64,
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
        *self.sharers
    }

    /// Replaces the sharer mask.
    #[inline]
    pub fn set_sharers(&mut self, mask: u64) {
        *self.sharers = mask;
    }

    /// Adds one sharer cluster to the directory mask.
    #[inline]
    pub fn add_sharer(&mut self, cluster: usize) {
        *self.sharers |= 1 << cluster;
    }

    /// Number of sharer clusters recorded in the directory mask.
    #[inline]
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
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
    /// (stamps, RRPVs, ETRs — whatever the policy reads on every event).
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
/// Storage is structure-of-arrays: `tags` holds one [`PackedTag`] word per
/// frame (`set * ways + way`), scanned in a single pass per lookup;
/// `flags`/`sharers` hold the per-line metadata and are only touched on
/// hit, fill, or victim selection.
pub struct SetAssocCache {
    config: CacheConfig,
    set_index: SetIndexFast,
    ways: usize,
    tags: Vec<u64>,
    flags: Vec<u8>,
    sharers: Vec<u64>,
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
            config,
            set_index,
            tags: vec![PackedTag::EMPTY.raw(); frames],
            flags: vec![LineFlags::EMPTY.raw(); frames],
            // Allocated on first `peek_mut`: only the LLC shards run
            // directory updates, so private L1/L2 caches never pay the
            // column's memory footprint or the cold-line store every fill
            // would otherwise make (`sharers[i] = 0` on an untouched column
            // is the only writer, so an unallocated column is all-zero by
            // construction).
            sharers: Vec::new(),
            policy,
            stats: CacheStats::default(),
        }
    }

    /// Sharer mask of frame `i` (0 while the column is unallocated).
    #[inline]
    fn sharers_at(&self, i: usize) -> u64 {
        self.sharers.get(i).copied().unwrap_or(0)
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

    /// Replacement policy name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.as_dyn().name()
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

    /// Way of `line` within its (precomputed) set: one pass over the set's
    /// contiguous tag words, one equality compare per way (the valid bit is
    /// folded into the word, so empty frames can never match), and one
    /// definition of the tag-match predicate for every
    /// lookup/access/insert/peek path.
    #[inline]
    fn way_in(&self, set: usize, line: LineAddr) -> Option<usize> {
        let base = set * self.ways;
        let probe = PackedTag::new(line).raw();
        // Branchless whole-row compare into a way bitmask: no early exit,
        // so LLVM vectorizes the tag row (misses — the common case on the
        // bigger caches — always walk the full row anyway). At most one
        // way can match; lowest-index semantics kept via trailing_zeros.
        let mut hits = 0u64;
        for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
            hits |= ((t == probe) as u64) << w;
        }
        if hits != 0 {
            Some(hits.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Fused scan for the insert paths: resolves hit way *and* first free
    /// way in the same single pass over the set's tag words.
    #[inline]
    fn scan_for_insert(&self, set: usize, line: LineAddr) -> ScanHit {
        let base = set * self.ways;
        let probe = PackedTag::new(line).raw();
        // Same branchless mask scan as `way_in`, with a second mask for
        // empty frames; first-match / first-free-way semantics preserved
        // via trailing_zeros.
        let mut hits = 0u64;
        let mut empties = 0u64;
        for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
            hits |= ((t == probe) as u64) << w;
            empties |= ((t == PackedTag::EMPTY.raw()) as u64) << w;
        }
        if hits != 0 {
            return ScanHit::Way(hits.trailing_zeros() as usize);
        }
        if empties != 0 {
            ScanHit::Free(Some(empties.trailing_zeros() as usize))
        } else {
            ScanHit::Free(None)
        }
    }

    /// Materializes the metadata of frame `(set, way)`
    /// ([`LineMeta::empty`] when the frame is invalid). Diagnostics and
    /// differential testing; the hot paths read the columns directly.
    #[inline]
    pub fn frame_meta(&self, set: usize, way: usize) -> LineMeta {
        let i = set * self.ways + way;
        LineMeta::unpack(
            PackedTag::from_raw(self.tags[i]),
            LineFlags::from_raw(self.flags[i]),
            self.sharers_at(i),
        )
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
        // Tag row: 8 bytes per way, one cache line per 8 ways.
        hint::prefetch_index(&self.tags, base);
        if self.ways > 8 {
            hint::prefetch_index(&self.tags, base + 8);
        }
        hint::prefetch_index(&self.flags, base);
        self.policy.prefetch_row(set);
    }

    /// Pure lookup: way holding `line`, if present. No policy update.
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<usize> {
        self.way_in(self.set_of(line), line)
    }

    /// [`SetAssocCache::lookup`] with the set precomputed by the caller.
    #[inline]
    pub fn lookup_at(&self, set: usize, line: LineAddr) -> Option<usize> {
        debug_assert_eq!(set, self.set_of(line));
        self.way_in(set, line)
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
            self.sharers = vec![0; self.tags.len()];
        }
        LineMut { flags: &mut self.flags[i], sharers: &mut self.sharers[i] }
    }

    /// Demand access: returns `true` on hit (recording stats and updating
    /// the policy), `false` on miss (recording stats only — the caller
    /// fills via [`SetAssocCache::insert`] after the lower levels answer).
    ///
    /// On a hit the prefetched bit is consumed (counted as a useful
    /// prefetch) and `dirty` is set for writes.
    #[inline]
    pub fn access(&mut self, ctx: &AccessCtx, is_write: bool) -> bool {
        // Compute the set once; the tag scan reuses it (the index divide
        // dominates small-cache access cost otherwise).
        let set = self.set_of(ctx.line);
        self.access_way_at(set, ctx, is_write).is_some()
    }

    /// [`SetAssocCache::access`] with the set precomputed by the caller and
    /// the hit way returned: a drain that resolved the set in a prologue
    /// pass can update directory state on the returned frame
    /// ([`SetAssocCache::frame_mut`]) without re-probing the tag row.
    #[inline]
    pub fn access_way_at(&mut self, set: usize, ctx: &AccessCtx, is_write: bool) -> Option<usize> {
        debug_assert_eq!(set, self.set_of(ctx.line));
        let kind = if ctx.is_instr { AccessKind::Instr } else { AccessKind::Data };
        match self.way_in(set, ctx.line) {
            Some(way) => {
                self.stats.record_access(kind, true);
                let i = set * self.ways + way;
                let f = self.flags[i];
                if f & LineFlags::PREFETCHED != 0 {
                    self.stats.prefetch_useful += 1;
                }
                // One masked store, skipped when it would be a no-op (the
                // common clean-read hit): consume the prefetched bit, set
                // dirty on writes.
                let nf = (f & !LineFlags::PREFETCHED) | ((is_write as u8) * LineFlags::DIRTY);
                if nf != f {
                    self.flags[i] = nf;
                }
                self.policy.on_hit(set, way, ctx);
                Some(way)
            }
            None => {
                self.stats.record_access(kind, false);
                None
            }
        }
    }

    /// Fills `line` with no eviction guard.
    #[inline]
    pub fn insert(&mut self, line: LineAddr, ctx: &AccessCtx, dirty: bool) -> InsertOutcome {
        self.insert_with_guard_opts(line, ctx, dirty, 0, true, |_| false)
    }

    /// [`SetAssocCache::insert`] with the set precomputed by the caller.
    #[inline]
    pub fn insert_at(
        &mut self,
        set: usize,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
    ) -> InsertOutcome {
        self.insert_with_guard_opts_at(set, line, ctx, dirty, 0, true, |_| false)
    }

    /// Single-scan residency probe for fill-if-absent paths (prefetch
    /// fills): resolves the hit way *and* the first free frame in one pass.
    /// Pure — no stats or policy update. See [`FillProbe`] for the
    /// staleness contract on redeeming the probe.
    #[inline]
    pub fn probe_fill(&self, line: LineAddr) -> FillProbe {
        let set = self.set_of(line);
        match self.scan_for_insert(set, line) {
            ScanHit::Way(w) => FillProbe { set, hit: Some(w), free: None },
            ScanHit::Free(free) => FillProbe { set, hit: None, free },
        }
    }

    /// [`SetAssocCache::access`] fused with the fill probe: a hit behaves
    /// exactly like `access` (stats, prefetched-bit consume, policy); a
    /// miss records the miss and returns the scan's [`FillProbe`] so the
    /// follow-up [`SetAssocCache::fill_probed`] skips its residency
    /// re-scan.
    #[inline]
    pub fn access_or_probe(&mut self, ctx: &AccessCtx, is_write: bool) -> AccessOutcome {
        let kind = if ctx.is_instr { AccessKind::Instr } else { AccessKind::Data };
        let set = self.set_of(ctx.line);
        match self.scan_for_insert(set, ctx.line) {
            ScanHit::Way(way) => {
                self.stats.record_access(kind, true);
                let i = set * self.ways + way;
                let f = self.flags[i];
                if f & LineFlags::PREFETCHED != 0 {
                    self.stats.prefetch_useful += 1;
                }
                // One masked store, skipped when it would be a no-op (the
                // common clean-read hit): consume the prefetched bit, set
                // dirty on writes.
                let nf = (f & !LineFlags::PREFETCHED) | ((is_write as u8) * LineFlags::DIRTY);
                if nf != f {
                    self.flags[i] = nf;
                }
                self.policy.on_hit(set, way, ctx);
                AccessOutcome::Hit
            }
            ScanHit::Free(free) => {
                self.stats.record_access(kind, false);
                AccessOutcome::Miss(FillProbe { set, hit: None, free })
            }
        }
    }

    /// Completes a fill whose residency scan was done by
    /// [`SetAssocCache::probe_fill`] / [`SetAssocCache::access_or_probe`],
    /// without re-walking the tag row. Semantically identical to
    /// [`SetAssocCache::insert`] on a non-resident line: free-frame fill,
    /// else policy bypass consult, else unguarded victim selection.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the probe was non-resident and taken from this
    /// cache for this `line`.
    #[inline]
    pub fn fill_probed(
        &mut self,
        probe: FillProbe,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
    ) -> InsertOutcome {
        debug_assert!(probe.hit.is_none(), "fill_probed on a resident probe");
        let set = probe.set;
        debug_assert_eq!(set, self.set_of(line), "probe taken for a different line");
        if let Some(way) = probe.free {
            self.fill_frame(set, way, line, ctx, dirty);
            return InsertOutcome { way: Some(way), evicted: None, protected: 0 };
        }
        if self.policy.should_bypass(set, ctx) {
            self.stats.bypasses += 1;
            return InsertOutcome { way: None, evicted: None, protected: 0 };
        }
        let victim = self.policy.choose_victim(set, ctx, 0);
        debug_assert!(victim < self.ways, "policy returned way {victim} of {}", self.ways);
        let evicted = self.evict_frame(set, victim);
        self.fill_frame(set, victim, line, ctx, dirty);
        InsertOutcome { way: Some(victim), evicted, protected: 0 }
    }

    /// Fills `line`, consulting `guard` on instruction-line victims.
    ///
    /// This is Garibaldi's QBS hook (§4.2): when the policy's chosen victim
    /// is a valid instruction line, `guard(&victim_meta)` is asked whether
    /// to protect it. On protection the victim's priority is reset, the way
    /// is excluded, and selection repeats — at most `max_protects` times
    /// (QBS_MAX_ATTEMPTS); afterwards the next choice is evicted
    /// unconditionally.
    ///
    /// If the line is already resident, the fill is a no-op refresh (the
    /// prefetched bit may be set by a prefetch fill of a resident line).
    pub fn insert_with_guard(
        &mut self,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
        max_protects: u32,
        guard: impl FnMut(&LineMeta) -> bool,
    ) -> InsertOutcome {
        self.insert_with_guard_opts(line, ctx, dirty, max_protects, true, guard)
    }

    /// [`SetAssocCache::insert_with_guard`] with explicit bypass control:
    /// `allow_bypass = false` forces insertion even when the policy would
    /// bypass the fill (used for Garibaldi-protected instruction lines —
    /// a line the pair table would defend must be resident to be defended).
    #[inline]
    pub fn insert_with_guard_opts(
        &mut self,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
        max_protects: u32,
        allow_bypass: bool,
        guard: impl FnMut(&LineMeta) -> bool,
    ) -> InsertOutcome {
        let set = self.set_of(line);
        self.insert_with_guard_opts_at(set, line, ctx, dirty, max_protects, allow_bypass, guard)
    }

    /// [`SetAssocCache::insert_with_guard_opts`] with the set precomputed
    /// by the caller.
    #[inline]
    #[allow(clippy::too_many_arguments)] // the wrapper's arity + the explicit set
    pub fn insert_with_guard_opts_at(
        &mut self,
        set: usize,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
        max_protects: u32,
        allow_bypass: bool,
        mut guard: impl FnMut(&LineMeta) -> bool,
    ) -> InsertOutcome {
        debug_assert_eq!(set, self.set_of(line));

        // One pass resolves both residency (races between prefetch and
        // demand) and the first free frame.
        let free = match self.scan_for_insert(set, line) {
            ScanHit::Way(way) => {
                let i = set * self.ways + way;
                self.flags[i] |= (dirty as u8) * LineFlags::DIRTY;
                let mut f = LineFlags::from_raw(self.flags[i]);
                f.set_is_instr(ctx.is_instr);
                self.flags[i] = f.raw();
                return InsertOutcome { way: Some(way), evicted: None, protected: 0 };
            }
            ScanHit::Free(free) => free,
        };

        // Free frame? (bypass is only consulted for full sets)
        if let Some(way) = free {
            self.fill_frame(set, way, line, ctx, dirty);
            return InsertOutcome { way: Some(way), evicted: None, protected: 0 };
        }

        if allow_bypass && self.policy.should_bypass(set, ctx) {
            self.stats.bypasses += 1;
            return InsertOutcome { way: None, evicted: None, protected: 0 };
        }

        // Victim selection with the protection loop.
        let mut excluded = 0u64;
        let mut protected = 0u32;
        let ways = self.ways;
        let victim = loop {
            let way = self.policy.choose_victim(set, ctx, excluded);
            debug_assert!(way < ways, "policy returned way {way} of {ways}");
            let meta = self.frame_meta(set, way);
            let may_protect = protected < max_protects && excluded.count_ones() + 1 < ways as u32;
            if may_protect && meta.valid && meta.is_instr && guard(&meta) {
                self.policy.reset_priority(set, way);
                excluded |= 1 << way;
                protected += 1;
                self.stats.guarded_protections += 1;
                continue;
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
    fn evict_frame(&mut self, set: usize, victim: usize) -> Option<EvictedLine> {
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
        Some(EvictedLine { meta: old })
    }

    fn fill_frame(&mut self, set: usize, way: usize, line: LineAddr, ctx: &AccessCtx, dirty: bool) {
        let i = set * self.ways + way;
        let state = if dirty { MesiState::Modified } else { MesiState::Exclusive };
        self.tags[i] = PackedTag::new(line).raw();
        self.flags[i] = LineFlags::new(dirty, ctx.is_prefetch, ctx.is_instr, state).raw();
        if let Some(s) = self.sharers.get_mut(i) {
            *s = 0;
        }
        if ctx.is_prefetch {
            self.stats.prefetch_fills += 1;
        }
        self.policy.on_insert(set, way, ctx);
    }

    /// Fills `line` constrained to the ways set in `allowed_mask` (way
    /// partitioning, e.g. reserving LLC ways for instruction lines).
    ///
    /// # Panics
    ///
    /// Panics if `allowed_mask` selects no way of the set.
    pub fn insert_restricted(
        &mut self,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
        allowed_mask: u64,
    ) -> InsertOutcome {
        let set = self.set_of(line);
        self.insert_restricted_at(set, line, ctx, dirty, allowed_mask)
    }

    /// [`SetAssocCache::insert_restricted`] with the set precomputed by
    /// the caller.
    ///
    /// # Panics
    ///
    /// Panics if `allowed_mask` selects no way of the set.
    pub fn insert_restricted_at(
        &mut self,
        set: usize,
        line: LineAddr,
        ctx: &AccessCtx,
        dirty: bool,
        allowed_mask: u64,
    ) -> InsertOutcome {
        let ways = self.ways;
        let full = if ways >= 64 { u64::MAX } else { (1u64 << ways) - 1 };
        let allowed = allowed_mask & full;
        assert!(allowed != 0, "partition mask selects no way");
        debug_assert_eq!(set, self.set_of(line));

        if let Some(way) = self.way_in(set, line) {
            let i = set * ways + way;
            self.flags[i] |= (dirty as u8) * LineFlags::DIRTY;
            let mut f = LineFlags::from_raw(self.flags[i]);
            f.set_is_instr(ctx.is_instr);
            self.flags[i] = f.raw();
            return InsertOutcome { way: Some(way), evicted: None, protected: 0 };
        }

        let base = set * ways;
        if let Some(way) = (0..ways)
            .find(|&w| allowed & (1 << w) != 0 && self.tags[base + w] == PackedTag::EMPTY.raw())
        {
            self.fill_frame(set, way, line, ctx, dirty);
            return InsertOutcome { way: Some(way), evicted: None, protected: 0 };
        }

        let victim = self.policy.choose_victim(set, ctx, !allowed & full);
        let evicted = self.evict_frame(set, victim);
        self.fill_frame(set, victim, line, ctx, dirty);
        InsertOutcome { way: Some(victim), evicted, protected: 0 }
    }

    /// Resets a resident line's eviction priority to the lowest level
    /// (Garibaldi protection applied at fill time: a defended line enters
    /// the cache as the least-likely victim).
    pub fn protect_line(&mut self, line: LineAddr) {
        if let Some(way) = self.lookup(line) {
            let set = self.set_of(line);
            self.policy.reset_priority(set, way);
        }
    }

    /// [`SetAssocCache::protect_line`] for a frame whose way is already
    /// known (e.g. the fill that just returned it) — no tag re-scan.
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
        self.tags[i] = PackedTag::EMPTY.raw();
        self.flags[i] = LineFlags::EMPTY.raw();
        if let Some(s) = self.sharers.get_mut(i) {
            *s = 0;
        }
        self.stats.invalidations += 1;
        Some(meta)
    }

    /// Iterates over the valid lines of a set (materialized; diagnostics).
    pub fn set_lines(&self, set: usize) -> impl Iterator<Item = LineMeta> + '_ {
        (0..self.ways).map(move |w| self.frame_meta(set, w)).filter(|m| m.valid)
    }

    /// Number of valid lines in the whole cache (O(size); diagnostics).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != PackedTag::EMPTY.raw()).count()
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

    #[test]
    fn from_capacity_geometry() {
        let c = CacheConfig::from_capacity("llc", 30 * 1024 * 1024, 12);
        assert_eq!(c.sets, 30 * 1024 * 1024 / 64 / 12);
        assert_eq!(c.capacity_bytes(), 30 * 1024 * 1024);
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
                let a = fused.fill_probed(probe, line, &ctx, x & 4 != 0);
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
    fn access_or_probe_matches_access() {
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
            match fused.access_or_probe(&ctx, is_write) {
                AccessOutcome::Hit => assert!(plain.access(&ctx, is_write)),
                AccessOutcome::Miss(p) => {
                    assert!(!plain.access(&ctx, is_write));
                    let a = fused.fill_probed(p, line, &ctx, is_write);
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
        let p1 = c.probe_fill(LineAddr::new(1));
        assert!(!p1.resident());
        assert_eq!(c.fill_probed(p1, LineAddr::new(1), &dctx(1), false).way, Some(0));
        let p2 = c.probe_fill(LineAddr::new(3));
        assert_eq!(c.fill_probed(p2, LineAddr::new(3), &dctx(3), false).way, Some(1));
        // Full set: the next probed fill must evict the LRU way.
        let p3 = c.probe_fill(LineAddr::new(5));
        let out = c.fill_probed(p3, LineAddr::new(5), &dctx(5), false);
        assert_eq!(out.way, Some(0));
        assert_eq!(out.evicted.unwrap().meta.line, LineAddr::new(1));
    }

    #[test]
    fn guard_protects_instruction_victims() {
        let mut c = cache(1, 2);
        c.insert(LineAddr::new(2), &ictx(2), false);
        c.insert(LineAddr::new(4), &dctx(4), false);
        // Touch the data line so the instruction line is the LRU victim.
        c.access(&dctx(4), false);
        // Guard protects all instruction lines: the data line must go.
        let out = c.insert_with_guard(LineAddr::new(6), &dctx(6), false, 2, |m| m.is_instr);
        assert_eq!(out.protected, 1);
        let evicted = out.evicted.unwrap();
        assert!(!evicted.meta.is_instr);
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
        let out = c.insert_with_guard(LineAddr::new(9), &dctx(9), false, 2, |_| {
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
        assert_eq!(c.config().global_set_of(LineAddr::new(12)), 4);
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
}
