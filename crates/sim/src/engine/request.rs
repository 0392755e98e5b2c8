//! Deferred LLC requests and their drain outcomes.
//!
//! During an epoch, cores resolve private-tier traffic immediately and
//! buffer everything that would touch shared state (the LLC shards, the
//! directory, DRAM) as [`LlcRequest`]s. At the epoch barrier the requests
//! drain in ascending [`ReqKey`] order — `(timestamp, core, seq)` — which
//! is a pure function of per-core simulation, so the drain order (and with
//! it every shared-state mutation) is identical for any worker count.

use garibaldi_types::{LineAddr, VirtAddr};

/// Deterministic drain-order key: issue timestamp (the issuing core's clock
/// in cycles), global core id, then per-core issue sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReqKey {
    /// Core-local clock at issue.
    pub now: u64,
    /// Global core index.
    pub core: u16,
    /// Per-core, per-epoch issue counter.
    pub seq: u32,
}

impl ReqKey {
    /// The key as one integer with the same order: `now`, `core` and `seq`
    /// packed high to low into 112 bits (the barrier's merge key, see
    /// [`super::merge`]).
    #[inline]
    pub fn packed(self) -> u128 {
        (self.now as u128) << 48 | (self.core as u128) << 32 | self.seq as u128
    }
}

/// What kind of shared-state work a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Instruction line reaching the LLC: a demand fetch (`demand`) or a
    /// frontend-prefetch lookup.
    Instr {
        /// Demand fetch (counts stats, returns latency) vs prefetch probe.
        demand: bool,
    },
    /// Demand data access reaching the LLC.
    Data {
        /// The access is a write (directory upgrade on hit).
        is_write: bool,
        /// Triggering instruction line deduced through the issuing core's
        /// helper table at issue time (Garibaldi pair-table update target).
        il_hint: Option<LineAddr>,
        /// `seq` of this record's instruction request, when the fetch also
        /// reached the LLC (feeds the Fig 4c conditional matrix).
        ifetch_seq: Option<u32>,
    },
    /// Dirty line displaced from a private L2 (non-inclusive writeback).
    Writeback {
        /// The displaced line held instructions.
        is_instr: bool,
    },
    /// L1D/L2 hardware-prefetch bandwidth probe: charge a DRAM fetch if the
    /// line is absent from the LLC (the private fill already happened).
    PfProbe,
    /// Directory upkeep for a private-tier hit: record the cluster as a
    /// sharer and/or perform a MESI write upgrade.
    DirUpdate {
        /// Record the issuing cluster in the sharer mask.
        record: bool,
        /// Write upgrade: invalidate remote sharers.
        write: bool,
    },
}

/// One buffered shared-state request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcRequest {
    /// Drain-order key.
    pub key: ReqKey,
    /// Physical line the request targets (selects the shard).
    pub line: LineAddr,
    /// Program counter (Garibaldi helper/threshold bookkeeping).
    pub pc: VirtAddr,
    /// PC signature for replacement-policy context.
    pub sig: u64,
    /// Issuing core's L2 cluster (directory bookkeeping).
    pub cluster: u16,
    /// Request kind.
    pub kind: ReqKind,
}

/// Drain result of one request, scattered back to the issuing core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReqOutcome {
    /// Full access latency in cycles (demand accesses only).
    pub latency: u64,
    /// LLC hit (demand accesses and prefetch probes).
    pub llc_hit: bool,
}

/// A cross-shard command produced by phase A of a barrier and applied in
/// phase B′ (sorted by key, routed to the shard owning its target line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardCmd {
    /// Pair-table allocate/update for `il` (shard of `il`), carrying the
    /// data line and its LLC outcome observed at the data line's shard.
    PairUpdate {
        /// Deduced triggering instruction line.
        il: LineAddr,
        /// LLC outcome of the paired data access.
        data_hit: bool,
        /// The data line itself (D_PPN + in-page line).
        dl: LineAddr,
    },
    /// Pairwise data prefetch issued by an instruction miss (§4.3), filled
    /// at the shard of `dl`.
    PairwisePrefetch {
        /// Data line to install.
        dl: LineAddr,
        /// PC signature of the triggering instruction fetch.
        sig: u64,
        /// Issue timestamp (DRAM channel accounting).
        now: u64,
    },
}

/// A coherence invalidation of remote private copies, produced at a shard
/// and applied to the private tiers after phase A (in key order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalCmd {
    /// Line to invalidate.
    pub line: LineAddr,
    /// Bitmask of clusters holding stale copies.
    pub others: u64,
}
