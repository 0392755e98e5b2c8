//! Set-associative caches, replacement policies and prefetchers.
//!
//! This crate is the cache substrate of the Garibaldi reproduction. It
//! provides:
//!
//! * [`SetAssocCache`] — a set-associative cache in structure-of-arrays
//!   form: packed tag words scanned in a single pass, with per-line
//!   metadata (dirty/prefetched/instruction bits, MESI state and sharer
//!   mask for the LLC directory) in parallel arrays, driven by a boxed
//!   [`ReplacementPolicy`].
//! * The replacement policies the paper evaluates — LRU, DRRIP, Hawkeye and
//!   Mockingjay.
//! * Victim selection with an external *protection guard*
//!   ([`SetAssocCache::insert_with_guard`]): the hook Garibaldi's query-based
//!   selective instruction protection (QBS, §4.2) plugs into.
//! * Prefetchers: next-line (L1D), GHB PC/delta correlation (L2, \[48\]) and a
//!   temporal successor prefetcher standing in for I-SPY (L1I).
//!
//! # Examples
//!
//! ```
//! use garibaldi_cache::{AccessCtx, CacheConfig, PolicyKind, SetAssocCache};
//! use garibaldi_types::LineAddr;
//!
//! let mut llc = SetAssocCache::new(CacheConfig::new("llc", 64, 12), PolicyKind::Lru);
//! let ctx = AccessCtx::data(LineAddr::new(0x40), 0xabc);
//! assert!(llc.lookup(LineAddr::new(0x40)).is_none());
//! llc.insert(LineAddr::new(0x40), &ctx, false);
//! assert!(llc.lookup(LineAddr::new(0x40)).is_some());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod line;
pub mod opt;
pub mod policy;
pub mod prefetch;
pub mod sat;
pub mod stats;

pub use cache::{
    AccessCtx, AccessOutcome, CacheConfig, EvictedLine, FillProbe, InsertOutcome, LineMut,
    SetAssocCache, SetIndexing,
};
pub use line::{LineFlags, LineMeta, MesiState, PackedTag};
pub use opt::{simulate_opt, OptResult};
pub use policy::{build_policy, PolicyKind, ReplacementPolicy};
pub use prefetch::{GhbPrefetcher, NextLinePrefetcher, Prefetcher, TemporalPrefetcher};
pub use sat::SatCounter;
pub use stats::CacheStats;
