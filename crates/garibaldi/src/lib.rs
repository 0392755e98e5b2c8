//! **Garibaldi** — pairwise instruction-data management for shared LLCs.
//!
//! This crate implements the paper's contribution (ISCA'25): a hardware
//! module attached to the LLC controller that
//!
//! 1. tracks instruction–data pairs in a direct-mapped **pair table**,
//!    propagating data hotness (LLC hit/miss status) into a per-instruction
//!    **miss cost** counter (§4.1, Fig 5a);
//! 2. **selectively protects** high-cost instruction victims at eviction
//!    time through a QBS-style query (§4.2, Fig 5b);
//! 3. issues **pairwise data prefetches** while serving unprotected
//!    instruction misses (§4.3, Fig 5c);
//! 4. ages costs and adapts the protection threshold with an l-bit
//!    **coloring timer** and a small PMU measuring `P(D_miss | I_miss)`
//!    (§5.2, Fig 9).
//!
//! The module is host-policy agnostic: it plugs into any replacement policy
//! as the guard of [`garibaldi_cache::SetAssocCache::fill`].
//!
//! The structures are separate types so the simulator can slice them.
//! A [`GaribaldiSlice`] holds a [`PairTable`] and a [`DppnTable`] and runs
//! the LLC-side rules on them; each LLC shard of `garibaldi-sim` owns one
//! slice, and the private tiers own the per-core [`HelperTable`]s.
//! [`GaribaldiModule`] assembles a whole-table slice, the helper tables
//! and the [`ThresholdUnit`] into one single-instance model, which the
//! example below, perfbench and the `micro_pair_table` bench drive.
//!
//! # Examples
//!
//! ```
//! use garibaldi::{GaribaldiConfig, GaribaldiModule};
//! use garibaldi_types::{CoreId, LineAddr, VirtAddr};
//!
//! let mut g = GaribaldiModule::new(GaribaldiConfig::default(), 4);
//! let core = CoreId::new(0);
//! let pc = VirtAddr::new(0x40_0000);
//! let il = LineAddr::new(0x100);
//! // Instruction access teaches the helper table the PC→frame mapping…
//! g.on_instr_access(core, pc, il, false, true);
//! // …data accesses then update the pair table through that mapping.
//! g.on_data_access(core, pc, LineAddr::new(0x9000), true);
//! assert!(g.stats().pair_updates > 0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod dppn_table;
pub mod helper_table;
pub mod module;
pub mod pair_table;
pub mod partition;
pub mod slice;
pub mod storage;
pub mod threshold;

pub use config::{GaribaldiConfig, ThresholdMode};
pub use dppn_table::DppnTable;
pub use helper_table::HelperTable;
pub use module::GaribaldiModule;
pub use pair_table::{DlField, PairEntry, PairTable};
pub use partition::instruction_way_mask;
pub use slice::{GaribaldiSlice, GaribaldiStats};
pub use storage::StorageReport;
pub use threshold::{PeriodCounts, ThreadPmu, ThresholdState, ThresholdUnit};
