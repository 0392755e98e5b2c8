//! Synthetic workload models and trace generation for the Garibaldi simulator.
//!
//! The paper evaluates 16 server workloads (DaCapo, Renaissance, OLTP-Bench,
//! Chipyard, BrowserBench) and SPEC CPU traces collected with gem5 full-system
//! simulation. Those traces are not redistributable, so this crate builds the
//! closest synthetic equivalent: parameterised *program models* whose random
//! walks reproduce the population statistics the paper's analysis rests on —
//! the **many-to-few** instruction/data access pattern of server workloads
//! (many cold instruction lines each triggering a few hot, shared data lines)
//! and the **few-to-many** pattern of SPEC (a few hot instruction lines
//! streaming over many data lines). See DESIGN.md §1 for the substitution
//! argument.
//!
//! # Examples
//!
//! ```
//! use garibaldi_trace::{registry, TraceGenerator, SyntheticProgram};
//!
//! let profile = registry::by_name("verilator").expect("known workload");
//! let program = SyntheticProgram::build(profile, 42);
//! let mut gen = TraceGenerator::new(&program, 7);
//! let rec = gen.next_record();
//! assert!(rec.instrs > 0);
//! ```

#![warn(missing_docs)]

pub mod generator;
pub mod mix;
pub mod profiles;
pub mod program;
pub mod record;
pub mod registry;
pub mod serial;
pub mod vm;
pub mod zipf;

pub use generator::TraceGenerator;
pub use mix::{random_server_mixes, random_shared_mixes, server_spec_mix, WorkloadMix};
pub use profiles::{WorkloadClass, WorkloadProfile};
pub use program::SyntheticProgram;
pub use record::{DataRef, TraceRecord, MAX_DATA_REFS};
pub use vm::{PpnAllocator, SharedAddressSpace};
pub use zipf::Zipf;
