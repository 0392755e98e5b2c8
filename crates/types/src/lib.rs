//! Shared primitive types for the Garibaldi cache-simulation workspace.
//!
//! This crate defines the address arithmetic (virtual/physical addresses,
//! cacheline and page numbers), memory-access descriptors, identifier
//! newtypes, the deterministic hot-path hashing substrate ([`fasthash`],
//! [`u64map`]), the way-mask row kernels behind every cache lookup
//! ([`rowmask`]) and the named-field walk of every counter record
//! ([`fields`](mod@fields)) used by every other crate in the workspace.
//! It deliberately has no simulator logic so that substrate crates can
//! depend on it without pulling in each other.
//!
//! # Examples
//!
//! ```
//! use garibaldi_types::{PhysAddr, LINE_BYTES, PAGE_BYTES};
//!
//! let pa = PhysAddr::new(0x0d1a_b916_0c40);
//! assert_eq!(pa.line().byte_addr().get(), 0x0d1a_b916_0c40 & !(LINE_BYTES - 1));
//! assert_eq!(pa.page_offset(), 0x0c40 % PAGE_BYTES);
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod addr;
pub mod crc;
pub mod fastdiv;
pub mod fasthash;
pub mod fields;
pub mod hint;
pub mod ids;
pub mod rowmask;
pub mod u64map;

pub use access::{AccessKind, RwKind};
pub use addr::{
    LineAddr, PageNum, PhysAddr, VirtAddr, LINE_BYTES, LINE_OFFSET_BITS, PAGE_BYTES,
    PAGE_OFFSET_BITS, PHYS_ADDR_BITS,
};
pub use fasthash::{FastHashMap, FastHashSet, FxBuildHasher, FxHasher};
pub use fields::{Field, Fields};
pub use ids::{CoreId, ThreadId};
pub use u64map::{U64Set, U64Table};
