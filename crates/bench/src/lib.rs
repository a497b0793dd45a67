//! Experiment harness: regenerates every table and figure of the paper.
//!
//! See `src/bin/repro.rs` for the command-line entry point and the
//! `benches/` directory for the Criterion benchmarks (one per table /
//! figure).

#![forbid(unsafe_code)]
pub mod ablations;
#[cfg(feature = "obs")]
pub mod benchall;
pub mod experiments;
pub mod faultsim;
pub mod format;
pub mod lint;
pub mod mixbench;
#[cfg(feature = "obs")]
pub mod profile;
pub mod prove;
pub mod streambench;

pub use experiments::*;

/// The counting global allocator from `sdpm-obs`, installed for every
/// binary and test in this crate so profiling spans report allocation
/// totals and the bench harnesses can measure *per-phase* heap peaks
/// (`/proc`'s VmHWM is a process-lifetime high-water mark, useless for
/// the second phase onward).
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static COUNTING_ALLOC: sdpm_obs::prof::CountingAlloc = sdpm_obs::prof::CountingAlloc;
