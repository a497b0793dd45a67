//! Compiler-directed proactive disk power management — the paper's
//! primary contribution (Section 3).
//!
//! Given an analyzable program (the `sdpm-ir` loop-nest IR), this crate
//! performs the three compiler steps of Fig. 1:
//!
//! 1. **Disk access pattern (DAP) extraction** ([`dap`]): combine the
//!    data access pattern with each array's disk layout to produce, per
//!    disk, the compact `<nest, iteration, idle|active>` transition list
//!    the paper shows in Section 3.
//! 2. **Cycle estimation** ([`estimate`]): convert iterations to time
//!    using per-nest cycles-per-iteration estimates. The paper measures
//!    these with `gethrtime` on the real machine; we model the
//!    measurement as the true value perturbed by seeded, per-nest noise —
//!    the source of Table 3's mispredicted speeds.
//! 3. **Explicit power-management call insertion** ([`insert`]): for each
//!    estimated gap that passes the break-even test, insert
//!    `spin_down`/`set_RPM` at the gap start and a **pre-activation**
//!    call `d = ceil(Tsu / (s + Tm))` iterations before the next access
//!    (the paper's formula (1)), producing an instrumented trace the
//!    simulator executes under [`sdpm_sim::Policy::Directive`].
//!
//! [`pipeline`] glues everything into the paper's seven evaluated schemes
//! and the four Section 6 transformation versions.
//!
//! # Example
//!
//! ```
//! use sdpm_core::{run_scheme, PipelineConfig, Scheme};
//! use sdpm_workloads::synth::checkpoint_loop;
//!
//! // A solver that computes for 20 s between full-state dumps.
//! let program = checkpoint_loop(4, 2, 20.0);
//! let cfg = PipelineConfig::default();
//! let base = run_scheme(&program, Scheme::Base, &cfg);
//! let cm = run_scheme(&program, Scheme::CmDrpm, &cfg);
//! // The compiler-managed scheme saves disk energy at ~no time cost.
//! assert!(cm.total_energy_j() < 0.8 * base.total_energy_j());
//! assert!(cm.exec_secs < 1.02 * base.exec_secs);
//! ```

#![forbid(unsafe_code)]
pub mod dap;
pub mod estimate;
pub mod insert;
pub mod pipeline;
sdpm_obs::prof_hooks!();
pub mod scenario;
pub mod session;

pub use dap::{build_dap, Dap, DapEntry, DapState};
pub use estimate::{CycleEstimator, NoiseModel};
#[cfg(feature = "obs")]
pub use insert::insert_directives_with_recorder;
pub use insert::{insert_directives, nest_noise_factors, CmMode, Decision, InsertOutcome};
#[cfg(feature = "obs")]
pub use pipeline::run_scheme_with_recorder;
pub use pipeline::{
    run_all_schemes, run_scheme, run_scheme_with_artifacts, PipelineConfig, Scheme, SchemeArtifacts,
};
pub use scenario::{ArrivalProcess, Mix, MixSession, Tenant};
pub use session::Session;
