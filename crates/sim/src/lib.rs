//! Trace-driven multi-disk power simulator.
//!
//! One per-disk model — a power-state machine with its energy ledger,
//! the idle-gap ledger, demand wake-up, the service step and
//! finalization — runs under three arrival drivers:
//!
//! * the closed loop ([`simulate`] and its variants), the primary
//!   model: the application blocks on each I/O request, so any extra
//!   device latency — low-RPM service, an in-flight speed shift, a
//!   spin-up from standby — lengthens execution time, which is how the
//!   paper's Fig. 4 penalties arise;
//! * the open-loop replay ([`replay_open_loop`]): requests at fixed
//!   timestamps, FIFO queues, response times;
//! * the shared-pool mix ([`simulate_mix`]): several tenants' merged
//!   streams on one actively managed pool.
//!
//! The drivers differ only in when requests arrive and in their policy
//! rules; the disk itself is modelled once.
//!
//! The closed loop plays an application event stream
//! ([`sdpm_trace::Trace`]) against a bank of modeled disks and reports
//! execution time and a per-disk energy breakdown.
//!
//! Seven schemes from Section 4.2 are covered by five policy kinds:
//!
//! | paper scheme | here |
//! |---|---|
//! | Base          | [`Policy::Base`] |
//! | TPM           | [`Policy::Tpm`] (fixed idleness threshold) |
//! | ITPM          | [`Policy::IdealTpm`] (oracle two-pass) |
//! | DRPM          | [`Policy::Drpm`] (reactive window heuristic of \[10\]) |
//! | IDRPM         | [`Policy::IdealDrpm`] (oracle two-pass) |
//! | CMTPM, CMDRPM | [`Policy::Directive`] (executes compiler-inserted calls carried by the trace) |
//!
//! The oracle policies run the trace twice: a Base pass recovers the true
//! per-disk idle gaps, from which a provably-feasible action schedule is
//! built ([`oracle`]) and replayed.
//!
//! # Example
//!
//! ```
//! use sdpm_disk::ultrastar36z15;
//! use sdpm_layout::{DiskId, DiskPool};
//! use sdpm_sim::{simulate, Policy};
//! use sdpm_trace::{AppEvent, IoRequest, ReqKind, Trace};
//!
//! // One request, 30 s of compute, another request: a classic idle gap.
//! let io = |iter| AppEvent::Io(IoRequest {
//!     disk: DiskId(0), start_block: iter * 128, size_bytes: 65536,
//!     kind: ReqKind::Read, sequential: false, nest: 0, iter,
//! });
//! let trace = Trace {
//!     name: "demo".into(),
//!     pool_size: 2,
//!     events: vec![
//!         io(0),
//!         AppEvent::Compute { nest: 0, first_iter: 1, iters: 1, secs: 30.0 },
//!         io(2),
//!     ],
//! };
//! let pool = DiskPool::new(2);
//! let base = simulate(&trace, &ultrastar36z15(), pool, &Policy::Base);
//! let ideal = simulate(&trace, &ultrastar36z15(), pool, &Policy::IdealDrpm);
//! assert!(ideal.total_energy_j() < base.total_energy_j());
//! assert_eq!(ideal.exec_secs, base.exec_secs); // pre-activation hides the shifts
//! ```

// The engine replays untrusted traces; a stray `unwrap()` on decoded
// input is a denial-of-service. Failures must flow through `SimError`
// (or, for the infallible `simulate`, an explicit `panic!`).
// Narrowing and sign-discarding casts silently corrupt replayed values,
// so each one must be spelled as an audited conversion or carry an
// allow with its range argument.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]
#![forbid(unsafe_code)]

mod disk;
mod engine;
pub mod error;
pub mod mix;
pub mod openloop;
pub mod oracle;
pub mod policy;
sdpm_obs::prof_hooks!();
pub mod report;

pub use error::SimError;
pub use mix::{simulate_mix, MixPolicy, MixReport, TenantMixReport};
pub use openloop::{replay_open_loop, OpenDiskReport, OpenLoopReport};
pub use policy::{AdaptiveConfig, DirectiveConfig, DrpmConfig, Policy, ScheduledAction, TpmConfig};
pub use report::{GapRecord, MisfireCause, MisfireCauses, PerDiskReport, SimPath, SimReport};

use engine::{Engine, Obs};
use sdpm_disk::DiskParams;
use sdpm_fault::FaultPlan;
use sdpm_layout::DiskPool;
use sdpm_trace::{EventSource, RunSource, Trace};

/// Simulates `trace` on `pool.count()` disks of model `params` under
/// `policy`.
///
/// # Panics
/// If `params` fails validation, the trace fails validation, or the trace
/// was generated for a different pool size.
#[must_use]
pub fn simulate(trace: &Trace, params: &DiskParams, pool: DiskPool, policy: &Policy) -> SimReport {
    match try_simulate(trace, params, pool, policy) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Panic-free variant of [`simulate`].
///
/// # Errors
/// A [`SimError`] describing the invalid input.
pub fn try_simulate(
    trace: &Trace,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
) -> Result<SimReport, SimError> {
    trace.validate().map_err(SimError::InvalidTrace)?;
    drive(Input::Events(trace), params, pool, policy, None, None)
}

/// Simulates an event source — a materialized [`Trace`], a lazy
/// generator ([`sdpm_trace::GenSource`]), a decoded byte stream, or any
/// other re-openable stream — under `policy`, with an optional fault
/// plan attached to the measured run. A *source* rather than a one-shot
/// stream is required because the oracle policies replay the workload
/// twice (a Base pass recovers the gap structure, then the derived
/// schedule is replayed). With `faults` `None` the report is
/// bit-identical to [`simulate`] on the materialized equivalent.
///
/// Unlike [`try_simulate`], the events are not pre-validated — a stream
/// can only be validated by draining it, which would defeat streaming.
/// Structurally invalid events surface as errors from the engine.
///
/// Faults perturb the *measured* pass only: the internal Base pass that
/// oracle policies use to recover the gap structure stays clean, so the
/// schedule is built from the intended timeline and the injected faults
/// then stress its replay — the scenario the paper's estimation-error
/// discussion worries about. A plan whose rates are all zero (see
/// [`sdpm_fault::FaultConfig::is_disabled`]) leaves the report
/// bit-identical to a fault-free run.
///
/// # Errors
/// A [`SimError`] describing the invalid input.
pub fn try_simulate_source_faulted(
    source: &dyn EventSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
    faults: Option<&FaultPlan>,
) -> Result<SimReport, SimError> {
    drive(Input::Events(source), params, pool, policy, faults, None)
}

/// Simulates a run-compressed source — a materialized
/// [`sdpm_trace::RunTrace`], the analytic generator
/// ([`sdpm_trace::GenSource`]), or any other re-openable run stream —
/// through the O(#runs) engine loop. The report is bit-identical to
/// [`try_simulate_source_faulted`] on the lowered per-event equivalent;
/// only the [`SimReport::sim_path`] metadata differs. Oracle policies
/// run their internal Base pass over the same run-compressed records.
///
/// # Errors
/// A [`SimError`] describing the invalid input.
pub fn try_simulate_runs(
    source: &dyn RunSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
) -> Result<SimReport, SimError> {
    try_simulate_runs_faulted(source, params, pool, policy, None)
}

/// [`try_simulate_runs`] with a fault plan attached to the measured
/// run; same oracle semantics as [`try_simulate_source_faulted`]. Under
/// a plan every run record degrades to per-event servicing, counted in
/// [`sdpm_fault::FaultCounts::degraded_expansions`].
///
/// # Errors
/// A [`SimError`] describing the invalid input.
pub fn try_simulate_runs_faulted(
    source: &dyn RunSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
    faults: Option<&FaultPlan>,
) -> Result<SimReport, SimError> {
    drive(Input::Runs(source), params, pool, policy, faults, None)
}

/// Like [`try_simulate_source_faulted`] without faults, but streams the
/// run's event sequence into `rec`.
///
/// Oracle policies (`IdealTpm`/`IdealDrpm`) run the workload twice; only
/// the final schedule-replay pass is recorded — the internal Base pass
/// that recovers the gap structure is an implementation detail, and
/// recording it would interleave two runs in one stream.
///
/// # Panics
/// If `params` fails validation, the stream's pool size does not match
/// `pool`, or an event is malformed.
#[cfg(feature = "obs")]
#[must_use]
pub fn simulate_source_with_recorder(
    source: &dyn EventSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
    rec: &dyn sdpm_obs::Recorder,
) -> SimReport {
    match drive(Input::Events(source), params, pool, policy, None, Some(rec)) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// The two forms a workload reaches the engine in.
#[derive(Clone, Copy)]
enum Input<'a> {
    /// Per-event, through [`Engine::run_events`].
    Events(&'a dyn EventSource),
    /// Run-compressed, through [`Engine::run_records`].
    Runs(&'a dyn RunSource),
}

impl Input<'_> {
    /// Plays a fresh stream of the input through `engine`.
    fn run(self, engine: &Engine, rec: Obs<'_>) -> Result<SimReport, SimError> {
        match self {
            Input::Events(source) => engine.run_events(&mut *source.open(), rec),
            Input::Runs(source) => engine.run_records(&mut *source.open_runs(), rec),
        }
    }
}

/// The one simulator driver behind every entry point. Oracle policies
/// are lowered here: a clean, fault-free, unrecorded Base pass recovers
/// the gap structure, and the derived schedule is what meets `faults`
/// and `rec` on the measured pass.
fn drive(
    input: Input<'_>,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
    faults: Option<&FaultPlan>,
    rec: Obs<'_>,
) -> Result<SimReport, SimError> {
    let _sp = prof::span(match input {
        Input::Events(_) => "sim.simulate",
        Input::Runs(_) => "sim.simulate_runs",
    });
    params.validate().map_err(SimError::InvalidParams)?;
    let policy = match policy {
        Policy::IdealTpm | Policy::IdealDrpm => {
            let base = input.run(&Engine::new(params.clone(), pool, Policy::Base, None), None)?;
            Policy::schedule(if matches!(policy, Policy::IdealTpm) {
                oracle::ideal_tpm_schedule(&base, params)
            } else {
                oracle::ideal_drpm_schedule(&base, params)
            })
        }
        p => p.clone(),
    };
    input.run(
        &Engine::new(params.clone(), pool, policy, faults.cloned()),
        rec,
    )
}
