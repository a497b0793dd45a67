//! Trace-driven multi-disk power simulator.
//!
//! The simulator plays an application event stream ([`sdpm_trace::Trace`])
//! against a bank of modeled disks and reports execution time and a
//! per-disk energy breakdown. It is *closed-loop*: the application blocks
//! on each I/O request, so any extra device latency — low-RPM service, an
//! in-flight speed shift, a spin-up from standby — lengthens execution
//! time, which is how the paper's Fig. 4 penalties arise.
//!
//! Seven schemes from Section 4.2 are covered by five policy kinds:
//!
//! | paper scheme | here |
//! |---|---|
//! | Base          | [`Policy::Base`] |
//! | TPM           | [`Policy::Tpm`] (fixed idleness threshold) |
//! | ITPM          | [`Policy::IdealTpm`] (oracle two-pass) |
//! | DRPM          | [`Policy::Drpm`] (reactive window heuristic of [10]) |
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
// (or, for the legacy infallible wrappers, an explicit `panic!`).
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

pub mod engine;
pub mod error;
pub mod mix;
pub mod openloop;
pub mod oracle;
pub mod policy;
sdpm_obs::prof_hooks!();
pub mod report;
pub mod shard;

pub use engine::Engine;
pub use error::SimError;
pub use mix::{simulate_mix, MixPolicy, MixReport, TenantMixReport};
pub use openloop::{replay_open_loop, replay_open_loop_demuxed, OpenDiskReport, OpenLoopReport};
pub use policy::{AdaptiveConfig, DirectiveConfig, DrpmConfig, Policy, ScheduledAction, TpmConfig};
pub use report::{GapRecord, MisfireCause, MisfireCauses, PerDiskReport, SimPath, SimReport};

use sdpm_disk::DiskParams;
use sdpm_fault::FaultPlan;
use sdpm_layout::DiskPool;
use sdpm_trace::{EventSource, EventStream, RunSource, RunStream, Trace};

/// Below this many *events per disk* the sharded mode's fixed costs
/// (op-log allocation during resolve, thread spawn and replay during the
/// energy pass) outweigh what parallel energy integration saves, so
/// [`simulate_sharded`] falls back to the sequential streamed loop when
/// the source can bound its length up front. The report's
/// [`SimReport::sim_path`] records which path actually ran.
pub const SHARD_MIN_EVENTS_PER_DISK: u64 = 4096;

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
    try_simulate_source(trace, params, pool, policy)
}

/// Simulates an event source — a materialized [`Trace`], a lazy
/// generator ([`sdpm_trace::GenSource`]), or any other re-openable
/// stream — under `policy`. A *source* rather than a one-shot stream is
/// required because the oracle policies replay the workload twice (a
/// Base pass recovers the gap structure, then the derived schedule is
/// replayed). The report is bit-identical to [`simulate`] on the
/// materialized equivalent.
///
/// Unlike [`simulate`], the events are not pre-validated — a stream can
/// only be validated by draining it, which would defeat streaming.
/// Structurally invalid events surface as panics from the engine.
///
/// # Panics
/// If `params` fails validation or the stream's pool size does not match
/// `pool`.
#[must_use]
pub fn simulate_source(
    source: &dyn EventSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
) -> SimReport {
    match try_simulate_source(source, params, pool, policy) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Panic-free variant of [`simulate_source`].
///
/// # Errors
/// A [`SimError`] describing the invalid input.
pub fn try_simulate_source(
    source: &dyn EventSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
) -> Result<SimReport, SimError> {
    run_sim(source, params, pool, policy, None, |engine, stream| {
        engine.try_run_stream(stream)
    })
}

/// [`try_simulate_source`] with a fault plan attached to the measured
/// run. Faults perturb the *measured* pass only: the internal Base pass
/// that oracle policies use to recover the gap structure stays clean,
/// so the schedule is built from the intended timeline and the injected
/// faults then stress its replay — the scenario the paper's
/// estimation-error discussion worries about.
///
/// With `faults` `None` (or a plan whose rates are all zero but which
/// still degrades runs — see [`sdpm_fault::FaultConfig::is_disabled`]),
/// the report is bit-identical to [`try_simulate_source`].
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
    run_sim(source, params, pool, policy, faults, |engine, stream| {
        engine.try_run_stream(stream)
    })
}

/// Like [`simulate_source`], but with per-disk energy integration
/// sharded across threads ([`Engine::run_sharded`]). Bit-identical to
/// [`simulate_source`] on the same source.
///
/// Small workloads don't amortize the sharded mode's fixed costs: when
/// the source knows its length ([`EventSource::size_hint`]) and it is
/// below [`SHARD_MIN_EVENTS_PER_DISK`] events per disk, this routes to
/// the sequential streamed loop instead — same numbers, and the report's
/// [`SimReport::sim_path`] says which path ran.
///
/// # Panics
/// Same conditions as [`simulate_source`].
#[must_use]
pub fn simulate_sharded(
    source: &dyn EventSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
) -> SimReport {
    match try_simulate_sharded(source, params, pool, policy) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Panic-free variant of [`simulate_sharded`].
///
/// # Errors
/// A [`SimError`] describing the invalid input.
pub fn try_simulate_sharded(
    source: &dyn EventSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
) -> Result<SimReport, SimError> {
    if let Some(n) = source.size_hint() {
        if n < u64::from(pool.count()) * SHARD_MIN_EVENTS_PER_DISK {
            return try_simulate_source(source, params, pool, policy);
        }
    }
    let _sp = prof::span("sim.sharded");
    run_sim(source, params, pool, policy, None, |engine, stream| {
        engine.try_run_sharded(stream)
    })
}

/// Simulates a run-compressed source — a materialized
/// [`sdpm_trace::RunTrace`], the analytic generator
/// ([`sdpm_trace::GenSource`]), or any other re-openable run stream —
/// through the O(#runs) engine loop ([`Engine::run_runs`]). The report
/// is bit-identical to [`simulate_source`] on the lowered per-event
/// equivalent; only the [`SimReport::sim_path`] metadata differs. Oracle
/// policies run their internal Base pass over the same run-compressed
/// records.
///
/// # Panics
/// If `params` fails validation or the stream's pool size does not match
/// `pool`.
#[must_use]
pub fn simulate_runs(
    source: &dyn RunSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
) -> SimReport {
    match try_simulate_runs(source, params, pool, policy) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Panic-free variant of [`simulate_runs`].
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
/// run; same oracle semantics as [`try_simulate_source_faulted`].
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
    let _sp = prof::span("sim.simulate_runs");
    params.validate().map_err(SimError::InvalidParams)?;
    let run = |engine: &Engine, stream: &mut dyn RunStream| engine.try_run_runs(stream);
    let faulted = |p: Policy| Engine::with_faults(params.clone(), pool, p, faults.cloned());
    match policy {
        Policy::IdealTpm => {
            let base = Engine::new(params.clone(), pool, Policy::Base)
                .try_run_runs(&mut *source.open_runs())?;
            let sched = oracle::ideal_tpm_schedule(&base, params);
            run(&faulted(Policy::schedule(sched)), &mut *source.open_runs())
        }
        Policy::IdealDrpm => {
            let base = Engine::new(params.clone(), pool, Policy::Base)
                .try_run_runs(&mut *source.open_runs())?;
            let sched = oracle::ideal_drpm_schedule(&base, params);
            run(&faulted(Policy::schedule(sched)), &mut *source.open_runs())
        }
        p => run(&faulted(p.clone()), &mut *source.open_runs()),
    }
}

/// Like [`simulate`], but streams the run's event sequence into `rec`.
///
/// Oracle policies (`IdealTpm`/`IdealDrpm`) run the trace twice; only the
/// final schedule-replay pass is recorded — the internal Base pass that
/// recovers the gap structure is an implementation detail, and recording
/// it would interleave two runs in one stream.
///
/// # Panics
/// Same conditions as [`simulate`].
#[cfg(feature = "obs")]
#[must_use]
pub fn simulate_with_recorder(
    trace: &Trace,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
    rec: &dyn sdpm_obs::Recorder,
) -> SimReport {
    if let Err(e) = trace.validate() {
        panic!("{}", SimError::InvalidTrace(e));
    }
    simulate_source_with_recorder(trace, params, pool, policy, rec)
}

/// Like [`simulate_source`], but streams the (final) run's event
/// sequence into `rec`. Recorder hooks fire identically to the
/// materialized [`simulate_with_recorder`] path — both run the same
/// engine loop over the same event sequence.
///
/// # Panics
/// Same conditions as [`simulate_source`].
#[cfg(feature = "obs")]
#[must_use]
pub fn simulate_source_with_recorder(
    source: &dyn EventSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
    rec: &dyn sdpm_obs::Recorder,
) -> SimReport {
    let out = run_sim(source, params, pool, policy, None, |engine, stream| {
        Ok(engine.run_stream_with_recorder(stream, rec))
    });
    match out {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Shared oracle-aware driver: builds the final engine (with `faults`
/// attached if given) and hands it plus a fresh stream to `run`. Oracle
/// policies first replay a clean fault-free Base pass to recover the
/// gap structure — the derived schedule then meets the faults during
/// the measured replay.
fn run_sim(
    source: &dyn EventSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
    faults: Option<&FaultPlan>,
    run: impl Fn(&Engine, &mut dyn EventStream) -> Result<SimReport, SimError>,
) -> Result<SimReport, SimError> {
    let _sp = prof::span("sim.simulate");
    params.validate().map_err(SimError::InvalidParams)?;
    let faulted = |p: Policy| Engine::with_faults(params.clone(), pool, p, faults.cloned());
    match policy {
        Policy::IdealTpm => {
            let base = Engine::new(params.clone(), pool, Policy::Base)
                .try_run_stream(&mut *source.open())?;
            let sched = oracle::ideal_tpm_schedule(&base, params);
            run(&faulted(Policy::schedule(sched)), &mut *source.open())
        }
        Policy::IdealDrpm => {
            let base = Engine::new(params.clone(), pool, Policy::Base)
                .try_run_stream(&mut *source.open())?;
            let sched = oracle::ideal_drpm_schedule(&base, params);
            run(&faulted(Policy::schedule(sched)), &mut *source.open())
        }
        p => run(&faulted(p.clone()), &mut *source.open()),
    }
}
