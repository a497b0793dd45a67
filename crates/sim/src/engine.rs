//! The closed-loop simulation engine.
//!
//! The engine replays a trace's event stream against per-disk
//! [`PowerStateMachine`]s. Disks are advanced **lazily**: policy actions
//! that fire during an idle stretch (a TPM threshold expiry, a reactive
//! DRPM drift step, a scheduled oracle action) are applied — with their
//! correct timestamps — when the disk is next touched or at finalization,
//! so the energy integral is exact without a global event queue.

use crate::disk::DiskModel;
use crate::error::SimError;
use crate::policy::{DrpmConfig, Policy, ScheduledAction};
use crate::report::{MisfireCause, MisfireCauses, PerDiskReport, SimReport};
use sdpm_disk::{
    service_time_secs, tpm_break_even_secs, DiskParams, DiskPowerState, EnergyBreakdown, RpmLadder,
    RpmLevel, ServiceRequest,
};
use sdpm_fault::{FaultCounts, FaultPlan};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_trace::{AppEvent, EventStream, IoRequest, PowerAction, REvent, Run, RunTrace};

#[cfg(feature = "obs")]
use sdpm_obs::{Event as ObsEvent, Recorder};

/// Recorder handle threaded through the run. With the `obs` feature off
/// this aliases to an uninhabited option, so every emission site — and
/// the event construction inside it — compiles away entirely.
#[cfg(feature = "obs")]
pub(crate) type Obs<'a> = Option<&'a dyn Recorder>;
#[cfg(not(feature = "obs"))]
pub(crate) type Obs<'a> = Option<&'a std::convert::Infallible>;

/// Emits one observability event, or nothing when the feature is off.
macro_rules! obs_emit {
    ($rec:expr, $ev:expr) => {{
        #[cfg(feature = "obs")]
        if let Some(r) = $rec {
            Recorder::record(r, &$ev);
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = &$rec;
        }
    }};
}

/// Emits the start/scheduled-completion pair for the transition the disk
/// just entered (reads the machine state, so a same-level `set_rpm`
/// no-op correctly emits nothing).
macro_rules! obs_transition {
    ($rec:expr, $rt:expr, $at:expr) => {{
        #[cfg(feature = "obs")]
        emit_transition($rec, $rt, $at);
        #[cfg(not(feature = "obs"))]
        {
            let _ = (&$rec, $at);
        }
    }};
}

/// Emits the gap-close event for the gap the disk just recorded.
macro_rules! obs_gap_close {
    ($rec:expr, $rt:expr) => {{
        #[cfg(feature = "obs")]
        emit_gap_close($rec, $rt);
        #[cfg(not(feature = "obs"))]
        {
            let _ = &$rec;
        }
    }};
}

#[cfg(feature = "obs")]
fn emit_transition(rec: Obs<'_>, rt: &DiskRt, at: f64) {
    let Some(r) = rec else { return };
    let id = rt.disk.id;
    match rt.disk.machine.state() {
        DiskPowerState::SpinningDown { until } => {
            r.record(&ObsEvent::SpinDownStart { t: at, disk: id });
            r.record(&ObsEvent::SpinDownComplete {
                t: until,
                disk: id,
                started: at,
            });
        }
        DiskPowerState::SpinningUp { until } => {
            r.record(&ObsEvent::SpinUpStart { t: at, disk: id });
            r.record(&ObsEvent::SpinUpComplete {
                t: until,
                disk: id,
                started: at,
            });
        }
        DiskPowerState::Shifting { from, to, until } => {
            r.record(&ObsEvent::RpmShiftStart {
                t: at,
                disk: id,
                from,
                to,
            });
            r.record(&ObsEvent::RpmShiftComplete {
                t: until,
                disk: id,
                started: at,
                level: to,
            });
        }
        _ => {}
    }
}

#[cfg(feature = "obs")]
fn emit_gap_close(rec: Obs<'_>, rt: &DiskRt) {
    if let (Some(r), Some(g)) = (rec, rt.disk.gaps.last()) {
        r.record(&ObsEvent::GapClose {
            t: g.end,
            disk: rt.disk.id,
            opened: g.start,
            level: g.level,
            standby: g.standby,
        });
    }
}

/// Tag for a [`PowerAction`] in `directive_issued` events.
#[cfg(feature = "obs")]
fn action_label(a: PowerAction) -> &'static str {
    match a {
        PowerAction::SpinDown => "spin_down",
        PowerAction::SpinUp => "spin_up",
        PowerAction::SetRpm(_) => "set_rpm",
    }
}

#[cfg(feature = "obs")]
fn action_level(a: PowerAction) -> Option<RpmLevel> {
    match a {
        PowerAction::SetRpm(l) => Some(l),
        _ => None,
    }
}

/// Closed-loop per-disk state: the shared [`DiskModel`] plus the
/// policy state of the closed-loop rules.
struct DiskRt {
    disk: DiskModel,
    /// Level the disk is at (or shifting toward).
    cur_level: RpmLevel,
    /// Reference time for the next reactive-DRPM drift step.
    drift_mark: f64,
    /// Reactive DRPM: pause drifting after a bad window until a calm one.
    drift_hold: bool,
    /// Reactive DRPM response window accumulator.
    window_sum: f64,
    window_n: usize,
    /// Oracle schedule for this disk (empty unless `Policy::Schedule`).
    sched: Vec<ScheduledAction>,
    sched_idx: usize,
    /// Per-disk fault-decision counter: each potential injection site
    /// consumes one draw, so the fault pattern is a pure function of
    /// `(seed, disk, per-disk event order)` — deterministic across
    /// replays and independent of cross-disk interleaving.
    fault_seq: u64,
    /// Under an injected slow spin-up from a *directive*, the absolute
    /// time the platters actually reach speed (the machine itself still
    /// models the nominal transition; the surplus surfaces as stall).
    slow_ready_at: f64,
}

/// Mid-run engine state: the per-disk runtimes plus the global clock and
/// report accumulators. One instance lives for one simulated run; the
/// per-event and run-record loops mutate it through the same handlers,
/// which is what keeps the two paths bit-identical.
struct ExecState {
    disks: Vec<DiskRt>,
    /// Application clock, seconds.
    t: f64,
    /// Seconds stalled beyond full-speed service.
    stall: f64,
    /// Sum of per-request slowdowns (over requests with non-zero
    /// full-speed service time).
    slow_sum: f64,
    /// Count behind `slow_sum`.
    nreq: u64,
    misfires: MisfireCauses,
    /// Injected-fault counters (all zero unless a [`FaultPlan`] is
    /// attached).
    faults: FaultCounts,
}

/// Closed-loop trace player: one engine plays one workload under one
/// (already lowered) policy, through [`Engine::run_events`] or
/// [`Engine::run_records`].
pub(crate) struct Engine {
    params: DiskParams,
    ladder: RpmLadder,
    pool: DiskPool,
    policy: Policy,
    tpm_threshold: f64,
    /// Disk-level fault injection: transient service failures (bounded
    /// retry + exponential backoff), stochastic slow spin-ups, and
    /// stuck-at-RPM transitions, all deterministic in the plan's seed.
    /// `None` keeps every code path — and therefore every float
    /// operation — bit-identical to the engine before fault support
    /// existed.
    faults: Option<FaultPlan>,
}

impl Engine {
    /// Creates an engine for `pool.count()` identical disks.
    ///
    /// # Panics
    /// If an ideal policy is passed directly — the simulator driver
    /// lowers those to [`Policy::Schedule`] first.
    pub(crate) fn new(
        params: DiskParams,
        pool: DiskPool,
        policy: Policy,
        faults: Option<FaultPlan>,
    ) -> Self {
        assert!(
            !matches!(policy, Policy::IdealTpm | Policy::IdealDrpm),
            "ideal policies must be lowered to a Schedule (use sdpm_sim::simulate)"
        );
        let ladder = RpmLadder::new(&params);
        let tpm_threshold = match &policy {
            Policy::Tpm(cfg) => cfg
                .threshold_secs
                .unwrap_or_else(|| tpm_break_even_secs(&params)),
            _ => f64::INFINITY,
        };
        Engine {
            params,
            ladder,
            pool,
            policy,
            tpm_threshold,
            faults,
        }
    }

    /// Plays an event stream to completion and reports. Malformed
    /// events, corrupt stream bytes (via [`EventStream::try_next_chunk`]),
    /// and impossible machine transitions surface as a [`SimError`].
    pub(crate) fn run_events(
        &self,
        stream: &mut dyn EventStream,
        rec: Obs<'_>,
    ) -> Result<SimReport, SimError> {
        let mut st = self.init_state(stream.pool_size(), rec)?;
        while let Some(chunk) = stream.try_next_chunk().map_err(SimError::Codec)? {
            crate::prof::add("sim.events", chunk.len() as u64);
            for event in chunk {
                self.handle_event(&mut st, event, rec)?;
            }
        }
        self.finish(st, rec)
    }

    /// The stored-trace engine loop over a run-compressed trace: plain
    /// records go through the ordinary per-event handler; a [`Run`]
    /// record goes through [`Engine::handle_run`], which services steady
    /// repetitions without policy dispatch or state-machine branching and
    /// expands to the per-event handler exactly where a policy boundary
    /// (TPM threshold, DRPM drift window, scheduled action) lands inside
    /// the run. The report is bit-identical to [`Engine::run_events`] on
    /// the lowered trace. The loop runs without a fault plan or a
    /// recorder.
    pub(crate) fn run_records(&self, trace: &RunTrace) -> Result<SimReport, SimError> {
        debug_assert!(self.faults.is_none(), "run records replay fault-free");
        let mut st = self.init_state(trace.pool_size, None)?;
        crate::prof::add("sim.records", trace.events.len() as u64);
        for record in &trace.events {
            match record {
                REvent::Event(event) => self.handle_event(&mut st, event, None)?,
                REvent::Run(run) => self.handle_run(&mut st, run)?,
            }
        }
        self.finish(st, None)
    }

    /// Per-disk runtimes and global accumulators, positioned at run
    /// start, for a stream generated for `stream_pool` disks.
    fn init_state(&self, stream_pool: u32, rec: Obs<'_>) -> Result<ExecState, SimError> {
        if stream_pool != self.pool.count() {
            return Err(SimError::PoolMismatch {
                stream: stream_pool,
                pool: self.pool.count(),
            });
        }
        let max = self.ladder.max_level();
        let disks: Vec<DiskRt> = (0..self.pool.count())
            .map(|d| DiskRt {
                disk: DiskModel::new(DiskId(d), &self.params),
                cur_level: max,
                drift_mark: 0.0,
                drift_hold: false,
                window_sum: 0.0,
                window_n: 0,
                sched: match &self.policy {
                    Policy::Schedule(per_disk) => {
                        per_disk.get(d as usize).cloned().unwrap_or_default()
                    }
                    _ => Vec::new(),
                },
                sched_idx: 0,
                fault_seq: 0,
                slow_ready_at: 0.0,
            })
            .collect();

        // Every disk's first gap opens at run start.
        #[cfg(feature = "obs")]
        for rt in &disks {
            obs_emit!(
                rec,
                ObsEvent::GapOpen {
                    t: 0.0,
                    disk: rt.disk.id
                }
            );
        }
        #[cfg(not(feature = "obs"))]
        let _ = rec;

        Ok(ExecState {
            disks,
            t: 0.0,
            stall: 0.0,
            slow_sum: 0.0,
            nreq: 0,
            misfires: MisfireCauses::default(),
            faults: FaultCounts::default(),
        })
    }

    /// Dispatches one application event against the running state. Both
    /// engine loops funnel through here; the run-compressed fast path in
    /// [`Engine::handle_run`] must produce bit-identical state updates.
    fn handle_event(
        &self,
        st: &mut ExecState,
        event: &AppEvent,
        rec: Obs<'_>,
    ) -> Result<(), SimError> {
        let max = self.ladder.max_level();
        let ExecState {
            disks,
            t,
            stall,
            slow_sum,
            nreq,
            misfires,
            faults,
        } = st;
        // Pool sizes are constructed from a `u32`; saturation only on
        // impossible inputs, and the value feeds error messages only.
        let pool = u32::try_from(disks.len()).unwrap_or(u32::MAX);
        match event {
            AppEvent::Compute { secs, .. } => *t += secs,
            AppEvent::Power { disk, action } => {
                if let Policy::Directive(cfg) = &self.policy {
                    let rt = disks
                        .get_mut(disk.0 as usize)
                        .ok_or(SimError::DiskOutOfRange { disk: disk.0, pool })?;
                    self.catch_up(rt, *t, misfires, faults, rec)?;
                    obs_emit!(
                        rec,
                        ObsEvent::DirectiveIssued {
                            t: *t,
                            disk: rt.disk.id,
                            action: action_label(*action),
                            level: action_level(*action),
                        }
                    );
                    if let Err(cause) = self.apply_action(rt, *t, *action, rec, faults)? {
                        misfires.count(cause);
                        obs_emit!(
                            rec,
                            ObsEvent::DirectiveMisfire {
                                t: *t,
                                disk: rt.disk.id,
                                cause: cause.label(),
                            }
                        );
                    }
                    *t += cfg.overhead_secs;
                }
            }
            AppEvent::Io(req) => {
                let rt = disks
                    .get_mut(req.disk.0 as usize)
                    .ok_or(SimError::DiskOutOfRange {
                        disk: req.disk.0,
                        pool,
                    })?;
                self.catch_up(rt, *t, misfires, faults, rec)?;
                obs_emit!(
                    rec,
                    ObsEvent::RequestArrived {
                        t: *t,
                        disk: rt.disk.id,
                        bytes: req.size_bytes,
                        write: matches!(req.kind, sdpm_trace::ReqKind::Write),
                    }
                );
                // The request's arrival closes the disk's idle gap.
                if rt.disk.close_gap(*t) {
                    obs_gap_close!(rec, rt);
                }
                let completion = self.service(rt, *t, req, rec, faults)?;
                let full = service_time_secs(
                    &self.params,
                    &self.ladder,
                    max,
                    ServiceRequest {
                        size_bytes: req.size_bytes,
                        sequential: req.sequential,
                    },
                );
                let response = completion - *t;
                let slowdown = if full > 0.0 { response / full } else { 1.0 };
                *stall += response - full;
                obs_emit!(
                    rec,
                    ObsEvent::StallAccrued {
                        t: completion,
                        disk: rt.disk.id,
                        secs: response - full,
                        slowdown,
                    }
                );
                if full > 0.0 {
                    *slow_sum += slowdown;
                    *nreq += 1;
                }
                // Serving opened the next gap at the completion.
                *t = completion;
                rt.drift_mark = *t;
                obs_emit!(
                    rec,
                    ObsEvent::GapOpen {
                        t: *t,
                        disk: rt.disk.id
                    }
                );
                // Reactive DRPM response-window controller.
                if let Policy::Drpm(cfg) = &self.policy {
                    Self::drpm_window_update(
                        rt,
                        cfg,
                        slowdown,
                        *t,
                        max,
                        rec,
                        self.faults.as_ref(),
                        faults,
                    );
                }
            }
        }
        Ok(())
    }

    /// True when the disk can take the next request of a run on the
    /// steady fast path: it is spinning idle (no transition in flight)
    /// and, critically, [`Engine::catch_up`] at time `t` would be a
    /// no-op — every guard here is the same predicate `catch_up`
    /// evaluates, so skipping the call cannot change the trajectory.
    fn steady_ok(&self, rt: &DiskRt, t: f64) -> bool {
        if !matches!(rt.disk.machine.state(), DiskPowerState::Idle { .. }) {
            return false;
        }
        match &self.policy {
            Policy::Base | Policy::Directive(_) => true,
            Policy::Tpm(_) => rt.disk.gap_start + self.tpm_threshold > t,
            Policy::Drpm(cfg) => {
                rt.drift_hold
                    || rt.cur_level == RpmLevel::MIN
                    || rt.drift_mark + cfg.idle_drift_secs > t
            }
            Policy::Schedule(_) => rt.sched_idx >= rt.sched.len() || rt.sched[rt.sched_idx].at > t,
            Policy::IdealTpm | Policy::IdealDrpm => {
                unreachable!("ideal policies are lowered before Engine::new")
            }
        }
    }

    /// Services one [`Run`] record. Each repetition is a compute span
    /// followed by the run's request templates; while a repetition stays
    /// inside one power-state segment (checked by [`Engine::steady_ok`])
    /// the request is serviced inline with the policy bookkeeping
    /// statically resolved — same machine calls, same float operations,
    /// in the same order as [`Engine::handle_event`], so the state after
    /// the run is bitwise identical. The moment a policy boundary (TPM
    /// threshold, DRPM drift window, scheduled action) lands inside the
    /// repetition, that position expands to the exact per-event handler.
    fn handle_run(&self, st: &mut ExecState, run: &Run) -> Result<(), SimError> {
        // A decoded run was validated by the codec, but a hand-built
        // RunTrace reaches here unchecked — and a zero rotation would
        // divide by zero below.
        run.validate().map_err(SimError::InvalidRun)?;
        let max = self.ladder.max_level();
        // Full-speed service time is a function of the template only —
        // hoist it out of the repetition loop.
        let fulls: Vec<f64> = run
            .reqs
            .iter()
            .map(|tpl| {
                service_time_secs(
                    &self.params,
                    &self.ladder,
                    max,
                    ServiceRequest {
                        size_bytes: tpl.io.size_bytes,
                        sequential: tpl.io.sequential,
                    },
                )
            })
            .collect();
        let q = usize::try_from(run.reqs_per_rep()).unwrap_or(usize::MAX);
        let pool = u32::try_from(st.disks.len()).unwrap_or(u32::MAX);
        for rep in 0..run.count {
            // The per-event Compute arm is exactly `t += secs`, and every
            // repetition carries the same bitwise `secs_per_rep`.
            st.t += run.secs_per_rep;
            // Repetition `rep` issues template group `rep % rotation`;
            // each template's disk is fixed, so the hot path still does
            // no per-request disk arithmetic.
            // `rep % rotation` is below `MAX_ROTATION` (16), so the
            // conversion is lossless; a violation fails the slice loudly.
            let base = usize::try_from(rep % run.rotation).unwrap_or(usize::MAX) * q;
            for (j, tpl) in run.reqs[base..base + q].iter().enumerate() {
                let rt =
                    st.disks
                        .get_mut(tpl.io.disk.0 as usize)
                        .ok_or(SimError::DiskOutOfRange {
                            disk: tpl.io.disk.0,
                            pool,
                        })?;
                if !self.steady_ok(rt, st.t) {
                    self.handle_event(st, &run.event_at(rep, (1 + j) as u64), None)?;
                    continue;
                }
                // Steady fast path: catch_up is a proven no-op, there is
                // no recorder, and the disk is spinning idle, so its
                // demand wake-up is immediate. The model calls are the
                // generic Io arm's.
                rt.disk.close_gap(st.t);
                let start = st.t.max(rt.disk.machine.now());
                let served = rt.disk.serve(&self.params, start, &tpl.io)?;
                rt.cur_level = served.level;
                let completion = served.completion;
                let full = fulls[base + j];
                let response = completion - st.t;
                let slowdown = if full > 0.0 { response / full } else { 1.0 };
                st.stall += response - full;
                if full > 0.0 {
                    st.slow_sum += slowdown;
                    st.nreq += 1;
                }
                st.t = completion;
                rt.drift_mark = st.t;
                if let Policy::Drpm(cfg) = &self.policy {
                    Self::drpm_window_update(
                        rt,
                        cfg,
                        slowdown,
                        st.t,
                        max,
                        None,
                        None,
                        &mut st.faults,
                    );
                }
            }
        }
        Ok(())
    }

    /// Finalize: bring every disk to the end of execution, closing its
    /// final gap, and fold the per-disk ledgers into the report.
    fn finish(&self, st: ExecState, rec: Obs<'_>) -> Result<SimReport, SimError> {
        let ExecState {
            mut disks,
            t,
            stall,
            slow_sum,
            nreq,
            mut misfires,
            mut faults,
        } = st;
        let exec_secs = t;
        for rt in &mut disks {
            self.catch_up(rt, exec_secs, &mut misfires, &mut faults, rec)?;
            if rt.disk.finish(exec_secs)? {
                obs_gap_close!(rec, rt);
            }
            obs_emit!(
                rec,
                ObsEvent::DiskEnergy {
                    t: rt.disk.machine.now(),
                    disk: rt.disk.id,
                    joules: rt.disk.machine.energy().breakdown().total_j(),
                }
            );
        }
        obs_emit!(rec, ObsEvent::RunEnd { t: exec_secs });

        let requests_total = disks.iter().map(|d| d.disk.requests).sum();
        let per_disk: Vec<PerDiskReport> = disks
            .into_iter()
            .map(|rt| {
                let m = &rt.disk.machine;
                PerDiskReport {
                    requests: rt.disk.requests,
                    energy: m.energy().breakdown(),
                    spin_downs: m.spin_downs,
                    spin_ups: m.spin_ups,
                    rpm_shifts: m.rpm_shifts,
                    gaps: rt.disk.gaps,
                }
            })
            .collect();
        let energy = per_disk
            .iter()
            .fold(EnergyBreakdown::default(), |acc, d| acc.merged(&d.energy));
        Ok(SimReport {
            policy: self.policy.label().to_string(),
            exec_secs,
            energy,
            per_disk,
            requests: requests_total,
            stall_secs: stall,
            mean_slowdown: if nreq == 0 {
                1.0
            } else {
                slow_sum / nreq as f64
            },
            misfire_causes: misfires,
            faults,
        })
    }

    /// Applies the policy's timed actions for one disk up to time `t`.
    fn catch_up(
        &self,
        rt: &mut DiskRt,
        t: f64,
        misfires: &mut MisfireCauses,
        fc: &mut FaultCounts,
        rec: Obs<'_>,
    ) -> Result<(), SimError> {
        match &self.policy {
            Policy::Base | Policy::Directive(_) => {}
            Policy::Tpm(_) => {
                let fire = rt.disk.gap_start + self.tpm_threshold;
                if fire <= t && matches!(rt.disk.machine.state(), DiskPowerState::Idle { .. }) {
                    let at = fire.max(rt.disk.machine.now());
                    if rt.disk.machine.spin_down(at).is_ok() {
                        rt.disk.gap_standby = true;
                        obs_transition!(rec, rt, at);
                    } else {
                        misfires.count(MisfireCause::SpinDownRejected);
                        obs_emit!(
                            rec,
                            ObsEvent::DirectiveMisfire {
                                t: at,
                                disk: rt.disk.id,
                                cause: MisfireCause::SpinDownRejected.label(),
                            }
                        );
                    }
                }
            }
            Policy::Drpm(cfg) => {
                if rt.drift_hold {
                    return Ok(());
                }
                let one_step = self.params.rpm_transition_secs_per_step;
                while rt.cur_level > RpmLevel::MIN {
                    let fire = rt.drift_mark + cfg.idle_drift_secs;
                    if fire > t {
                        break;
                    }
                    // Complete any in-flight shift first.
                    if let DiskPowerState::Shifting { until, .. } = rt.disk.machine.state() {
                        rt.disk
                            .machine
                            .advance(until)
                            .map_err(|e| SimError::power("finish shift", rt.disk.id, until, e))?;
                    }
                    let at = fire.max(rt.disk.machine.now());
                    // Injected fault: the actuator sticks at its current
                    // level. Counted both as a fault and as the misfire
                    // the policy observes; drifting stops for this gap.
                    if let Some(plan) = &self.faults {
                        let n = rt.fault_seq;
                        rt.fault_seq += 1;
                        if plan.stuck_rpm(rt.disk.id.0, n) {
                            fc.stuck_rpm += 1;
                            misfires.count(MisfireCause::RpmShiftRejected);
                            obs_emit!(
                                rec,
                                ObsEvent::FaultInjected {
                                    t: at,
                                    disk: rt.disk.id,
                                    kind: sdpm_fault::kind::STUCK_RPM,
                                }
                            );
                            break;
                        }
                    }
                    let target = self.ladder.step_down(rt.cur_level);
                    if rt.disk.machine.set_rpm(at, target).is_ok() {
                        obs_transition!(rec, rt, at);
                        rt.cur_level = target;
                        rt.disk.gap_level = rt.disk.gap_level.min(target);
                        rt.drift_mark = at + one_step;
                    } else {
                        misfires.count(MisfireCause::RpmShiftRejected);
                        obs_emit!(
                            rec,
                            ObsEvent::DirectiveMisfire {
                                t: at,
                                disk: rt.disk.id,
                                cause: MisfireCause::RpmShiftRejected.label(),
                            }
                        );
                        break;
                    }
                }
            }
            Policy::Schedule(_) => {
                while rt.sched_idx < rt.sched.len() && rt.sched[rt.sched_idx].at <= t {
                    let a = rt.sched[rt.sched_idx];
                    rt.sched_idx += 1;
                    obs_emit!(
                        rec,
                        ObsEvent::DirectiveIssued {
                            t: a.at,
                            disk: rt.disk.id,
                            action: action_label(a.action),
                            level: action_level(a.action),
                        }
                    );
                    if let Err(cause) = self.apply_action(rt, a.at, a.action, rec, fc)? {
                        misfires.count(cause);
                        obs_emit!(
                            rec,
                            ObsEvent::DirectiveMisfire {
                                t: a.at,
                                disk: rt.disk.id,
                                cause: cause.label(),
                            }
                        );
                    }
                }
            }
            Policy::IdealTpm | Policy::IdealDrpm => {
                unreachable!("ideal policies are lowered before Engine::new")
            }
        }
        Ok(())
    }

    /// Makes the disk serviceable at or after `t`, begins and completes
    /// service, and returns the completion time.
    fn service(
        &self,
        rt: &mut DiskRt,
        t: f64,
        req: &IoRequest,
        rec: Obs<'_>,
        fc: &mut FaultCounts,
    ) -> Result<f64, SimError> {
        // Injected fault: transient service failures. Each failed
        // attempt costs an exponentially growing backoff before the
        // retry; a request whose budget runs out is serviced anyway
        // (degraded) — the closed-loop application cannot drop it. The
        // delay shifts the effective arrival, so it surfaces as stall.
        let t = match &self.faults {
            Some(plan) => {
                let n = rt.fault_seq;
                rt.fault_seq += 1;
                let (failed, exhausted) = plan.transient_failures(rt.disk.id.0, n);
                if failed > 0 {
                    fc.transient_failures += 1;
                    fc.retries += u64::from(failed);
                    if exhausted {
                        fc.retry_exhausted += 1;
                    }
                    obs_emit!(
                        rec,
                        ObsEvent::FaultInjected {
                            t,
                            disk: rt.disk.id,
                            kind: sdpm_fault::kind::TRANSIENT,
                        }
                    );
                    t + plan.backoff_secs(failed)
                } else {
                    t
                }
            }
            None => t,
        };
        // Under an injected fault a spin-up can come up slow: one the
        // wake-up issues adds its surplus here, and a directive-issued
        // one left its late ready time in `slow_ready_at`.
        let (mut start, spin_up_at) = rt.disk.wake(t)?;
        if let Some(at) = spin_up_at {
            obs_transition!(rec, rt, at);
            start += self.slow_spinup_extra(rt, at, rec, fc);
        }
        if self.faults.is_some() {
            start = start.max(rt.slow_ready_at);
        }
        let served = rt.disk.serve(&self.params, start, req)?;
        rt.cur_level = served.level;
        obs_emit!(
            rec,
            ObsEvent::ServiceStart {
                t: start,
                disk: rt.disk.id,
                level: served.level,
            }
        );
        obs_emit!(
            rec,
            ObsEvent::ServiceEnd {
                t: served.completion,
                disk: rt.disk.id,
            }
        );
        Ok(served.completion)
    }

    /// Injected fault: a demand spin-up that comes up slower than the
    /// nominal `Tsu`. Returns the extra seconds (0.0 when no plan is
    /// attached or this spin-up is healthy). The machine still models
    /// the nominal transition; only the application-visible readiness
    /// is delayed.
    fn slow_spinup_extra(
        &self,
        rt: &mut DiskRt,
        at: f64,
        rec: Obs<'_>,
        fc: &mut FaultCounts,
    ) -> f64 {
        #[cfg(not(feature = "obs"))]
        let _ = at;
        let Some(plan) = &self.faults else {
            return 0.0;
        };
        let n = rt.fault_seq;
        rt.fault_seq += 1;
        let extra = plan.slow_spinup_extra(rt.disk.id.0, n, self.params.spin_up_secs);
        if extra > 0.0 {
            fc.slow_spinups += 1;
            obs_emit!(
                rec,
                ObsEvent::FaultInjected {
                    t: at,
                    disk: rt.disk.id,
                    kind: sdpm_fault::kind::SLOW_SPINUP,
                }
            );
        }
        extra
    }

    /// Reactive DRPM window bookkeeping after a completed request.
    #[allow(clippy::too_many_arguments)]
    fn drpm_window_update(
        rt: &mut DiskRt,
        cfg: &DrpmConfig,
        slowdown: f64,
        t: f64,
        max: RpmLevel,
        rec: Obs<'_>,
        plan: Option<&FaultPlan>,
        fc: &mut FaultCounts,
    ) {
        rt.window_sum += slowdown;
        rt.window_n += 1;
        // Injected fault: a stuck-at-RPM actuator ignores the shift
        // request. The window statistics still reset, so a stuck disk
        // keeps re-attempting on later windows — mirroring a retried
        // ioctl rather than a wedged controller.
        let stuck = |rt: &mut DiskRt, fc: &mut FaultCounts| -> bool {
            let Some(plan) = plan else { return false };
            let n = rt.fault_seq;
            rt.fault_seq += 1;
            if plan.stuck_rpm(rt.disk.id.0, n) {
                fc.stuck_rpm += 1;
                obs_emit!(
                    rec,
                    ObsEvent::FaultInjected {
                        t,
                        disk: rt.disk.id,
                        kind: sdpm_fault::kind::STUCK_RPM,
                    }
                );
                true
            } else {
                false
            }
        };
        // Immediate per-request reaction ([10]'s upper tolerance): a
        // severely slow service ramps the disk up one level right away;
        // moderate slowdowns wait for the window check, which is what
        // lets penalties linger after deep drifts (the paper's Fig. 6
        // large-stripe behavior).
        if slowdown > cfg.upper_tolerance && rt.cur_level < max {
            let target = RpmLevel((rt.cur_level.0 + 1).min(max.0));
            if !stuck(rt, fc) && rt.disk.machine.set_rpm(t, target).is_ok() {
                obs_transition!(rec, rt, t);
                rt.cur_level = target;
            }
        }
        if rt.window_n < cfg.window {
            return;
        }
        let avg = rt.window_sum / rt.window_n as f64;
        rt.window_sum = 0.0;
        rt.window_n = 0;
        if avg > cfg.upper_tolerance {
            // Compensate: restore full speed and hold it until the
            // response recovers (the slowdown/restore oscillation the
            // paper describes for large stripe sizes).
            if !stuck(rt, fc) && rt.disk.machine.set_rpm(t, max).is_ok() {
                obs_transition!(rec, rt, t);
                rt.cur_level = max;
            }
            rt.drift_hold = true;
        } else if avg <= cfg.lower_tolerance {
            rt.drift_hold = false;
        }
    }

    /// Applies one power-management call at time `t`. The inner result
    /// reports why the call could not be applied as issued (a misfire);
    /// the outer one surfaces machine failures on malformed input.
    fn apply_action(
        &self,
        rt: &mut DiskRt,
        t: f64,
        action: PowerAction,
        rec: Obs<'_>,
        fc: &mut FaultCounts,
    ) -> Result<Result<(), MisfireCause>, SimError> {
        match action {
            PowerAction::SpinDown => {
                // Let an in-flight shift finish, then spin down.
                if let DiskPowerState::Shifting { until, .. } = rt.disk.machine.state() {
                    rt.disk
                        .machine
                        .advance(until)
                        .map_err(|e| SimError::power("finish shift", rt.disk.id, until, e))?;
                }
                let at = t.max(rt.disk.machine.now());
                if rt.disk.machine.spin_down(at).is_ok() {
                    rt.disk.gap_standby = true;
                    obs_transition!(rec, rt, at);
                    Ok(Ok(()))
                } else {
                    Ok(Err(MisfireCause::SpinDownRejected))
                }
            }
            PowerAction::SpinUp => {
                if let DiskPowerState::SpinningDown { until } = rt.disk.machine.state() {
                    rt.disk
                        .machine
                        .advance(until)
                        .map_err(|e| SimError::power("finish spin-down", rt.disk.id, until, e))?;
                }
                let at = t.max(rt.disk.machine.now());
                if rt.disk.machine.spin_up(at).is_ok() {
                    rt.cur_level = self.ladder.max_level();
                    obs_transition!(rec, rt, at);
                    // Injected fault: a directive-issued spin-up that
                    // comes up slow. The pre-activation distance `d`
                    // was computed for the nominal `Tsu`, so the next
                    // request catches the disk still spinning up and
                    // stalls — exactly the interaction the harness
                    // exists to exercise.
                    if self.faults.is_some() {
                        let extra = self.slow_spinup_extra(rt, at, rec, fc);
                        if extra > 0.0 {
                            rt.slow_ready_at = at + self.params.spin_up_secs + extra;
                        }
                    }
                    Ok(Ok(()))
                } else {
                    Ok(Err(MisfireCause::SpinUpRejected))
                }
            }
            PowerAction::SetRpm(level) => {
                if !self.ladder.contains(level) {
                    return Ok(Err(MisfireCause::OffLadderLevel));
                }
                match rt.disk.machine.state() {
                    DiskPowerState::Shifting { until, .. }
                    | DiskPowerState::SpinningUp { until } => {
                        rt.disk.machine.advance(until).map_err(|e| {
                            SimError::power("finish transition", rt.disk.id, until, e)
                        })?;
                    }
                    _ => {}
                }
                // Injected fault: stuck-at-RPM — the platters never
                // leave their current speed, which the policy observes
                // as a rejected shift.
                if let Some(plan) = &self.faults {
                    let n = rt.fault_seq;
                    rt.fault_seq += 1;
                    if plan.stuck_rpm(rt.disk.id.0, n) {
                        fc.stuck_rpm += 1;
                        obs_emit!(
                            rec,
                            ObsEvent::FaultInjected {
                                t,
                                disk: rt.disk.id,
                                kind: sdpm_fault::kind::STUCK_RPM,
                            }
                        );
                        return Ok(Err(MisfireCause::RpmShiftRejected));
                    }
                }
                let at = t.max(rt.disk.machine.now());
                if rt.disk.machine.set_rpm(at, level).is_ok() {
                    obs_transition!(rec, rt, at);
                    rt.cur_level = level;
                    rt.disk.gap_level = rt.disk.gap_level.min(level);
                    Ok(Ok(()))
                } else {
                    Ok(Err(MisfireCause::RpmShiftRejected))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::TpmConfig;
    use crate::simulate;
    use sdpm_disk::ultrastar36z15;
    use sdpm_layout::DiskId;
    use sdpm_trace::{ReqKind, Trace};

    fn pool() -> DiskPool {
        DiskPool::new(2)
    }

    fn io(disk: u32, size: u64, nest: usize, iter: u64) -> AppEvent {
        AppEvent::Io(IoRequest {
            disk: DiskId(disk),
            start_block: 0,
            size_bytes: size,
            kind: ReqKind::Read,
            sequential: false,
            nest,
            iter,
        })
    }

    fn compute(nest: usize, secs: f64) -> AppEvent {
        AppEvent::Compute {
            nest,
            first_iter: 0,
            iters: 1,
            secs,
        }
    }

    fn trace(events: Vec<AppEvent>) -> Trace {
        let t = Trace {
            name: "t".into(),
            pool_size: 2,
            events,
        };
        t.validate().unwrap();
        t
    }

    #[test]
    fn base_run_times_compute_plus_service() {
        let tr = trace(vec![compute(0, 1.0), io(0, 4096, 0, 0), compute(0, 1.0)]);
        let r = simulate(&tr, &ultrastar36z15(), pool(), &Policy::Base);
        let svc = 0.0034 + 0.002 + 4096.0 / (55.0 * 1024.0 * 1024.0);
        assert!((r.exec_secs - (2.0 + svc)).abs() < 1e-9);
        assert_eq!(r.requests, 1);
        assert!((r.stall_secs).abs() < 1e-12);
    }

    #[test]
    fn base_energy_is_idle_dominated() {
        let tr = trace(vec![compute(0, 10.0)]);
        let r = simulate(&tr, &ultrastar36z15(), pool(), &Policy::Base);
        // Two disks idling 10 s at 10.2 W.
        assert!((r.total_energy_j() - 2.0 * 102.0).abs() < 1e-6);
    }

    #[test]
    fn tpm_spins_down_after_threshold_and_pays_wakeup() {
        let tr = trace(vec![
            io(0, 4096, 0, 0),
            compute(0, 100.0),
            io(0, 4096, 0, 1),
        ]);
        let r = simulate(
            &tr,
            &ultrastar36z15(),
            pool(),
            &Policy::Tpm(TpmConfig::default()),
        );
        let d0 = &r.per_disk[0];
        assert_eq!(d0.spin_downs, 1);
        assert_eq!(d0.spin_ups, 1);
        // The wake-up stalls the app by the full spin-up time.
        assert!(r.stall_secs > 10.0, "stall {}", r.stall_secs);
        // Gap record shows standby.
        assert!(d0.gaps.iter().any(|g| g.standby));
    }

    #[test]
    fn tpm_ignores_short_gaps() {
        let tr = trace(vec![io(0, 4096, 0, 0), compute(0, 5.0), io(0, 4096, 0, 1)]);
        let r = simulate(
            &tr,
            &ultrastar36z15(),
            pool(),
            &Policy::Tpm(TpmConfig::default()),
        );
        assert_eq!(r.per_disk[0].spin_downs, 0);
        assert!(r.stall_secs < 1e-9);
    }

    #[test]
    fn tpm_saves_energy_on_very_long_gaps() {
        let tr = trace(vec![
            io(0, 4096, 0, 0),
            compute(0, 500.0),
            io(0, 4096, 0, 1),
        ]);
        let p = ultrastar36z15();
        let base = simulate(&tr, &p, pool(), &Policy::Base);
        let tpm = simulate(&tr, &p, pool(), &Policy::Tpm(TpmConfig::default()));
        assert!(tpm.total_energy_j() < base.total_energy_j());
    }

    #[test]
    fn drpm_drifts_down_while_idle_and_saves() {
        let tr = trace(vec![io(0, 4096, 0, 0), compute(0, 60.0), io(0, 4096, 0, 1)]);
        let p = ultrastar36z15();
        let base = simulate(&tr, &p, pool(), &Policy::Base);
        let drpm = simulate(&tr, &p, pool(), &Policy::Drpm(DrpmConfig::default()));
        assert!(drpm.total_energy_j() < base.total_energy_j());
        assert!(drpm.per_disk[0].rpm_shifts > 0);
        // The second request finds the disk slow: a real stall.
        assert!(drpm.stall_secs > 0.0);
        // Gap record captured a deep dwell level.
        let deep = drpm.per_disk[0].gaps.iter().map(|g| g.level).min().unwrap();
        assert_eq!(deep, RpmLevel::MIN);
    }

    #[test]
    fn drpm_untouched_disk_drifts_to_bottom() {
        let tr = trace(vec![compute(0, 30.0)]);
        let p = ultrastar36z15();
        let r = simulate(&tr, &p, pool(), &Policy::Drpm(DrpmConfig::default()));
        // Disk 1 never used: it should have drifted all the way down.
        assert_eq!(r.per_disk[1].gaps.len(), 1);
        assert_eq!(r.per_disk[1].gaps[0].level, RpmLevel::MIN);
    }

    #[test]
    fn directive_policy_executes_power_calls() {
        let p = ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        let low = RpmLevel(0);
        let back = ladder.transition_secs(low, ladder.max_level());
        let tr = trace(vec![
            io(0, 4096, 0, 0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SetRpm(low),
            },
            compute(0, 30.0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SetRpm(ladder.max_level()),
            },
            compute(0, back + 0.1), // pre-activation distance
            io(0, 4096, 0, 1),
        ]);
        let base = simulate(&tr, &p, pool(), &Policy::Base);
        let cm = simulate(
            &tr,
            &p,
            pool(),
            &Policy::Directive(DirectiveConfigForTest::default().0),
        );
        assert!(cm.total_energy_j() < base.total_energy_j());
        // Pre-activation hides the transition: negligible stall.
        assert!(cm.stall_secs < 1e-6, "stall {}", cm.stall_secs);
        assert_eq!(cm.misfire_causes.total(), 0);
    }

    /// Helper so the test reads clearly.
    #[derive(Default)]
    struct DirectiveConfigForTest(crate::policy::DirectiveConfig);

    #[test]
    fn directive_spin_down_and_preactivate_hides_spinup() {
        let p = ultrastar36z15();
        let tr = trace(vec![
            io(0, 4096, 0, 0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinDown,
            },
            compute(0, 60.0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinUp,
            },
            compute(0, 11.0), // > 10.9 s spin-up
            io(0, 4096, 0, 1),
        ]);
        let cm = simulate(
            &tr,
            &p,
            pool(),
            &Policy::Directive(crate::policy::DirectiveConfig::default()),
        );
        assert_eq!(cm.per_disk[0].spin_downs, 1);
        assert_eq!(cm.per_disk[0].spin_ups, 1);
        assert!(cm.stall_secs < 1e-6, "stall {}", cm.stall_secs);
        let base = simulate(&tr, &p, pool(), &Policy::Base);
        assert!(cm.total_energy_j() < base.total_energy_j());
    }

    #[test]
    fn late_preactivation_stalls_but_recovers() {
        let p = ultrastar36z15();
        let tr = trace(vec![
            io(0, 4096, 0, 0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinDown,
            },
            compute(0, 60.0),
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinUp,
            },
            compute(0, 2.0), // far less than the 10.9 s spin-up
            io(0, 4096, 0, 1),
        ]);
        let cm = simulate(
            &tr,
            &p,
            pool(),
            &Policy::Directive(crate::policy::DirectiveConfig::default()),
        );
        // The app waits out the remaining ~8.9 s of spin-up.
        assert!(
            cm.stall_secs > 8.0 && cm.stall_secs < 10.0,
            "{}",
            cm.stall_secs
        );
    }

    #[test]
    fn misfired_directives_are_counted_not_fatal() {
        let p = ultrastar36z15();
        let tr = trace(vec![
            // Spin up a disk that is already spinning.
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinUp,
            },
            // Set an off-ladder level.
            AppEvent::Power {
                disk: DiskId(1),
                action: PowerAction::SetRpm(RpmLevel(99)),
            },
            compute(0, 1.0),
        ]);
        let cm = simulate(
            &tr,
            &p,
            pool(),
            &Policy::Directive(crate::policy::DirectiveConfig::default()),
        );
        assert_eq!(cm.misfire_causes.total(), 2);
        assert_eq!(cm.misfire_causes.spin_up_rejected, 1);
        assert_eq!(cm.misfire_causes.off_ladder_level, 1);
    }

    #[test]
    fn schedule_policy_replays_timed_actions() {
        let p = ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        let low = RpmLevel(2);
        let sched = vec![
            vec![
                ScheduledAction {
                    at: 1.0,
                    action: PowerAction::SetRpm(low),
                },
                ScheduledAction {
                    at: 20.0 - ladder.transition_secs(low, ladder.max_level()),
                    action: PowerAction::SetRpm(ladder.max_level()),
                },
            ],
            vec![],
        ];
        let tr = trace(vec![compute(0, 20.0), io(0, 4096, 0, 0)]);
        let r = simulate(&tr, &p, pool(), &Policy::schedule(sched));
        assert_eq!(r.per_disk[0].rpm_shifts, 2);
        assert!(
            r.stall_secs < 1e-6,
            "pre-activation exact: {}",
            r.stall_secs
        );
        assert_eq!(r.per_disk[0].gaps[0].level, low);
    }

    #[test]
    fn power_events_are_inert_under_base_policy() {
        let p = ultrastar36z15();
        let tr = trace(vec![
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinDown,
            },
            compute(0, 5.0),
        ]);
        let r = simulate(&tr, &p, pool(), &Policy::Base);
        assert_eq!(r.per_disk[0].spin_downs, 0);
        assert!((r.exec_secs - 5.0).abs() < 1e-12);
    }

    #[test]
    fn gap_records_cover_execution_for_unused_disk() {
        let p = ultrastar36z15();
        let tr = trace(vec![compute(0, 7.0)]);
        let r = simulate(&tr, &p, pool(), &Policy::Base);
        for d in &r.per_disk {
            assert_eq!(d.gaps.len(), 1);
            assert!((d.gaps[0].len_secs() - 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sequential_requests_are_cheaper_than_random() {
        let p = ultrastar36z15();
        let mk = |seq: bool| {
            trace(vec![
                io(0, 65536, 0, 0),
                AppEvent::Io(IoRequest {
                    disk: DiskId(0),
                    start_block: 128,
                    size_bytes: 65536,
                    kind: ReqKind::Read,
                    sequential: seq,
                    nest: 0,
                    iter: 1,
                }),
            ])
        };
        let seq = simulate(&mk(true), &p, pool(), &Policy::Base);
        let rnd = simulate(&mk(false), &p, pool(), &Policy::Base);
        assert!(seq.exec_secs < rnd.exec_secs);
    }
}
