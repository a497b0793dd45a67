//! The per-disk model all three arrival drivers share.
//!
//! A disk is the same device whichever discipline feeds it: a
//! [`PowerStateMachine`] integrating energy, an idle-gap ledger and a
//! request count. The closed-loop engine (a blocking application), the
//! open-loop replay (fixed timestamps) and the shared-pool mix (merged
//! tenants) differ only in *when* requests arrive and in *which* policy
//! moves the spindle between them; both of those stay in the drivers.
//! [`DiskModel`] owns the steps the three take the same way:
//!
//! * [`DiskModel::wake`] — the demand wake-up: the earliest service
//!   start from any power state,
//! * [`DiskModel::serve`] — one service, which also opens the next gap,
//! * [`DiskModel::close_gap`] — record the idle gap an arrival ends,
//! * [`DiskModel::finish`] — bring the disk to the end of the run and
//!   close its trailing gap.
//!
//! [`FifoDisk`] adds the FIFO queue ledger of the two open-loop drivers.

use crate::error::SimError;
use crate::openloop::OpenDiskReport;
use crate::report::GapRecord;
use sdpm_disk::{
    service_time_secs, DiskParams, DiskPowerState, EnergyBreakdown, PowerError, PowerStateMachine,
    RpmLevel, ServiceRequest,
};
use sdpm_layout::DiskId;
use sdpm_trace::IoRequest;
use std::collections::VecDeque;

/// One modelled disk: power state, energy, and the idle-gap ledger.
pub(crate) struct DiskModel {
    pub(crate) id: DiskId,
    pub(crate) machine: PowerStateMachine,
    /// When the current idle gap opened: the last service completion,
    /// or 0.
    pub(crate) gap_start: f64,
    /// Deepest level the disk reached during the current gap.
    pub(crate) gap_level: RpmLevel,
    /// Whether the current gap reached standby.
    pub(crate) gap_standby: bool,
    pub(crate) gaps: Vec<GapRecord>,
    pub(crate) requests: u64,
}

/// Outcome of one [`DiskModel::serve`].
pub(crate) struct Served {
    /// Level the request was serviced at.
    pub(crate) level: RpmLevel,
    /// Service time, seconds.
    pub(crate) secs: f64,
    /// Completion time, seconds.
    pub(crate) completion: f64,
}

impl DiskModel {
    /// A disk idle at full speed at `t = 0`, its first gap open.
    pub(crate) fn new(id: DiskId, params: &DiskParams) -> Self {
        let machine = PowerStateMachine::new(params.clone());
        let gap_level = machine.ladder().max_level();
        DiskModel {
            id,
            machine,
            gap_start: 0.0,
            gap_level,
            gap_standby: false,
            gaps: Vec::new(),
            requests: 0,
        }
    }

    /// Records the idle gap that an arrival at `t` ends, if it has
    /// positive length; returns whether it recorded one.
    #[inline]
    pub(crate) fn close_gap(&mut self, t: f64) -> bool {
        let open = t > self.gap_start;
        if open {
            self.gaps.push(GapRecord {
                start: self.gap_start,
                end: t,
                level: self.gap_level,
                standby: self.gap_standby,
            });
        }
        open
    }

    /// Demand wake-up for a request arriving at `t`: advances the disk
    /// to the arrival (or to its own clock, if later), issues a spin-up
    /// if the disk is asleep or falling asleep, and returns the earliest
    /// service start together with the start time of the spin-up it
    /// issued, if any. A spinning disk is ready at once; an in-flight
    /// spin-up or speed shift is waited out; a spin-down is finished
    /// first and then reversed.
    ///
    /// # Errors
    /// A disk still servicing is an overlapping request, reachable only
    /// through a corrupted trace.
    pub(crate) fn wake(&mut self, t: f64) -> Result<(f64, Option<f64>), SimError> {
        let arrive = t.max(self.machine.now());
        self.machine
            .advance(arrive)
            .map_err(|e| SimError::power("advance to arrival", self.id, arrive, e))?;
        let spin_up_at = match self.machine.state() {
            DiskPowerState::Idle { .. }
            | DiskPowerState::SpinningUp { .. }
            | DiskPowerState::Shifting { .. } => None,
            DiskPowerState::Active { .. } => {
                return Err(SimError::power(
                    "begin_service (overlapping request)",
                    self.id,
                    t,
                    PowerError::IllegalTransition {
                        state: "Active",
                        event: "begin_service",
                    },
                ));
            }
            DiskPowerState::Standby => Some(arrive),
            DiskPowerState::SpinningDown { until } => {
                self.machine
                    .advance(until)
                    .map_err(|e| SimError::power("finish spin-down", self.id, until, e))?;
                Some(until)
            }
        };
        if let Some(at) = spin_up_at {
            self.machine
                .spin_up(at)
                .map_err(|e| SimError::power("demand spin_up", self.id, at, e))?;
        }
        Ok((self.machine.ready_time(), spin_up_at))
    }

    /// Services `req` from `start` (the disk must be spinning idle by
    /// then), counts it, and opens the next idle gap at its completion.
    #[inline]
    pub(crate) fn serve(
        &mut self,
        params: &DiskParams,
        start: f64,
        req: &IoRequest,
    ) -> Result<Served, SimError> {
        let level = self
            .machine
            .begin_service(start)
            .map_err(|e| SimError::power("begin_service", self.id, start, e))?;
        let secs = service_time_secs(
            params,
            self.machine.ladder(),
            level,
            ServiceRequest {
                size_bytes: req.size_bytes,
                sequential: req.sequential,
            },
        );
        let completion = start + secs;
        self.machine
            .end_service(completion)
            .map_err(|e| SimError::power("end_service", self.id, completion, e))?;
        self.requests += 1;
        self.gap_start = completion;
        self.gap_level = level;
        self.gap_standby = false;
        Ok(Served {
            level,
            secs,
            completion,
        })
    }

    /// Finalization: brings the disk to `end` (or to its own clock, if
    /// later) and closes the trailing gap; returns whether it recorded
    /// one.
    pub(crate) fn finish(&mut self, end: f64) -> Result<bool, SimError> {
        let end = end.max(self.machine.now());
        self.machine
            .advance(end)
            .map_err(|e| SimError::power("finalize advance", self.id, end, e))?;
        Ok(self.close_gap(end))
    }
}

/// A disk under an open-loop driver: the [`DiskModel`] plus the FIFO
/// queue ledger. Requests arrive at fixed times and are serviced in
/// arrival order, each starting when both it and the disk are ready.
pub(crate) struct FifoDisk {
    pub(crate) disk: DiskModel,
    busy_secs: f64,
    /// Completion times of admitted work still in flight. FIFO service
    /// makes them non-decreasing, so finished work leaves at the front.
    inflight: VecDeque<f64>,
    max_queue_depth: usize,
}

impl FifoDisk {
    pub(crate) fn new(id: DiskId, params: &DiskParams) -> Self {
        FifoDisk {
            disk: DiskModel::new(id, params),
            busy_secs: 0.0,
            inflight: VecDeque::new(),
            max_queue_depth: 0,
        }
    }

    /// When the queue drains: the completion of the last admitted
    /// request, which is also where the current idle gap opened.
    pub(crate) fn available_at(&self) -> f64 {
        self.disk.gap_start
    }

    /// An arrival at `a`: retires the work finished by then and closes
    /// the idle gap the arrival ends; returns whether it recorded one.
    pub(crate) fn arrive(&mut self, a: f64) -> bool {
        while self.inflight.front().is_some_and(|&c| c <= a) {
            self.inflight.pop_front();
        }
        self.disk.close_gap(a)
    }

    /// Serves the request that arrived at `a` behind the queued work.
    /// While work is queued the disk sits spinning at the previous
    /// completion, so the wake-up returns that completion; an idle disk
    /// wakes from whatever state the policy left it in.
    pub(crate) fn serve(
        &mut self,
        params: &DiskParams,
        a: f64,
        req: &IoRequest,
    ) -> Result<Served, SimError> {
        let (ready, _) = self.disk.wake(a)?;
        let served = self.disk.serve(params, ready, req)?;
        self.busy_secs += served.secs;
        self.inflight.push_back(served.completion);
        self.max_queue_depth = self.max_queue_depth.max(self.inflight.len());
        Ok(served)
    }
}

/// Finalizes open-loop disks at `makespan` (trailing idleness is
/// charged on every disk) and returns their reports with the merged
/// energy.
pub(crate) fn open_reports(
    disks: impl IntoIterator<Item = FifoDisk>,
    makespan: f64,
) -> Result<(Vec<OpenDiskReport>, EnergyBreakdown), SimError> {
    let mut energy = EnergyBreakdown::default();
    let per_disk = disks
        .into_iter()
        .map(|mut d| {
            d.disk.finish(makespan)?;
            let e = d.disk.machine.energy().breakdown();
            energy = energy.merged(&e);
            Ok(OpenDiskReport {
                requests: d.disk.requests,
                busy_secs: d.busy_secs,
                max_queue_depth: d.max_queue_depth,
                energy: e,
                gaps: d.disk.gaps,
            })
        })
        .collect::<Result<_, SimError>>()?;
    Ok((per_disk, energy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_disk::{ultrastar36z15, RpmLadder};
    use sdpm_trace::ReqKind;

    fn req() -> IoRequest {
        IoRequest {
            disk: DiskId(0),
            start_block: 0,
            size_bytes: 64 * 1024,
            kind: ReqKind::Read,
            sequential: false,
            nest: 0,
            iter: 0,
        }
    }

    /// A fresh disk driven into the state under test by `setup`.
    fn disk_in(setup: impl FnOnce(&mut PowerStateMachine)) -> DiskModel {
        let mut d = DiskModel::new(DiskId(0), &ultrastar36z15());
        setup(&mut d.machine);
        d
    }

    /// The mix's wake-up: advance to the arrival, spin up if asleep,
    /// then read the machine's ready time.
    fn mix_ready(mut m: PowerStateMachine, a: f64) -> f64 {
        m.advance(a).unwrap();
        match m.state() {
            DiskPowerState::Standby => m.spin_up(a).unwrap(),
            DiskPowerState::SpinningDown { until } => {
                m.advance(until).unwrap();
                m.spin_up(until).unwrap();
            }
            _ => {}
        }
        m.ready_time()
    }

    /// Checks `wake(t)` against the closed-loop engine's formula
    /// (`closed`) and the mix's ready time, bit for bit.
    fn check(mut d: DiskModel, t: f64, closed: f64, spin_up_at: Option<f64>) {
        let mix = mix_ready(d.machine.clone(), t);
        let (ready, at) = d.wake(t).unwrap();
        assert_eq!(ready.to_bits(), closed.to_bits(), "closed-loop ready time");
        assert_eq!(ready.to_bits(), mix.to_bits(), "mix ready time");
        assert_eq!(at, spin_up_at);
    }

    #[test]
    fn wake_matches_both_drivers_from_every_state() {
        let p = ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        // Idle: ready at the arrival.
        check(disk_in(|_| {}), 5.0, 5.0f64.max(0.0), None);
        // Standby: a full spin-up from the arrival.
        let asleep = |m: &mut PowerStateMachine| {
            m.spin_down(1.0).unwrap();
            m.advance(1.0 + p.spin_down_secs + 1.0).unwrap();
        };
        let t = 100.0;
        check(disk_in(asleep), t, t + p.spin_up_secs, Some(t));
        // Spinning down: finish the descent, then a full spin-up.
        let until = 1.0 + p.spin_down_secs;
        let falling = |m: &mut PowerStateMachine| m.spin_down(1.0).unwrap();
        check(disk_in(falling), 2.0, until + p.spin_up_secs, Some(until));
        // Spinning up: wait out the transition.
        let rising = |m: &mut PowerStateMachine| {
            asleep(m);
            m.spin_up(t).unwrap();
        };
        let up = t + p.spin_up_secs;
        check(disk_in(rising), t + 1.0, up.max(t + 1.0), None);
        // Shifting: wait out the speed change.
        let low = RpmLevel(0);
        let shift_end = 1.0 + ladder.transition_secs(ladder.max_level(), low);
        let shifting = |m: &mut PowerStateMachine| m.set_rpm(1.0, low).unwrap();
        check(disk_in(shifting), 1.5, shift_end.max(1.5), None);
    }

    #[test]
    fn wake_while_servicing_is_an_overlapping_request() {
        let mut d = disk_in(|m| {
            m.begin_service(1.0).unwrap();
        });
        match d.wake(1.5) {
            Err(SimError::Power { op, disk: 0, .. }) => {
                assert_eq!(op, "begin_service (overlapping request)");
            }
            other => panic!("expected an overlapping-request error, got {other:?}"),
        }
    }

    #[test]
    fn finish_records_the_trailing_gap_exactly_once() {
        let p = ultrastar36z15();
        let mut d = DiskModel::new(DiskId(0), &p);
        assert!(d.close_gap(1.0));
        let served = d.serve(&p, 1.0, &req()).unwrap();
        assert!(d.finish(10.0).unwrap());
        let trailing = GapRecord {
            start: served.completion,
            end: 10.0,
            level: served.level,
            standby: false,
        };
        assert_eq!(d.gaps.len(), 2);
        assert_eq!(d.gaps[1], trailing);
        assert_eq!(d.requests, 1);
        // A disk finishing exactly at its last completion has no
        // trailing gap to record.
        let mut busy = DiskModel::new(DiskId(0), &p);
        let served = busy.serve(&p, 0.0, &req()).unwrap();
        assert!(!busy.finish(served.completion).unwrap());
        assert!(busy.gaps.is_empty());
    }
}
