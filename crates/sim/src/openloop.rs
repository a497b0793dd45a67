//! Open-loop (DiskSim-style) trace replay.
//!
//! The paper's simulator is "driven by externally-provided disk I/O
//! request traces" whose records carry fixed arrival timestamps — the
//! classic open-loop discipline, where delays show up as *response-time*
//! degradation and queue growth rather than a longer application run.
//! This module provides that second lens on the same traces: requests
//! arrive at the trace's nominal timestamps and each disk drains a FIFO
//! queue at a chosen spindle speed.
//!
//! The closed-loop engine ([`crate::simulate`]) remains the primary model
//! (it is what execution-time figures need); the open-loop replay serves
//! to (a) cross-validate service accounting between the two disciplines,
//! (b) expose queueing effects that the blocking application hides —
//! e.g. the response-time cliff when a whole workload is concentrated on
//! few disks (the PDC baseline) or served at a reduced RPM level.

use crate::report::GapRecord;
use sdpm_disk::{
    service_time_secs, DiskParams, EnergyBreakdown, PowerStateMachine, RpmLadder, RpmLevel,
    ServiceRequest,
};
use sdpm_layout::DiskPool;
use sdpm_trace::{demux, AppEvent, Demuxed, Trace};
use serde::{Deserialize, Serialize};

/// Per-disk outcome of an open-loop replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenDiskReport {
    /// Requests serviced by this disk.
    pub requests: u64,
    /// Seconds the disk spent servicing.
    pub busy_secs: f64,
    /// Largest queue depth observed (including the request in service).
    pub max_queue_depth: usize,
    /// Joule ledger for this disk.
    pub energy: EnergyBreakdown,
    /// Idle gaps between services (demand boundaries, like the
    /// closed-loop engine's records).
    pub gaps: Vec<GapRecord>,
}

/// Whole-replay outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopReport {
    /// Completion time of the last request (>= the last arrival).
    pub makespan_secs: f64,
    /// Disk-subsystem energy over the makespan.
    pub energy: EnergyBreakdown,
    /// Mean request response time (completion - arrival), seconds.
    pub mean_response_secs: f64,
    /// Worst response time, seconds.
    pub max_response_secs: f64,
    /// Per-disk details.
    pub per_disk: Vec<OpenDiskReport>,
}

impl OpenLoopReport {
    /// Total joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }
}

/// Replays `trace` open-loop: every request arrives at its nominal
/// timestamp and is serviced FIFO by its disk at the fixed spindle speed
/// `level`.
///
/// # Panics
/// If the parameters or trace are invalid, the pool does not match, or
/// `level` is off the disk's ladder.
#[must_use]
pub fn replay_open_loop(
    trace: &Trace,
    params: &DiskParams,
    pool: DiskPool,
    level: RpmLevel,
) -> OpenLoopReport {
    if let Err(e) = trace.validate() {
        panic!("replay requires a valid trace: {e}");
    }
    replay_open_loop_demuxed(&demux(&mut trace.stream()), params, pool, level)
}

/// Open-loop replay over a per-disk demultiplexed stream ([`demux`]).
/// Because each disk's queue is independent once arrivals are fixed on
/// the shared nominal timeline, the replay walks one substream at a time
/// rather than interleaving the global order — the per-disk results are
/// identical; only the accumulation order of the global response mean
/// differs (within float round-off).
///
/// # Panics
/// If the parameters are invalid, the pool does not match, or `level` is
/// off the disk's ladder.
#[must_use]
pub fn replay_open_loop_demuxed(
    demuxed: &Demuxed,
    params: &DiskParams,
    pool: DiskPool,
    level: RpmLevel,
) -> OpenLoopReport {
    if let Err(e) = params.validate() {
        panic!("replay requires valid DiskParams: {e}");
    }
    assert_eq!(demuxed.pool_size, pool.count(), "stream/pool mismatch");
    let ladder = RpmLadder::new(params);
    assert!(ladder.contains(level), "RPM level off the ladder");

    struct DiskState {
        machine: PowerStateMachine,
        available_at: f64,
        busy_secs: f64,
        requests: u64,
        last_end: f64,
        gaps: Vec<GapRecord>,
        /// (arrival, completion) of in-flight work, to track queue depth.
        inflight: Vec<(f64, f64)>,
        max_queue_depth: usize,
    }
    let mut disks: Vec<DiskState> = (0..pool.count())
        .map(|_| {
            let mut machine = PowerStateMachine::new(params.clone());
            // Park the disk at the study level from t = 0.
            machine
                .set_rpm(0.0, level)
                .unwrap_or_else(|e| panic!("open-loop replay: initial level change failed: {e}"));
            DiskState {
                machine,
                available_at: 0.0,
                busy_secs: 0.0,
                requests: 0,
                last_end: 0.0,
                gaps: Vec::new(),
                inflight: Vec::new(),
                max_queue_depth: 0,
            }
        })
        .collect();

    let mut responses = 0.0f64;
    let mut max_response = 0.0f64;
    let mut makespan = 0.0f64;
    let mut nreq = 0u64;
    let settle = ladder.transition_secs(ladder.max_level(), level);

    for (d, sub) in disks.iter_mut().zip(&demuxed.per_disk) {
        for te in sub {
            // Power events are inert open-loop: the spindle is parked at
            // the study level for the whole replay.
            let AppEvent::Io(req) = &te.event else {
                continue;
            };
            // The park shift to the study level occupies `[0, settle]`;
            // a request cannot be admitted earlier. Clamping the
            // *arrival* (not just the start) keeps the response clock
            // from billing the park transient as queueing delay — the
            // replay studies steady state at the level, not the ramp.
            // Boundary: an arrival landing exactly at `settle` is legal —
            // `advance(start)` below completes the `Shifting` phase that
            // ends at that same instant before `begin_service` runs
            // (regression-tested in `arrival_exactly_at_settle_is_legal`).
            let arrival = te.at_secs.max(settle);
            // Queue-depth accounting: drop completed in-flight entries.
            d.inflight.retain(|&(_, c)| c > arrival);
            let start = d.available_at.max(arrival);
            if start > d.last_end {
                d.gaps.push(GapRecord {
                    start: d.last_end,
                    end: start,
                    level,
                    standby: false,
                });
            }
            let st = service_time_secs(
                params,
                &ladder,
                level,
                ServiceRequest {
                    size_bytes: req.size_bytes,
                    sequential: req.sequential,
                },
            );
            let completion = start + st;
            // Infallible by construction: arrivals are monotone per disk
            // and the spindle is parked idle between services.
            d.machine
                .advance(start)
                .unwrap_or_else(|e| panic!("open-loop replay: advance to start failed: {e}"));
            d.machine
                .begin_service(start)
                .unwrap_or_else(|e| panic!("open-loop replay: begin_service failed: {e}"));
            d.machine
                .end_service(completion)
                .unwrap_or_else(|e| panic!("open-loop replay: end_service failed: {e}"));
            d.available_at = completion;
            d.last_end = completion;
            d.busy_secs += st;
            d.requests += 1;
            d.inflight.push((arrival, completion));
            d.max_queue_depth = d.max_queue_depth.max(d.inflight.len());
            let response = completion - arrival;
            responses += response;
            max_response = max_response.max(response);
            makespan = makespan.max(completion);
            nreq += 1;
        }
    }

    // Account trailing idleness to the makespan on every disk.
    let mut energy = EnergyBreakdown::default();
    let per_disk: Vec<OpenDiskReport> = disks
        .into_iter()
        .map(|mut d| {
            let end = makespan.max(d.machine.now());
            d.machine
                .advance(end)
                .unwrap_or_else(|e| panic!("open-loop replay: finalize advance failed: {e}"));
            if end > d.last_end {
                d.gaps.push(GapRecord {
                    start: d.last_end,
                    end,
                    level,
                    standby: false,
                });
            }
            let e = d.machine.energy().breakdown();
            energy = energy.merged(&e);
            OpenDiskReport {
                requests: d.requests,
                busy_secs: d.busy_secs,
                max_queue_depth: d.max_queue_depth,
                energy: e,
                gaps: d.gaps,
            }
        })
        .collect();

    // Cast audit: this u64 -> f64 conversion is the module's only cast.
    // It loses precision past 2^53 requests (far beyond any replay) and
    // cannot truncate or change sign, so the crate-level narrowing-cast
    // denies stay meaningful.
    let n = nreq.max(1) as f64;
    OpenLoopReport {
        makespan_secs: makespan,
        energy,
        mean_response_secs: responses / n,
        max_response_secs: max_response,
        per_disk,
    }
}

#[cfg(test)]
mod settle_tests {
    use super::*;
    use sdpm_layout::DiskId;
    use sdpm_trace::{IoRequest, ReqKind, Trace};

    fn io(disk: u32, iter: u64) -> AppEvent {
        AppEvent::Io(IoRequest {
            disk: DiskId(disk),
            start_block: iter * 128,
            size_bytes: 64 * 1024,
            kind: ReqKind::Read,
            sequential: false,
            nest: 0,
            iter,
        })
    }

    fn trace(pool_size: u32, events: Vec<AppEvent>) -> Trace {
        Trace {
            name: "openloop-test".into(),
            pool_size,
            events,
        }
    }

    /// Regression: a nominal arrival landing *exactly* on the end of the
    /// initial park shift must be serviced (advance completes the shift
    /// at that same instant) and must pay no queueing delay.
    #[test]
    fn arrival_exactly_at_settle_is_legal() {
        let p = sdpm_disk::ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        let level = RpmLevel(0);
        let settle = ladder.transition_secs(ladder.max_level(), level);
        assert!(settle > 0.0, "test needs a real park transition");
        let t = trace(
            1,
            vec![
                AppEvent::Compute {
                    nest: 0,
                    first_iter: 0,
                    iters: 1,
                    secs: settle,
                },
                io(0, 0),
            ],
        );
        let r = replay_open_loop(&t, &p, DiskPool::new(1), level);
        assert_eq!(r.per_disk[0].requests, 1);
        // Response is the bare service time: no spin-up charge, no
        // park-transient charge.
        let st = service_time_secs(
            &p,
            &ladder,
            level,
            ServiceRequest {
                size_bytes: 64 * 1024,
                sequential: false,
            },
        );
        assert_eq!(r.mean_response_secs.to_bits(), st.to_bits());
        assert_eq!(r.makespan_secs.to_bits(), (settle + st).to_bits());
    }

    /// An arrival *before* the park shift completes is clamped to the
    /// settle boundary; the wait for the ramp is excluded from response
    /// accounting (steady-state discipline).
    #[test]
    fn early_arrival_is_clamped_to_settle() {
        let p = sdpm_disk::ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        let level = RpmLevel(0);
        let settle = ladder.transition_secs(ladder.max_level(), level);
        let t = trace(1, vec![io(0, 0)]); // nominal arrival at 0.0
        let r = replay_open_loop(&t, &p, DiskPool::new(1), level);
        let st = service_time_secs(
            &p,
            &ladder,
            level,
            ServiceRequest {
                size_bytes: 64 * 1024,
                sequential: false,
            },
        );
        assert_eq!(r.mean_response_secs.to_bits(), st.to_bits());
        assert_eq!(r.makespan_secs.to_bits(), (settle + st).to_bits());
    }

    /// At the ladder max there is no park shift: settle is zero and the
    /// nominal timeline is taken as-is.
    #[test]
    fn max_level_has_zero_settle() {
        let p = sdpm_disk::ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        let t = trace(1, vec![io(0, 0)]);
        let r = replay_open_loop(&t, &p, DiskPool::new(1), ladder.max_level());
        let st = service_time_secs(
            &p,
            &ladder,
            ladder.max_level(),
            ServiceRequest {
                size_bytes: 64 * 1024,
                sequential: false,
            },
        );
        assert_eq!(r.makespan_secs.to_bits(), st.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_disk::ultrastar36z15;
    use sdpm_layout::DiskId;
    use sdpm_trace::{AppEvent, IoRequest, ReqKind};

    fn trace_with_spacing(n: usize, gap_secs: f64, size: u64) -> Trace {
        let mut events = Vec::new();
        for i in 0..n {
            events.push(AppEvent::Compute {
                nest: 0,
                first_iter: i as u64 * 2,
                iters: 1,
                secs: gap_secs,
            });
            events.push(AppEvent::Io(IoRequest {
                disk: DiskId((i % 2) as u32),
                start_block: i as u64 * 100,
                size_bytes: size,
                kind: ReqKind::Read,
                sequential: false,
                nest: 0,
                iter: i as u64 * 2 + 1,
            }));
        }
        Trace {
            name: "open".into(),
            pool_size: 2,
            events,
        }
    }

    fn setup() -> (DiskParams, RpmLadder) {
        let p = ultrastar36z15();
        let l = RpmLadder::new(&p);
        (p, l)
    }

    #[test]
    fn uncontended_replay_has_pure_service_responses() {
        let (p, l) = setup();
        let t = trace_with_spacing(20, 0.1, 64 * 1024); // plenty of slack
        let r = replay_open_loop(&t, &p, DiskPool::new(2), l.max_level());
        let st = service_time_secs(
            &p,
            &l,
            l.max_level(),
            ServiceRequest {
                size_bytes: 64 * 1024,
                sequential: false,
            },
        );
        assert!((r.mean_response_secs - st).abs() < 1e-9);
        assert!((r.max_response_secs - st).abs() < 1e-9);
        assert_eq!(r.per_disk.iter().map(|d| d.max_queue_depth).max(), Some(1));
    }

    #[test]
    fn overload_builds_queues_and_inflates_responses() {
        let (p, l) = setup();
        // Arrivals every 1 ms, service ~6.5 ms: heavy overload.
        let t = trace_with_spacing(100, 0.001, 64 * 1024);
        let r = replay_open_loop(&t, &p, DiskPool::new(2), l.max_level());
        assert!(r.max_response_secs > 10.0 * r.per_disk[0].busy_secs / 50.0);
        assert!(r.per_disk.iter().any(|d| d.max_queue_depth > 5));
        // Makespan extends past the last arrival.
        assert!(r.makespan_secs > 0.001 * 100.0 + 0.0065);
    }

    #[test]
    fn slow_spindle_saves_energy_but_slows_responses() {
        let (p, l) = setup();
        let t = trace_with_spacing(50, 0.05, 64 * 1024);
        let full = replay_open_loop(&t, &p, DiskPool::new(2), l.max_level());
        let slow = replay_open_loop(&t, &p, DiskPool::new(2), RpmLevel(2));
        assert!(slow.mean_response_secs > 1.5 * full.mean_response_secs);
        // Average *power* drops at the slow level (energy integrates over
        // a longer makespan, so compare rates).
        let p_full = full.total_energy_j() / full.makespan_secs;
        let p_slow = slow.total_energy_j() / slow.makespan_secs;
        assert!(p_slow < 0.7 * p_full, "avg power {p_slow} vs {p_full}");
    }

    #[test]
    fn open_and_closed_loop_agree_on_uncontended_service_totals() {
        let (p, l) = setup();
        let t = trace_with_spacing(30, 0.1, 64 * 1024);
        let open = replay_open_loop(&t, &p, DiskPool::new(2), l.max_level());
        let closed = crate::simulate(&t, &p, DiskPool::new(2), &crate::Policy::Base);
        let open_busy: f64 = open.per_disk.iter().map(|d| d.busy_secs).sum();
        let closed_busy: f64 = closed.per_disk.iter().map(|d| d.energy.active_secs).sum();
        assert!((open_busy - closed_busy).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_replays_to_zero() {
        let (p, l) = setup();
        let t = Trace {
            name: "empty".into(),
            pool_size: 2,
            events: vec![],
        };
        let r = replay_open_loop(&t, &p, DiskPool::new(2), l.max_level());
        assert_eq!(r.makespan_secs, 0.0);
        assert_eq!(r.total_energy_j(), 0.0);
    }

    #[test]
    fn gaps_cover_idle_stretches() {
        let (p, l) = setup();
        let t = trace_with_spacing(4, 1.0, 4096);
        let r = replay_open_loop(&t, &p, DiskPool::new(2), l.max_level());
        for d in &r.per_disk {
            for w in d.gaps.windows(2) {
                assert!(w[0].end <= w[1].start + 1e-12);
            }
            let gap_total: f64 = d.gaps.iter().map(GapRecord::len_secs).sum();
            assert!((gap_total + d.busy_secs - r.makespan_secs).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "off the ladder")]
    fn bad_level_is_rejected() {
        let (p, _) = setup();
        let t = trace_with_spacing(1, 0.1, 4096);
        let _ = replay_open_loop(&t, &p, DiskPool::new(2), RpmLevel(99));
    }
}
