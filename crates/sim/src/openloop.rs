//! Open-loop (DiskSim-style) trace replay.
//!
//! The paper's simulator is "driven by externally-provided disk I/O
//! request traces" whose records carry fixed arrival timestamps — the
//! classic open-loop discipline, where delays show up as *response-time*
//! degradation and queue growth rather than a longer application run.
//! This module provides that second lens on the same traces: requests
//! arrive at the trace's nominal timestamps and each disk drains a FIFO
//! queue at full speed, with no power management.
//!
//! It is the thinnest of the three drivers over the crate's one
//! per-disk model (`disk::FifoDisk`, which it shares with the
//! shared-pool mix): fixed timestamps in, FIFO services out. The
//! closed-loop engine ([`crate::simulate`]) remains the primary
//! model (it is what execution-time figures need); the open-loop replay
//! serves to (a) cross-validate service accounting between the two
//! disciplines, (b) expose queueing effects that the blocking
//! application hides — e.g. the response-time cliff when a whole
//! workload is concentrated on few disks (the PDC baseline).

use crate::disk::{open_reports, FifoDisk};
use crate::error::SimError;
use crate::report::GapRecord;
use sdpm_disk::{DiskParams, EnergyBreakdown};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_trace::{demux, AppEvent, Trace};
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
/// timestamp and is serviced FIFO by its disk at full speed.
///
/// Each disk's queue is independent once arrivals are fixed on the
/// nominal timeline, so the replay walks the trace one disk at a time
/// ([`demux`]) and sums response times in that per-disk order. (The
/// shared-pool mix sums in merged arrival order instead; on a
/// single-tenant Base mix the two agree bit for bit on everything but
/// the last bits of the mean response.)
///
/// # Errors
/// [`SimError::InvalidParams`] / [`SimError::InvalidTrace`] on malformed
/// input, [`SimError::PoolMismatch`] when the trace was generated for a
/// different pool size.
pub fn replay_open_loop(
    trace: &Trace,
    params: &DiskParams,
    pool: DiskPool,
) -> Result<OpenLoopReport, SimError> {
    params.validate().map_err(SimError::InvalidParams)?;
    trace.validate().map_err(SimError::InvalidTrace)?;
    if trace.pool_size != pool.count() {
        return Err(SimError::PoolMismatch {
            stream: trace.pool_size,
            pool: pool.count(),
        });
    }
    let demuxed = demux(&mut trace.stream());
    let mut responses = 0.0f64;
    let mut max_response = 0.0f64;
    let mut makespan = 0.0f64;
    let mut nreq = 0u64;
    let mut disks = Vec::with_capacity(demuxed.per_disk.len());
    for (id, sub) in (0u32..).zip(&demuxed.per_disk) {
        let mut d = FifoDisk::new(DiskId(id), params);
        for te in sub {
            // Power events are inert open-loop: no power management.
            let AppEvent::Io(req) = &te.event else {
                continue;
            };
            d.arrive(te.at_secs);
            let completion = d.serve(params, te.at_secs, req)?.completion;
            let response = completion - te.at_secs;
            responses += response;
            max_response = max_response.max(response);
            makespan = makespan.max(completion);
            nreq += 1;
        }
        disks.push(d);
    }
    let (per_disk, energy) = open_reports(disks, makespan)?;

    // Cast audit: this u64 -> f64 conversion is the module's only cast.
    // It loses precision past 2^53 requests (far beyond any replay) and
    // cannot truncate or change sign, so the crate-level narrowing-cast
    // denies stay meaningful.
    let n = nreq.max(1) as f64;
    Ok(OpenLoopReport {
        makespan_secs: makespan,
        energy,
        mean_response_secs: responses / n,
        max_response_secs: max_response,
        per_disk,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_disk::{service_time_secs, ultrastar36z15, RpmLadder, ServiceRequest};
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
        let r = replay_open_loop(&t, &p, DiskPool::new(2)).unwrap();
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
        let (p, _) = setup();
        // Arrivals every 1 ms, service ~6.5 ms: heavy overload.
        let t = trace_with_spacing(100, 0.001, 64 * 1024);
        let r = replay_open_loop(&t, &p, DiskPool::new(2)).unwrap();
        assert!(r.max_response_secs > 10.0 * r.per_disk[0].busy_secs / 50.0);
        assert!(r.per_disk.iter().any(|d| d.max_queue_depth > 5));
        // Makespan extends past the last arrival.
        assert!(r.makespan_secs > 0.001 * 100.0 + 0.0065);
    }

    #[test]
    fn open_and_closed_loop_agree_on_uncontended_service_totals() {
        let (p, _) = setup();
        let t = trace_with_spacing(30, 0.1, 64 * 1024);
        let open = replay_open_loop(&t, &p, DiskPool::new(2)).unwrap();
        let closed = crate::simulate(&t, &p, DiskPool::new(2), &crate::Policy::Base);
        let open_busy: f64 = open.per_disk.iter().map(|d| d.busy_secs).sum();
        let closed_busy: f64 = closed.per_disk.iter().map(|d| d.energy.active_secs).sum();
        assert!((open_busy - closed_busy).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_replays_to_zero() {
        let (p, _) = setup();
        let t = Trace {
            name: "empty".into(),
            pool_size: 2,
            events: vec![],
        };
        let r = replay_open_loop(&t, &p, DiskPool::new(2)).unwrap();
        assert_eq!(r.makespan_secs, 0.0);
        assert_eq!(r.total_energy_j(), 0.0);
    }

    #[test]
    fn gaps_cover_idle_stretches() {
        let (p, _) = setup();
        let t = trace_with_spacing(4, 1.0, 4096);
        let r = replay_open_loop(&t, &p, DiskPool::new(2)).unwrap();
        for d in &r.per_disk {
            for w in d.gaps.windows(2) {
                assert!(w[0].end <= w[1].start + 1e-12);
            }
            let gap_total: f64 = d.gaps.iter().map(GapRecord::len_secs).sum();
            assert!((gap_total + d.busy_secs - r.makespan_secs).abs() < 1e-6);
        }
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        let (p, _) = setup();
        let t = trace_with_spacing(4, 0.1, 4096);
        assert_eq!(
            replay_open_loop(&t, &p, DiskPool::new(3)),
            Err(SimError::PoolMismatch { stream: 2, pool: 3 })
        );
        let mut bad = t.clone();
        bad.events.push(AppEvent::Io(IoRequest {
            disk: DiskId(7),
            start_block: 0,
            size_bytes: 4096,
            kind: ReqKind::Read,
            sequential: false,
            nest: 0,
            iter: 99,
        }));
        assert!(matches!(
            replay_open_loop(&bad, &p, DiskPool::new(2)),
            Err(SimError::InvalidTrace(_))
        ));
    }
}
