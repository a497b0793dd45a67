//! Shared-pool multi-tenant simulation (the scenario engine's core).
//!
//! The closed-loop engine ([`crate::simulate`]) models one blocking
//! application on a private pool; the open-loop replay
//! ([`crate::openloop`]) models fixed arrivals with no power
//! management. A *mix* is the missing combination: K tenants' request
//! streams, merged on one wall clock ([`sdpm_trace::mix`]), arrive
//! open-loop at a shared pool whose power state is actively managed —
//! so one tenant's spin-down is another tenant's wake penalty.
//!
//! The engine is event-driven over the merged stream, the third driver
//! over the crate's one per-disk model: each disk is the open-loop
//! replay's `disk::FifoDisk` (power state, gap ledger, FIFO queue), so
//! service, wake-up and finalization are shared; the arming and
//! firing rules below are the mix's own. Pool-wide power management is
//! a [`MixPolicy`]:
//!
//! * `Base` — disks idle at full speed,
//! * `Tpm` — the classic fixed-threshold reactive spin-down, evaluated
//!   per disk on the *merged* arrival stream,
//! * `Adaptive` — the epoch-based online policy
//!   ([`AdaptiveConfig`]): EWMA idle prediction with misfire/missed-idle
//!   feedback. Only meaningful under contention — on a single tenant it
//!   degenerates toward ITPM-without-preactivation,
//! * `Directive` — honor the compiler-inserted `Power` events each
//!   tenant's trace carries, **with a cross-tenant guard**: a directive
//!   that would sleep (or slow) a disk while *another* tenant has an
//!   imminent arrival on it is rejected and recorded as
//!   [`MisfireCause::CrossTenant`]. The compiler proved its own program
//!   safe, not the mix; the guard is the runtime's veto. It looks ahead
//!   in a per-disk arrival table that the engine builds only under this
//!   policy.
//!
//! Determinism: the engine is a pure fold over the merged event order
//! with no hidden iteration state; identical inputs give bit-identical
//! [`MixReport`]s. No step sorts: each p99 is an order-statistic
//! selection over the response times.

use crate::disk::{open_reports, FifoDisk};
use crate::error::SimError;
use crate::openloop::OpenDiskReport;
use crate::policy::{AdaptiveConfig, DirectiveConfig, TpmConfig};
use crate::report::{MisfireCause, MisfireCauses};
use sdpm_disk::{tpm_break_even_secs, DiskParams, DiskPowerState, EnergyBreakdown, RpmLadder};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_trace::mix::TenantEvent;
use sdpm_trace::{AppEvent, PowerAction};
use serde::{Deserialize, Serialize};

/// Pool-wide power-management policy for a shared-pool mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MixPolicy {
    /// No power management.
    Base,
    /// Reactive fixed-threshold spin-down on the merged arrival stream.
    Tpm(TpmConfig),
    /// Epoch-based online adaptive spin-down (idle prediction with
    /// feedback); the 8th scheme, contention-only.
    Adaptive(AdaptiveConfig),
    /// Execute the tenants' compiler-inserted directives, vetoing those
    /// that would penalize a co-tenant ([`MisfireCause::CrossTenant`]).
    Directive(DirectiveConfig),
}

impl MixPolicy {
    /// Short display name (mix-report rows).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MixPolicy::Base => "Base",
            MixPolicy::Tpm(_) => "TPM",
            MixPolicy::Adaptive(_) => "ADAPT",
            MixPolicy::Directive(_) => "CM",
        }
    }
}

/// One tenant's slice of a mix outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantMixReport {
    /// Tenant id (index into the mix's tenant table).
    pub tenant: u32,
    /// Tenant display name.
    pub name: String,
    /// Requests this tenant issued.
    pub requests: u64,
    /// Seconds of disk service consumed by this tenant.
    pub busy_secs: f64,
    /// Active-state joules attributable to this tenant's services
    /// (idle/standby/transition joules are pool state and stay
    /// pool-wide).
    pub active_j: f64,
    /// Mean response time (completion − arrival), seconds.
    pub mean_response_secs: f64,
    /// 99th-percentile response time, seconds.
    pub p99_response_secs: f64,
    /// Worst response time, seconds.
    pub max_response_secs: f64,
    /// Directive misfires attributed to this tenant's power calls
    /// (includes its cross-tenant vetoes).
    pub misfires: MisfireCauses,
}

/// Whole-mix outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixReport {
    /// Policy label the mix ran under.
    pub policy: String,
    /// Completion time of the last request (or last directive), seconds.
    pub makespan_secs: f64,
    /// Disk-subsystem energy over the makespan, all disks merged.
    pub energy: EnergyBreakdown,
    /// Total requests across tenants.
    pub requests: u64,
    /// Mean response time across all requests, seconds.
    pub mean_response_secs: f64,
    /// 99th-percentile response time across all requests, seconds.
    pub p99_response_secs: f64,
    /// Worst response time, seconds.
    pub max_response_secs: f64,
    /// Pool-wide misfire tally (sum of the per-tenant tallies).
    pub misfires: MisfireCauses,
    /// Per-tenant breakdowns, indexed by tenant id.
    pub per_tenant: Vec<TenantMixReport>,
    /// Per-disk details (same shape as the open-loop replay's).
    pub per_disk: Vec<OpenDiskReport>,
}

impl MixReport {
    /// Total joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }
}

/// 99th percentile by the nearest-rank method: the order statistic at
/// rank ⌈0.99 n⌉ (1-based), selected in O(n). Reorders `responses`.
/// Values that tie under `total_cmp` are bit-identical, so the result
/// equals indexing the fully sorted slice. Integer-only index math (no
/// float casts).
fn p99(responses: &mut [f64]) -> f64 {
    if responses.is_empty() {
        return 0.0;
    }
    let idx = (responses.len() * 99).div_ceil(100) - 1;
    *responses.select_nth_unstable_by(idx, f64::total_cmp).1
}

struct MixDisk {
    fifo: FifoDisk,
    /// Absolute time a reactive spin-down fires unless a request
    /// arrives first; re-armed at every service completion.
    sched_down_at: Option<f64>,
    /// EWMA idle-gap prediction (adaptive policy); `None` until the
    /// first gap closes.
    ewma_gap: Option<f64>,
    /// Current adaptive spin-down margin.
    margin: f64,
    /// End of the current feedback epoch.
    next_epoch_end: f64,
    ep_exploited: u64,
    ep_misfired: u64,
    ep_missed: u64,
    /// Cursor into the per-disk arrival table (cross-tenant lookahead;
    /// the table exists under `Directive` only).
    next_arrival: usize,
}

/// Simulates the merged multi-tenant stream `events` against a shared
/// `pool` under `policy`. `tenants[i]` names tenant id `i`; every event
/// must reference a known tenant. `events` must be sorted by the merge
/// order `(at_secs, tenant, seq)` — the order
/// [`sdpm_trace::merge_tenants`] produces.
///
/// # Errors
/// [`SimError::InvalidParams`] / [`SimError::InvalidTrace`] on malformed
/// input, [`SimError::DiskOutOfRange`] when an event names a disk
/// outside the pool, [`SimError::Power`] if the power-state machine
/// rejects a call the engine's sequencing says is legal (unreachable
/// from sorted input).
pub fn simulate_mix(
    events: &[TenantEvent],
    tenants: &[&str],
    params: &DiskParams,
    pool: DiskPool,
    policy: &MixPolicy,
) -> Result<MixReport, SimError> {
    validate(events, tenants, params, pool)?;
    let ladder = RpmLadder::new(params);
    let break_even = tpm_break_even_secs(params);

    // Per-disk arrival table for the cross-tenant lookahead guard; only
    // directives consult it.
    let mut arrivals: Vec<Vec<(f64, u32)>> = Vec::new();
    if let MixPolicy::Directive(_) = policy {
        arrivals.resize(pool.count() as usize, Vec::new());
        for e in events {
            if let AppEvent::Io(req) = &e.event {
                arrivals[req.disk.0 as usize].push((e.at_secs, e.tenant));
            }
        }
    }

    let (adaptive, epoch0, margin0) = match policy {
        MixPolicy::Adaptive(c) => (Some(*c), c.epoch_secs, c.margin),
        _ => (None, f64::INFINITY, 1.0),
    };
    let mut disks: Vec<MixDisk> = (0..pool.count())
        .map(|i| MixDisk {
            fifo: FifoDisk::new(DiskId(i), params),
            // The leading idle stretch is a gap like any other: TPM arms
            // its threshold from t = 0 (adaptive has no prediction yet).
            sched_down_at: match policy {
                MixPolicy::Tpm(c) => Some(c.threshold_secs.unwrap_or(break_even)),
                _ => None,
            },
            ewma_gap: None,
            margin: margin0,
            next_epoch_end: epoch0,
            ep_exploited: 0,
            ep_misfired: 0,
            ep_missed: 0,
            next_arrival: 0,
        })
        .collect();

    let mut per_tenant_resp: Vec<Vec<f64>> = vec![Vec::new(); tenants.len()];
    let mut per_tenant_busy = vec![0.0f64; tenants.len()];
    let mut per_tenant_active_j = vec![0.0f64; tenants.len()];
    let mut per_tenant_req = vec![0u64; tenants.len()];
    let mut per_tenant_misfires = vec![MisfireCauses::default(); tenants.len()];
    let mut makespan = 0.0f64;

    for te in events {
        let tenant = te.tenant as usize;
        match &te.event {
            AppEvent::Io(req) => {
                let a = te.at_secs;
                let d = &mut disks[req.disk.0 as usize];
                d.next_arrival += 1;
                if a >= d.fifo.available_at() {
                    close_gap(d, a, break_even, adaptive.as_ref())?;
                } else {
                    // Queued behind in-flight work; the disk is spinning.
                    d.fifo.arrive(a);
                }
                let s = d.fifo.serve(params, a, req)?;
                arm_reactive(d, s.completion, break_even, policy);

                per_tenant_resp[tenant].push(s.completion - a);
                per_tenant_busy[tenant] += s.secs;
                per_tenant_active_j[tenant] += s.secs * ladder.active_power_w(s.level);
                per_tenant_req[tenant] += 1;
                makespan = makespan.max(s.completion);
            }
            AppEvent::Power { disk, action } => {
                if let MixPolicy::Directive(_) = policy {
                    apply_directive(
                        &mut disks,
                        &arrivals,
                        *disk,
                        te.at_secs,
                        te.tenant,
                        *action,
                        &ladder,
                        break_even,
                        &mut per_tenant_misfires[tenant],
                    )?;
                    makespan = makespan.max(te.at_secs);
                }
                // Inert under every other policy, exactly like the
                // closed-loop engine ignores Power events off-Directive.
            }
            AppEvent::Compute { .. } => {
                return Err(SimError::InvalidTrace(
                    "merged mix stream carries a Compute event".into(),
                ));
            }
        }
    }

    // Trailing idleness to the makespan. No trailing reactive spin-down:
    // the gap's demand boundary is the end of the run, and sleeping a
    // disk nothing will ever wake again is free energy the comparison
    // should not award.
    let (per_disk, energy) = open_reports(disks.into_iter().map(|d| d.fifo), makespan)?;

    let mut all_resp: Vec<f64> = per_tenant_resp.iter().flatten().copied().collect();
    let requests: u64 = per_tenant_req.iter().sum();
    let mut misfires = MisfireCauses::default();
    let per_tenant: Vec<TenantMixReport> = tenants
        .iter()
        .zip(0u32..)
        .map(|(name, t)| {
            let i = t as usize;
            let resp = &mut per_tenant_resp[i];
            let sum: f64 = resp.iter().sum();
            let max = resp.iter().copied().fold(0.0f64, f64::max);
            let n = per_tenant_req[i];
            let m = per_tenant_misfires[i];
            merge_causes(&mut misfires, &m);
            TenantMixReport {
                tenant: t,
                name: (*name).to_string(),
                requests: n,
                busy_secs: per_tenant_busy[i],
                active_j: per_tenant_active_j[i],
                mean_response_secs: sum / n.max(1) as f64,
                p99_response_secs: p99(resp),
                max_response_secs: max,
                misfires: m,
            }
        })
        .collect();

    let sum: f64 = all_resp.iter().sum();
    let max_response = all_resp.iter().copied().fold(0.0f64, f64::max);
    Ok(MixReport {
        policy: policy.label().to_string(),
        makespan_secs: makespan,
        energy,
        requests,
        mean_response_secs: sum / requests.max(1) as f64,
        p99_response_secs: p99(&mut all_resp),
        max_response_secs: max_response,
        misfires,
        per_tenant,
        per_disk,
    })
}

fn merge_causes(into: &mut MisfireCauses, from: &MisfireCauses) {
    into.spin_down_rejected += from.spin_down_rejected;
    into.spin_up_rejected += from.spin_up_rejected;
    into.rpm_shift_rejected += from.rpm_shift_rejected;
    into.off_ladder_level += from.off_ladder_level;
    into.cross_tenant += from.cross_tenant;
}

/// Closes the idle gap `[available_at, a]` on an arrival at `a` that
/// finds the disk's queue empty: applies the pending reactive spin-down
/// retroactively if it fired inside the gap, records the gap, and feeds
/// it to the adaptive predictor.
fn close_gap(
    d: &mut MixDisk,
    a: f64,
    break_even: f64,
    adaptive: Option<&AdaptiveConfig>,
) -> Result<(), SimError> {
    let gap_len = a - d.fifo.available_at();
    let fired = match d.sched_down_at.take() {
        Some(sd) if sd < a => {
            // The schedule only arms while the disk idles spinning, so
            // the spin-down is legal by construction.
            let disk = &mut d.fifo.disk;
            disk.machine
                .spin_down(sd)
                .map_err(|e| SimError::power("mix reactive spin_down", disk.id, sd, e))?;
            disk.gap_standby = true;
            true
        }
        _ => false,
    };
    if d.fifo.arrive(a) {
        if fired {
            if gap_len >= break_even {
                d.ep_exploited += 1;
            } else {
                d.ep_misfired += 1;
            }
        } else if gap_len > break_even {
            d.ep_missed += 1;
        }
        if let Some(c) = adaptive {
            let prev = d.ewma_gap.unwrap_or(gap_len);
            d.ewma_gap = Some(c.ewma_alpha * gap_len + (1.0 - c.ewma_alpha) * prev);
        }
    }
    Ok(())
}

/// Re-arms the reactive spin-down decision at a service completion.
fn arm_reactive(d: &mut MixDisk, completion: f64, break_even: f64, policy: &MixPolicy) {
    d.sched_down_at = match policy {
        MixPolicy::Tpm(c) => Some(completion + c.threshold_secs.unwrap_or(break_even)),
        MixPolicy::Adaptive(c) => {
            // Feedback closes on epoch boundaries of this disk's clock.
            while completion >= d.next_epoch_end {
                if d.ep_misfired > d.ep_exploited {
                    d.margin = (d.margin * c.margin_grow).min(AdaptiveConfig::MARGIN_RANGE.1);
                } else if d.ep_missed > d.ep_exploited {
                    d.margin = (d.margin * c.margin_shrink).max(AdaptiveConfig::MARGIN_RANGE.0);
                }
                d.ep_exploited = 0;
                d.ep_misfired = 0;
                d.ep_missed = 0;
                d.next_epoch_end += c.epoch_secs;
            }
            match d.ewma_gap {
                // Predicted-long idle: sleep immediately, skipping the
                // 2-competitive break-even wait TPM pays.
                Some(p) if p >= d.margin * break_even => Some(completion),
                _ => None,
            }
        }
        MixPolicy::Base | MixPolicy::Directive(_) => None,
    };
}

/// Applies one tenant directive under the cross-tenant guard.
#[allow(clippy::too_many_arguments)]
fn apply_directive(
    disks: &mut [MixDisk],
    arrivals: &[Vec<(f64, u32)>],
    disk: DiskId,
    tp: f64,
    tenant: u32,
    action: PowerAction,
    ladder: &RpmLadder,
    break_even: f64,
    misfires: &mut MisfireCauses,
) -> Result<(), SimError> {
    let di = disk.0 as usize;
    let d = &mut disks[di];
    if tp < d.fifo.available_at() {
        // The disk is busy or has queued work: the tenant's timeline
        // estimate has already diverged (same taxonomy as closed-loop).
        misfires.count(match action {
            PowerAction::SpinDown => MisfireCause::SpinDownRejected,
            PowerAction::SpinUp => MisfireCause::SpinUpRejected,
            PowerAction::SetRpm(_) => MisfireCause::RpmShiftRejected,
        });
        return Ok(());
    }
    // Veto window: a co-tenant arrival inside it would pay this
    // directive's wake/restore penalty. Spin-downs guard the full
    // break-even window; slow-downs guard the shift-back time.
    let guard = match action {
        PowerAction::SpinDown => Some(break_even),
        PowerAction::SetRpm(level) if ladder.contains(level) && level < ladder.max_level() => {
            Some(ladder.transition_secs(level, ladder.max_level()))
        }
        _ => None,
    };
    if let Some(g) = guard {
        let upcoming = &arrivals[di][d.next_arrival..];
        let crossed = upcoming
            .iter()
            .take_while(|&&(at, _)| at <= tp + g)
            .any(|&(_, t)| t != tenant);
        if crossed {
            misfires.count(MisfireCause::CrossTenant);
            return Ok(());
        }
    }
    let d = &mut d.fifo.disk;
    d.machine
        .advance(tp)
        .map_err(|e| SimError::power("mix directive advance", disk, tp, e))?;
    match action {
        PowerAction::SpinDown => match d.machine.state() {
            DiskPowerState::Idle { .. } => {
                d.machine
                    .spin_down(tp)
                    .map_err(|e| SimError::power("mix directive spin_down", disk, tp, e))?;
                d.gap_standby = true;
            }
            _ => misfires.count(MisfireCause::SpinDownRejected),
        },
        PowerAction::SpinUp => match d.machine.state() {
            DiskPowerState::Standby => {
                d.machine
                    .spin_up(tp)
                    .map_err(|e| SimError::power("mix directive spin_up", disk, tp, e))?;
            }
            _ => misfires.count(MisfireCause::SpinUpRejected),
        },
        PowerAction::SetRpm(level) => {
            if !ladder.contains(level) {
                misfires.count(MisfireCause::OffLadderLevel);
            } else {
                match d.machine.state() {
                    DiskPowerState::Idle { .. } => {
                        d.machine
                            .set_rpm(tp, level)
                            .map_err(|e| SimError::power("mix directive set_rpm", disk, tp, e))?;
                        d.gap_level = d.gap_level.min(level);
                    }
                    _ => misfires.count(MisfireCause::RpmShiftRejected),
                }
            }
        }
    }
    Ok(())
}

fn validate(
    events: &[TenantEvent],
    tenants: &[&str],
    params: &DiskParams,
    pool: DiskPool,
) -> Result<(), SimError> {
    if let Err(e) = params.validate() {
        return Err(SimError::InvalidParams(e.to_string()));
    }
    if tenants.is_empty() {
        return Err(SimError::InvalidTrace("mix has no tenants".into()));
    }
    let mut prev: Option<(u64, u32, u64)> = None;
    for e in events {
        // `-0.0` passes `>= 0.0` but its bits key it after every
        // positive time, so the merge-order check below would misjudge it.
        if !e.at_secs.is_finite() || e.at_secs.is_sign_negative() {
            return Err(SimError::InvalidTrace(format!(
                "non-finite or sign-negative event time {}",
                e.at_secs
            )));
        }
        if e.tenant as usize >= tenants.len() {
            return Err(SimError::InvalidTrace(format!(
                "event references tenant {} of {}",
                e.tenant,
                tenants.len()
            )));
        }
        let key = (e.at_secs.to_bits(), e.tenant, e.seq);
        if prev.is_some_and(|p| key < p) {
            return Err(SimError::InvalidTrace(
                "mix events are not in (time, tenant, seq) merge order".into(),
            ));
        }
        prev = Some(key);
        let disk = match &e.event {
            AppEvent::Io(req) => req.disk,
            AppEvent::Power { disk, .. } => *disk,
            AppEvent::Compute { .. } => {
                return Err(SimError::InvalidTrace(
                    "merged mix stream carries a Compute event".into(),
                ))
            }
        };
        if !pool.contains(disk) {
            return Err(SimError::DiskOutOfRange {
                disk: disk.0,
                pool: pool.count(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_disk::ultrastar36z15;
    use sdpm_trace::{IoRequest, ReqKind};

    fn ev(at: f64, tenant: u32, seq: u64, disk: u32) -> TenantEvent {
        TenantEvent {
            at_secs: at,
            tenant,
            seq,
            event: AppEvent::Io(IoRequest {
                disk: DiskId(disk),
                start_block: 0,
                size_bytes: 64 * 1024,
                kind: ReqKind::Read,
                sequential: false,
                nest: 0,
                iter: seq,
            }),
        }
    }

    fn pw(at: f64, tenant: u32, seq: u64, disk: u32, action: PowerAction) -> TenantEvent {
        TenantEvent {
            at_secs: at,
            tenant,
            seq,
            event: AppEvent::Power {
                disk: DiskId(disk),
                action,
            },
        }
    }

    fn run(events: &[TenantEvent], policy: &MixPolicy) -> MixReport {
        simulate_mix(
            events,
            &["a", "b"],
            &ultrastar36z15(),
            DiskPool::new(2),
            policy,
        )
        .expect("valid mix")
    }

    #[test]
    fn base_mix_reports_per_tenant_responses() {
        let events = vec![ev(1.0, 0, 0, 0), ev(1.0, 1, 0, 1), ev(2.0, 0, 1, 0)];
        let r = run(&events, &MixPolicy::Base);
        assert_eq!(r.requests, 3);
        assert_eq!(r.per_tenant.len(), 2);
        assert_eq!(r.per_tenant[0].requests, 2);
        assert_eq!(r.per_tenant[1].requests, 1);
        assert!(r.per_tenant[0].mean_response_secs > 0.0);
        assert_eq!(r.misfires.total(), 0);
        // Uncontended: every response is a bare service time.
        assert!(r.max_response_secs < 0.05);
    }

    #[test]
    fn tpm_mix_spins_down_long_gaps_and_charges_the_wake() {
        let p = ultrastar36z15();
        let be = tpm_break_even_secs(&p);
        let gap = 4.0 * be;
        let events = vec![ev(1.0, 0, 0, 0), ev(1.0 + gap, 1, 0, 0)];
        let base = run(&events, &MixPolicy::Base);
        let tpm = run(&events, &MixPolicy::Tpm(TpmConfig::default()));
        assert!(tpm.total_energy_j() < base.total_energy_j());
        // Tenant 1 pays tenant-agnostic reactive wake latency.
        assert!(tpm.per_tenant[1].max_response_secs > p.spin_up_secs);
        assert!(base.per_tenant[1].max_response_secs < p.spin_up_secs);
        let downs: u64 = tpm.per_disk.iter().map(|d| d.requests).sum();
        assert_eq!(downs, 2);
        assert!(tpm.per_disk[0].gaps.iter().any(|g| g.standby));
    }

    #[test]
    fn adaptive_skips_the_break_even_wait_on_predicted_long_gaps() {
        let p = ultrastar36z15();
        let be = tpm_break_even_secs(&p);
        let gap = 6.0 * be;
        // A long train of long gaps: after the first observation the
        // EWMA predicts long and sleeps at idle start, saving the
        // break-even wait TPM pays on every gap.
        let mut events = Vec::new();
        for i in 0..12u64 {
            events.push(ev(1.0 + i as f64 * gap, (i % 2) as u32, i, 0));
        }
        let tpm = run(&events, &MixPolicy::Tpm(TpmConfig::default()));
        let adapt = run(&events, &MixPolicy::Adaptive(AdaptiveConfig::default()));
        assert!(
            adapt.total_energy_j() < tpm.total_energy_j(),
            "adaptive {} must beat TPM {}",
            adapt.total_energy_j(),
            tpm.total_energy_j()
        );
        // Both wake on demand, so the response distribution matches.
        assert!(adapt.p99_response_secs <= tpm.p99_response_secs + 1e-9);
    }

    #[test]
    fn cross_tenant_spin_down_is_vetoed_and_counted() {
        let p = ultrastar36z15();
        let be = tpm_break_even_secs(&p);
        // Tenant 0 sleeps disk 0 right before tenant 1 arrives there.
        let events = vec![
            ev(1.0, 0, 0, 0),
            pw(2.0, 0, 1, 0, PowerAction::SpinDown),
            ev(2.0 + 0.25 * be, 1, 0, 0),
        ];
        let cm = run(&events, &MixPolicy::Directive(DirectiveConfig::default()));
        assert_eq!(cm.misfires.cross_tenant, 1, "the veto must be recorded");
        assert_eq!(cm.per_tenant[0].misfires.cross_tenant, 1);
        assert_eq!(cm.per_tenant[1].misfires.total(), 0);
        // The veto protected tenant 1 from the wake penalty.
        assert!(cm.per_tenant[1].max_response_secs < p.spin_up_secs);
        // Without a co-tenant nearby the same directive is honored.
        let solo = vec![
            ev(1.0, 0, 0, 0),
            pw(2.0, 0, 1, 0, PowerAction::SpinDown),
            ev(2.0 + 4.0 * be, 0, 2, 0),
        ];
        let r = run(&solo, &MixPolicy::Directive(DirectiveConfig::default()));
        assert_eq!(r.misfires.total(), 0);
        assert!(r.per_disk[0].gaps.iter().any(|g| g.standby));
    }

    #[test]
    fn contended_fifo_queues_inflate_responses() {
        // 50 back-to-back arrivals from two tenants on one disk.
        let mut events = Vec::new();
        for i in 0..50u64 {
            events.push(ev(1.0 + i as f64 * 1e-4, (i % 2) as u32, i, 0));
        }
        let r = run(&events, &MixPolicy::Base);
        assert!(r.per_disk[0].max_queue_depth > 5);
        assert!(r.max_response_secs > 10.0 * r.mean_response_secs / 50.0);
        assert!(r.p99_response_secs <= r.max_response_secs);
        assert!(r.p99_response_secs >= r.mean_response_secs);
    }

    #[test]
    fn deterministic_double_run() {
        let p = ultrastar36z15();
        let be = tpm_break_even_secs(&p);
        let mut events = Vec::new();
        for i in 0..40u64 {
            events.push(ev(
                0.5 + i as f64 * 0.7 * be,
                (i % 2) as u32,
                i,
                (i % 2) as u32,
            ));
        }
        for policy in [
            MixPolicy::Base,
            MixPolicy::Tpm(TpmConfig::default()),
            MixPolicy::Adaptive(AdaptiveConfig::default()),
            MixPolicy::Directive(DirectiveConfig::default()),
        ] {
            let a = run(&events, &policy);
            let b = run(&events, &policy);
            assert_eq!(a, b, "{} must be deterministic", policy.label());
            assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
        }
    }

    #[test]
    fn unsorted_or_unknown_tenant_input_is_rejected() {
        let p = ultrastar36z15();
        let pool = DiskPool::new(2);
        let unsorted = vec![ev(2.0, 0, 1, 0), ev(1.0, 0, 0, 0)];
        assert!(matches!(
            simulate_mix(&unsorted, &["a"], &p, pool, &MixPolicy::Base),
            Err(SimError::InvalidTrace(_))
        ));
        let unknown = vec![ev(1.0, 7, 0, 0)];
        assert!(matches!(
            simulate_mix(&unknown, &["a"], &p, pool, &MixPolicy::Base),
            Err(SimError::InvalidTrace(_))
        ));
        let bad_disk = vec![ev(1.0, 0, 0, 9)];
        assert!(matches!(
            simulate_mix(&bad_disk, &["a"], &p, pool, &MixPolicy::Base),
            Err(SimError::DiskOutOfRange { disk: 9, pool: 2 })
        ));
    }

    #[test]
    fn negative_zero_event_time_is_rejected() {
        let p = ultrastar36z15();
        let events = vec![ev(-0.0, 0, 0, 0), ev(0.0, 0, 1, 0)];
        assert!(matches!(
            simulate_mix(&events, &["a"], &p, DiskPool::new(2), &MixPolicy::Base),
            Err(SimError::InvalidTrace(m)) if m.contains("sign-negative")
        ));
    }

    #[test]
    fn selected_p99_equals_sorted_nearest_rank_bitwise() {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for n in [1usize, 2, 99, 100, 101, 1000] {
            for round in 0..20u64 {
                // Few distinct values, so most ranks sit inside a run of
                // duplicates; later rounds widen the value set.
                let distinct = 1 + round * 3;
                let mut v: Vec<f64> = (0..n)
                    .map(|_| {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((s >> 33) % distinct) as f64 * 1e-3 + 0.25e-3
                    })
                    .collect();
                let mut sorted = v.clone();
                sorted.sort_by(f64::total_cmp);
                let want = sorted[(n * 99).div_ceil(100) - 1];
                assert_eq!(p99(&mut v).to_bits(), want.to_bits(), "n={n} round={round}");
            }
        }
    }

    #[test]
    fn empty_mix_is_a_zero_report() {
        let r = run(&[], &MixPolicy::Base);
        assert_eq!(r.requests, 0);
        assert_eq!(r.makespan_secs, 0.0);
        assert_eq!(r.total_energy_j(), 0.0);
        assert_eq!(r.p99_response_secs, 0.0);
    }
}
