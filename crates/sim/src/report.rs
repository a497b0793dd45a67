//! Simulation reports.

use sdpm_disk::{best_rpm_for_gap, EnergyBreakdown, RpmLadder, RpmLevel};
use sdpm_fault::FaultCounts;
use serde::{Deserialize, Serialize};

/// One idle period of one disk, as observed during a run.
///
/// Gap boundaries are *demand* boundaries: the gap opens when the disk
/// finishes its previous service and closes when the next request
/// **arrives** (even if service then has to wait for a spin-up — that wait
/// is the penalty, not idleness).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GapRecord {
    /// Gap start (previous service completion, or 0.0).
    pub start: f64,
    /// Gap end (next request arrival, or end of execution).
    pub end: f64,
    /// Deepest RPM level the disk dwelt at during the gap (ladder max if
    /// it stayed at full speed).
    pub level: RpmLevel,
    /// True if the disk reached standby (TPM spin-down) during the gap.
    pub standby: bool,
}

impl GapRecord {
    /// Gap length in seconds.
    #[must_use]
    pub fn len_secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Why a power-management call could not be applied as issued.
///
/// The engine resolves misfires gracefully (the disk keeps its current
/// trajectory), but they indicate the directive inserter's timeline
/// estimate diverged from what the disk was actually doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisfireCause {
    /// `spin_down` on a disk not idle (already in standby, or the call
    /// raced a transition that left it unspinnable).
    SpinDownRejected,
    /// `spin_up` on a disk that was not in standby.
    SpinUpRejected,
    /// `set_rpm` refused by the state machine (disk busy or mid-wake).
    RpmShiftRejected,
    /// `set_rpm` to a level that is not on the disk's RPM ladder.
    OffLadderLevel,
    /// A directive rejected by the shared-pool engine because another
    /// tenant had an imminent access on the same disk: honoring tenant
    /// A's spin-down while tenant B arrives inside the break-even window
    /// would charge B a wake penalty A never accounted for. Only the
    /// mix engine ([`crate::mix`]) raises this cause; single-tenant runs
    /// always report zero, preserving their bit-exactness suites.
    CrossTenant,
}

impl MisfireCause {
    /// Stable snake_case label (used as the observability event tag).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MisfireCause::SpinDownRejected => "spin_down_rejected",
            MisfireCause::SpinUpRejected => "spin_up_rejected",
            MisfireCause::RpmShiftRejected => "rpm_shift_rejected",
            MisfireCause::OffLadderLevel => "off_ladder_level",
            MisfireCause::CrossTenant => "cross_tenant",
        }
    }
}

/// Misfire counts broken down by [`MisfireCause`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MisfireCauses {
    pub spin_down_rejected: u64,
    pub spin_up_rejected: u64,
    pub rpm_shift_rejected: u64,
    pub off_ladder_level: u64,
    /// Shared-pool only (see [`MisfireCause::CrossTenant`]);
    /// single-program runs always report zero here.
    pub cross_tenant: u64,
}

impl MisfireCauses {
    /// Records one misfire.
    pub fn count(&mut self, cause: MisfireCause) {
        match cause {
            MisfireCause::SpinDownRejected => self.spin_down_rejected += 1,
            MisfireCause::SpinUpRejected => self.spin_up_rejected += 1,
            MisfireCause::RpmShiftRejected => self.rpm_shift_rejected += 1,
            MisfireCause::OffLadderLevel => self.off_ladder_level += 1,
            MisfireCause::CrossTenant => self.cross_tenant += 1,
        }
    }

    /// Total misfires across causes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.spin_down_rejected
            + self.spin_up_rejected
            + self.rpm_shift_rejected
            + self.off_ladder_level
            + self.cross_tenant
    }

    /// `(label, count)` pairs for the non-zero causes.
    #[must_use]
    pub fn breakdown(&self) -> Vec<(&'static str, u64)> {
        [
            (MisfireCause::SpinDownRejected, self.spin_down_rejected),
            (MisfireCause::SpinUpRejected, self.spin_up_rejected),
            (MisfireCause::RpmShiftRejected, self.rpm_shift_rejected),
            (MisfireCause::OffLadderLevel, self.off_ladder_level),
            (MisfireCause::CrossTenant, self.cross_tenant),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(c, n)| (c.label(), n))
        .collect()
    }
}

/// Per-disk outcome of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerDiskReport {
    /// Requests serviced.
    pub requests: u64,
    /// Joule ledger.
    pub energy: EnergyBreakdown,
    /// Completed spin-downs.
    pub spin_downs: u64,
    /// Completed spin-ups.
    pub spin_ups: u64,
    /// Completed RPM shifts.
    pub rpm_shifts: u64,
    /// Idle periods observed, in time order.
    pub gaps: Vec<GapRecord>,
}

/// Whole-run outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Scheme label the run used.
    pub policy: String,
    /// Application execution time, seconds (compute + I/O stalls).
    pub exec_secs: f64,
    /// Disk-subsystem energy, all disks merged.
    pub energy: EnergyBreakdown,
    /// Per-disk details.
    pub per_disk: Vec<PerDiskReport>,
    /// Total requests.
    pub requests: u64,
    /// Seconds the application stalled beyond full-speed service (waiting
    /// on spin-ups, shifts, or slow-RPM service).
    pub stall_secs: f64,
    /// Mean request slowdown (observed response / full-speed service).
    pub mean_slowdown: f64,
    /// Power-management calls that could not be applied as issued
    /// (e.g. `set_RPM` on a disk already shifting), broken down by
    /// cause; the engine resolves them gracefully but they indicate
    /// estimation error.
    pub misfire_causes: MisfireCauses,
    /// Injected faults the run absorbed, broken down by cause. All
    /// zeros when no [`sdpm_fault::FaultPlan`] was attached, so the
    /// field is inert for fault-free bit-exactness comparisons.
    pub faults: FaultCounts,
}

impl SimReport {
    /// Total joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// This run's energy normalized to a base-run energy.
    #[must_use]
    pub fn normalized_energy(&self, base: &SimReport) -> f64 {
        self.total_energy_j() / base.total_energy_j()
    }

    /// This run's execution time normalized to a base run.
    #[must_use]
    pub fn normalized_time(&self, base: &SimReport) -> f64 {
        self.exec_secs / base.exec_secs
    }

    /// Fraction of *non-trivial* idle gaps whose observed dwell level
    /// differs from the energy-optimal level for the gap's true length —
    /// the paper's Table 3 "percentage of mispredicted disk speeds".
    ///
    /// A gap is non-trivial if either the optimal choice or the observed
    /// choice moves off full speed; gaps where both agree on "do nothing"
    /// carry no decision and are excluded, as are gaps of a never-managed
    /// always-idle disk.
    #[must_use]
    pub fn mispredicted_speed_fraction(&self, ladder: &RpmLadder) -> f64 {
        let max = ladder.max_level();
        let mut decided = 0u64;
        let mut wrong = 0u64;
        for d in &self.per_disk {
            for g in &d.gaps {
                let ideal = best_rpm_for_gap(ladder, max, g.len_secs()).level;
                if ideal == max && g.level == max {
                    continue;
                }
                decided += 1;
                if ideal != g.level {
                    wrong += 1;
                }
            }
        }
        if decided == 0 {
            0.0
        } else {
            wrong as f64 / decided as f64
        }
    }

    /// Convenience: total idle-gap seconds across disks.
    #[must_use]
    pub fn total_gap_secs(&self) -> f64 {
        self.per_disk
            .iter()
            .flat_map(|d| d.gaps.iter())
            .map(GapRecord::len_secs)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_disk::ultrastar36z15;

    fn empty_report(policy: &str) -> SimReport {
        SimReport {
            policy: policy.into(),
            exec_secs: 10.0,
            energy: EnergyBreakdown {
                idle_j: 102.0,
                ..Default::default()
            },
            per_disk: vec![],
            requests: 0,
            stall_secs: 0.0,
            mean_slowdown: 1.0,
            misfire_causes: MisfireCauses::default(),
            faults: FaultCounts::default(),
        }
    }

    #[test]
    fn normalization_is_ratio() {
        let base = empty_report("Base");
        let mut other = empty_report("DRPM");
        other.energy.idle_j = 51.0;
        other.exec_secs = 11.0;
        assert!((other.normalized_energy(&base) - 0.5).abs() < 1e-12);
        assert!((other.normalized_time(&base) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn gap_len_is_end_minus_start() {
        let g = GapRecord {
            start: 2.0,
            end: 5.5,
            level: RpmLevel(3),
            standby: false,
        };
        assert!((g.len_secs() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn mispredict_counts_only_decided_gaps() {
        let params = ultrastar36z15();
        let ladder = RpmLadder::new(&params);
        let max = ladder.max_level();
        let mut r = empty_report("CMDRPM");
        r.per_disk.push(PerDiskReport {
            requests: 2,
            energy: EnergyBreakdown::default(),
            spin_downs: 0,
            spin_ups: 0,
            rpm_shifts: 2,
            gaps: vec![
                // Tiny gap (shorter than one shift pair), stayed at max:
                // trivial, excluded.
                GapRecord {
                    start: 0.0,
                    end: 0.003,
                    level: max,
                    standby: false,
                },
                // Long gap, optimal is the ladder bottom; disk dwelt at
                // bottom: correct.
                GapRecord {
                    start: 1.0,
                    end: 601.0,
                    level: RpmLevel(0),
                    standby: false,
                },
                // Long gap but only reached level 5: mispredicted.
                GapRecord {
                    start: 700.0,
                    end: 1300.0,
                    level: RpmLevel(5),
                    standby: false,
                },
            ],
        });
        let f = r.mispredicted_speed_fraction(&ladder);
        assert!((f - 0.5).abs() < 1e-12, "1 wrong of 2 decided, got {f}");
    }

    #[test]
    fn mispredict_of_gapless_run_is_zero() {
        let params = ultrastar36z15();
        let ladder = RpmLadder::new(&params);
        assert_eq!(empty_report("x").mispredicted_speed_fraction(&ladder), 0.0);
    }
}
