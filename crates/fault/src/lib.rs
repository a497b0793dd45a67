//! Deterministic, seedable fault injection for the trace→sim pipeline.
//!
//! Real storage misbehaves in ways a clean simulator never exercises:
//! bits rot on the wire, services fail transiently and are retried, a
//! cold spindle takes longer than its datasheet `Tsu` to reach speed, a
//! multi-RPM actuator sticks at its current level. This crate models
//! those faults as *pure, seeded decisions* so a run with faults is as
//! reproducible as a run without:
//!
//! * [`FaultConfig`] — rates and knobs for each fault class;
//! * [`FaultPlan`] — the decision oracle. Every decision is a pure
//!   function of `(seed, site, disk, sequence-number)`, so two replays
//!   with the same seed inject byte-for-byte the same faults regardless
//!   of wall-clock or thread timing;
//! * [`FaultCounts`] — per-cause counters the engine folds into its
//!   report (`SimReport::faults`), mirroring the misfire breakdown;
//! * [`FaultPlan::mangle`] — byte-level corruption/truncation for
//!   encoded traces, and [`ReorderStream`] — an
//!   [`EventStream`] wrapper that swaps events within a chunk.
//!
//! The slow spin-up class interacts with the paper's pre-activation
//! distance `d = ceil(Tsu / (s + Tm))`: a directive issued exactly `d`
//! iterations early hides a *nominal* spin-up, so a stochastically
//! inflated `Tsu` surfaces as stall time the compiler could not have
//! hidden — exactly the robustness question the harness probes.

#![forbid(unsafe_code)]
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdpm_trace::{AppEvent, EventStream};
use serde::{Deserialize, Serialize};

/// Decision sites, mixed into the per-decision seed so the same
/// `(disk, n)` pair draws independently for different fault classes.
mod site {
    pub const TRANSIENT: u64 = 0x5449;
    pub const SLOW_SPINUP: u64 = 0x534c;
    pub const STUCK_RPM: u64 = 0x5354;
    pub const CORRUPT: u64 = 0x434f;
    pub const TRUNCATE: u64 = 0x5452;
    pub const REORDER: u64 = 0x5245;
}

/// Rates and knobs for every fault class. All rates are probabilities in
/// `[0, 1]`; a rate of `0.0` disables that class entirely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Root seed; every decision derives from it deterministically.
    pub seed: u64,
    /// Per-byte probability that [`FaultPlan::mangle`] flips a byte.
    pub byte_corrupt_rate: f64,
    /// Probability that [`FaultPlan::mangle`] truncates the buffer.
    pub truncate_rate: f64,
    /// Per-chunk probability that [`ReorderStream`] swaps two events.
    pub reorder_rate: f64,
    /// Per-request probability of a transient service failure (each
    /// retry re-draws, so a request can fail several times in a row).
    pub transient_rate: f64,
    /// Bounded retry budget for transient service failures.
    pub max_retries: u32,
    /// Backoff before retry `k` is `retry_backoff_secs * 2^k` (seconds).
    pub retry_backoff_secs: f64,
    /// Per-spin-up probability that the spindle comes up slow.
    pub slow_spinup_rate: f64,
    /// A slow spin-up takes `slow_spinup_factor * Tsu` (factor ≥ 1).
    pub slow_spinup_factor: f64,
    /// Per-shift probability that a DRPM actuator sticks at its level.
    pub stuck_rpm_rate: f64,
}

impl FaultConfig {
    /// All fault classes off; the plan still exists (and the engine
    /// still degrades run records to per-event servicing) but no fault
    /// ever fires.
    #[must_use]
    pub fn disabled(seed: u64) -> Self {
        Self::uniform(seed, 0.0)
    }

    /// Every rate set to `rate`, with default retry/inflation knobs.
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            byte_corrupt_rate: rate,
            truncate_rate: rate,
            reorder_rate: rate,
            transient_rate: rate,
            max_retries: 3,
            retry_backoff_secs: 0.005,
            slow_spinup_rate: rate,
            slow_spinup_factor: 2.0,
            stuck_rpm_rate: rate,
        }
    }

    /// True when no fault class can ever fire.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.byte_corrupt_rate == 0.0
            && self.truncate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.transient_rate == 0.0
            && self.slow_spinup_rate == 0.0
            && self.stuck_rpm_rate == 0.0
    }
}

/// Stable label for each injectable fault kind (observability tags and
/// report breakdowns).
pub mod kind {
    pub const TRANSIENT: &str = "transient_service_failure";
    pub const SLOW_SPINUP: &str = "slow_spin_up";
    pub const STUCK_RPM: &str = "stuck_rpm";
}

/// Per-cause fault counters, accumulated by the engine and surfaced in
/// the simulation report. Mirrors the misfire breakdown: `total()` plus
/// `(label, count)` pairs for the non-zero causes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Requests that hit at least one transient service failure.
    pub transient_failures: u64,
    /// Individual failed attempts (a request retried twice counts 2).
    pub retries: u64,
    /// Requests whose retry budget ran out (service proceeded anyway,
    /// degraded — the closed-loop app cannot drop a request).
    pub retry_exhausted: u64,
    /// Spin-ups that came up slow (inflated `Tsu`).
    pub slow_spinups: u64,
    /// RPM shifts that stuck at the current level.
    pub stuck_rpm: u64,
    /// Always 0. It counted run records expanded to per-event servicing
    /// under a fault plan, but stored run-compressed traces now replay
    /// only without one. The field stays because the repository
    /// benchmark's recorded report digests hash this struct's `{:?}`
    /// form; it goes when those digests are re-recorded.
    pub degraded_expansions: u64,
}

impl FaultCounts {
    /// Total injected faults across causes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.transient_failures
            + self.retries
            + self.retry_exhausted
            + self.slow_spinups
            + self.stuck_rpm
    }

    /// `(label, count)` pairs for the non-zero counters.
    #[must_use]
    pub fn breakdown(&self) -> Vec<(&'static str, u64)> {
        [
            ("transient_failures", self.transient_failures),
            ("retries", self.retries),
            ("retry_exhausted", self.retry_exhausted),
            ("slow_spinups", self.slow_spinups),
            ("stuck_rpm", self.stuck_rpm),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .collect()
    }
}

/// What [`FaultPlan::mangle`] did to a byte buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MangleSummary {
    /// Bytes XOR-flipped.
    pub corrupted: u64,
    /// New length if the buffer was truncated.
    pub truncated_to: Option<usize>,
}

/// The decision oracle: a stateless function from `(site, disk, n)` to
/// a uniform draw, derived from the config's seed. Statelessness is the
/// point — the engine threads a per-disk sequence number through its
/// calls, so a decision depends only on *which* event asks, never on
/// evaluation order across disks or threads.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// The configuration this plan draws from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// One uniform draw in `[0, 1)` for decision `(site, disk, n)`.
    fn draw(&self, site: u64, disk: u32, n: u64) -> f64 {
        self.rng(site, disk, n).random_range(0.0..1.0)
    }

    /// A decision-local generator (used when a decision needs more than
    /// one draw, e.g. picking corruption positions).
    fn rng(&self, site: u64, disk: u32, n: u64) -> StdRng {
        // SplitMix-style avalanche over the decision coordinates so
        // neighbouring (site, disk, n) triples land far apart in seed
        // space even though StdRng seeds are used raw.
        let mut z = self
            .cfg
            .seed
            .wrapping_add(site.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(disk).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(n.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Number of failed attempts before request `n` on `disk` is
    /// serviced, bounded by the retry budget. Returns
    /// `(failed_attempts, exhausted)`: with `exhausted` the budget ran
    /// out and service proceeds degraded (a closed-loop application
    /// cannot drop the request).
    #[must_use]
    pub fn transient_failures(&self, disk: u32, n: u64) -> (u32, bool) {
        if self.cfg.transient_rate <= 0.0 {
            return (0, false);
        }
        let mut failed = 0u32;
        while failed < self.cfg.max_retries {
            if self.draw(site::TRANSIENT, disk, n * 64 + u64::from(failed))
                < self.cfg.transient_rate
            {
                failed += 1;
            } else {
                return (failed, false);
            }
        }
        (failed, true)
    }

    /// Total backoff delay for `failed` failed attempts:
    /// `sum_{k<failed} backoff * 2^k`.
    #[must_use]
    pub fn backoff_secs(&self, failed: u32) -> f64 {
        let mut total = 0.0;
        let mut step = self.cfg.retry_backoff_secs;
        for _ in 0..failed {
            total += step;
            step *= 2.0;
        }
        total
    }

    /// Extra seconds spin-up `n` on `disk` takes beyond the nominal
    /// `spin_up_secs` (`0.0` when the spin-up is healthy).
    #[must_use]
    pub fn slow_spinup_extra(&self, disk: u32, n: u64, spin_up_secs: f64) -> f64 {
        if self.cfg.slow_spinup_rate > 0.0
            && self.draw(site::SLOW_SPINUP, disk, n) < self.cfg.slow_spinup_rate
        {
            (self.cfg.slow_spinup_factor - 1.0).max(0.0) * spin_up_secs
        } else {
            0.0
        }
    }

    /// True when RPM shift `n` on `disk` sticks at the current level.
    #[must_use]
    pub fn stuck_rpm(&self, disk: u32, n: u64) -> bool {
        self.cfg.stuck_rpm_rate > 0.0
            && self.draw(site::STUCK_RPM, disk, n) < self.cfg.stuck_rpm_rate
    }

    /// Corrupts and/or truncates an encoded byte buffer in place.
    /// Deterministic in the seed and the buffer length. The number of
    /// flipped bytes is `round(len * byte_corrupt_rate)`, at positions
    /// drawn from the decision stream; truncation (probability
    /// `truncate_rate`) cuts at a drawn position.
    pub fn mangle(&self, bytes: &mut Vec<u8>) -> MangleSummary {
        let mut summary = MangleSummary::default();
        if bytes.is_empty() {
            return summary;
        }
        let len = bytes.len();
        let flips = (len as f64 * self.cfg.byte_corrupt_rate).round() as u64;
        if flips > 0 {
            let mut rng = self.rng(site::CORRUPT, 0, len as u64);
            for _ in 0..flips {
                let pos = rng.random_range(0usize..len);
                bytes[pos] ^= 0xFF;
                summary.corrupted += 1;
            }
        }
        if self.cfg.truncate_rate > 0.0
            && self.draw(site::TRUNCATE, 0, len as u64) < self.cfg.truncate_rate
        {
            let mut rng = self.rng(site::TRUNCATE, 1, len as u64);
            let cut = rng.random_range(0usize..len);
            bytes.truncate(cut);
            summary.truncated_to = Some(cut);
        }
        summary
    }
}

/// Wraps an [`EventStream`], swapping two events inside a chunk with
/// per-chunk probability `reorder_rate` — a model of delivery reordering
/// in a trace transport. The event *multiset* is preserved; only order
/// changes, which is exactly the class of corruption the engine's typed
/// errors (out-of-pool disks aside) must absorb without a panic.
pub struct ReorderStream<'a> {
    inner: &'a mut dyn EventStream,
    plan: FaultPlan,
    buf: Vec<AppEvent>,
    chunk_no: u64,
    /// Chunks that were actually reordered.
    pub swaps: u64,
}

impl<'a> ReorderStream<'a> {
    #[must_use]
    pub fn new(inner: &'a mut dyn EventStream, plan: FaultPlan) -> Self {
        ReorderStream {
            inner,
            plan,
            buf: Vec::new(),
            chunk_no: 0,
            swaps: 0,
        }
    }
}

impl EventStream for ReorderStream<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pool_size(&self) -> u32 {
        self.inner.pool_size()
    }

    fn next_chunk(&mut self) -> Option<&[AppEvent]> {
        let chunk = self.inner.next_chunk()?;
        self.buf.clear();
        self.buf.extend_from_slice(chunk);
        let n = self.chunk_no;
        self.chunk_no += 1;
        if self.buf.len() >= 2
            && self.plan.cfg.reorder_rate > 0.0
            && self.plan.draw(site::REORDER, 0, n) < self.plan.cfg.reorder_rate
        {
            let mut rng = self.plan.rng(site::REORDER, 1, n);
            let i = rng.random_range(0usize..self.buf.len());
            let j = rng.random_range(0usize..self.buf.len());
            if i != j {
                self.buf.swap(i, j);
                self.swaps += 1;
            }
        }
        Some(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_layout::DiskId;
    use sdpm_trace::{IoRequest, ReqKind, Trace};

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::new(FaultConfig::uniform(42, rate))
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let p = plan(0.3);
        let q = plan(0.3);
        // Query q in reverse order: same answers.
        let forward: Vec<_> = (0..100u64).map(|n| p.transient_failures(1, n)).collect();
        let backward: Vec<_> = (0..100u64)
            .rev()
            .map(|n| q.transient_failures(1, n))
            .collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "decision (disk, n) must not depend on query order"
        );
    }

    #[test]
    fn different_seeds_give_different_fault_patterns() {
        let a = FaultPlan::new(FaultConfig::uniform(1, 0.5));
        let b = FaultPlan::new(FaultConfig::uniform(2, 0.5));
        let pa: Vec<_> = (0..64u64).map(|n| a.stuck_rpm(0, n)).collect();
        let pb: Vec<_> = (0..64u64).map(|n| b.stuck_rpm(0, n)).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::new(FaultConfig::disabled(7));
        assert!(p.config().is_disabled());
        for n in 0..200u64 {
            assert_eq!(p.transient_failures(0, n), (0, false));
            assert_eq!(p.slow_spinup_extra(0, n, 10.9), 0.0);
            assert!(!p.stuck_rpm(0, n));
        }
        let mut bytes = vec![1u8, 2, 3, 4];
        let s = p.mangle(&mut bytes);
        assert_eq!(s, MangleSummary::default());
        assert_eq!(bytes, vec![1, 2, 3, 4]);
    }

    #[test]
    fn retries_are_bounded_by_the_budget() {
        let p = FaultPlan::new(FaultConfig::uniform(3, 1.0));
        let (failed, exhausted) = p.transient_failures(0, 0);
        assert_eq!(failed, p.config().max_retries);
        assert!(exhausted);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = plan(0.5);
        let b = p.config().retry_backoff_secs;
        assert_eq!(p.backoff_secs(0), 0.0);
        assert!((p.backoff_secs(1) - b).abs() < 1e-15);
        assert!((p.backoff_secs(3) - 7.0 * b).abs() < 1e-12);
    }

    #[test]
    fn slow_spinup_scales_with_nominal_time() {
        let mut cfg = FaultConfig::uniform(5, 1.0);
        cfg.slow_spinup_factor = 2.5;
        let p = FaultPlan::new(cfg);
        let extra = p.slow_spinup_extra(0, 0, 10.0);
        assert!((extra - 15.0).abs() < 1e-12, "2.5x of 10 s adds 15 s");
    }

    #[test]
    fn mangle_is_deterministic() {
        let p = plan(0.1);
        let orig: Vec<u8> = (0..=255u8).collect();
        let mut a = orig.clone();
        let mut b = orig.clone();
        let sa = p.mangle(&mut a);
        let sb = p.mangle(&mut b);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.corrupted > 0, "10% of 256 bytes must flip some");
        assert_ne!(a, orig);
    }

    #[test]
    fn reorder_preserves_the_event_multiset() {
        let io = |iter| {
            AppEvent::Io(IoRequest {
                disk: DiskId(0),
                start_block: iter * 8,
                size_bytes: 4096,
                kind: ReqKind::Read,
                sequential: false,
                nest: 0,
                iter,
            })
        };
        let t = Trace {
            name: "r".into(),
            pool_size: 1,
            events: (0..100).map(io).collect(),
        };
        let mut inner = t.stream();
        let mut s = ReorderStream::new(&mut inner, plan(1.0));
        let mut got = Vec::new();
        while let Some(chunk) = s.next_chunk() {
            got.extend_from_slice(chunk);
        }
        assert_eq!(got.len(), t.events.len());
        let key = |e: &AppEvent| match e {
            AppEvent::Io(r) => r.iter,
            _ => unreachable!("trace is all Io"),
        };
        let mut a: Vec<u64> = got.iter().map(key).collect();
        let mut b: Vec<u64> = t.events.iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "reorder must not drop or duplicate events");
    }
}
