//! Symbolic idle-gap bounds on the global iteration timeline.
//!
//! Nests execute back to back, so laying their iteration spaces end to
//! end gives a single global axis. A disk's symbolic windows become global
//! intervals on that axis; the complement — leading gap, inter-window
//! gaps, trailing gap — is where the inserter may park the disk.
//!
//! Each gap's length *in estimated seconds* is bounded as an interval
//! over the noise-parameter box:
//!
//! * **Lower bound**: the compute time of the gap's iterations at the
//!   minimum per-nest noise factor. I/O stalls only add time, so
//!   ignoring them keeps the bound sound.
//! * **Upper bound**: compute at the maximum factor plus an upper bound
//!   on the I/O service time of every request the overlapped nests can
//!   issue (chunk-count bound per reference).
//!
//! Both bounds are then widened by the inserter's per-gap estimate
//! jitter. The resulting [`SecsItv`] is what the obligations are
//! discharged against: if even the interval's low end clears a
//! break-even threshold, the gap is exploitable for *every* noise draw;
//! if the high end stays below, it is exploitable for none.

use super::interval::SecsItv;
use super::windows::SymbolicActivity;
use sdpm_disk::{service_time_secs, DiskParams, RpmLadder, ServiceRequest};
use sdpm_ir::conform::linearized_ref;
use sdpm_ir::Program;

use super::interval::affine_range;

/// One symbolic idle gap of one disk.
#[derive(Debug, Clone, PartialEq)]
pub struct GapBound {
    pub disk: u32,
    /// Global iteration where the gap opens (end of the previous window,
    /// exclusive; 0 for the leading gap).
    pub start_g: u64,
    /// Global iteration where the gap closes (start of the next window;
    /// total iterations for the trailing gap).
    pub end_g: u64,
    /// Estimated gap length over the whole parameter box.
    pub est: SecsItv,
    /// False when an inexact window bounds this gap (the true idle
    /// period can only be longer than `[start_g, end_g)` suggests — the
    /// seconds interval stays sound but the boundary is approximate).
    pub exact: bool,
    /// True when an access window follows the gap (interior/leading
    /// gaps); false for the trailing gap, which needs no pre-activation.
    pub has_next: bool,
}

/// Per-nest ingredients of the seconds bounds.
struct NestCost {
    offset: u64,
    iters: u64,
    iter_secs: f64,
    /// Upper bound on I/O service seconds the whole nest can incur.
    io_secs_hi: f64,
}

/// Computes every disk's symbolic gaps for `program`.
///
/// `noise_factor` is the per-nest timeline factor domain and `jitter`
/// the per-gap estimate jitter domain (both from the pipeline's
/// `NoiseModel`); `io_chunk_bytes` is the trace generator's fetch
/// granularity, used for the request-count upper bound.
#[must_use]
pub fn symbolic_gaps(
    program: &Program,
    act: &SymbolicActivity,
    params: &DiskParams,
    noise_factor: SecsItv,
    jitter: SecsItv,
    io_chunk_bytes: u64,
) -> Vec<GapBound> {
    let ladder = RpmLadder::new(params);
    let max = ladder.max_level();
    // A single request never exceeds one chunk plus the stripe it is
    // split against; bound its service time by that size, non-sequential.
    let svc_hi = |size: u64| {
        service_time_secs(
            params,
            &ladder,
            max,
            ServiceRequest {
                size_bytes: size,
                sequential: false,
            },
        )
    };

    let mut costs = Vec::with_capacity(program.nests.len());
    let mut offset = 0u64;
    for (ni, nest) in program.nests.iter().enumerate() {
        let iters = nest.iter_count();
        let mut io_secs_hi = 0.0f64;
        if iters > 0 {
            for r in nest.stmts.iter().flat_map(|s| s.refs.iter()) {
                let file = &program.arrays[r.array];
                let lin = linearized_ref(r, file, file.order);
                let Some(elems) = affine_range(&lin, &nest.loops) else {
                    continue;
                };
                let span_bytes =
                    u128::try_from(elems.count()).unwrap_or(0) * u128::from(file.element_bytes);
                let chunk = u128::from(io_chunk_bytes.max(1));
                let chunks = span_bytes / chunk + 2;
                let reqs = chunks.min(u128::from(iters));
                #[allow(clippy::cast_precision_loss)]
                let reqs = reqs as f64;
                io_secs_hi += reqs * svc_hi(io_chunk_bytes + file.striping.stripe_bytes);
            }
        }
        costs.push(NestCost {
            offset,
            iters,
            iter_secs: program.iter_secs(ni),
            io_secs_hi,
        });
        offset += iters;
    }
    let total = offset;

    let mut out = Vec::new();
    for d in 0..act.pool_size {
        // Global windows of this disk, in nest (= execution) order.
        let mut windows: Vec<(u64, u64, bool)> = Vec::new(); // [start, end), exact
        for (ni, per_disk) in act.nests.iter().enumerate() {
            if let Some(w) = per_disk[d as usize] {
                let off = costs[ni].offset;
                windows.push((off + w.first, off + w.last + 1, w.exact));
            }
        }
        // Coalesce touching/overlapping windows (inexact spans can abut).
        windows.sort_unstable();
        let mut merged: Vec<(u64, u64, bool)> = Vec::new();
        for w in windows {
            match merged.last_mut() {
                Some(m) if w.0 <= m.1 => {
                    m.1 = m.1.max(w.1);
                    m.2 = m.2 && w.2;
                }
                _ => merged.push(w),
            }
        }
        let mut push_gap = |start_g: u64, end_g: u64, exact: bool, has_next: bool| {
            if end_g <= start_g {
                return;
            }
            let dur = gap_secs(&costs, start_g, end_g);
            let est = dur.scale(noise_factor).scale(jitter);
            out.push(GapBound {
                disk: d,
                start_g,
                end_g,
                est: SecsItv {
                    lo: est.lo.max(0.0),
                    hi: est.hi,
                },
                exact,
                has_next,
            });
        };
        match merged.first() {
            None => push_gap(0, total, true, false), // never touched
            Some(&(first_start, _, first_exact)) => {
                push_gap(0, first_start, first_exact, true);
                for pair in merged.windows(2) {
                    let (_, end_a, ex_a) = pair[0];
                    let (start_b, _, ex_b) = pair[1];
                    push_gap(end_a, start_b, ex_a && ex_b, true);
                }
                let &(_, last_end, last_exact) = merged.last().unwrap_or(&(0, 0, true));
                push_gap(last_end, total, last_exact, false);
            }
        }
    }
    out
}

/// Duration bounds of global iterations `[start_g, end_g)` before noise:
/// compute-only at the low end, compute plus whole-nest I/O upper bounds
/// at the high end.
fn gap_secs(costs: &[NestCost], start_g: u64, end_g: u64) -> SecsItv {
    let mut lo = 0.0f64;
    let mut hi = 0.0f64;
    for c in costs {
        let a = c.offset.max(start_g);
        let b = (c.offset + c.iters).min(end_g);
        if a >= b {
            continue;
        }
        #[allow(clippy::cast_precision_loss)]
        let overlap = (b - a) as f64;
        lo += overlap * c.iter_secs;
        hi += overlap * c.iter_secs + c.io_secs_hi;
    }
    SecsItv { lo, hi }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::windows::symbolic_windows;
    use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Statement};
    use sdpm_layout::{ArrayFile, DiskId, DiskPool, StorageOrder, Striping};

    /// scan -> pure compute (gap_secs long) -> scan, one disk.
    fn phased(gap: f64) -> Program {
        let elems = 4096u64;
        let a = ArrayFile {
            name: "A".into(),
            dims: vec![elems],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 1,
                stripe_bytes: 64 * 1024,
            },
            base_block: 0,
        };
        let scan = |label: &str| LoopNest {
            label: label.into(),
            loops: vec![LoopDim::simple(elems)],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
            }],
            cycles_per_iter: 10.0,
        };
        let compute_iters = 10_000u64;
        #[allow(clippy::cast_precision_loss)]
        let cpi = gap / compute_iters as f64 * Program::PAPER_CLOCK_HZ;
        let compute = LoopNest {
            label: "fft".into(),
            loops: vec![LoopDim::simple(compute_iters)],
            stmts: vec![],
            cycles_per_iter: cpi,
        };
        let p = Program {
            name: "phased".into(),
            arrays: vec![a],
            nests: vec![scan("read"), compute, scan("reread")],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        p.validate(DiskPool::new(2)).unwrap();
        p
    }

    #[test]
    fn interior_gap_bounds_bracket_the_compute_phase() {
        let p = phased(20.0);
        let params = sdpm_disk::ultrastar36z15();
        let act = symbolic_windows(&p, 2, 32 * 1024);
        let gaps = symbolic_gaps(
            &p,
            &act,
            &params,
            SecsItv { lo: 0.9, hi: 1.1 },
            SecsItv { lo: 0.95, hi: 1.05 },
            32 * 1024,
        );
        let interior: Vec<_> = gaps.iter().filter(|g| g.disk == 0 && g.has_next).collect();
        // Exactly one interior gap on disk 0 (leading gap is empty: the
        // scan touches the disk at iteration 0).
        assert_eq!(interior.len(), 1);
        let g = interior[0];
        assert!(g.exact);
        // Low end: >= 20 s of compute scaled by 0.9 * 0.95, minus nothing.
        assert!(g.est.lo >= 20.0 * 0.9 * 0.95 * 0.99, "lo = {}", g.est.lo);
        // High end stays in the same ballpark (compute + small I/O bound).
        assert!(g.est.hi <= 21.0 * 1.1 * 1.05, "hi = {}", g.est.hi);
        assert!(g.est.lo <= g.est.hi);
    }

    #[test]
    fn untouched_disk_gets_one_whole_program_gap() {
        let p = phased(5.0);
        let params = sdpm_disk::ultrastar36z15();
        let act = symbolic_windows(&p, 2, 0);
        let gaps = symbolic_gaps(
            &p,
            &act,
            &params,
            SecsItv::point(1.0),
            SecsItv::point(1.0),
            32 * 1024,
        );
        let d1: Vec<_> = gaps.iter().filter(|g| g.disk == 1).collect();
        assert_eq!(d1.len(), 1);
        assert!(!d1[0].has_next, "trailing gap needs no pre-activation");
        assert_eq!(d1[0].start_g, 0);
        assert!(d1[0].est.lo >= 5.0 * 0.99);
    }

    #[test]
    fn scan_bounded_disk_has_no_trailing_gap() {
        // The reread scan touches disk 0 through its last iteration, so
        // no trailing gap exists for it.
        let p = phased(5.0);
        let params = sdpm_disk::ultrastar36z15();
        let act = symbolic_windows(&p, 2, 0);
        let gaps = symbolic_gaps(
            &p,
            &act,
            &params,
            SecsItv::point(1.0),
            SecsItv::point(1.0),
            32 * 1024,
        );
        assert!(gaps.iter().all(|g| g.disk != 0 || g.has_next));
    }
}
