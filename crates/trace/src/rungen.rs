//! Analytic trace generation: closed-form chunk-boundary crossings.
//!
//! A per-iteration walk evaluates every affine reference at every
//! iteration — O(iterations) work to discover a request count that is
//! orders of magnitude smaller (one fetch per chunk). This generator
//! jumps from cache miss to cache miss instead (DESIGN.md §11). Each
//! nest is split at the outermost depth where every reference's
//! linearized element index is affine in the flat index of the loops
//! inside it ([`sdpm_ir::segmented_forms`]); the loops outside the split
//! are enumerated one *segment* (one outer index tuple) at a time. A
//! row-major scan is a single segment; a column walk of a row-major
//! array is one segment per column. Inside a segment the next miss of a
//! reference is the solution of a one-variable linear inequality, so
//! each miss costs O(#refs), and each segment boundary O(#refs · split).
//!
//! Exactness: between two misses the buffer cache is static by
//! construction (no ref misses, so no fetch, so no cache change). At a
//! miss iteration — including the first iteration of every segment
//! where some reference leaves its cached chunk — the generator replays
//! the walk's per-iteration body verbatim: same ref order, same cache
//! checks, and the shared [`crate::gen::flush_compute`] /
//! [`crate::gen::emit_chunk_fetch`] helpers. Cache state therefore
//! carries across segment and nest boundaries exactly as in the walk,
//! and the emitted event sequence is byte-identical to the walk oracle
//! [`crate::gen::generate_walk`]'s.

use crate::event::{AppEvent, ReqKind};
use crate::gen::{emit_chunk_fetch, flush_compute, linrefs_of, TraceGenConfig};
use crate::run::{collect_runs, CompressStream, RunTrace};
use crate::stream::{EventStream, DEFAULT_CHUNK_EVENTS};
use sdpm_ir::{segmented_forms, FlatForm, LoopNest, Program};
use sdpm_layout::DiskPool;

/// One reference's segmented closed form.
struct AffRef {
    array: usize,
    kind: ReqKind,
    form: FlatForm,
    /// Element index at the current segment's first iteration.
    seg_base: i128,
}

/// Per-nest generation plan: the references' closed forms and the
/// segment being generated.
struct NestPlan {
    refs: Vec<AffRef>,
    /// Iterations per segment: the trip-count product of the loops from
    /// the split inward.
    seg_len: u64,
    /// First flat iteration of the current segment.
    seg_start: u64,
    /// Trip counters of the loops outside the split for the current
    /// segment, outermost first.
    trips: Vec<u64>,
}

impl NestPlan {
    fn new(program: &Program, ni: usize) -> Self {
        let nest = &program.nests[ni];
        let linrefs = linrefs_of(program, ni);
        let lins: Vec<_> = linrefs.iter().map(|lr| lr.lin.clone()).collect();
        let (split, forms) = segmented_forms(nest, &lins);
        let refs = linrefs
            .iter()
            .zip(forms)
            .map(|(lr, form)| AffRef {
                array: lr.array,
                kind: lr.kind,
                seg_base: form.base,
                form,
            })
            .collect();
        NestPlan {
            refs,
            seg_len: nest.loops[split..].iter().map(|l| l.count).product(),
            seg_start: 0,
            trips: vec![0; split],
        }
    }

    /// Moves to the next segment: odometer step over the outer trip
    /// counters, then each reference's segment base.
    fn advance(&mut self, nest: &LoopNest) {
        self.seg_start += self.seg_len;
        for d in (0..self.trips.len()).rev() {
            self.trips[d] += 1;
            if self.trips[d] < nest.loops[d].count {
                break;
            }
            self.trips[d] = 0;
        }
        for r in &mut self.refs {
            r.seg_base = r.form.segment_base(&self.trips);
        }
    }
}

/// `ceil(a / b)` for `b > 0` over `i128`.
fn ceil_div(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b) + i128::from(a.rem_euclid(b) != 0)
}

/// The analytic generator as a lazy [`EventStream`], producing events in
/// O(#refs) per cache miss. [`crate::gen::generate`] and
/// [`crate::gen::GenSource`] drain it.
pub struct RunGenStream<'a> {
    program: &'a Program,
    pool: DiskPool,
    config: TraceGenConfig,
    /// One cached chunk per array, persisting across nests (a hot array
    /// carried between nests does not refetch its resident chunk).
    cached_chunk: Vec<Option<u64>>,
    /// Per-disk next expected block for sequential detection.
    next_block: Vec<Option<u64>>,
    /// Current nest, next flat iteration within it, and the first
    /// iteration of the compute run accumulating toward the next flush.
    ni: usize,
    pos: u64,
    pending_start: u64,
    plan: Option<NestPlan>,
    buf: Vec<AppEvent>,
    pub(crate) target: usize,
    /// Events delivered so far; reported to `learn` on exhaustion.
    counted: u64,
    /// Where a [`crate::gen::GenSource`] learns its event count from the
    /// first fully drained pass (its size hint).
    pub(crate) learn: Option<&'a std::cell::Cell<Option<u64>>>,
}

impl<'a> RunGenStream<'a> {
    /// Opens an analytic generator stream over `program`, emitting
    /// chunks of roughly [`DEFAULT_CHUNK_EVENTS`] events.
    ///
    /// # Panics
    /// If the program fails [`Program::validate`] or the I/O chunk size
    /// is zero.
    #[must_use]
    pub fn new(program: &'a Program, pool: DiskPool, config: TraceGenConfig) -> Self {
        assert!(config.io_chunk_bytes > 0, "chunk size must be positive");
        if let Err(e) = program.validate(pool) {
            panic!("trace generation requires a valid program: {e}");
        }
        RunGenStream {
            program,
            pool,
            config,
            cached_chunk: vec![None; program.arrays.len()],
            next_block: vec![None; pool.count() as usize],
            ni: 0,
            pos: 0,
            pending_start: 0,
            plan: (!program.nests.is_empty()).then(|| NestPlan::new(program, 0)),
            buf: Vec::new(),
            target: DEFAULT_CHUNK_EVENTS,
            counted: 0,
            learn: None,
        }
    }

    /// First iteration in `[pos, end)` at which `r` misses the cache,
    /// assuming the cache does not change before then (guaranteed: no
    /// ref misses earlier, so nothing fetches); `end` means none does.
    /// `pos` lies in the segment starting at `seg_start`, which runs to
    /// at least `end`.
    fn next_miss(&self, r: &AffRef, seg_start: u64, pos: u64, end: u64) -> u64 {
        if pos >= end {
            return end;
        }
        let Some(c) = self.cached_chunk[r.array] else {
            return pos;
        };
        let eb = i128::from(self.program.arrays[r.array].element_bytes);
        let cb = i128::from(self.config.io_chunk_bytes);
        let c = i128::from(c);
        let off = i128::from(pos - seg_start);
        if ((r.seg_base + r.form.slope * off) * eb).div_euclid(cb) != c {
            return pos;
        }
        let slope = r.form.slope;
        let miss_off = match slope.signum() {
            0 => return end,
            // First offset with elem·eb ≥ (c+1)·cb.
            1 => ceil_div(ceil_div((c + 1) * cb, eb) - r.seg_base, slope),
            // First offset with elem·eb ≤ c·cb − 1; impossible when c == 0.
            _ if c == 0 => return end,
            _ => ceil_div(r.seg_base - (c * cb - 1).div_euclid(eb), -slope),
        };
        debug_assert!(miss_off > off);
        u64::try_from(miss_off)
            .ok()
            .and_then(|o| o.checked_add(seg_start))
            .map_or(end, |f| f.min(end))
    }

    /// Processes the current nest's next miss iteration, or finishes the
    /// segment (and the nest, after its last segment) when no reference
    /// misses before the segment ends. Replays the walk's body at the
    /// miss, so cache effects between references sharing an array are
    /// exact.
    fn step(&mut self) {
        let ni = self.ni;
        let iter_secs = self.program.iter_secs(ni);
        let total = self.program.nests[ni].iter_count();
        let Some(plan) = &self.plan else {
            unreachable!("a plan exists for every nest being generated");
        };
        let seg_start = plan.seg_start;
        let seg_end = seg_start.saturating_add(plan.seg_len).min(total);
        let m = plan
            .refs
            .iter()
            .map(|r| self.next_miss(r, seg_start, self.pos, seg_end))
            .min()
            .unwrap_or(seg_end);
        if m >= seg_end {
            if seg_end >= total {
                self.finish_nest(total, iter_secs);
            } else if let Some(plan) = &mut self.plan {
                plan.advance(&self.program.nests[ni]);
                self.pos = seg_end;
            }
            return;
        }
        // Replay the walk's body at iteration m, ref by ref.
        let RunGenStream {
            program,
            pool,
            config,
            cached_chunk,
            next_block,
            pending_start,
            plan: Some(plan),
            buf,
            ..
        } = self
        else {
            unreachable!();
        };
        let off = i128::from(m - plan.seg_start);
        for r in &plan.refs {
            let file = &program.arrays[r.array];
            let elem = r.seg_base + r.form.slope * off;
            // Non-negative and in `u64` range by `Program::validate`; a
            // violation is a caller contract breach, reported loudly.
            let byte = u64::try_from(elem)
                .unwrap_or_else(|_| panic!("out-of-range element index {elem}"))
                * file.element_bytes;
            let chunk = byte / config.io_chunk_bytes;
            if cached_chunk[r.array] == Some(chunk) {
                continue;
            }
            cached_chunk[r.array] = Some(chunk);
            flush_compute(buf, ni, pending_start, m, iter_secs);
            emit_chunk_fetch(file, *pool, config, next_block, buf, ni, m, r.kind, chunk);
        }
        self.pos = m + 1;
    }

    /// Flushes the nest's tail compute and advances to the next nest.
    fn finish_nest(&mut self, total: u64, iter_secs: f64) {
        let ni = self.ni;
        flush_compute(&mut self.buf, ni, &mut self.pending_start, total, iter_secs);
        self.ni += 1;
        self.pos = 0;
        self.pending_start = 0;
        self.plan =
            (self.ni < self.program.nests.len()).then(|| NestPlan::new(self.program, self.ni));
    }
}

impl EventStream for RunGenStream<'_> {
    fn name(&self) -> &str {
        &self.program.name
    }

    fn pool_size(&self) -> u32 {
        self.pool.count()
    }

    fn next_chunk(&mut self) -> Option<&[AppEvent]> {
        self.buf.clear();
        while self.buf.len() < self.target && self.ni < self.program.nests.len() {
            self.step();
        }
        if self.buf.is_empty() {
            if let Some(cell) = self.learn {
                cell.set(Some(self.counted));
            }
            None
        } else {
            self.counted += self.buf.len() as u64;
            crate::prof::add("gen.events", self.buf.len() as u64);
            crate::prof::add("gen.chunks", 1);
            Some(&self.buf)
        }
    }
}

/// Generates the run-compressed trace of `program` against `pool`;
/// lowering it reproduces [`crate::gen::generate`]'s trace byte for
/// byte.
///
/// # Panics
/// If the program fails [`Program::validate`] or the chunk size is zero.
#[must_use]
pub fn generate_runs(program: &Program, pool: DiskPool, config: TraceGenConfig) -> RunTrace {
    let _sp = crate::prof::span("trace.gen.analytic");
    collect_runs(&mut CompressStream::new(RunGenStream::new(
        program, pool, config,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, generate_walk, GenSource};
    use crate::run::{collect_runs, RunSource};
    use crate::stream::{collect, EventSource};
    use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Statement};
    use sdpm_layout::{ArrayFile, DiskId, StorageOrder, Striping};

    fn file(name: &str, dims: Vec<u64>, base_block: u64) -> ArrayFile {
        ArrayFile {
            name: name.into(),
            dims,
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 16 * 1024,
            },
            base_block,
        }
    }

    fn cfg(chunk: u64, seq: bool) -> TraceGenConfig {
        TraceGenConfig {
            io_chunk_bytes: chunk,
            detect_sequential: seq,
        }
    }

    fn assert_analytic_matches_walk(p: &Program, pool: DiskPool, config: TraceGenConfig) {
        let walked = generate_walk(p, pool, config);
        assert!(!walked.events.is_empty());
        assert_eq!(collect(&mut RunGenStream::new(p, pool, config)), walked);
        assert_eq!(generate(p, pool, config), walked);
        assert_eq!(generate_runs(p, pool, config).lower(), walked);
    }

    #[test]
    fn forward_scan_matches_walk() {
        let p = Program {
            name: "scan".into(),
            arrays: vec![file("A", vec![8192], 0)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(8192)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        let pool = DiskPool::new(4);
        assert_analytic_matches_walk(&p, pool, cfg(8 * 1024, false));
        assert_analytic_matches_walk(&p, pool, cfg(8 * 1024, true));
        assert_analytic_matches_walk(&p, pool, cfg(32 * 1024, false));
    }

    #[test]
    fn two_d_row_major_scan_matches_walk() {
        // elem = 128·i + j over a 64×128 array: affine in flat with slope 1.
        let p = Program {
            name: "scan2d".into(),
            arrays: vec![file("A", vec![64, 128], 0)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(64), LoopDim::simple(128)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(
                        0,
                        vec![AffineExpr::var(2, 0), AffineExpr::var(2, 1)],
                    )],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(4 * 1024, false));
    }

    #[test]
    fn strided_and_offset_refs_match_walk() {
        // A[2i + 5]: slope 2 with a base offset.
        let p = Program {
            name: "stride2".into(),
            arrays: vec![file("A", vec![8192], 0)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(4000)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::scaled_var(1, 0, 2, 5)])],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(4 * 1024, false));
    }

    #[test]
    fn negative_step_scan_matches_walk() {
        // for i = 8191 downto 0: A[i] — negative slope in flat.
        let p = Program {
            name: "revscan".into(),
            arrays: vec![file("A", vec![8192], 0)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim {
                    lower: 8191,
                    count: 8192,
                    step: -1,
                }],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(8 * 1024, false));
    }

    #[test]
    fn multiple_arrays_and_shared_arrays_match_walk() {
        // Two arrays plus a second ref to the first (cache interaction
        // between refs sharing an array).
        let p = Program {
            name: "multi".into(),
            arrays: vec![file("A", vec![8192], 0), file("B", vec![8192], 1 << 20)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(8192)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![
                        ArrayRef::read(0, vec![AffineExpr::var(1, 0)]),
                        ArrayRef::read(1, vec![AffineExpr::var(1, 0)]),
                        ArrayRef::write(0, vec![AffineExpr::var(1, 0)]),
                    ],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(8 * 1024, true));
    }

    #[test]
    fn column_scan_plans_segments_and_matches_walk() {
        // A[j][i] with i outer, j inner over a row-major array: elem =
        // 64·j + i is not affine in flat, but is per column — the plan
        // enumerates one segment per value of i.
        let p = Program {
            name: "colscan".into(),
            arrays: vec![file("A", vec![128, 64], 0)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(64), LoopDim::simple(128)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(
                        0,
                        vec![AffineExpr::var(2, 1), AffineExpr::var(2, 0)],
                    )],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        let plan = NestPlan::new(&p, 0);
        assert_eq!((plan.trips.len(), plan.seg_len), (1, 128));
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(4 * 1024, false));
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(1024, true));
    }

    #[test]
    fn multi_nest_programs_match_walk_across_boundaries() {
        let scan_nest = LoopNest {
            label: "n".into(),
            loops: vec![LoopDim::simple(8192)],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
            }],
            cycles_per_iter: 750.0,
        };
        let col_nest = LoopNest {
            label: "c".into(),
            loops: vec![LoopDim::simple(64), LoopDim::simple(128)],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(
                    1,
                    vec![AffineExpr::var(2, 1), AffineExpr::var(2, 0)],
                )],
            }],
            cycles_per_iter: 500.0,
        };
        let p = Program {
            name: "mixed".into(),
            arrays: vec![file("A", vec![8192], 0), file("B", vec![128, 64], 1 << 20)],
            nests: vec![scan_nest.clone(), col_nest, scan_nest],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        assert_analytic_matches_walk(&p, DiskPool::new(4), cfg(8 * 1024, true));
    }

    #[test]
    fn rungen_source_reopens_and_serves_both_interfaces() {
        let p = Program {
            name: "scan".into(),
            arrays: vec![file("A", vec![8192], 0)],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(8192)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 750.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        let pool = DiskPool::new(4);
        let config = cfg(8 * 1024, false);
        let src = GenSource::new(&p, pool, config);
        assert_eq!(src.size_hint(), None, "size unknown before a drain");
        let a = collect(&mut *EventSource::open(&src));
        assert_eq!(src.size_hint(), Some(a.events.len() as u64));
        let b = collect_runs(&mut *src.open_runs());
        assert_eq!(b.lower(), a);
        assert_eq!(a, generate(&p, pool, config));
    }
}
