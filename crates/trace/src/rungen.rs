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
//! reference is the solution of a one-variable linear inequality.
//!
//! Cost model. The plan narrows each closed form to `i64` once per nest;
//! [`Program::validate`] bounds every array below `i64::MAX` bytes, so
//! every element index and byte offset the generator forms fits. Each
//! reference caches its next miss. A miss costs a minimum over the
//! cached values, the replay below (which evaluates only the references
//! that can miss), one `emit_chunk_fetch` that writes the fetch's
//! requests straight into the event buffer, and a recomputation of the
//! next miss of the references on the arrays whose cached chunk the miss
//! changed — a handful of `u64` divisions each. There is no heap
//! allocation and no `i128` arithmetic per miss. A segment boundary
//! costs O(#refs · split) and recomputes every reference.
//!
//! Exactness: between two misses the buffer cache is static by
//! construction (no ref misses, so no fetch, so no cache change). At a
//! miss iteration — including the first iteration of every segment
//! where some reference leaves its cached chunk — the generator replays
//! the walk's per-iteration body: same ref order, same cache checks, and
//! the shared `gen::flush_compute` / `gen::emit_chunk_fetch` helpers. A
//! reference whose cached next miss lies beyond the iteration and whose
//! array no earlier reference fetched into hits the cache there, so the
//! replay skips it. Cache state therefore carries across segment and
//! nest boundaries exactly as in the walk, and the emitted event
//! sequence is byte-identical to the walk oracle
//! [`crate::gen::generate_walk`]'s.

use crate::event::{AppEvent, ReqKind};
use crate::gen::{emit_chunk_fetch, flush_compute, linrefs_of, TraceGenConfig};
use crate::run::{collect_runs, CompressStream, RunTrace};
use crate::stream::{EventStream, DEFAULT_CHUNK_EVENTS};
use crate::trace::Trace;
use sdpm_ir::{segmented_forms, Program};
use sdpm_layout::DiskPool;

/// Narrows a closed-form coefficient to `i64`. Every coefficient the
/// plan keeps is an element index, or a difference of two, of a
/// validated program, so it fits; anything else is a caller contract
/// breach, reported loudly.
fn narrow(v: i128) -> i64 {
    i64::try_from(v)
        .unwrap_or_else(|_| panic!("closed-form coefficient {v} outside i64: invalid program"))
}

/// One reference's segmented closed form in `i64`, with its next miss.
struct AffRef {
    array: usize,
    kind: ReqKind,
    /// Element size and total size of the array, in bytes.
    element_bytes: u64,
    file_bytes: u64,
    /// Element index at the nest's first iteration.
    base: i64,
    /// Element increment per flat iteration inside a segment.
    slope: i64,
    /// Per-trip increment of each loop outside the split, outermost
    /// first; 0 for a loop of one trip, whose counter never moves.
    outer: Vec<i64>,
    /// Element index at the current segment's first iteration.
    seg_base: i64,
    /// First iteration at or after the stream position at which this
    /// reference misses the cache as it stands; the segment end when it
    /// does not miss in the segment.
    next: u64,
}

impl AffRef {
    /// Element index at offset `off` of the current segment.
    fn elem(&self, off: u64) -> u64 {
        // `off` is an in-segment offset; when the slope is nonzero,
        // `|slope·off|` is a difference of two element indices, so the
        // product cannot overflow (and `off` converts exactly).
        let e = self.seg_base + self.slope * off as i64;
        // Non-negative by `Program::validate`; a violation is a caller
        // contract breach, reported loudly.
        u64::try_from(e).unwrap_or_else(|_| panic!("negative element index {e}"))
    }

    /// Chunk holding the element at offset `off` of the current segment.
    fn chunk_at(&self, off: u64, chunk_bytes: u64) -> u64 {
        self.elem(off) * self.element_bytes / chunk_bytes
    }

    /// First iteration in `[pos, end)` at which this reference misses
    /// the cached chunk `cached` of its array, assuming the cache does
    /// not change before then; `end` means none does. `pos` lies in the
    /// segment starting at `seg_start`, which runs to at least `end`.
    fn next_miss(
        &self,
        cached: Option<u64>,
        chunk_bytes: u64,
        seg_start: u64,
        pos: u64,
        end: u64,
    ) -> u64 {
        if pos >= end {
            return end;
        }
        let Some(c) = cached else {
            return pos;
        };
        let off = pos - seg_start;
        if self.chunk_at(off, chunk_bytes) != c {
            return pos;
        }
        let eb = self.element_bytes;
        // The distance, in elements, from the segment base to the first
        // element outside chunk `c` in the direction of travel; none
        // when the chunk reaches the file's end in that direction.
        let gap = match self.slope.signum() {
            0 => return end,
            1 => {
                let Some(lim) = (c + 1)
                    .checked_mul(chunk_bytes)
                    .filter(|&b| b < self.file_bytes)
                else {
                    return end;
                };
                // First element whose first byte is at or past `lim`:
                // at most the element count, so it fits `i64`.
                let first_out = lim.div_ceil(eb) as i64;
                first_out - self.seg_base
            }
            _ if c == 0 => return end,
            _ => {
                // Last element whose first byte precedes chunk `c`.
                let last_out = ((c * chunk_bytes - 1) / eb) as i64;
                self.seg_base - last_out
            }
        };
        // Positive: the segment base lies on the near side of the
        // boundary, as does the element at `pos`.
        let miss_off = gap.unsigned_abs().div_ceil(self.slope.unsigned_abs());
        debug_assert!(miss_off > off);
        seg_start.checked_add(miss_off).map_or(end, |f| f.min(end))
    }
}

/// Per-nest generation plan: the references' closed forms, the nest's
/// constants, and the segment being generated.
struct NestPlan {
    refs: Vec<AffRef>,
    iter_count: u64,
    iter_secs: f64,
    /// Iterations per segment: the trip-count product of the loops from
    /// the split inward.
    seg_len: u64,
    /// First flat iteration of the current segment, and its end (the
    /// segment's last iteration plus one, clipped to the nest).
    seg_start: u64,
    seg_end: u64,
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
            .map(|(lr, form)| {
                let file = &program.arrays[lr.array];
                let base = narrow(form.base);
                AffRef {
                    array: lr.array,
                    kind: lr.kind,
                    element_bytes: file.element_bytes,
                    file_bytes: file.total_bytes(),
                    base,
                    slope: narrow(form.slope),
                    outer: form
                        .outer
                        .iter()
                        .zip(&nest.loops)
                        .map(|(&inc, l)| if l.count > 1 { narrow(inc) } else { 0 })
                        .collect(),
                    seg_base: base,
                    next: 0,
                }
            })
            .collect();
        let iter_count = nest.iter_count();
        let seg_len = nest.loops[split..].iter().map(|l| l.count).product();
        NestPlan {
            refs,
            iter_count,
            iter_secs: program.iter_secs(ni),
            seg_len,
            seg_start: 0,
            seg_end: seg_len.min(iter_count),
            trips: vec![0; split],
        }
    }

    /// Moves to the next segment: odometer step over the outer trip
    /// counters, then each reference's segment base.
    fn advance(&mut self, counts: impl Fn(usize) -> u64) {
        self.seg_start += self.seg_len;
        self.seg_end = self
            .seg_start
            .saturating_add(self.seg_len)
            .min(self.iter_count);
        for d in (0..self.trips.len()).rev() {
            self.trips[d] += 1;
            if self.trips[d] < counts(d) {
                break;
            }
            self.trips[d] = 0;
        }
        for r in &mut self.refs {
            // Each partial sum is the element index at an iteration of
            // the nest, so none overflows.
            let seg_base = r
                .outer
                .iter()
                .zip(&self.trips)
                .fold(r.base, |acc, (&inc, &t)| acc + inc * t as i64);
            r.seg_base = seg_base;
        }
    }

    /// Recomputes from `pos` the next miss of every reference on an
    /// array for which `stale` holds.
    fn refresh(
        &mut self,
        cached_chunk: &[Option<u64>],
        chunk_bytes: u64,
        pos: u64,
        stale: impl Fn(usize) -> bool,
    ) {
        for r in &mut self.refs {
            if stale(r.array) {
                r.next = r.next_miss(
                    cached_chunk[r.array],
                    chunk_bytes,
                    self.seg_start,
                    pos,
                    self.seg_end,
                );
            }
        }
    }
}

/// The analytic generator as a lazy [`EventStream`]; see the module
/// docs for its cost per miss. [`crate::gen::generate`] and
/// [`crate::gen::GenSource`] drain it.
pub struct RunGenStream<'a> {
    program: &'a Program,
    pool: DiskPool,
    config: TraceGenConfig,
    /// One cached chunk per array, persisting across nests (a hot array
    /// carried between nests does not refetch its resident chunk).
    cached_chunk: Vec<Option<u64>>,
    /// Arrays fetched at the miss iteration being replayed.
    fetched: Vec<bool>,
    /// Per-disk next expected block for sequential detection.
    next_block: Vec<Option<u64>>,
    /// Current nest and the first iteration of the compute run
    /// accumulating toward the next flush.
    ni: usize,
    pending_start: u64,
    plan: Option<NestPlan>,
    buf: Vec<AppEvent>,
    pub(crate) target: usize,
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
        let mut s = RunGenStream {
            program,
            pool,
            config,
            cached_chunk: vec![None; program.arrays.len()],
            fetched: vec![false; program.arrays.len()],
            next_block: vec![None; pool.count() as usize],
            ni: 0,
            pending_start: 0,
            plan: None,
            buf: Vec::new(),
            target: DEFAULT_CHUNK_EVENTS,
        };
        s.open_nest();
        s
    }

    /// Plans the current nest, if any, and computes every reference's
    /// first miss in it.
    fn open_nest(&mut self) {
        self.plan = (self.ni < self.program.nests.len()).then(|| {
            let mut plan = NestPlan::new(self.program, self.ni);
            plan.refresh(&self.cached_chunk, self.config.io_chunk_bytes, 0, |_| true);
            plan
        });
    }

    /// Processes the current nest's next miss iteration, or finishes the
    /// segment (and the nest, after its last segment) when no reference
    /// misses before the segment ends. Replays the walk's body at the
    /// miss, so cache effects between references sharing an array are
    /// exact.
    fn step(&mut self) {
        let ni = self.ni;
        let chunk_bytes = self.config.io_chunk_bytes;
        let Some(plan) = &mut self.plan else {
            unreachable!("a plan exists for every nest being generated");
        };
        let m = plan
            .refs
            .iter()
            .map(|r| r.next)
            .min()
            .unwrap_or(plan.seg_end);
        if m >= plan.seg_end {
            if plan.seg_end >= plan.iter_count {
                let (total, iter_secs) = (plan.iter_count, plan.iter_secs);
                flush_compute(&mut self.buf, ni, &mut self.pending_start, total, iter_secs);
                self.ni += 1;
                self.pending_start = 0;
                self.open_nest();
            } else {
                let loops = &self.program.nests[ni].loops;
                plan.advance(|d| loops[d].count);
                plan.refresh(&self.cached_chunk, chunk_bytes, plan.seg_start, |_| true);
            }
            return;
        }
        // Replay the walk's body at iteration m, ref by ref. A reference
        // whose next miss lies later, on an array nothing fetched yet at
        // m, hits its cached chunk.
        let off = m - plan.seg_start;
        for r in &plan.refs {
            if r.next != m && !self.fetched[r.array] {
                continue;
            }
            let chunk = r.chunk_at(off, chunk_bytes);
            if self.cached_chunk[r.array] == Some(chunk) {
                continue;
            }
            self.cached_chunk[r.array] = Some(chunk);
            self.fetched[r.array] = true;
            flush_compute(
                &mut self.buf,
                ni,
                &mut self.pending_start,
                m,
                plan.iter_secs,
            );
            emit_chunk_fetch(
                &self.program.arrays[r.array],
                r.file_bytes,
                self.pool,
                &self.config,
                &mut self.next_block,
                &mut self.buf,
                ni,
                m,
                r.kind,
                chunk,
            );
        }
        let fetched = &self.fetched;
        plan.refresh(&self.cached_chunk, chunk_bytes, m + 1, |a| fetched[a]);
        for r in &plan.refs {
            self.fetched[r.array] = false;
        }
    }

    /// Steps until the buffer holds `target` events or the program ends.
    fn fill(&mut self) {
        while self.buf.len() < self.target && self.ni < self.program.nests.len() {
            self.step();
        }
    }

    /// Generates the whole trace straight into its event vector.
    pub(crate) fn into_trace(mut self) -> Trace {
        self.target = usize::MAX;
        self.fill();
        crate::prof::add("gen.events", self.buf.len() as u64);
        let mut events = self.buf;
        // Cached traces live for a whole session: drop the growth slack.
        events.shrink_to_fit();
        Trace {
            name: self.program.name.clone(),
            pool_size: self.pool.count(),
            events,
        }
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
        self.fill();
        if self.buf.is_empty() {
            None
        } else {
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
        let a = collect(&mut *EventSource::open(&src));
        let b = collect_runs(&mut *src.open_runs());
        assert_eq!(b.lower(), a);
        assert_eq!(a, generate(&p, pool, config));
    }
}
