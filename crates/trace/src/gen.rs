//! Trace generation from IR programs.
//!
//! The generator "executes" the program's loop nests and records the disk
//! I/O the run would perform. Element accesses are filtered through a
//! minimal buffer cache — one cached chunk per array — so a sequential
//! scan of an array produces one block-level request per chunk, matching
//! the paper's setup where "each array reference causes a disk access
//! unless the data is captured in the buffer cache" and no prefetching is
//! employed. Chunk-granular requests are split along stripe boundaries
//! into per-disk requests.
//!
//! There is one generator: the analytic one of [`crate::rungen`], which
//! jumps from cache miss to cache miss in closed form. [`generate`] and
//! [`GenSource`] drain it. [`generate_walk`] defines the semantics
//! operationally — it visits every iteration and evaluates every
//! reference — and serves as the test oracle the analytic generator is
//! checked against, byte for byte.

use crate::event::{AppEvent, IoRequest, ReqKind};
use crate::rungen::RunGenStream;
use crate::stream::{collect, EventSource, EventStream, DEFAULT_CHUNK_EVENTS};
use crate::trace::Trace;
use sdpm_ir::conform::linearized_ref;
use sdpm_ir::walk::walk_nest_range;
use sdpm_ir::{Program, RefKind};
use sdpm_layout::{DiskPool, BLOCK_BYTES};
use serde::{Deserialize, Serialize};

/// Trace-generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceGenConfig {
    /// Buffer-cache chunk size in bytes: an access that falls outside the
    /// array's currently-cached chunk fetches the whole enclosing chunk.
    /// This is the knob that calibrates a workload's request count (the
    /// paper's per-benchmark counts in Table 2 reflect each code's I/O
    /// granularity).
    pub io_chunk_bytes: u64,
    /// When true, a request that directly continues the previous request's
    /// block range on the same disk is marked sequential (skipping
    /// positioning in the service model). Table 2's base numbers imply
    /// every request pays positioning (~6.5 ms each), so the default is
    /// false — each block-level request is serviced as an independent
    /// file-system operation.
    pub detect_sequential: bool,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        TraceGenConfig {
            io_chunk_bytes: 32 * 1024,
            detect_sequential: false,
        }
    }
}

/// A reference pre-linearized against its array's storage order, so the
/// per-iteration work is one affine evaluation.
pub(crate) struct LinRef {
    pub(crate) array: usize,
    pub(crate) lin: sdpm_ir::AffineExpr,
    pub(crate) kind: ReqKind,
}

pub(crate) fn linrefs_of(program: &Program, ni: usize) -> Vec<LinRef> {
    program.nests[ni]
        .stmts
        .iter()
        .flat_map(|s| s.refs.iter())
        .map(|r| {
            let file = &program.arrays[r.array];
            LinRef {
                array: r.array,
                lin: linearized_ref(r, file, file.order),
                kind: match r.kind {
                    RefKind::Read => ReqKind::Read,
                    RefKind::Write => ReqKind::Write,
                },
            }
        })
        .collect()
}

/// Iterations walked per internal step. The walk itself is O(1) per
/// iteration; this only bounds how often the stream checks whether the
/// chunk target has been reached.
const ITERS_PER_STEP: u64 = 65_536;

/// Flushes the compute span accumulated in `[pending_start, flat)` and
/// restarts accumulation at `flat`. Shared by the analytic generator
/// ([`crate::rungen`]) and the walk oracle so both emit the identical
/// event — same fields, same float expression.
pub(crate) fn flush_compute(
    buf: &mut Vec<AppEvent>,
    ni: usize,
    pending_start: &mut u64,
    flat: u64,
    iter_secs: f64,
) {
    if flat > *pending_start {
        buf.push(AppEvent::Compute {
            nest: ni,
            first_iter: *pending_start,
            iters: flat - *pending_start,
            secs: (flat - *pending_start) as f64 * iter_secs,
        });
        *pending_start = flat;
    }
}

/// Emits the block-level requests of one chunk fetch (clipped to the file
/// end at `file_bytes`, split along stripe boundaries into per-disk
/// extents) straight into `buf`. Shared by both generators; the caller
/// has already updated the buffer cache and flushed the pending compute
/// span.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_chunk_fetch(
    file: &sdpm_layout::ArrayFile,
    file_bytes: u64,
    pool: DiskPool,
    config: &TraceGenConfig,
    next_block: &mut [Option<u64>],
    buf: &mut Vec<AppEvent>,
    ni: usize,
    flat: u64,
    kind: ReqKind,
    chunk: u64,
) {
    let chunk_start = chunk * config.io_chunk_bytes;
    let chunk_len = config.io_chunk_bytes.min(file_bytes - chunk_start);
    for ext in file.map_bytes(pool, chunk_start, chunk_len) {
        let d = ext.disk.0 as usize;
        let sequential = config.detect_sequential && next_block[d] == Some(ext.start_block);
        let end_block = ext.start_block + (ext.block_offset + ext.len).div_ceil(BLOCK_BYTES);
        next_block[d] = Some(end_block);
        buf.push(AppEvent::Io(IoRequest {
            disk: ext.disk,
            start_block: ext.start_block,
            size_bytes: ext.len,
            kind,
            sequential,
            nest: ni,
            iter: flat,
        }));
    }
}

/// The walk oracle as a lazy [`EventStream`]: events are produced by
/// resuming the iteration-space walk chunk by chunk. Compute runs are
/// flushed on cache misses and nest boundaries, never on chunk
/// boundaries, so chunking is invisible in the output.
struct WalkStream<'a> {
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
    linrefs: Vec<LinRef>,
    buf: Vec<AppEvent>,
    target: usize,
}

impl<'a> WalkStream<'a> {
    /// Opens a walk over `program`, emitting chunks of roughly
    /// [`DEFAULT_CHUNK_EVENTS`] events.
    ///
    /// # Panics
    /// If the program fails [`Program::validate`] or the I/O chunk size
    /// is zero.
    fn new(program: &'a Program, pool: DiskPool, config: TraceGenConfig) -> Self {
        assert!(config.io_chunk_bytes > 0, "chunk size must be positive");
        if let Err(e) = program.validate(pool) {
            panic!("trace generation requires a valid program: {e}");
        }
        let linrefs = if program.nests.is_empty() {
            Vec::new()
        } else {
            linrefs_of(program, 0)
        };
        WalkStream {
            program,
            pool,
            config,
            cached_chunk: vec![None; program.arrays.len()],
            next_block: vec![None; pool.count() as usize],
            ni: 0,
            pos: 0,
            pending_start: 0,
            linrefs,
            buf: Vec::new(),
            target: DEFAULT_CHUNK_EVENTS,
        }
    }

    /// Walks up to [`ITERS_PER_STEP`] iterations of the current nest,
    /// appending whatever events they produce, and advances to the next
    /// nest when the current one completes.
    fn step(&mut self) {
        let ni = self.ni;
        let pos = self.pos;
        let iter_secs = self.program.iter_secs(ni);
        let WalkStream {
            program,
            pool,
            config,
            cached_chunk,
            next_block,
            pending_start,
            linrefs,
            buf,
            ..
        } = self;
        let nest = &program.nests[ni];
        let total = nest.iter_count();
        let step_to = pos.saturating_add(ITERS_PER_STEP).min(total);
        walk_nest_range(nest, pos, step_to, |flat, ivars| {
            for lr in linrefs.iter() {
                let file = &program.arrays[lr.array];
                let elem = lr.lin.eval(ivars);
                // Non-negative by `Program::validate`; a violation is a
                // caller contract breach, reported loudly.
                let byte = u64::try_from(elem)
                    .unwrap_or_else(|_| panic!("negative element index {elem}"))
                    * file.element_bytes;
                let chunk = byte / config.io_chunk_bytes;
                if cached_chunk[lr.array] == Some(chunk) {
                    continue;
                }
                cached_chunk[lr.array] = Some(chunk);
                // Flush the compute accumulated before this miss, then
                // fetch the whole chunk (clipped to the file end).
                flush_compute(buf, ni, pending_start, flat, iter_secs);
                emit_chunk_fetch(
                    file,
                    file.total_bytes(),
                    *pool,
                    config,
                    next_block,
                    buf,
                    ni,
                    flat,
                    lr.kind,
                    chunk,
                );
            }
        });
        self.pos = step_to;
        if step_to >= total {
            // Flush the tail compute of the nest.
            flush_compute(&mut self.buf, ni, &mut self.pending_start, total, iter_secs);
            self.ni += 1;
            self.pos = 0;
            self.pending_start = 0;
            if self.ni < self.program.nests.len() {
                self.linrefs = linrefs_of(self.program, self.ni);
            }
        }
    }
}

impl EventStream for WalkStream<'_> {
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
            None
        } else {
            crate::prof::add("gen.events", self.buf.len() as u64);
            Some(&self.buf)
        }
    }
}

/// A re-openable generator source for `(program, pool, config)`. Each
/// open restarts generation from iteration zero, which is what lets the
/// simulator's oracle policies run the workload twice without ever
/// materializing it.
pub struct GenSource<'a> {
    program: &'a Program,
    pool: DiskPool,
    config: TraceGenConfig,
}

impl<'a> GenSource<'a> {
    /// # Panics
    /// If the program fails [`Program::validate`] or the I/O chunk size
    /// is zero.
    #[must_use]
    pub fn new(program: &'a Program, pool: DiskPool, config: TraceGenConfig) -> Self {
        assert!(config.io_chunk_bytes > 0, "chunk size must be positive");
        if let Err(e) = program.validate(pool) {
            panic!("trace generation requires a valid program: {e}");
        }
        GenSource {
            program,
            pool,
            config,
        }
    }
}

impl EventSource for GenSource<'_> {
    fn open(&self) -> Box<dyn EventStream + '_> {
        Box::new(RunGenStream::new(self.program, self.pool, self.config))
    }
}

/// Generates the I/O trace of `program` against `pool`: the analytic
/// generator ([`RunGenStream`]) writes every event straight into the
/// returned [`Trace`].
///
/// # Panics
/// If the program fails [`Program::validate`] or the chunk size is zero.
#[must_use]
pub fn generate(program: &Program, pool: DiskPool, config: TraceGenConfig) -> Trace {
    let _sp = crate::prof::span("trace.gen");
    let trace = RunGenStream::new(program, pool, config).into_trace();
    debug_assert_eq!(trace.validate(), Ok(()));
    trace
}

/// The walk oracle: generates the same trace as [`generate`] by visiting
/// every iteration of every nest and evaluating every reference.
/// O(iterations); tests and oracle checks only.
///
/// # Panics
/// If the program fails [`Program::validate`] or the chunk size is zero.
#[must_use]
pub fn generate_walk(program: &Program, pool: DiskPool, config: TraceGenConfig) -> Trace {
    let _sp = crate::prof::span("trace.gen.walk");
    collect(&mut WalkStream::new(program, pool, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Statement};
    use sdpm_layout::{ArrayFile, DiskId, StorageOrder, Striping};

    /// [`generate`]'s trace, checked against the walk oracle.
    fn generated(p: &Program, pool: DiskPool, config: TraceGenConfig) -> Trace {
        let t = generate(p, pool, config);
        assert_eq!(t, generate_walk(p, pool, config), "analytic != walk");
        t
    }

    /// 1-D scan of a 64 KiB array striped 16 KiB over 4 disks.
    fn scan_program() -> (Program, DiskPool) {
        let a = ArrayFile {
            name: "A".into(),
            dims: vec![8192],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 16 * 1024,
            },
            base_block: 0,
        };
        let p = Program {
            name: "scan".into(),
            arrays: vec![a],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(8192)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 750.0, // 1 us per iteration at paper clock
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        (p, DiskPool::new(4))
    }

    #[test]
    fn sequential_scan_fetches_each_chunk_once() {
        let (p, pool) = scan_program();
        let t = generated(
            &p,
            pool,
            TraceGenConfig {
                io_chunk_bytes: 8 * 1024,
                detect_sequential: false,
            },
        );
        let s = t.stats();
        // 64 KiB / 8 KiB chunks = 8 requests; each chunk inside one stripe.
        assert_eq!(s.requests, 8);
        assert_eq!(s.bytes, 64 * 1024);
        assert_eq!(s.per_disk_requests, vec![2, 2, 2, 2]);
    }

    #[test]
    fn chunk_spanning_stripes_splits_per_disk() {
        let (p, pool) = scan_program();
        let t = generated(
            &p,
            pool,
            TraceGenConfig {
                io_chunk_bytes: 32 * 1024, // two 16 KiB stripes per chunk
                detect_sequential: false,
            },
        );
        let s = t.stats();
        // 2 chunks, each split across 2 disks -> 4 requests.
        assert_eq!(s.requests, 4);
        assert_eq!(s.bytes, 64 * 1024);
    }

    #[test]
    fn second_chunk_on_same_disk_is_sequential() {
        let (p, pool) = scan_program();
        let t = generated(
            &p,
            pool,
            TraceGenConfig {
                io_chunk_bytes: 8 * 1024, // two chunks per 16 KiB stripe
                detect_sequential: true,
            },
        );
        let reqs: Vec<_> = t.requests().collect();
        // Chunks alternate: chunk 0 and 1 on disk 0 (blocks 0..16, 16..32),
        // chunk 1 is sequential after chunk 0.
        assert_eq!(reqs[0].disk, DiskId(0));
        assert!(!reqs[0].sequential);
        assert_eq!(reqs[1].disk, DiskId(0));
        assert!(reqs[1].sequential);
        assert_eq!(reqs[2].disk, DiskId(1));
        assert!(!reqs[2].sequential);
    }

    #[test]
    fn compute_time_totals_match_nest_cycles() {
        let (p, pool) = scan_program();
        let t = generated(&p, pool, TraceGenConfig::default());
        let s = t.stats();
        let expected = 8192.0 * 750.0 / Program::PAPER_CLOCK_HZ;
        assert!(
            (s.compute_secs - expected).abs() < 1e-9,
            "compute must be fully accounted: {} vs {expected}",
            s.compute_secs
        );
    }

    #[test]
    fn io_interleaves_with_compute_in_iteration_order() {
        let (p, pool) = scan_program();
        let t = generated(&p, pool, TraceGenConfig::default());
        // First event must be the I/O at iteration 0 (no compute before the
        // first miss), and iterations must be monotone across the stream.
        assert!(matches!(t.events[0], AppEvent::Io(_)));
        let mut last_iter = 0;
        for e in &t.events {
            let it = match e {
                AppEvent::Compute { first_iter, .. } => *first_iter,
                AppEvent::Io(r) => r.iter,
                AppEvent::Power { .. } => continue,
            };
            assert!(it >= last_iter);
            last_iter = it;
        }
    }

    #[test]
    fn repeated_access_within_chunk_hits_cache() {
        // A[i/8] style repeated access: 8 consecutive iterations share an
        // element -> one fetch per chunk regardless.
        let (mut p, pool) = scan_program();
        // Rewrite the subscript to i (already unit): add a second read of
        // the same element; should add no requests.
        let extra = ArrayRef::read(0, vec![AffineExpr::var(1, 0)]);
        p.nests[0].stmts[0].refs.push(extra);
        let t = generated(
            &p,
            pool,
            TraceGenConfig {
                io_chunk_bytes: 8 * 1024,
                detect_sequential: false,
            },
        );
        assert_eq!(t.stats().requests, 8, "duplicate refs hit the cache");
    }

    #[test]
    fn write_refs_produce_write_requests() {
        let (mut p, pool) = scan_program();
        p.nests[0].stmts[0].refs[0].kind = RefKind::Write;
        let t = generated(&p, pool, TraceGenConfig::default());
        assert!(t.requests().all(|r| r.kind == ReqKind::Write));
    }

    #[test]
    fn multi_nest_programs_keep_cache_across_nests() {
        let (mut p, pool) = scan_program();
        let nest2 = p.nests[0].clone();
        p.nests.push(nest2);
        let t = generated(
            &p,
            pool,
            TraceGenConfig {
                io_chunk_bytes: 8 * 1024,
                detect_sequential: false,
            },
        );
        // Second nest re-scans from chunk 0 while the cache holds chunk 7,
        // so every chunk is refetched -> 8 + 8 requests.
        assert_eq!(t.stats().requests, 16);
    }

    #[test]
    fn trace_validates() {
        let (p, pool) = scan_program();
        let t = generated(&p, pool, TraceGenConfig::default());
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn lazy_stream_matches_materialized_generation() {
        let (mut p, pool) = scan_program();
        // Two nests so the stream crosses a nest boundary mid-flight.
        let nest2 = p.nests[0].clone();
        p.nests.push(nest2);
        let cfg = TraceGenConfig {
            io_chunk_bytes: 8 * 1024,
            detect_sequential: true,
        };
        let materialized = generated(&p, pool, cfg);
        // Tiny chunk targets to force many chunk boundaries.
        let mut s = RunGenStream::new(&p, pool, cfg);
        s.target = 3;
        assert_eq!(collect(&mut s), materialized);
        let mut w = WalkStream::new(&p, pool, cfg);
        w.target = 3;
        assert_eq!(collect(&mut w), materialized);
    }

    #[test]
    fn gen_source_reopens_identically() {
        let (p, pool) = scan_program();
        let src = GenSource::new(&p, pool, TraceGenConfig::default());
        let a = collect(&mut *src.open());
        let b = collect(&mut *src.open());
        assert_eq!(a, b);
        assert_eq!(a, generated(&p, pool, TraceGenConfig::default()));
    }
}
