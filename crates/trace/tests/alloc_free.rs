//! Trace generation allocates per nest, never per cache miss: a
//! single-nest scan's allocation count does not grow with its number of
//! chunk fetches, beyond the growth steps of the output event vector.
//!
//! The binary installs the counting allocator and holds one test, so no
//! concurrent test perturbs the process-wide allocation count.

use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Program, Statement};
use sdpm_layout::{ArrayFile, DiskId, DiskPool, StorageOrder, Striping};
use sdpm_obs::prof;
use sdpm_trace::{generate, TraceGenConfig};

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

const CHUNK_BYTES: u64 = 4096;
const ELEMENT_BYTES: u64 = 8;

/// One nest scanning an array of `fetches` chunks, striped one chunk
/// per stripe unit over 4 disks: one request per fetch.
fn scan(fetches: u64) -> Program {
    let elements = fetches * CHUNK_BYTES / ELEMENT_BYTES;
    Program {
        name: "scan".into(),
        arrays: vec![ArrayFile {
            name: "A".into(),
            dims: vec![elements],
            element_bytes: ELEMENT_BYTES,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: CHUNK_BYTES,
            },
            base_block: 0,
        }],
        nests: vec![LoopNest {
            label: "n".into(),
            loops: vec![LoopDim::simple(elements)],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
            }],
            cycles_per_iter: 750.0,
        }],
        clock_hz: Program::PAPER_CLOCK_HZ,
    }
}

/// Heap allocations made while generating `p`, and the events generated.
///
/// The allocation count is process-wide, and the test harness's own
/// thread allocates while the test starts, so one measurement can read
/// a few extra. Other threads only ever add, so the least of three runs
/// is generation's own count.
fn allocations(p: &Program) -> (u64, usize) {
    let config = TraceGenConfig {
        io_chunk_bytes: CHUNK_BYTES,
        detect_sequential: false,
    };
    let mut least = u64::MAX;
    let mut events = 0;
    for _ in 0..3 {
        prof::enable();
        let span = prof::span("probe");
        let trace = generate(p, DiskPool::new(4), config);
        drop(span);
        prof::disable();
        let count = prof::take().node("probe").expect("probe span").alloc_count;
        least = least.min(count);
        events = trace.events.len();
    }
    (least, events)
}

/// Allocations a vector makes while `n` elements are pushed into it one
/// at a time (amortized doubling from a capacity of 4).
fn growth_steps(n: usize) -> u64 {
    let (mut cap, mut steps) = (0usize, 0);
    while cap < n {
        cap = (cap * 2).max(4);
        steps += 1;
    }
    steps
}

#[test]
fn allocations_do_not_grow_with_chunk_fetches() {
    let (small, small_events) = allocations(&scan(10_000));
    let (large, large_events) = allocations(&scan(20_000));
    assert!(prof::alloc_active(), "counting allocator installed");
    assert!(small_events >= 10_000 && large_events >= 20_000);
    let slack = growth_steps(large_events) - growth_steps(small_events);
    assert!(
        large.abs_diff(small) <= slack,
        "{small} allocations for {small_events} events, {large} for {large_events}: \
         more than the {slack} growth steps of the event vector apart"
    );
}
