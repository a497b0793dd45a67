//! Property-test strategies for random affine programs.
//!
//! [`affine_program`] draws small but structurally varied programs:
//! 1–2 nests of depth 1–4 with nonzero lower bounds, signed steps and
//! trip counts that include 1; 1–3 references per nest over 1–3 shared
//! arrays of rank 1–3, stored row- or column-major, with element sizes
//! that need not divide the chunk size. Subscripts mix random
//! coefficients (column walks, broadcasts, reversed strides) with
//! *carried* ones that are affine in the flat index of the loops from a
//! random split depth inward, so whole-nest, segmented and innermost-only
//! closed forms ([`sdpm_ir::flat`]) all occur. A nest may add a *twin*
//! of one reference: a second reference to the same array with the same
//! or the negated subscripts, shifted, so two references on one array
//! with equal or opposite slopes compete for its cached chunk. Every
//! drawn program passes [`Program::validate`] against the requested
//! pool.

use proptest::prelude::*;
use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Program, RefKind, Statement};
use sdpm_layout::{ArrayFile, DiskId, StorageOrder, Striping};

/// Largest trip count per loop.
const MAX_TRIPS: u64 = 48;

/// Iterations per nest at most: trip counts are halved, largest first,
/// until the nest fits, so every case stays cheap to walk.
const MAX_ITERS: u64 = 1 << 13;

/// One array's layout choices.
#[derive(Debug, Clone)]
struct ArrayShape {
    rank: usize,
    order: StorageOrder,
    element_bytes: u64,
    striping: Striping,
    /// Spare elements past the accessed range, per dimension.
    pad: u64,
}

/// One reference before it is bound to an array: coefficients for up to
/// 3 subscripts and 4 loops, plus its carried-subscript choice.
#[derive(Debug, Clone)]
struct RefShape {
    array: usize,
    write: bool,
    coeffs: Vec<Vec<i64>>,
    constants: Vec<i64>,
    /// `Some((split, slope))`: the storage-fastest subscript carries
    /// `slope` through the loops `split..`.
    carried: Option<(usize, i64)>,
}

/// A second reference to the array of `refs[of % refs.len()]`: its
/// subscripts, negated when `negate`, with the storage-fastest one
/// shifted by `shift` elements, and the opposite access kind.
#[derive(Debug, Clone)]
struct TwinShape {
    of: usize,
    negate: bool,
    shift: i64,
}

#[derive(Debug, Clone)]
struct NestShape {
    loops: Vec<LoopDim>,
    refs: Vec<RefShape>,
    twin: Option<TwinShape>,
    cycles_per_iter: f64,
}

fn array_shape(pool_size: u32) -> impl Strategy<Value = ArrayShape> {
    (
        1usize..=3,
        any::<bool>(),
        prop_oneof![Just(4u64), Just(8), Just(12)],
        (0..pool_size, 1..=pool_size),
        prop_oneof![Just(256u64), Just(1024), Just(4096)],
        0u64..4,
    )
        .prop_map(
            |(rank, col, element_bytes, (start, factor), stripe_bytes, pad)| ArrayShape {
                rank,
                order: if col {
                    StorageOrder::ColMajor
                } else {
                    StorageOrder::RowMajor
                },
                element_bytes,
                striping: Striping {
                    start_disk: DiskId(start),
                    stripe_factor: factor,
                    stripe_bytes,
                },
                pad,
            },
        )
}

fn loop_dim() -> impl Strategy<Value = LoopDim> {
    (
        -6i64..=6,
        prop_oneof![Just(1u64), 2u64..=8, 9u64..=MAX_TRIPS],
        prop_oneof![-3i64..=-1, 1i64..=3],
    )
        .prop_map(|(lower, count, step)| LoopDim { lower, count, step })
}

fn ref_shape() -> impl Strategy<Value = RefShape> {
    (
        0usize..3,
        any::<bool>(),
        proptest::collection::vec(proptest::collection::vec(-3i64..=3, 4), 3),
        proptest::collection::vec(-4i64..=4, 3),
        prop_oneof![Just(None), (0usize..4, -2i64..=2).prop_map(Some)],
    )
        .prop_map(|(array, write, coeffs, constants, carried)| RefShape {
            array,
            write,
            coeffs,
            constants,
            carried,
        })
}

fn twin_shape() -> impl Strategy<Value = TwinShape> {
    (0usize..3, any::<bool>(), -40i64..=40).prop_map(|(of, negate, shift)| TwinShape {
        of,
        negate,
        shift,
    })
}

fn nest_shape() -> impl Strategy<Value = NestShape> {
    (
        proptest::collection::vec(loop_dim(), 1..=4),
        proptest::collection::vec(ref_shape(), 1..=3),
        prop_oneof![Just(None), twin_shape().prop_map(Some)],
        50.0f64..5000.0,
    )
        .prop_map(|(mut loops, refs, twin, cycles_per_iter)| {
            while loops.iter().map(|l| l.count).product::<u64>() > MAX_ITERS {
                let largest = loops.iter_mut().max_by_key(|l| l.count).expect("nonempty");
                largest.count /= 2;
            }
            NestShape {
                loops,
                refs,
                twin,
                cycles_per_iter,
            }
        })
}

/// Random valid affine programs striped over a pool of `pool_size`
/// disks (see the module docs for what varies).
///
/// # Panics
/// If `pool_size` is zero.
pub fn affine_program(pool_size: u32) -> impl Strategy<Value = Program> {
    assert!(pool_size > 0, "pool must hold a disk");
    (
        proptest::collection::vec(array_shape(pool_size), 1..=3),
        proptest::collection::vec(nest_shape(), 1..=2),
    )
        .prop_map(|(arrays, nests)| assemble(&arrays, &nests))
}

/// Per-trip coefficients that carry `slope` through the loops `split..`
/// (`c_d·step_d == slope·w_d`), where a step's sign or size allows it;
/// other loops keep the random coefficients.
fn carry(loops: &[LoopDim], random: &[i64], split: usize, slope: i64) -> Vec<i64> {
    let mut out = random[..loops.len()].to_vec();
    let mut weight = 1i64;
    for d in (split.min(loops.len())..loops.len()).rev() {
        let per_trip = slope * weight;
        if per_trip % loops[d].step == 0 {
            out[d] = per_trip / loops[d].step;
        }
        weight *= i64::try_from(loops[d].count).expect("small trip count");
    }
    out
}

/// Binds reference shapes to arrays, shifts every subscript so its range
/// over the nest starts at 0, and sizes each array dimension to cover
/// every reference to it.
fn assemble(arrays: &[ArrayShape], nests: &[NestShape]) -> Program {
    // Per-array, per-dimension subscript expressions before shifting.
    let mut bound: Vec<(usize, usize, Vec<AffineExpr>, RefKind)> = Vec::new();
    let fastest = |shape: &ArrayShape| match shape.order {
        StorageOrder::RowMajor => shape.rank - 1,
        StorageOrder::ColMajor => 0,
    };
    for (ni, n) in nests.iter().enumerate() {
        let depth = n.loops.len();
        let first = bound.len();
        for r in &n.refs {
            let a = r.array % arrays.len();
            let shape = &arrays[a];
            let fastest = fastest(shape);
            let subs = (0..shape.rank)
                .map(|dim| {
                    let coeffs = match r.carried {
                        Some((split, slope)) if dim == fastest => {
                            carry(&n.loops, &r.coeffs[dim], split, slope)
                        }
                        Some(_) => vec![0; depth],
                        None => r.coeffs[dim][..depth].to_vec(),
                    };
                    AffineExpr {
                        coeffs,
                        constant: r.constants[dim],
                    }
                })
                .collect();
            let kind = if r.write {
                RefKind::Write
            } else {
                RefKind::Read
            };
            bound.push((ni, a, subs, kind));
        }
        if let Some(t) = &n.twin {
            let (_, a, subs, kind) = bound[first + t.of % n.refs.len()].clone();
            let fastest = fastest(&arrays[a]);
            let subs = subs
                .iter()
                .enumerate()
                .map(|(dim, e)| {
                    let e = if t.negate {
                        AffineExpr {
                            coeffs: e.coeffs.iter().map(|c| -c).collect(),
                            constant: -e.constant,
                        }
                    } else {
                        e.clone()
                    };
                    if dim == fastest {
                        e.shifted(t.shift)
                    } else {
                        e
                    }
                })
                .collect();
            let kind = match kind {
                RefKind::Read => RefKind::Write,
                RefKind::Write => RefKind::Read,
            };
            bound.push((ni, a, subs, kind));
        }
    }
    // Range of each subscript over its nest's box; shift all references
    // of an array by one common per-dimension offset so the smallest
    // index is 0.
    let range = |e: &AffineExpr, loops: &[LoopDim]| {
        loops
            .iter()
            .enumerate()
            .fold((e.constant, e.constant), |(lo, hi), (d, l)| {
                let first = e.coeff(d) * l.lower;
                let last = e.coeff(d) * l.value(l.count - 1);
                (lo + first.min(last), hi + first.max(last))
            })
    };
    let mut lo = vec![[i64::MAX; 3]; arrays.len()];
    let mut hi = vec![[i64::MIN; 3]; arrays.len()];
    for (ni, a, subs, _) in &bound {
        for (dim, e) in subs.iter().enumerate() {
            let (l, h) = range(e, &nests[*ni].loops);
            lo[*a][dim] = lo[*a][dim].min(l);
            hi[*a][dim] = hi[*a][dim].max(h);
        }
    }
    let mut stmts: Vec<Vec<ArrayRef>> = vec![Vec::new(); nests.len()];
    for (ni, a, subs, kind) in bound {
        let subscripts = subs
            .into_iter()
            .enumerate()
            .map(|(dim, e)| e.shifted(-lo[a][dim]))
            .collect();
        stmts[ni].push(ArrayRef {
            array: a,
            subscripts,
            kind,
        });
    }
    let files = arrays
        .iter()
        .enumerate()
        .map(|(a, shape)| ArrayFile {
            name: format!("A{a}"),
            dims: (0..shape.rank)
                .map(|dim| {
                    // Unreferenced arrays (or dimensions) get a small
                    // default extent.
                    let span = if lo[a][dim] <= hi[a][dim] {
                        u64::try_from(hi[a][dim] - lo[a][dim]).expect("ordered range")
                    } else {
                        0
                    };
                    span + 1 + shape.pad
                })
                .collect(),
            element_bytes: shape.element_bytes,
            order: shape.order,
            striping: shape.striping,
            base_block: a as u64 * (1 << 24),
        })
        .collect();
    Program {
        name: "affine".into(),
        arrays: files,
        nests: nests
            .iter()
            .zip(stmts)
            .enumerate()
            .map(|(ni, (n, refs))| LoopNest {
                label: format!("n{ni}"),
                loops: n.loops.clone(),
                stmts: vec![Statement {
                    label: "S".into(),
                    refs,
                }],
                cycles_per_iter: n.cycles_per_iter,
            })
            .collect(),
        clock_hz: Program::PAPER_CLOCK_HZ,
    }
}
