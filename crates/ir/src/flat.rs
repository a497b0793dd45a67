//! Closed forms of affine expressions in a nest's flat iteration index.
//!
//! The odometer walk ([`crate::walk`]) visits flat iteration
//! `flat = Σ t_d·w_d`, where `t_d` is loop `d`'s trip counter and its
//! *flat weight* `w_d` is the product of the trip counts of the loops
//! nested inside it. An affine expression
//! `e = k + Σ c_d·(lower_d + step_d·t_d)` is therefore affine in `flat`
//! exactly when every loop that varies contributes one common slope per
//! unit of flat weight: `c_d·step_d == slope·w_d` — the odometer-carry
//! test. A row-major scan `A[i][j]` passes it (`slope` 1); a column walk
//! of the same array (`j` outer) does not, since the inner loop strides
//! by a whole row while the outer one moves a single element.
//!
//! A *segmented* form holds the loops outside a split depth fixed and
//! applies the same test to the loops inside it. Each tuple of outer
//! trip counters then opens one segment of consecutive flat iterations
//! over which `e` is affine; the column walk is affine per column. A
//! split at the innermost loop always succeeds, so every expression has
//! some segmented form.
//!
//! All arithmetic is checked: flat weights that overflow `i128` yield
//! the exact verdict, never a wrapped one.

use crate::expr::AffineExpr;
use crate::nest::LoopNest;

/// An affine expression over the loops `split..` of a nest, with the
/// loops `..split` enumerated: within the segment that starts at flat
/// iteration `s` (the first iteration of one outer trip tuple),
/// `e(s + i) = segment_base + slope·i` for every in-segment offset `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatForm {
    /// Value at the nest's first iteration (every loop at its lower
    /// bound).
    pub base: i128,
    /// Increment per flat iteration inside a segment.
    pub slope: i128,
    /// Per-trip increment of each loop outside the split, outermost
    /// first; empty when the form covers the whole nest.
    pub outer: Vec<i128>,
}

impl FlatForm {
    /// Value at the first iteration of the segment whose outer trip
    /// counters are `trips` (outermost first, one per entry of `outer`).
    ///
    /// # Panics
    /// If `trips` does not hold one counter per outer loop.
    #[must_use]
    pub fn segment_base(&self, trips: &[u64]) -> i128 {
        assert_eq!(
            trips.len(),
            self.outer.len(),
            "one trip counter per outer loop"
        );
        self.outer
            .iter()
            .zip(trips)
            .fold(self.base, |acc, (&inc, &t)| acc + inc * i128::from(t))
    }
}

/// `e` as `base + slope·flat` over the whole nest, when the odometer
/// makes that exact (see the module docs); the form's `outer` is empty.
#[must_use]
pub fn flat_form(nest: &LoopNest, e: &AffineExpr) -> Option<FlatForm> {
    segmented_form(nest, e, 0)
}

/// `e` over the loops `split..` of `nest`, affine in their flat index
/// with the loops `..split` held fixed, or `None` when some inner loop
/// breaks the odometer-carry test. A nest without iterations has the
/// vacuous form of slope 0.
///
/// [`FlatForm::segment_base`] adds the outer terms unchecked: at the
/// iterations of a valid program they are element offsets, far inside
/// `i128`.
///
/// # Panics
/// If `split` exceeds the nest depth.
#[must_use]
pub fn segmented_form(nest: &LoopNest, e: &AffineExpr, split: usize) -> Option<FlatForm> {
    let depth = nest.depth();
    assert!(split <= depth, "split {split} beyond nest depth {depth}");
    let per_trip = |d: usize| i128::from(e.coeff(d)).checked_mul(i128::from(nest.loops[d].step));
    let mut base = i128::from(e.constant);
    for (d, l) in nest.loops.iter().enumerate() {
        base = base.checked_add(i128::from(e.coeff(d)).checked_mul(i128::from(l.lower))?)?;
    }
    let outer = (0..split).map(per_trip).collect::<Option<Vec<_>>>()?;
    if nest.loops.iter().any(|l| l.count == 0) {
        return Some(FlatForm {
            base,
            slope: 0,
            outer,
        });
    }
    // Walk the inner loops innermost first, carrying each one's flat
    // weight (`None` once it overflows `i128`). The innermost loop that
    // varies has weight 1, so its per-trip contribution is the slope.
    let mut slope: Option<i128> = None;
    let mut weight = Some(1i128);
    for d in (split..depth).rev() {
        let l = nest.loops[d];
        if l.count > 1 {
            let contrib = per_trip(d)?;
            match slope {
                None => slope = Some(contrib),
                Some(s) => {
                    // A nonzero slope times an overflowing weight exceeds
                    // every `i128` contribution: a mismatch, not a wrap.
                    let carried = if s == 0 {
                        Some(0)
                    } else {
                        weight.and_then(|w| s.checked_mul(w))
                    };
                    if carried != Some(contrib) {
                        return None;
                    }
                }
            }
        }
        weight = weight.and_then(|w| w.checked_mul(i128::from(l.count)));
    }
    Some(FlatForm {
        base,
        slope: slope.unwrap_or(0),
        outer,
    })
}

/// The segmented forms of `exprs` at the outermost split depth where
/// every one of them has one — the split that enumerates the fewest
/// segments — together with that split. Never deeper than the innermost
/// loop, where every affine expression has a form; 0 for a depth-0 nest
/// or an empty `exprs`.
#[must_use]
pub fn segmented_forms(nest: &LoopNest, exprs: &[AffineExpr]) -> (usize, Vec<FlatForm>) {
    (0..=nest.depth())
        .find_map(|k| {
            let forms: Option<Vec<_>> = exprs.iter().map(|e| segmented_form(nest, e, k)).collect();
            forms.map(|f| (k, f))
        })
        .unwrap_or_else(|| unreachable!("the innermost split always has a form"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::LoopDim;
    use crate::walk::walk_nest;

    fn nest(loops: Vec<LoopDim>) -> LoopNest {
        LoopNest {
            label: "n".into(),
            loops,
            stmts: vec![],
            cycles_per_iter: 1.0,
        }
    }

    /// Checks `form` against direct evaluation at every iteration.
    fn assert_form_exact(n: &LoopNest, e: &AffineExpr, form: &FlatForm) {
        let split = form.outer.len();
        let seg_len: u64 = n.loops[split..].iter().map(|l| l.count).product();
        walk_nest(n, |flat, ivars| {
            let seg = flat / seg_len;
            let trips = n.ivars_of(seg * seg_len)[..split]
                .iter()
                .zip(&n.loops)
                .map(|(&v, l)| u64::try_from((v - l.lower) / l.step).expect("trip"))
                .collect::<Vec<_>>();
            let offset = i128::from(flat - seg * seg_len);
            assert_eq!(
                form.segment_base(&trips) + form.slope * offset,
                i128::from(e.eval(ivars)),
                "flat {flat}"
            );
        });
    }

    #[test]
    fn row_major_scan_is_flat_affine() {
        let n = nest(vec![LoopDim::simple(4), LoopDim::simple(8)]);
        let e = AffineExpr {
            coeffs: vec![8, 1],
            constant: 3,
        };
        let f = flat_form(&n, &e).expect("row-major scan is flat-affine");
        assert_eq!((f.base, f.slope), (3, 1));
        assert_form_exact(&n, &e, &f);
        assert_eq!(segmented_forms(&n, &[e]).0, 0);
    }

    #[test]
    fn column_walk_is_affine_per_column() {
        // for c in 0..8 { for r in 0..16 { A[r][c] } }, row-major 16x8.
        let n = nest(vec![LoopDim::simple(8), LoopDim::simple(16)]);
        let e = AffineExpr {
            coeffs: vec![1, 8],
            constant: 0,
        };
        assert_eq!(flat_form(&n, &e), None);
        assert_eq!(segmented_forms(&n, std::slice::from_ref(&e)).0, 1);
        let f = segmented_form(&n, &e, 1).expect("affine per column");
        assert_eq!((f.slope, f.outer.as_slice()), (8, &[1][..]));
        assert_form_exact(&n, &e, &f);
    }

    #[test]
    fn negative_steps_offsets_and_unit_trips_are_exact() {
        let n = nest(vec![
            LoopDim {
                lower: 7,
                count: 3,
                step: -2,
            },
            LoopDim {
                lower: -4,
                count: 1,
                step: 5,
            },
            LoopDim {
                lower: 2,
                count: 6,
                step: 3,
            },
        ]);
        let e = AffineExpr {
            coeffs: vec![-9, 4, 1],
            constant: 100,
        };
        // Per-trip 18 on loop 0 against weight 6·1: slope 3 everywhere.
        let f = flat_form(&n, &e).expect("carry holds");
        assert_eq!(f.slope, 3);
        assert_form_exact(&n, &e, &f);
        let g = AffineExpr {
            coeffs: vec![1, 0, 1],
            constant: 0,
        };
        let k = segmented_forms(&n, std::slice::from_ref(&g)).0;
        assert_eq!(k, 1);
        assert_form_exact(&n, &g, &segmented_form(&n, &g, k).expect("form"));
    }

    #[test]
    fn innermost_split_always_succeeds() {
        let n = nest(vec![
            LoopDim::simple(3),
            LoopDim::simple(5),
            LoopDim {
                lower: 1,
                count: 4,
                step: -3,
            },
        ]);
        let e = AffineExpr {
            coeffs: vec![7, 2, 11],
            constant: 40,
        };
        assert_eq!(segmented_forms(&n, std::slice::from_ref(&e)).0, 2);
        assert_form_exact(&n, &e, &segmented_form(&n, &e, 2).expect("innermost"));
    }

    #[test]
    fn overflowing_weights_give_exact_verdicts() {
        let big = LoopDim::simple(u64::MAX);
        let n = nest(vec![LoopDim::simple(2), big, big, LoopDim::simple(2)]);
        // Loop 0's weight overflows i128: a slope-0 form survives it, a
        // nonzero slope cannot match it.
        let constant = AffineExpr {
            coeffs: vec![0, 0, 0, 0],
            constant: 5,
        };
        assert_eq!(flat_form(&n, &constant).map(|f| f.slope), Some(0));
        let e = AffineExpr {
            coeffs: vec![1, 0, 0, 1],
            constant: 0,
        };
        assert_eq!(segmented_form(&n, &e, 0), None);
        assert_eq!(segmented_form(&n, &e, 3).map(|f| f.slope), Some(1));
    }

    #[test]
    fn zero_trip_and_depth_zero_nests_have_trivial_forms() {
        let n = nest(vec![LoopDim::simple(4), LoopDim::simple(0)]);
        let e = AffineExpr {
            coeffs: vec![1, 5],
            constant: 2,
        };
        assert_eq!(flat_form(&n, &e).map(|f| f.slope), Some(0));
        let flat = nest(vec![]);
        assert_eq!(segmented_forms(&flat, &[AffineExpr::constant(0, 9)]).0, 0);
        assert_eq!(
            flat_form(&flat, &AffineExpr::constant(0, 9)).map(|f| (f.base, f.slope)),
            Some((9, 0))
        );
    }
}
