//! Whole programs: symbol table + nests + clock.

use crate::nest::LoopNest;
use sdpm_layout::{ArrayFile, DiskPool};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an array in a program's symbol table.
pub type ArrayId = usize;
/// Index of a nest in a program's nest list.
pub type NestId = usize;

/// Why [`Program::validate`] rejected a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The array's byte size (element count × element size) exceeds
    /// `i64::MAX`. Trace generation computes byte offsets in `i64`.
    ArrayTooLarge {
        /// Index of the array in the symbol table.
        array: ArrayId,
        /// The array's name.
        name: String,
    },
    /// Any other structural defect, described.
    Invalid(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::ArrayTooLarge { array, name } => {
                write!(f, "array {array} ({name}) exceeds i64::MAX bytes")
            }
            ProgramError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ProgramError {}

/// An analyzable application: disk-resident arrays, the loop nests that
/// access them (in execution order), and the machine clock used to convert
/// per-iteration cycle counts to wall time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Application name (e.g. `"171.swim"`).
    pub name: String,
    /// Disk-resident arrays with their file layouts.
    pub arrays: Vec<ArrayFile>,
    /// Loop nests in execution order.
    pub nests: Vec<LoopNest>,
    /// CPU clock in Hz (the paper measures on a 750 MHz UltraSPARC-III).
    pub clock_hz: f64,
}

impl Program {
    /// The paper's measurement platform clock: 750 MHz.
    pub const PAPER_CLOCK_HZ: f64 = 750.0e6;

    /// Total bytes across all arrays.
    #[must_use]
    pub fn total_data_bytes(&self) -> u64 {
        self.arrays.iter().map(ArrayFile::total_bytes).sum()
    }

    /// Wall-clock seconds of pure computation (sum of nest cycle totals at
    /// `clock_hz`), excluding any I/O stall the simulator adds.
    #[must_use]
    pub fn compute_secs(&self) -> f64 {
        self.nests.iter().map(LoopNest::total_cycles).sum::<f64>() / self.clock_hz
    }

    /// Seconds per iteration of `nest`.
    #[must_use]
    pub fn iter_secs(&self, nest: NestId) -> f64 {
        self.nests[nest].cycles_per_iter / self.clock_hz
    }

    /// Structural validation: every reference must name an existing array
    /// with matching rank and subscript depth, striping must fit `pool`,
    /// every array must fit in `i64::MAX` bytes, and cycle counts must be
    /// positive and finite.
    pub fn validate(&self, pool: DiskPool) -> Result<(), ProgramError> {
        self.check_structure(pool).map_err(ProgramError::Invalid)?;
        for (ai, a) in self.arrays.iter().enumerate() {
            if a.checked_total_bytes()
                .is_none_or(|b| b > i64::MAX.unsigned_abs())
            {
                return Err(ProgramError::ArrayTooLarge {
                    array: ai,
                    name: a.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// The structural checks of [`Program::validate`] other than the
    /// array-size bound, described.
    fn check_structure(&self, pool: DiskPool) -> Result<(), String> {
        if self.clock_hz <= 0.0 || !self.clock_hz.is_finite() {
            return Err(format!("bad clock_hz {}", self.clock_hz));
        }
        for (ai, a) in self.arrays.iter().enumerate() {
            if a.dims.is_empty() || a.dims.contains(&0) {
                return Err(format!("array {ai} ({}) has empty shape", a.name));
            }
            if a.element_bytes == 0 {
                return Err(format!("array {ai} ({}) has zero element size", a.name));
            }
            a.striping
                .validate(pool)
                .map_err(|e| format!("array {ai} ({}): {e}", a.name))?;
        }
        for (ni, n) in self.nests.iter().enumerate() {
            if n.cycles_per_iter.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
                || !n.cycles_per_iter.is_finite()
            {
                return Err(format!(
                    "nest {ni} ({}) has bad cycles_per_iter {}",
                    n.label, n.cycles_per_iter
                ));
            }
            for l in &n.loops {
                if l.step == 0 {
                    return Err(format!("nest {ni} ({}) has a zero-step loop", n.label));
                }
            }
            for (si, s) in n.stmts.iter().enumerate() {
                for r in &s.refs {
                    let a = self.arrays.get(r.array).ok_or_else(|| {
                        format!(
                            "nest {ni} stmt {si}: reference to unknown array {}",
                            r.array
                        )
                    })?;
                    if r.subscripts.len() != a.dims.len() {
                        return Err(format!(
                            "nest {ni} stmt {si}: {}-d subscript on {}-d array {}",
                            r.subscripts.len(),
                            a.dims.len(),
                            a.name
                        ));
                    }
                    for e in &r.subscripts {
                        if e.depth() != n.depth() {
                            return Err(format!(
                                "nest {ni} stmt {si}: subscript depth {} != nest depth {}",
                                e.depth(),
                                n.depth()
                            ));
                        }
                    }
                    // Bounds check at the iteration-space corners; affine
                    // subscripts attain extrema at corners, so this covers
                    // the whole space.
                    for corner in 0..(1u64 << n.depth().min(16)) {
                        let ivars: Vec<i64> = n
                            .loops
                            .iter()
                            .enumerate()
                            .map(|(d, l)| {
                                if l.count == 0 {
                                    return l.lower;
                                }
                                if corner >> d & 1 == 0 {
                                    l.value(0)
                                } else {
                                    l.value(l.count - 1)
                                }
                            })
                            .collect();
                        for (dim, e) in r.subscripts.iter().enumerate() {
                            let v = e.eval(&ivars);
                            if v < 0 || v as u64 >= a.dims[dim] {
                                return Err(format!(
                                    "nest {ni} stmt {si}: subscript {dim} of {} evaluates \
                                     to {v} (extent {}) at corner {ivars:?}",
                                    a.name, a.dims[dim]
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffineExpr;
    use crate::nest::{ArrayRef, LoopDim, Statement};
    use sdpm_layout::{DiskId, StorageOrder, Striping};

    fn array(name: &str, n: u64) -> ArrayFile {
        ArrayFile {
            name: name.into(),
            dims: vec![n],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 1024,
            },
            base_block: 0,
        }
    }

    fn valid_program() -> Program {
        Program {
            name: "t".into(),
            arrays: vec![array("U1", 100)],
            nests: vec![LoopNest {
                label: "n1".into(),
                loops: vec![LoopDim::simple(100)],
                stmts: vec![Statement {
                    label: "S1".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 50.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        }
    }

    #[test]
    fn valid_program_passes() {
        assert_eq!(valid_program().validate(DiskPool::new(8)), Ok(()));
    }

    #[test]
    fn out_of_bounds_subscript_caught_at_corner() {
        let mut p = valid_program();
        p.nests[0].stmts[0].refs[0].subscripts[0] = AffineExpr::var(1, 0).shifted(1);
        let err = p.validate(DiskPool::new(8)).unwrap_err().to_string();
        assert!(err.contains("evaluates to 100"), "{err}");
    }

    #[test]
    fn negative_subscript_caught() {
        let mut p = valid_program();
        p.nests[0].stmts[0].refs[0].subscripts[0] = AffineExpr::var(1, 0).shifted(-1);
        assert!(p.validate(DiskPool::new(8)).is_err());
    }

    #[test]
    fn unknown_array_caught() {
        let mut p = valid_program();
        p.nests[0].stmts[0].refs[0].array = 9;
        assert!(p.validate(DiskPool::new(8)).is_err());
    }

    #[test]
    fn rank_mismatch_caught() {
        let mut p = valid_program();
        p.nests[0].stmts[0].refs[0]
            .subscripts
            .push(AffineExpr::constant(1, 0));
        assert!(p.validate(DiskPool::new(8)).is_err());
    }

    #[test]
    fn striping_that_exceeds_pool_caught() {
        let p = valid_program();
        assert!(p.validate(DiskPool::new(2)).is_err());
    }

    #[test]
    fn arrays_beyond_i64_bytes_are_a_typed_error() {
        let mut p = valid_program();
        // 2^40 × 2^40 elements overflow u64 before the element size.
        p.arrays[0].dims = vec![1 << 40, 1 << 40];
        p.nests[0].stmts[0].refs[0].subscripts = vec![AffineExpr::var(1, 0); 2];
        let too_large = Err(ProgramError::ArrayTooLarge {
            array: 0,
            name: "U1".into(),
        });
        assert_eq!(p.validate(DiskPool::new(8)), too_large);
        assert_eq!(p.arrays[0].checked_total_bytes(), None);
        // 2^60 elements of 8 bytes fit u64 but not i64.
        p.arrays[0].dims = vec![1 << 30, 1 << 30];
        assert_eq!(p.validate(DiskPool::new(8)), too_large);
        // One column fewer fits: 2^63 - 2^33 bytes.
        p.arrays[0].dims = vec![1 << 30, (1 << 30) - 1];
        assert_eq!(p.validate(DiskPool::new(8)), Ok(()));
    }

    #[test]
    fn bad_cycle_count_caught() {
        let mut p = valid_program();
        p.nests[0].cycles_per_iter = 0.0;
        assert!(p.validate(DiskPool::new(8)).is_err());
    }

    #[test]
    fn compute_secs_uses_clock() {
        let p = valid_program();
        // 100 iters * 50 cycles / 750 MHz.
        assert!((p.compute_secs() - 5000.0 / 750.0e6).abs() < 1e-18);
        assert!((p.iter_secs(0) - 50.0 / 750.0e6).abs() < 1e-18);
    }

    #[test]
    fn total_data_bytes_sums_arrays() {
        let mut p = valid_program();
        p.arrays.push(array("U2", 50));
        assert_eq!(p.total_data_bytes(), 800 + 400);
    }
}
