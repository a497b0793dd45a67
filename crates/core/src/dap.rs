//! The Disk Access Pattern (DAP).
//!
//! Section 3: "The DAP lists, for each disk, the idle and active times in
//! a compact form", with entries like `<Nest 2, iteration 50, active>`.
//! [`build_dap`] derives exactly that from the per-nest activity analysis
//! of `sdpm-ir`.

use sdpm_ir::{ActivityMap, NestId};
use serde::{Deserialize, Serialize};

/// Disk state change recorded by the DAP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DapState {
    Active,
    Idle,
}

/// One DAP transition: from this `(nest, iteration)` point on, the disk
/// is in `state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DapEntry {
    pub nest: NestId,
    pub iter: u64,
    pub state: DapState,
}

/// The whole-program DAP: one transition list per disk. Disks start
/// implicitly idle at `(nest 0, iteration 0)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dap {
    pub per_disk: Vec<Vec<DapEntry>>,
}

/// Builds the per-disk DAP transition lists from an activity map.
#[must_use]
pub fn build_dap(activity: &ActivityMap) -> Dap {
    let disks = activity.pool_size as usize;
    let mut per_disk: Vec<Vec<DapEntry>> = vec![Vec::new(); disks];
    for nest in &activity.nests {
        for (d, intervals) in nest.per_disk.iter().enumerate() {
            for iv in intervals {
                per_disk[d].push(DapEntry {
                    nest: nest.nest,
                    iter: iv.start,
                    state: DapState::Active,
                });
                // The idle transition at the end of the nest is implied by
                // the next nest's entries; emit it only when the interval
                // ends inside the nest.
                per_disk[d].push(DapEntry {
                    nest: nest.nest,
                    iter: iv.end,
                    state: DapState::Idle,
                });
            }
        }
    }
    // Collapse redundant adjacent transitions (an Idle at iter == next
    // Active's iter cancels; keeps the list compact like the paper's).
    for list in &mut per_disk {
        let mut compact: Vec<DapEntry> = Vec::with_capacity(list.len());
        for e in list.iter().copied() {
            if let Some(last) = compact.last() {
                if last.state == DapState::Idle
                    && e.state == DapState::Active
                    && last.nest == e.nest
                    && last.iter == e.iter
                {
                    compact.pop();
                    continue;
                }
            }
            compact.push(e);
        }
        *list = compact;
    }
    Dap { per_disk }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_ir::{disk_activity, AffineExpr, ArrayRef, LoopDim, LoopNest, Program, Statement};
    use sdpm_layout::{ArrayFile, DiskId, DiskPool, StorageOrder, Striping};

    /// Two nests over a 2-disk pool: nest 0 scans A (disks 0,1), nest 1
    /// scans B (disk 1 only).
    fn program() -> Program {
        let a = ArrayFile {
            name: "A".into(),
            dims: vec![256],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 2,
                stripe_bytes: 1024,
            },
            base_block: 0,
        };
        let b = ArrayFile {
            name: "B".into(),
            dims: vec![128],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(1),
                stripe_factor: 1,
                stripe_bytes: 1024,
            },
            base_block: 100,
        };
        let nest = |label: &str, arr: usize, n: u64| LoopNest {
            label: label.into(),
            loops: vec![LoopDim::simple(n)],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(arr, vec![AffineExpr::var(1, 0)])],
            }],
            cycles_per_iter: 100.0,
        };
        Program {
            name: "two-phase".into(),
            arrays: vec![a, b],
            nests: vec![nest("n0", 0, 256), nest("n1", 1, 128)],
            clock_hz: Program::PAPER_CLOCK_HZ,
        }
    }

    #[test]
    fn dap_lists_transitions_in_paper_form() {
        let p = program();
        let pool = DiskPool::new(2);
        p.validate(pool).unwrap();
        let am = disk_activity(&p, pool);
        let dap = build_dap(&am);
        // Disk 0: active [0,128) of nest 0 (first stripe = 128 elements),
        // idle afterwards, never active in nest 1.
        assert_eq!(
            dap.per_disk[0],
            vec![
                DapEntry {
                    nest: 0,
                    iter: 0,
                    state: DapState::Active
                },
                DapEntry {
                    nest: 0,
                    iter: 128,
                    state: DapState::Idle
                },
            ]
        );
        // Disk 1: idle during nest 0's first stripe, active [128,256),
        // then active for all of nest 1 — and adjacent transitions at the
        // nest boundary stay as separate entries per nest.
        assert_eq!(dap.per_disk[1].len(), 4);
        assert_eq!(dap.per_disk[1][0].iter, 128);
        assert_eq!(dap.per_disk[1][0].state, DapState::Active);
    }
}
