//! Property tests for the striping substrate.

use proptest::prelude::*;
use sdpm_layout::order::{delinearize, linearize};
use sdpm_layout::{allocate_proportional, DiskId, DiskPool, DiskSet, StorageOrder, Striping};

proptest! {
    /// map_range partitions the byte range exactly: extents are in file
    /// order, contiguous, and sum to the requested length.
    #[test]
    fn map_range_partitions(
        pool_n in 1u32..16,
        start in 0u32..16,
        factor in 1u32..16,
        stripe in 1u64..256 * 1024,
        offset in 0u64..1_000_000,
        len in 0u64..1_000_000,
    ) {
        let pool = DiskPool::new(pool_n);
        let striping = Striping {
            start_disk: DiskId(start % pool_n),
            stripe_factor: factor.min(pool_n),
            stripe_bytes: stripe,
        };
        let extents: Vec<_> = striping.map_range(pool, offset, len).collect();
        let total: u64 = extents.iter().map(|e| e.len).sum();
        prop_assert_eq!(total, len);
        let mut cur = offset;
        for e in &extents {
            prop_assert_eq!(e.file_offset, cur);
            prop_assert!(pool.contains(e.disk));
            cur += e.len;
        }
    }

    /// Each byte's disk assignment agrees between disk_for_offset and
    /// map_range.
    #[test]
    fn byte_disk_agreement(
        pool_n in 1u32..12,
        start in 0u32..12,
        factor in 1u32..12,
        stripe in 1u64..4096,
        probe in 0u64..100_000,
    ) {
        let pool = DiskPool::new(pool_n);
        let striping = Striping {
            start_disk: DiskId(start % pool_n),
            stripe_factor: factor.min(pool_n),
            stripe_bytes: stripe,
        };
        let d1 = striping.disk_for_offset(pool, probe);
        let extents: Vec<_> = striping.map_range(pool, probe, 1).collect();
        prop_assert_eq!(extents.len(), 1);
        prop_assert_eq!(extents[0].disk, d1);
    }

    /// Per-disk byte totals over a range always sum to the range length.
    #[test]
    fn per_disk_totals_partition(
        pool_n in 1u32..10,
        factor in 1u32..10,
        stripe in 1u64..8192,
        offset in 0u64..50_000,
        len in 0u64..200_000,
    ) {
        let pool = DiskPool::new(pool_n);
        let striping = Striping {
            start_disk: DiskId(0),
            stripe_factor: factor.min(pool_n),
            stripe_bytes: stripe,
        };
        let sum: u64 = pool
            .disks()
            .map(|d| striping.bytes_on_disk(pool, offset, len, d))
            .sum();
        prop_assert_eq!(sum, len);
    }

    /// Proportional allocation: disjoint, non-empty, covers the pool, and
    /// near-monotone (a strictly larger group never trails by more than
    /// the one-disk largest-remainder slack).
    #[test]
    fn allocation_invariants(
        pool_n in 1u32..32,
        sizes in proptest::collection::vec(1u64..1_000_000, 1..8),
    ) {
        prop_assume!(sizes.len() as u32 <= pool_n);
        let pool = DiskPool::new(pool_n);
        let sets = allocate_proportional(pool, &sizes).unwrap();
        let mut union = DiskSet::empty();
        for s in &sets {
            prop_assert!(!s.is_empty());
            prop_assert!(union.is_disjoint(*s));
            union = union.union(*s);
        }
        prop_assert_eq!(union, DiskSet::full(pool));
        for (i, a) in sizes.iter().enumerate() {
            for (j, b) in sizes.iter().enumerate() {
                if a > b {
                    prop_assert!(
                        sets[i].len() + 1 >= sets[j].len(),
                        "group {} ({}) got {} disks, group {} ({}) got {}",
                        i, a, sets[i].len(), j, b, sets[j].len()
                    );
                }
            }
        }
    }

    /// linearize/delinearize round-trip in both storage orders.
    #[test]
    fn linearize_round_trip(
        dims in proptest::collection::vec(1u64..12, 1..4),
        lin_seed in 0u64..10_000,
    ) {
        let total: u64 = dims.iter().product();
        let lin = lin_seed % total;
        for order in [StorageOrder::RowMajor, StorageOrder::ColMajor] {
            let idx = delinearize(&dims, lin, order);
            prop_assert_eq!(linearize(&dims, &idx, order), lin);
        }
    }

    /// DiskSet algebra laws on random sets.
    #[test]
    fn diskset_algebra(
        a in proptest::collection::vec(0u32..64, 0..20),
        b in proptest::collection::vec(0u32..64, 0..20),
    ) {
        let sa: DiskSet = a.iter().copied().map(DiskId).collect();
        let sb: DiskSet = b.iter().copied().map(DiskId).collect();
        prop_assert_eq!(sa.union(sb).len(), sa.len() + sb.len() - sa.intersection(sb).len());
        prop_assert!(sa.difference(sb).is_disjoint(sb));
        prop_assert_eq!(sa.difference(sb).union(sa.intersection(sb)), sa);
    }
}
