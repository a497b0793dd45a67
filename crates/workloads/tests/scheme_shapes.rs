//! Workload-level shape tests: structural properties every benchmark
//! model must expose, checked without running the full simulator.

use sdpm_ir::{disk_activity, is_fissionable, ref_conforms};
use sdpm_layout::{DiskPool, DiskSet};
use sdpm_trace::generate;
use sdpm_workloads::{all_benchmarks, applu, mesa, mgrid, swim, wupwise};
use sdpm_xform::array_groups;

#[test]
fn every_model_generates_its_table2_request_count() {
    for bench in all_benchmarks() {
        let pool = DiskPool::new(8);
        let trace = generate(&bench.program, pool, bench.gen);
        let reqs = trace.stats().requests as f64;
        let target = bench.table2.requests as f64;
        assert!(
            (reqs - target).abs() / target < 0.005,
            "{}: {reqs} requests vs Table 2's {target}",
            bench.name
        );
    }
}

#[test]
fn every_model_touches_all_eight_disks() {
    for bench in all_benchmarks() {
        let pool = DiskPool::new(8);
        let am = disk_activity(&bench.program, pool);
        let mut used = DiskSet::empty();
        for n in 0..bench.program.nests.len() {
            used = used.union(am.disks_used(n));
        }
        assert_eq!(
            used,
            DiskSet::full(pool),
            "{}: default striping must use the whole pool",
            bench.name
        );
    }
}

#[test]
fn fissionability_matches_the_fig13_roles() {
    let fissionable = |p: &sdpm_ir::Program| p.nests.iter().any(is_fissionable);
    assert!(fissionable(&swim().program));
    assert!(!fissionable(&wupwise().program));
    assert!(!fissionable(&sdpm_workloads::galgel().program));
    // mgrid/mesa need no in-nest fission (their groups are already
    // nest-separated) but must have multiple array groups for DL.
    for bench in [mgrid(), mesa(), applu()] {
        let groups = array_groups(&bench.program);
        assert!(
            groups.len() >= 2,
            "{} needs multiple array groups for LF+DL",
            bench.name
        );
    }
}

#[test]
fn single_group_benchmarks_cannot_be_relaid_by_dl() {
    for bench in [wupwise(), sdpm_workloads::galgel()] {
        let groups = array_groups(&bench.program);
        assert_eq!(
            groups.len(),
            1,
            "{}: all arrays must be transitively coupled",
            bench.name
        );
    }
}

#[test]
fn wupwise_is_the_only_kernel_with_nonconforming_dominant_access() {
    for bench in all_benchmarks() {
        let p = &bench.program;
        // Dominant nest = highest element-access cost.
        let nest = p
            .nests
            .iter()
            .max_by_key(|n| {
                n.iter_count() * n.stmts.iter().map(|s| s.refs.len() as u64).sum::<u64>()
            })
            .unwrap();
        let nonconforming = nest
            .stmts
            .iter()
            .flat_map(|s| s.refs.iter())
            .any(|r| !ref_conforms(nest, r, &p.arrays[r.array]));
        assert_eq!(
            nonconforming,
            bench.name == "168.wupwise",
            "{}: conformance role mismatch",
            bench.name
        );
    }
}

#[test]
fn noise_parameters_are_sane() {
    for bench in all_benchmarks() {
        assert!(bench.noise_spread >= 0.0 && bench.noise_spread < 0.5);
        assert!(bench.noise_jitter >= 0.0 && bench.noise_jitter < 0.5);
        assert!(bench.gen.io_chunk_bytes > 0);
        assert!(!bench.gen.detect_sequential, "Table 2 implies positioning");
    }
}

#[test]
fn compute_share_is_the_table2_residual() {
    // Execution = compute + service; the compute share implied by Table 2
    // is what the model must carry.
    for bench in all_benchmarks() {
        let exec = bench.table2.exec_ms / 1e3;
        let svc = bench.table2.implied_service_secs() * bench.table2.requests as f64;
        let compute = bench.program.compute_secs();
        let residual = exec - svc;
        assert!(
            (compute - residual).abs() / exec < 0.05,
            "{}: compute {compute:.1}s vs residual {residual:.1}s",
            bench.name
        );
    }
}

/// The trace generator plans each nest with [`sdpm_ir::segmented_forms`]
/// and enumerates one segment per outer index tuple. No nest of the six
/// models or their transformed variants is enumerated iteration by
/// iteration: only wupwise's column walk splits at all, into one segment
/// per matrix column (none once TL+DL transposes the matrix).
#[test]
fn every_model_and_variant_plans_few_segments() {
    use sdpm_ir::conform::linearized_ref;
    use sdpm_xform::Transform;
    let pool = DiskPool::new(8);
    for bench in all_benchmarks() {
        let mut variants = vec![("none", bench.program.clone())];
        for t in Transform::all() {
            variants.push((t.label(), t.apply(&bench.program, pool)));
        }
        for (label, p) in &variants {
            for n in &p.nests {
                let lins: Vec<_> = n
                    .stmts
                    .iter()
                    .flat_map(|s| s.refs.iter())
                    .map(|r| linearized_ref(r, &p.arrays[r.array], p.arrays[r.array].order))
                    .collect();
                let (split, _) = sdpm_ir::segmented_forms(n, &lins);
                let segments: u64 = n.loops[..split].iter().map(|l| l.count).product();
                let most = if n.label.starts_with("zgemm-col") {
                    8
                } else {
                    1
                };
                assert!(
                    segments <= most,
                    "{} {label} nest {}: {segments} segments",
                    bench.name,
                    n.label
                );
            }
        }
    }
}
