//! The two open-loop drivers on one workload: the fixed-timestamp
//! replay (`replay_open_loop`) and a single-tenant Base shared-pool mix
//! (`simulate_mix`). Both drive the same per-disk model through the
//! same FIFO ledger, so with one tenant at zero offset and load 1 —
//! whose timeline is the replay's nominal one — every per-disk figure,
//! the energy and the makespan agree bit for bit.
//!
//! The mean response is the exception, by design: the replay walks one
//! disk at a time and sums responses in that per-disk order, while the
//! mix sums in merged arrival order, which it needs for its per-tenant
//! and percentile figures. The two sums hold the same terms, so they
//! differ only by float round-off.

use sdpm_bench::config_for;
use sdpm_core::Session;
use sdpm_disk::{ultrastar36z15, DiskParams};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_sim::{replay_open_loop, simulate_mix, MixPolicy};
use sdpm_trace::mix::{merge_tenants, tenant_timeline};
use sdpm_trace::{AppEvent, IoRequest, ReqKind, Trace};

fn assert_disciplines_agree(trace: &Trace, params: &DiskParams, pool: DiskPool) {
    let open = replay_open_loop(trace, params, pool).unwrap();
    let events = merge_tenants(&[tenant_timeline(trace, 0, 0.0, 1.0)]);
    let mix = simulate_mix(
        &events,
        &[trace.name.as_str()],
        params,
        pool,
        &MixPolicy::Base,
    )
    .unwrap();
    // `Debug` prints every float in its shortest round-trip form, so
    // equal text is equal bits.
    assert_eq!(
        format!("{:?}", open.per_disk),
        format!("{:?}", mix.per_disk),
        "{}: per-disk reports",
        trace.name
    );
    assert_eq!(
        open.total_energy_j().to_bits(),
        mix.total_energy_j().to_bits(),
        "{}: energy",
        trace.name
    );
    assert_eq!(
        open.makespan_secs.to_bits(),
        mix.makespan_secs.to_bits(),
        "{}: makespan",
        trace.name
    );
    let (a, b) = (open.mean_response_secs, mix.mean_response_secs);
    assert!(
        (a - b).abs() <= 1e-12 * a.abs(),
        "{}: mean response {a} vs {b}",
        trace.name
    );
}

#[test]
fn replay_matches_single_tenant_mix_on_mesa_and_pdc_mesa() {
    let bench = sdpm_workloads::mesa();
    let cfg = config_for(&bench);
    let pool = DiskPool::new(cfg.disks);
    let pdc = sdpm_xform::pdc_layout(&bench.program, pool);
    for program in [&bench.program, &pdc.program] {
        let mut session = Session::new(program, &cfg);
        assert_disciplines_agree(session.base_trace(), &cfg.params, pool);
    }
}

#[test]
fn replay_matches_single_tenant_mix_under_contention() {
    // A request every millisecond against ~6.5 ms services: both disks
    // build deep queues.
    let mut events = Vec::new();
    for i in 0..400u64 {
        events.push(AppEvent::Compute {
            nest: 0,
            first_iter: 2 * i,
            iters: 1,
            secs: 0.001,
        });
        events.push(AppEvent::Io(IoRequest {
            disk: DiskId(u32::from(i % 3 == 0)),
            start_block: 128 * i,
            size_bytes: 64 * 1024,
            kind: ReqKind::Read,
            sequential: i % 5 == 0,
            nest: 0,
            iter: 2 * i + 1,
        }));
    }
    let trace = Trace {
        name: "contended".into(),
        pool_size: 2,
        events,
    };
    let pool = DiskPool::new(2);
    let open = replay_open_loop(&trace, &ultrastar36z15(), pool).unwrap();
    assert!(open.per_disk.iter().all(|d| d.max_queue_depth > 5));
    assert_disciplines_agree(&trace, &ultrastar36z15(), pool);
}
