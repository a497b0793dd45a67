//! Failure injection: malformed inputs must be rejected loudly or
//! absorbed gracefully (misfire accounting), never silently corrupt a
//! run.

use sdpm_disk::{ultrastar36z15, RpmLevel};
use sdpm_fault::{FaultConfig, FaultPlan};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_sim::{
    simulate, try_simulate, try_simulate_runs, try_simulate_source_faulted, DirectiveConfig,
    Policy, SimError,
};
use sdpm_trace::codec::{decode, encode, CodecError};
use sdpm_trace::{AppEvent, IoRequest, PowerAction, REvent, ReqKind, Run, RunTrace, Trace};

fn io(disk: u32, size: u64) -> AppEvent {
    AppEvent::Io(IoRequest {
        disk: DiskId(disk),
        start_block: 0,
        size_bytes: size,
        kind: ReqKind::Read,
        sequential: false,
        nest: 0,
        iter: 0,
    })
}

fn compute(secs: f64) -> AppEvent {
    AppEvent::Compute {
        nest: 0,
        first_iter: 0,
        iters: 1,
        secs,
    }
}

#[test]
fn trace_with_out_of_pool_disk_is_rejected() {
    let t = Trace {
        name: "bad".into(),
        pool_size: 2,
        events: vec![io(5, 4096)],
    };
    assert!(t.validate().is_err());
}

#[test]
#[should_panic(expected = "valid trace")]
fn simulator_refuses_invalid_traces() {
    let t = Trace {
        name: "bad".into(),
        pool_size: 2,
        events: vec![io(5, 4096)],
    };
    let _ = simulate(&t, &ultrastar36z15(), DiskPool::new(2), &Policy::Base);
}

#[test]
#[should_panic(expected = "pool")]
fn simulator_refuses_pool_mismatch() {
    let t = Trace {
        name: "mismatch".into(),
        pool_size: 4,
        events: vec![compute(1.0)],
    };
    let _ = simulate(&t, &ultrastar36z15(), DiskPool::new(8), &Policy::Base);
}

#[test]
fn zero_byte_requests_are_rejected_by_validation() {
    let t = Trace {
        name: "zero".into(),
        pool_size: 2,
        events: vec![io(0, 0)],
    };
    assert!(t.validate().is_err());
}

#[test]
fn hostile_directive_stream_is_absorbed_as_misfires() {
    // Spin up a spinning disk, set an off-ladder level, spin down twice:
    // all misfires, none fatal, energy ledger still balances.
    let t = Trace {
        name: "hostile".into(),
        pool_size: 2,
        events: vec![
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SpinUp,
            },
            AppEvent::Power {
                disk: DiskId(0),
                action: PowerAction::SetRpm(RpmLevel(200)),
            },
            AppEvent::Power {
                disk: DiskId(1),
                action: PowerAction::SpinDown,
            },
            AppEvent::Power {
                disk: DiskId(1),
                action: PowerAction::SpinDown,
            },
            compute(5.0),
            io(1, 4096),
        ],
    };
    let r = simulate(
        &t,
        &ultrastar36z15(),
        DiskPool::new(2),
        &Policy::Directive(DirectiveConfig::default()),
    );
    assert_eq!(
        r.misfire_causes.total(),
        3,
        "three of four calls are illegal"
    );
    assert_eq!(r.misfire_causes.spin_up_rejected, 1);
    assert_eq!(r.misfire_causes.off_ladder_level, 1);
    assert_eq!(r.misfire_causes.spin_down_rejected, 1);
    for d in &r.per_disk {
        assert!((d.energy.total_secs() - r.exec_secs).abs() < 1e-3);
    }
    // Disk 1 was legally spun down once and must pay the wake-up.
    assert!(r.stall_secs > 5.0);
}

#[test]
fn corrupted_trace_bytes_never_panic_the_decoder() {
    let t = Trace {
        name: "roundtrip".into(),
        pool_size: 3,
        events: vec![compute(0.5), io(1, 8192)],
    };
    let good = encode(&t).to_vec();
    // Flip every byte one at a time: decode must return Ok or Err, never
    // panic, and a flipped header must not round-trip silently into a
    // different pool size with the same events... (only structural safety
    // is asserted here).
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0xFF;
        let _ = decode(&bad);
    }
    // Truncations at every length likewise.
    for cut in 0..good.len() {
        assert!(matches!(
            decode(&good[..cut]),
            Err(CodecError::Truncated) | Err(CodecError::BadHeader) | Err(_)
        ));
    }
}

#[test]
fn empty_trace_simulates_to_zero_time() {
    let t = Trace {
        name: "empty".into(),
        pool_size: 2,
        events: vec![],
    };
    let r = simulate(&t, &ultrastar36z15(), DiskPool::new(2), &Policy::Base);
    assert_eq!(r.exec_secs, 0.0);
    assert_eq!(r.requests, 0);
    assert_eq!(r.total_energy_j(), 0.0);
}

#[test]
fn malformed_stream_surfaces_typed_error_not_panic() {
    // A stream cannot be pre-validated without draining it, so an
    // out-of-pool disk must surface from inside the engine as a typed
    // error, not a panic or an index OOB.
    let t = Trace {
        name: "bad-stream".into(),
        pool_size: 2,
        events: vec![compute(1.0), io(5, 4096)],
    };
    let err =
        try_simulate_source_faulted(&t, &ultrastar36z15(), DiskPool::new(2), &Policy::Base, None)
            .expect_err("out-of-pool disk must be rejected");
    assert!(
        matches!(err, SimError::DiskOutOfRange { disk: 5, pool: 2 }),
        "unexpected error: {err}"
    );
}

#[test]
fn invalid_trace_surfaces_typed_error_not_panic() {
    let t = Trace {
        name: "bad".into(),
        pool_size: 2,
        events: vec![io(5, 4096)],
    };
    let err = try_simulate(&t, &ultrastar36z15(), DiskPool::new(2), &Policy::Base)
        .expect_err("validation failure must be typed");
    assert!(matches!(err, SimError::InvalidTrace(_)), "got: {err}");

    let mismatch = Trace {
        name: "mismatch".into(),
        pool_size: 4,
        events: vec![compute(1.0)],
    };
    let err = try_simulate(
        &mismatch,
        &ultrastar36z15(),
        DiskPool::new(8),
        &Policy::Base,
    )
    .expect_err("pool mismatch must be typed");
    assert!(matches!(err, SimError::PoolMismatch { .. }), "got: {err}");
}

#[test]
fn malformed_run_record_surfaces_typed_error_not_panic() {
    // rotation = 0 would divide by zero in the period math; the engine
    // must reject the record before touching it.
    let rt = RunTrace {
        name: "bad-run".into(),
        pool_size: 2,
        events: vec![REvent::Run(Run {
            count: 3,
            nest: 0,
            first_iter: 0,
            iters_per_rep: 1,
            secs_per_rep: 1.0,
            rotation: 0,
            reqs: vec![],
        })],
    };
    let err = try_simulate_runs(&rt, &ultrastar36z15(), DiskPool::new(2), &Policy::Base)
        .expect_err("zero-rotation run must be rejected");
    assert!(matches!(err, SimError::InvalidRun(_)), "got: {err}");
}

/// The one simulator driver behind every input form: with no fault plan
/// attached, the streamed path, the materialized trace and the stored
/// run-compressed form agree on every report field, for every
/// single-trace policy on every kernel.
#[test]
fn faults_disabled_is_bit_exact_across_data_paths() {
    sdpm_bench::parallel_map(&sdpm_bench::suite(), |bench| {
        let cfg = sdpm_bench::config_for(bench);
        let pool = DiskPool::new(cfg.disks);
        let params = &cfg.params;
        let mut session = sdpm_core::Session::new(&bench.program, &cfg);
        let base = session.base_trace().clone();
        let instrumented = session.instrumented(sdpm_core::CmMode::Drpm).trace.clone();
        let directive = Policy::Directive(DirectiveConfig {
            overhead_secs: cfg.overhead_secs,
        });
        for (policy, trace) in [
            (Policy::Base, &base),
            (Policy::Tpm(cfg.tpm), &base),
            (Policy::IdealTpm, &base),
            (Policy::Drpm(cfg.drpm), &base),
            (Policy::IdealDrpm, &base),
            (directive, &instrumented),
        ] {
            let what = format!("{} {}", bench.name, policy.label());
            let streamed = try_simulate_source_faulted(trace, params, pool, &policy, None)
                .expect("streamed run succeeds");
            assert_eq!(streamed, simulate(trace, params, pool, &policy), "{what}");
            assert_eq!(streamed.faults.total(), 0, "{what}");
            let compressed = try_simulate_runs(&sdpm_trace::compress(trace), params, pool, &policy)
                .expect("run-compressed run succeeds");
            assert_eq!(streamed, compressed, "{what}: data paths drifted");
            assert_eq!(
                streamed.total_energy_j().to_bits(),
                compressed.total_energy_j().to_bits(),
                "{what}"
            );
            assert_eq!(
                streamed.exec_secs.to_bits(),
                compressed.exec_secs.to_bits(),
                "{what}"
            );
        }
    });
}

#[test]
fn injected_faults_degrade_gracefully_and_deterministically() {
    let bench = sdpm_workloads::swim();
    let cfg = sdpm_bench::config_for(&bench);
    let pool = DiskPool::new(cfg.disks);
    let params = cfg.params;
    let trace = sdpm_trace::generate(&bench.program, pool, bench.gen);
    let plan = FaultPlan::new(FaultConfig::uniform(42, 0.1));
    for policy in [
        Policy::Base,
        Policy::Drpm(Default::default()),
        Policy::IdealTpm,
    ] {
        let a = try_simulate_source_faulted(&trace, &params, pool, &policy, Some(&plan))
            .expect("faulted run must degrade gracefully, not fail");
        let b = try_simulate_source_faulted(&trace, &params, pool, &policy, Some(&plan))
            .expect("faulted run must degrade gracefully, not fail");
        assert_eq!(a, b, "same seed must reproduce the same faulted run");
        assert!(a.faults.total() > 0, "rate 0.1 must inject something");
        // Under Base only transient retries fire, and their backoff can
        // only delay requests. (RPM-stuck faults under DRPM can pin a
        // disk at a *faster* level, so no such bound holds there.)
        if matches!(policy, Policy::Base) {
            let clean = simulate(&trace, &params, pool, &policy);
            assert!(
                a.exec_secs >= clean.exec_secs,
                "transient faults must not speed up the run: {} < {}",
                a.exec_secs,
                clean.exec_secs
            );
        }
    }
}

#[test]
fn bad_disk_parameters_are_rejected_before_simulation() {
    let mut p = ultrastar36z15();
    p.idle_power_w = 1.0; // below standby: nonsense ordering
    let t = Trace {
        name: "t".into(),
        pool_size: 1,
        events: vec![compute(1.0)],
    };
    let result = std::panic::catch_unwind(|| {
        let _ = simulate(&t, &p, DiskPool::new(1), &Policy::Base);
    });
    assert!(result.is_err(), "invalid DiskParams must fail fast");
}
