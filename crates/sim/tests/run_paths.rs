//! Bit-exactness of stored-trace replay: `try_simulate_runs` on
//! `compress(t)` must match the per-event engine on `t` bitwise —
//! reports, gap ledgers, misfire causes, everything. Every scheme of
//! every Table 2 kernel is checked, and so are the cases where policy
//! machinery fires *inside* a run: TPM thresholds, DRPM drift windows,
//! oracle schedules, and embedded directives all force per-event
//! expansion for the affected repetitions.

use sdpm_core::{CmMode, NoiseModel, PipelineConfig, Scheme, Session};
use sdpm_disk::ultrastar36z15;
use sdpm_layout::{DiskId, DiskPool};
use sdpm_sim::{
    simulate, try_simulate, try_simulate_runs, DirectiveConfig, DrpmConfig, Policy, SimReport,
    TpmConfig,
};
use sdpm_trace::{compress, AppEvent, IoRequest, PowerAction, REvent, ReqKind, Trace};

fn io(disk: u32, block: u64, iter: u64) -> AppEvent {
    AppEvent::Io(IoRequest {
        disk: DiskId(disk),
        start_block: block,
        size_bytes: 64 * 1024,
        kind: ReqKind::Read,
        sequential: false,
        nest: 0,
        iter,
    })
}

/// `n` periods of `[compute(secs), io]`, the request rotating over `m`
/// disks as a striped layout would.
fn rotating_trace(n: u64, m: u64, secs: f64, pool: u32) -> Trace {
    let mut events = Vec::new();
    for k in 0..n {
        events.push(AppEvent::Compute {
            nest: 0,
            first_iter: k,
            iters: 1,
            secs,
        });
        events.push(io((k % m) as u32, (k / m) * 128, k + 1));
    }
    let t = Trace {
        name: "runpaths".into(),
        pool_size: pool,
        events,
    };
    t.validate().unwrap();
    t
}

fn assert_bitwise(t: &Trace, pool: u32, policy: &Policy, label: &str) -> SimReport {
    let params = ultrastar36z15();
    let pool = DiskPool::new(pool);
    let rt = compress(t);
    assert!(
        rt.events.iter().any(|e| matches!(e, REvent::Run(_))),
        "{label}: the trace must compress into at least one run"
    );
    let slow = simulate(t, &params, pool, policy);
    let fast = try_simulate_runs(&rt, &params, pool, policy).unwrap();
    assert_eq!(fast, slow, "{label}: reports must match");
    assert_eq!(
        fast.exec_secs.to_bits(),
        slow.exec_secs.to_bits(),
        "{label}: exec time must match bitwise"
    );
    assert_eq!(
        fast.total_energy_j().to_bits(),
        slow.total_energy_j().to_bits(),
        "{label}: energy must match bitwise"
    );
    fast
}

#[test]
fn stored_runs_match_per_event_for_every_kernel_and_scheme() {
    for bench in sdpm_workloads::all_benchmarks() {
        let cfg = PipelineConfig {
            gen: bench.gen,
            noise: NoiseModel {
                spread: bench.noise_spread,
                gap_jitter: bench.noise_jitter,
                seed: bench.noise_seed,
            },
            ..PipelineConfig::default()
        };
        let pool = DiskPool::new(cfg.disks);
        let mut session = Session::new(&bench.program, &cfg);
        let directive = Policy::Directive(DirectiveConfig {
            overhead_secs: cfg.overhead_secs,
        });
        for scheme in Scheme::all() {
            let (policy, trace) = match scheme {
                Scheme::Base => (Policy::Base, session.base_trace()),
                Scheme::Tpm => (Policy::Tpm(cfg.tpm), session.base_trace()),
                Scheme::ITpm => (Policy::IdealTpm, session.base_trace()),
                Scheme::Drpm => (Policy::Drpm(cfg.drpm), session.base_trace()),
                Scheme::IDrpm => (Policy::IdealDrpm, session.base_trace()),
                Scheme::CmTpm => (directive.clone(), &session.instrumented(CmMode::Tpm).trace),
                Scheme::CmDrpm => (directive.clone(), &session.instrumented(CmMode::Drpm).trace),
            };
            let label = format!("{} / {}", bench.name, scheme.label());
            let slow = try_simulate(trace, &cfg.params, pool, &policy).unwrap();
            let fast = try_simulate_runs(&compress(trace), &cfg.params, pool, &policy).unwrap();
            assert_eq!(fast, slow, "{label}: reports must be identical");
            assert_eq!(
                fast.exec_secs.to_bits(),
                slow.exec_secs.to_bits(),
                "{label}: exec time must match bitwise"
            );
            assert_eq!(
                fast.total_energy_j().to_bits(),
                slow.total_energy_j().to_bits(),
                "{label}: energy must match bitwise"
            );
        }
    }
}

#[test]
fn tpm_threshold_firing_inside_a_run_expands_exactly() {
    // 1 s threshold, 1.5 s compute per repetition: every period's gap
    // crosses the threshold mid-run, so the disk is spinning down (or
    // standby) at every arrival and the steady-state guard must reject
    // the fast path for each affected repetition.
    let t = rotating_trace(12, 1, 1.5, 1);
    let policy = Policy::Tpm(TpmConfig {
        threshold_secs: Some(1.0),
    });
    let r = assert_bitwise(&t, 1, &policy, "tpm-mid-run");
    assert!(
        r.per_disk[0].spin_downs > 0,
        "the threshold must actually fire inside the run"
    );
}

#[test]
fn tpm_steady_runs_stay_on_the_fast_path_bitwise() {
    // Short gaps, default break-even threshold: no spin-downs, the whole
    // run services on the steady path.
    let t = rotating_trace(50, 1, 1.0e-3, 1);
    let r = assert_bitwise(&t, 1, &Policy::Tpm(TpmConfig::default()), "tpm-steady");
    assert_eq!(r.per_disk[0].spin_downs, 0);
}

#[test]
fn rotating_runs_match_across_disks_and_policies() {
    // Rotation 4 over 4 disks: each disk sees every 4th period, so its
    // idle gap is 4 periods long — long enough for an aggressive TPM
    // threshold to land inside the run on every disk.
    let t = rotating_trace(40, 4, 0.5, 4);
    for (label, policy) in [
        ("base", Policy::Base),
        (
            "tpm",
            Policy::Tpm(TpmConfig {
                threshold_secs: Some(1.0),
            }),
        ),
        ("drpm", Policy::Drpm(DrpmConfig::default())),
        ("ideal-tpm", Policy::IdealTpm),
        ("ideal-drpm", Policy::IdealDrpm),
    ] {
        assert_bitwise(&t, 4, &policy, label);
    }
}

#[test]
fn drpm_drift_boundary_inside_a_run_expands_exactly() {
    // Idle drift far below the per-period gap: every repetition drifts
    // the platter down a level between requests, so the DRPM guard must
    // route each arrival through the generic path.
    let cfg = DrpmConfig {
        idle_drift_secs: 0.05,
        ..DrpmConfig::default()
    };
    let t = rotating_trace(16, 2, 0.4, 2);
    let r = assert_bitwise(&t, 2, &Policy::Drpm(cfg), "drpm-drift");
    assert!(
        r.per_disk.iter().any(|d| d.rpm_shifts > 0),
        "drift must actually change levels inside the run"
    );
}

#[test]
fn oracle_schedules_landing_inside_runs_match_bitwise() {
    // The oracle policies compute a per-disk action schedule from a Base
    // pass and replay it; with multi-second gaps the scheduled actions
    // land inside the run and the schedule guard expands those reps.
    let t = rotating_trace(10, 2, 30.0, 2);
    assert_bitwise(&t, 2, &Policy::IdealTpm, "oracle-tpm-sched");
    assert_bitwise(&t, 2, &Policy::IdealDrpm, "oracle-drpm-sched");
}

#[test]
fn directives_between_runs_replay_bitwise() {
    // An instrumented-style trace: periodic phases around explicit
    // spin-down/up directives. Power events break runs, so the compressed
    // form is runs + raw directives; the directive policy must execute
    // them at the same instants on both paths.
    let params = ultrastar36z15();
    let mut events = Vec::new();
    for k in 0..10u64 {
        events.push(AppEvent::Compute {
            nest: 0,
            first_iter: k,
            iters: 1,
            secs: 1.0e-3,
        });
        events.push(io(0, k * 128, k + 1));
    }
    events.push(AppEvent::Power {
        disk: DiskId(0),
        action: PowerAction::SpinDown,
    });
    events.push(AppEvent::Compute {
        nest: 0,
        first_iter: 10,
        iters: 1,
        secs: 60.0,
    });
    events.push(AppEvent::Power {
        disk: DiskId(0),
        action: PowerAction::SpinUp,
    });
    for k in 11..21u64 {
        events.push(AppEvent::Compute {
            nest: 0,
            first_iter: k,
            iters: 1,
            secs: 1.0e-3,
        });
        events.push(io(0, k * 128, k + 1));
    }
    let t = Trace {
        name: "directives".into(),
        pool_size: 1,
        events,
    };
    t.validate().unwrap();
    let policy = Policy::Directive(sdpm_sim::DirectiveConfig::default());
    let rt = compress(&t);
    let runs = rt
        .events
        .iter()
        .filter(|e| matches!(e, REvent::Run(_)))
        .count();
    assert!(
        runs >= 2,
        "phases on both sides of the directives must fuse"
    );
    let slow = simulate(&t, &params, DiskPool::new(1), &policy);
    let fast = try_simulate_runs(&rt, &params, DiskPool::new(1), &policy).unwrap();
    assert_eq!(fast, slow);
    assert_eq!(fast.exec_secs.to_bits(), slow.exec_secs.to_bits());
    assert!(slow.per_disk[0].spin_downs > 0, "directive must execute");
}
