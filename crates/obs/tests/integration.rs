//! End-to-end recorder tests against the real simulator and pipeline:
//! byte-deterministic JSONL streams, exact metrics/report reconciliation,
//! loadable Chrome traces, misfire classification, and phase spans.

use sdpm_core::{run_scheme_with_recorder, PipelineConfig, Scheme};
use sdpm_disk::{ultrastar36z15, RpmLevel};
use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Program, Statement};
use sdpm_layout::{ArrayFile, DiskId, DiskPool, StorageOrder, Striping};
use sdpm_obs::json::Value;
use sdpm_obs::{ChromeTraceRecorder, Event, JsonlRecorder, Metrics, MetricsRecorder, Recorder};
use sdpm_sim::{simulate_source_with_recorder, DirectiveConfig, Policy, SimReport};
use sdpm_trace::{AppEvent, IoRequest, PowerAction, ReqKind, Trace};
use std::cell::RefCell;

/// An I/O + compute + I/O phased program over 4 disks. `compute_secs`
/// sizes the mid gap; 60 s clears the TPM break-even (~15.2 s).
fn phased(compute_secs: f64) -> Program {
    let a = ArrayFile {
        name: "A".into(),
        dims: vec![64 * 1024],
        element_bytes: 8,
        order: StorageOrder::RowMajor,
        striping: Striping {
            start_disk: DiskId(0),
            stripe_factor: 4,
            stripe_bytes: 64 * 1024,
        },
        base_block: 0,
    };
    let scan = |label: &str| LoopNest {
        label: label.into(),
        loops: vec![LoopDim::simple(64 * 1024)],
        stmts: vec![Statement {
            label: "S".into(),
            refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
        }],
        cycles_per_iter: 75.0,
    };
    let compute_iters = 100_000u64;
    let compute = LoopNest {
        label: "fft".into(),
        loops: vec![LoopDim::simple(compute_iters)],
        stmts: vec![],
        cycles_per_iter: compute_secs / compute_iters as f64 * 750.0e6,
    };
    Program {
        name: "phased".into(),
        arrays: vec![a],
        nests: vec![scan("read"), compute, scan("reread")],
        clock_hz: Program::PAPER_CLOCK_HZ,
    }
}

fn cfg() -> PipelineConfig {
    PipelineConfig {
        disks: 4,
        ..Default::default()
    }
}

#[test]
fn jsonl_stream_is_byte_deterministic() {
    let p = phased(60.0);
    let run = |scheme| {
        let rec = JsonlRecorder::new(Vec::new());
        let _ = run_scheme_with_recorder(&p, scheme, &cfg(), &rec);
        rec.into_inner()
    };
    for scheme in [Scheme::CmDrpm, Scheme::Tpm, Scheme::IDrpm] {
        let a = run(scheme);
        let b = run(scheme);
        assert!(!a.is_empty());
        assert_eq!(
            a, b,
            "{scheme:?}: same program + config must give identical bytes"
        );
    }
}

/// Sums exactly the way `MetricsRecorder` does, so bitwise comparison is
/// legitimate: per-disk gap seconds in gap order, stalls in event order
/// (the report accumulates them the same way), energy in disk order.
fn assert_reconciles(m: &Metrics, r: &SimReport) {
    assert_eq!(m.requests, r.requests);
    assert_eq!(m.exec_secs.to_bits(), r.exec_secs.to_bits());
    assert_eq!(m.stall_secs.to_bits(), r.stall_secs.to_bits());
    assert_eq!(m.misfires_total(), r.misfire_causes.total());
    for (cause, n) in r.misfire_causes.breakdown() {
        assert_eq!(m.misfires.get(cause).copied().unwrap_or(0), n, "{cause}");
    }
    let gap_count: usize = r.per_disk.iter().map(|d| d.gaps.len()).sum();
    assert_eq!(m.gap_count, gap_count as u64);
    let standby: usize = r
        .per_disk
        .iter()
        .flat_map(|d| &d.gaps)
        .filter(|g| g.standby)
        .count();
    assert_eq!(m.standby_gaps, standby as u64);
    let mut energy = 0.0f64;
    for (i, d) in r.per_disk.iter().enumerate() {
        let md = &m.per_disk[i];
        assert_eq!(md.requests, d.requests, "disk {i} requests");
        assert_eq!(md.spin_downs, d.spin_downs, "disk {i} spin_downs");
        assert_eq!(md.spin_ups, d.spin_ups, "disk {i} spin_ups");
        assert_eq!(md.rpm_shifts, d.rpm_shifts, "disk {i} rpm_shifts");
        let gap_secs: f64 = d.gaps.iter().map(|g| g.end - g.start).sum();
        assert_eq!(
            md.gap_secs.to_bits(),
            gap_secs.to_bits(),
            "disk {i} gap seconds"
        );
        assert_eq!(
            md.energy_j.to_bits(),
            d.energy.total_j().to_bits(),
            "disk {i} energy"
        );
        energy += d.energy.total_j();
    }
    assert_eq!(m.energy_j.to_bits(), energy.to_bits());
    assert!(
        (m.energy_j - r.total_energy_j()).abs() <= 1e-9 * m.energy_j.abs().max(1.0),
        "merged-breakdown total drifted: {} vs {}",
        m.energy_j,
        r.total_energy_j()
    );
}

#[test]
fn metrics_reconcile_exactly_with_sim_report_across_schemes() {
    let p = phased(60.0);
    for scheme in Scheme::all() {
        let rec = MetricsRecorder::new();
        let r = run_scheme_with_recorder(&p, scheme, &cfg(), &rec);
        let m = rec.snapshot();
        assert_reconciles(&m, &r);
        // The interesting schemes must actually exercise the counters.
        match scheme {
            Scheme::CmTpm | Scheme::ITpm => assert!(m.spin_downs > 0, "{scheme:?}"),
            Scheme::CmDrpm | Scheme::IDrpm | Scheme::Drpm => {
                assert!(m.rpm_shifts > 0, "{scheme:?}");
            }
            _ => {}
        }
    }
}

#[test]
fn chrome_trace_loads_and_covers_every_disk() {
    let p = phased(60.0);
    let rec = ChromeTraceRecorder::new();
    let _ = run_scheme_with_recorder(&p, Scheme::CmDrpm, &cfg(), &rec);
    let mut buf = Vec::new();
    rec.write_to(&mut buf).unwrap();
    let v = Value::parse(std::str::from_utf8(&buf).unwrap()).expect("valid JSON");
    let evs = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("array");
    assert!(evs.len() > 100);
    for e in evs {
        assert!(e.get("ph").and_then(Value::as_str).is_some());
        assert!(e.get("pid").and_then(Value::as_u64).is_some());
        assert!(e.get("name").and_then(Value::as_str).is_some());
    }
    // One named thread track per simulated disk, plus the pipeline pid.
    let thread_names: Vec<&str> = evs
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
        })
        .collect();
    for d in 0..4 {
        assert!(
            thread_names
                .iter()
                .any(|n| n.contains(&format!("disk {d}"))),
            "missing track for disk {d} in {thread_names:?}"
        );
    }
    assert!(evs
        .iter()
        .any(|e| e.get("pid").and_then(Value::as_u64) == Some(2)));
}

#[test]
fn misfire_events_classify_hostile_directives() {
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
            AppEvent::Compute {
                nest: 0,
                first_iter: 0,
                iters: 1,
                secs: 5.0,
            },
            AppEvent::Io(IoRequest {
                disk: DiskId(1),
                start_block: 0,
                size_bytes: 4096,
                kind: ReqKind::Read,
                sequential: false,
                nest: 0,
                iter: 0,
            }),
        ],
    };
    let rec = MetricsRecorder::new();
    let r = simulate_source_with_recorder(
        &t,
        &ultrastar36z15(),
        DiskPool::new(2),
        &Policy::Directive(DirectiveConfig::default()),
        &rec,
    );
    let m = rec.snapshot();
    assert_eq!(m.misfires.get("spin_up_rejected"), Some(&1));
    assert_eq!(m.misfires.get("off_ladder_level"), Some(&1));
    assert_eq!(m.misfires.get("spin_down_rejected"), Some(&1));
    assert_eq!(m.directives_issued, 4);
    assert_reconciles(&m, &r);
}

struct PhaseLog(RefCell<Vec<String>>);

impl Recorder for PhaseLog {
    fn record(&self, ev: &Event) {
        match ev {
            Event::PhaseStart { phase } => self.0.borrow_mut().push(format!("+{phase}")),
            Event::PhaseEnd { phase } => self.0.borrow_mut().push(format!("-{phase}")),
            _ => {}
        }
    }
}

#[test]
fn pipeline_emits_ordered_phase_spans() {
    let p = phased(10.0);
    let log = PhaseLog(RefCell::new(Vec::new()));
    let _ = run_scheme_with_recorder(&p, Scheme::CmDrpm, &cfg(), &log);
    assert_eq!(
        log.0.into_inner(),
        [
            "+dap-construction",
            "-dap-construction",
            "+break-even-thresholding",
            "-break-even-thresholding",
            "+directive-insertion",
            "-directive-insertion",
            "+simulation",
            "-simulation",
        ]
    );

    let log = PhaseLog(RefCell::new(Vec::new()));
    let _ = run_scheme_with_recorder(&p, Scheme::Base, &cfg(), &log);
    assert_eq!(
        log.0.into_inner(),
        [
            "+dap-construction",
            "-dap-construction",
            "+simulation",
            "-simulation"
        ]
    );
}

/// Three independent misfire counters — the simulator's report, the
/// dynamic `MetricsRecorder` stream, and `sdpm-verify`'s static replay —
/// must agree cause-by-cause, on a hostile stream and on a clean
/// pipeline run alike.
#[test]
fn static_replay_agrees_with_dynamic_misfire_metrics() {
    let hostile = Trace {
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
            AppEvent::Io(IoRequest {
                disk: DiskId(1),
                start_block: 0,
                size_bytes: 4096,
                kind: ReqKind::Read,
                sequential: false,
                nest: 0,
                iter: 0,
            }),
        ],
    };
    let params = ultrastar36z15();
    let dcfg = DirectiveConfig::default();
    let rec = MetricsRecorder::new();
    let report = simulate_source_with_recorder(
        &hostile,
        &params,
        DiskPool::new(2),
        &Policy::Directive(dcfg),
        &rec,
    );
    let m = rec.snapshot();
    let replay = sdpm_verify::replay_directives(&hostile, &params, dcfg.overhead_secs);

    assert_eq!(replay.misfires, report.misfire_causes);
    assert!(replay.misfires.total() > 0);
    for (label, n) in replay.misfires.breakdown() {
        assert_eq!(
            m.misfires.get(label).copied().unwrap_or(0),
            n,
            "dynamic metric for {label} disagrees with static replay"
        );
    }
    assert_eq!(m.misfires_total(), replay.misfires.total());

    // The replay cross-check flags the misfires as a warning, never as a
    // report divergence: all three counters share one truth.
    let diags = sdpm_verify::crosscheck_report(&hostile, &params, dcfg.overhead_secs, &report);
    assert!(!sdpm_verify::has_errors(&diags));
    assert!(diags
        .iter()
        .any(|d| d.code == sdpm_verify::Code::ReplayMisfires));

    // Clean pipeline run: the same three-way agreement at zero.
    let p = phased(60.0);
    let rec = MetricsRecorder::new();
    let report = run_scheme_with_recorder(&p, Scheme::CmTpm, &cfg(), &rec);
    let m = rec.snapshot();
    assert_eq!(m.misfires_total(), report.misfire_causes.total());
}
