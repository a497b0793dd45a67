//! Profiling-spine integration: the host-side span collector must
//! produce a deterministic tree for a deterministic pipeline, merge
//! spans recorded on the sharded simulator's worker threads, and export
//! host tracks next to the sim-time tracks in the Chrome trace.
//!
//! The spine's state is process-global (thread-local buffers drained
//! into one collector), so every test here takes the same lock — two
//! tests enabling profiling concurrently would see each other's spans.

use sdpm_bench::config_for;
use sdpm_bench::profile::run_profile;
use sdpm_obs::json::Value;
use sdpm_obs::prof;
use sdpm_sim::{simulate_sharded, Policy};
use sdpm_trace::{generate, EventSource, EventStream, Trace};
use std::sync::Mutex;

fn counter(node: &sdpm_obs::prof::Node, name: &str) -> u64 {
    node.counters
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |(_, v)| *v)
}

static PROF_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    PROF_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn redacted_profile_json_is_byte_deterministic() {
    let _lock = locked();
    let bench = sdpm_workloads::swim();
    let (first, _) = run_profile(&bench);
    let (second, _) = run_profile(&bench);
    // With times and allocation figures redacted, everything left —
    // span structure, call counts, counter totals, thread tracks — is a
    // function of the deterministic pipeline alone.
    assert_eq!(
        first.to_json(false),
        second.to_json(false),
        "two profiles of the same deterministic run must serialize identically"
    );
    assert!(first.to_json(true).contains("total_us"));
    assert!(!first.to_json(false).contains("total_us"));
}

#[test]
fn profile_covers_every_pipeline_stage() {
    let _lock = locked();
    let bench = sdpm_workloads::swim();
    let (p, chrome) = run_profile(&bench);

    // gen -> compress -> encode/decode -> simulate, each under its leg,
    // and the walk oracle under its own.
    for path in [
        "profile.per_event/session.generate/trace.gen",
        "profile.per_event/session.simulate/sim.simulate",
        "profile.run_compressed/session.simulate_runs/session.generate_runs/trace.gen.analytic",
        "profile.run_compressed/session.simulate_runs/sim.simulate_runs",
        "profile.codec/trace.compress",
        "profile.codec/trace.encode",
        "profile.codec/trace.decode",
        "profile.codec/sim.simulate",
        "profile.verify/verify.run",
        "profile.oracle/trace.gen.walk",
    ] {
        assert!(p.node(path).is_some(), "missing span path {path}");
    }

    // Throughput counters carry real totals, equal for the generator
    // and its oracle.
    let gen = p
        .node("profile.per_event/session.generate/trace.gen")
        .expect("generator node");
    assert!(counter(gen, "gen.events") > 0);
    let walk = p.node("profile.oracle/trace.gen.walk").expect("walk node");
    assert_eq!(counter(walk, "gen.events"), counter(gen, "gen.events"));
    let enc = p.node("profile.codec/trace.encode").expect("encode node");
    assert!(counter(enc, "encode.bytes") > 0);

    // The Chrome export places host tracks (pid 3) next to the sim-time
    // tracks (pid 1) and the pipeline phases (pid 2).
    chrome.attach_profile(&p);
    let mut buf = Vec::new();
    chrome.write_to(&mut buf).expect("chrome trace renders");
    let v = Value::parse(std::str::from_utf8(&buf).expect("utf8")).expect("chrome trace parses");
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let pid_of = |e: &Value| e.get("pid").and_then(Value::as_u64);
    assert!(events.iter().any(|e| pid_of(e) == Some(1)), "sim tracks");
    assert!(events.iter().any(|e| pid_of(e) == Some(3)), "host tracks");
    let host_named = events.iter().any(|e| {
        pid_of(e) == Some(3)
            && e.get("name").and_then(Value::as_str) == Some("thread_name")
            && e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                == Some("main")
    });
    assert!(host_named, "host pid must carry a 'main' thread track");
}

/// A materialized trace that refuses to reveal its length, forcing
/// `simulate_sharded` past its small-workload fallback so the worker
/// threads actually spawn.
struct NoHint(Trace);

impl EventSource for NoHint {
    fn open(&self) -> Box<dyn EventStream + '_> {
        self.0.open()
    }
}

#[test]
fn sharded_worker_spans_merge_into_one_profile() {
    let _lock = locked();
    let bench = sdpm_workloads::swim();
    let cfg = config_for(&bench);
    let pool = sdpm_layout::DiskPool::new(cfg.disks);
    let source = NoHint(generate(&bench.program, pool, cfg.gen));

    prof::disable();
    let _stale = prof::take();
    prof::enable();
    let _ = simulate_sharded(&source, &cfg.params, pool, &Policy::Base);
    prof::disable();
    let p = prof::take();

    // Worker threads labeled themselves and their spans merged into the
    // same profile: every disk was claimed by some worker.
    assert!(
        p.tracks
            .iter()
            .any(|t| t.label.starts_with("shard-worker-")),
        "worker tracks missing: {:?}",
        p.tracks
            .iter()
            .map(|t| t.label.as_str())
            .collect::<Vec<_>>()
    );
    let worker = p.node("sim.shard.worker").expect("merged worker span");
    assert_eq!(
        counter(worker, "shard.disks"),
        u64::from(cfg.disks),
        "every disk must be claimed exactly once across workers"
    );
    assert!(
        p.node("sim.sharded/sim.simulate/sim.shard.replay")
            .is_some(),
        "replay span must nest under the sharded entry point"
    );
}
