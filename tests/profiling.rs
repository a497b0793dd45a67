//! Profiling-spine integration: the host-side span collector must
//! produce a deterministic tree for a deterministic pipeline and export
//! host tracks next to the sim-time tracks in the Chrome trace.
//!
//! The spine's state is process-global (thread-local buffers drained
//! into one collector), so every test here takes the same lock — two
//! tests enabling profiling concurrently would see each other's spans.

use sdpm_bench::profile::run_profile;
use sdpm_obs::json::Value;
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
        "profile.codec/trace.compress",
        "profile.codec/trace.encode",
        "profile.codec/trace.decode",
        "profile.codec/sim.simulate",
        "profile.codec/sim.simulate_runs",
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
