//! `repro profile`: the host-side profiling driver.
//!
//! Turns on the profiling spine ([`sdpm_obs::prof`]) and drives the
//! full pipeline once over one kernel, in four labeled legs:
//!
//! 1. `profile.per_event` — the seven-scheme suite through
//!    [`Session::run`] (trace generator, instrumentation, per-event
//!    engine), plus one CMDRPM run with the Chrome recorder attached so
//!    the exported timeline carries sim-time tracks next to the host
//!    spans.
//! 2. `profile.codec` — run compression plus the binary codec round
//!    trip (encode and decode of both trace forms) and a simulation of
//!    each decoded trace (the stored run form through
//!    `sdpm_sim::try_simulate_runs`), so `encode.bytes`/`decode.bytes`
//!    throughput is measured on real data.
//! 3. `profile.verify` — the static verifier over the base trace.
//! 4. `profile.oracle` — the walk oracle regenerates the base trace
//!    iteration by iteration; the leg panics if it differs from the
//!    analytic generator's.
//!
//! Every span below the legs comes from the instrumented crates
//! themselves (`trace.gen`, `sim.simulate`, `verify.run`, ...), so
//! the tree is the ground truth of what the pipeline actually executed,
//! and the per-stage counters (`gen.events`, `encode.bytes`,
//! `decode.bytes`, ...) give throughput once divided by the span times.
//!
//! The collected [`Profile`] exports three ways (see the CLI): a
//! deterministic JSON document, host tracks merged into the Chrome
//! trace next to the sim-time tracks, and a terminal summary.

use crate::config_for;
use sdpm_core::{Scheme, Session};
use sdpm_layout::DiskPool;
use sdpm_obs::prof;
use sdpm_obs::{ChromeTraceRecorder, Profile};
use sdpm_sim::{simulate, try_simulate_runs, Policy};
use sdpm_trace::codec;
use sdpm_trace::{compress, generate_walk};
use sdpm_workloads::Benchmark;

/// Runs the four profiling legs over `bench` and returns the collected
/// profile plus the Chrome recorder that watched the CMDRPM run (attach
/// the profile to it and write it out for the merged timeline).
///
/// The spine is enabled for the duration of the call and disabled
/// again before returning; any profiling data recorded by this process
/// beforehand is discarded so the profile covers exactly these legs.
#[must_use]
pub fn run_profile(bench: &Benchmark) -> (Profile, ChromeTraceRecorder) {
    let cfg = config_for(bench);
    let pool = DiskPool::new(cfg.disks);

    prof::disable();
    let _stale = prof::take();
    prof::enable();

    let chrome = ChromeTraceRecorder::new();

    let base = {
        let _leg = prof::span("profile.per_event");
        let mut s = Session::new(&bench.program, &cfg);
        for &scheme in &Scheme::all() {
            let _ = s.run(scheme);
        }
        let _ = s.run_with_recorder(Scheme::CmDrpm, &chrome);
        s.base_trace().clone()
    };

    {
        let _leg = prof::span("profile.codec");
        let runs = compress(&base);
        let buf = codec::encode(&base);
        let decoded = codec::decode(&buf).unwrap_or_else(|e| panic!("decode own encoding: {e}"));
        if let Ok(rbuf) = codec::encode_runs(&runs) {
            let stored = codec::decode_runs(&rbuf)
                .unwrap_or_else(|e| panic!("decode own run encoding: {e}"));
            let _ = try_simulate_runs(&stored, &cfg.params, pool, &Policy::Base);
        }
        let _ = simulate(&decoded, &cfg.params, pool, &Policy::Base);
    }

    {
        let _leg = prof::span("profile.verify");
        let _ = sdpm_verify::verify_run(&base, &cfg.params, cfg.overhead_secs, None, None);
    }

    {
        let _leg = prof::span("profile.oracle");
        let walked = generate_walk(&bench.program, pool, cfg.gen);
        assert!(walked == base, "walk oracle disagrees with the generator");
    }

    prof::disable();
    (prof::take(), chrome)
}
