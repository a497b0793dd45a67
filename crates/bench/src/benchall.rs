//! `repro bench all`: the merged benchmark taxonomy and its CI gate.
//!
//! One entry point subsumes the historical harness shapes — the
//! streamed-vs-materialized simulator paths and the fault-sweep smoke
//! (`repro faultsim`) — plus generator, suite and codec round-trip
//! timings, under a single schema (`sdpm-bench/v1`) with a labeled
//! taxonomy:
//!
//! * **layer** — which subsystem is on the clock: `gen` (the walk
//!   oracle), `suite` (end-to-end seven-scheme pipeline), `sim`
//!   (simulator data paths over one generated trace), `codec` (binary
//!   encode/decode), `fault` (the injection sweep), `mix` (the
//!   shared-pool scenario engine on a two-instance self-mix).
//! * **access** — the kernel's I/O shape, classified from the generated
//!   trace's sequential fraction: `seq` (>= 3/4 sequential), `rand`
//!   (<= 1/4), `mixed` otherwise.
//! * **mode** — the variant within the layer: `walk`, `per_event`,
//!   `streamed`/`materialized`, `encode`/`decode`, `sweep`, `shared`.
//!
//! Entry ids are `{layer}_{access}_{mode}__{kernel}`, stable across PRs
//! so the per-PR history (`dev/bench/history.jsonl`, one JSON line per
//! run) supports trend queries and the regression gate: [`gate_against`]
//! compares the current run against the previous history line on shared
//! ids and fails any entry that slowed past the threshold
//! ([`GATE_THRESHOLD`], default +10%). Entries whose previous wall time
//! is under [`GATE_MIN_SECS`] are exempt — at sub-5ms scale the ratio
//! measures scheduler noise, not the build. Bit-exactness drift
//! (`identical_all = false`) is a hard failure regardless of timing.
//!
//! Wall times are best-of-`REPS` minima; peak memory is the per-phase
//! heap watermark of the first repetition
//! ([`crate::streambench::measure_phase_peak`]). Entries with no second
//! data path (the suite, the mix) check determinism across repetitions
//! for their bit-exactness flag.

use crate::config_for;
use crate::faultsim::{run_fault_sweep, DEFAULT_RATES};
use crate::mixbench::{MixDef, MixTenantDef};
use crate::streambench::{measure_phase_peak, run_stream_bench, PathCost};
use sdpm_core::{ArrivalProcess, Scheme, Session};
use sdpm_layout::DiskPool;
use sdpm_obs::json::Value;
use sdpm_sim::{AdaptiveConfig, MixPolicy};
use sdpm_trace::{codec, generate, generate_walk, Trace};
use sdpm_workloads::Benchmark;
use std::time::Instant;

/// Schema tag written into `BENCH.json` and every history line.
pub const SCHEMA: &str = "sdpm-bench/v1";

/// Default regression-gate threshold: fail when an entry's wall time
/// grows past `prev * GATE_THRESHOLD`.
pub const GATE_THRESHOLD: f64 = 1.10;

/// Entries whose previous wall time is below this are not gated: the
/// ratio of two sub-5ms timings is dominated by scheduler noise.
pub const GATE_MIN_SECS: f64 = 0.005;

/// Repetitions per entry; the reported wall time is the minimum.
const REPS: usize = 3;

/// One measured cell of the taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// `{layer}_{access}_{mode}__{kernel}` — the stable history key.
    pub id: String,
    pub layer: &'static str,
    pub access: &'static str,
    pub mode: &'static str,
    pub kernel: &'static str,
    /// Best-of-reps wall seconds.
    pub wall_secs: f64,
    /// Per-phase peak heap (or RSS fallback) KiB; 0 when the entry's
    /// harness does not measure memory.
    pub peak_kib: u64,
    /// Work processed per run, in `unit`s — divides into `wall_secs`
    /// for throughput.
    pub units: u64,
    pub unit: &'static str,
    /// The entry's own bit-exactness cross-check held.
    pub identical: bool,
}

/// The full merged record: every kernel swept, all layers.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchAll {
    pub schema: &'static str,
    pub entries: Vec<BenchEntry>,
    /// Conjunction of every entry's `identical` flag; `false` hard-fails
    /// the gate regardless of timings.
    pub identical_all: bool,
}

/// Classifies a kernel's access pattern from its generated trace.
#[must_use]
pub fn access_class(trace: &Trace) -> &'static str {
    let f = trace.stats().sequential_fraction;
    if f >= 0.75 {
        "seq"
    } else if f <= 0.25 {
        "rand"
    } else {
        "mixed"
    }
}

#[allow(clippy::too_many_arguments)] // private ctor mirroring the schema's columns
fn entry(
    layer: &'static str,
    access: &'static str,
    mode: &'static str,
    kernel: &'static str,
    cost: &PathCost,
    units: u64,
    unit: &'static str,
    identical: bool,
) -> BenchEntry {
    BenchEntry {
        id: format!("{layer}_{access}_{mode}__{kernel}"),
        layer,
        access,
        mode,
        kernel,
        wall_secs: cost.wall_secs,
        peak_kib: cost.peak_kib,
        units,
        unit,
        identical,
    }
}

/// Runs `f` `REPS` times: the best wall time with the per-phase peak
/// heap of the first run, the first run's result, and whether every
/// later run reproduced it. Later results are dropped as soon as they
/// are compared, so they do not inflate the peaks of later phases.
fn best_of<T: PartialEq>(mut f: impl FnMut() -> T) -> (PathCost, T, bool) {
    let t0 = Instant::now();
    let (first, peak_kib) = measure_phase_peak(&mut f);
    let mut wall_secs = t0.elapsed().as_secs_f64();
    let mut same = true;
    for _ in 1..REPS {
        let t0 = Instant::now();
        let r = f();
        wall_secs = wall_secs.min(t0.elapsed().as_secs_f64());
        same &= r == first;
    }
    (
        PathCost {
            wall_secs,
            peak_kib,
        },
        first,
        same,
    )
}

/// Runs every layer of the taxonomy over one kernel (eight entries).
#[must_use]
pub fn bench_kernel_all(bench: &Benchmark) -> Vec<BenchEntry> {
    let cfg = config_for(bench);
    let pool = DiskPool::new(cfg.disks);
    let trace = generate(&bench.program, pool, cfg.gen);
    let access = access_class(&trace);
    let kernel = bench.name;
    let events = trace.events.len() as u64;

    // gen layer: the walk oracle, checked against the generator.
    let (walk_cost, walk_ok) = {
        let (cost, walked, same) = best_of(|| generate_walk(&bench.program, pool, cfg.gen));
        (cost, same && walked == trace)
    };

    // suite layer: a fresh session per run, so the timing covers
    // generation, instrumentation and simulation of all seven schemes.
    // With no second path to compare, determinism is the check.
    let (suite_cost, _, suite_ok) = best_of(|| {
        let mut s = Session::new(&bench.program, &cfg);
        Scheme::all().map(|scheme| s.run(scheme))
    });

    // sim layer: the streaming harness measures both data paths.
    let sb = run_stream_bench(bench);

    // codec layer: binary round trip of the base trace.
    let (enc_cost, dec_cost, bytes, roundtrip) = {
        let (enc_cost, buf, enc_same) = best_of(|| codec::encode(&trace));
        let (dec_cost, decoded, dec_same) = best_of(|| codec::decode(&buf));
        let ok = enc_same && dec_same && decoded.as_ref() == Ok(&trace);
        (enc_cost, dec_cost, buf.len() as u64, ok)
    };

    // fault layer: the sweep at the default rates, wall-clocked whole.
    let (sweep_cost, sweep, _) =
        best_of(|| run_fault_sweep(std::slice::from_ref(bench), 42, &DEFAULT_RATES));

    // mix layer: a two-instance self-mix of the kernel on the shared
    // pool under the adaptive policy, doubled offered load. Determinism
    // across reps stands in for the entry's bit-exactness flag.
    let mix_def = MixDef {
        name: "self",
        arrivals: ArrivalProcess::Fixed { stagger_secs: 15.0 },
        seed: 42,
        tenants: (0..2)
            .map(|i| MixTenantDef {
                name: format!("{kernel}#{i}"),
                program: bench.program.clone(),
                cfg: cfg.clone(),
                scheme: Scheme::Base,
            })
            .collect(),
    };
    let mix_policy = MixPolicy::Adaptive(AdaptiveConfig::default());
    let (mix_cost, mix, mix_same) = best_of(|| mix_def.session(2.0).contended(&mix_policy));
    let mix_ok = mix_same && mix.is_ok();
    let mix_requests = mix.as_ref().map_or(0, |r| r.requests);

    let entry = |layer, mode, cost: &PathCost, units, unit, identical| {
        entry(layer, access, mode, kernel, cost, units, unit, identical)
    };
    vec![
        entry("gen", "walk", &walk_cost, events, "events", walk_ok),
        entry(
            "suite",
            "per_event",
            &suite_cost,
            events,
            "events",
            suite_ok,
        ),
        entry(
            "sim",
            "streamed",
            &sb.streamed,
            events,
            "events",
            sb.reports_identical,
        ),
        entry(
            "sim",
            "materialized",
            &sb.materialized,
            events,
            "events",
            sb.reports_identical,
        ),
        entry("codec", "encode", &enc_cost, bytes, "bytes", roundtrip),
        entry("codec", "decode", &dec_cost, bytes, "bytes", roundtrip),
        entry(
            "fault",
            "sweep",
            &sweep_cost,
            sweep.cells.len() as u64,
            "cells",
            sweep.passed(),
        ),
        entry("mix", "shared", &mix_cost, mix_requests, "reqs", mix_ok),
    ]
}

/// Runs the full taxonomy over `benches`.
#[must_use]
pub fn run_bench_all(benches: &[Benchmark]) -> BenchAll {
    let entries: Vec<BenchEntry> = benches.iter().flat_map(bench_kernel_all).collect();
    let identical_all = entries.iter().all(|e| e.identical);
    BenchAll {
        schema: SCHEMA,
        entries,
        identical_all,
    }
}

impl BenchAll {
    /// The `BENCH.json` document (serde here is an API-only stand-in,
    /// so the JSON is assembled by hand).
    #[must_use]
    pub fn to_json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "    {{\"id\": \"{}\", \"layer\": \"{}\", \"access\": \"{}\", \
                     \"mode\": \"{}\", \"kernel\": \"{}\", \"wall_secs\": {:.6}, \
                     \"peak_kib\": {}, \"units\": {}, \"unit\": \"{}\", \
                     \"identical\": {}}}",
                    e.id,
                    e.layer,
                    e.access,
                    e.mode,
                    e.kernel,
                    e.wall_secs,
                    e.peak_kib,
                    e.units,
                    e.unit,
                    e.identical,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"identical_all\": {},\n  \"entries\": [\n{}\n  ]\n}}\n",
            self.schema, self.identical_all, entries,
        )
    }

    /// One compact history line for `dev/bench/history.jsonl`: the wall
    /// and peak maps keyed by entry id, plus the bit-exactness flag.
    #[must_use]
    pub fn history_line(&self) -> String {
        let map = |f: &dyn Fn(&BenchEntry) -> String| {
            self.entries
                .iter()
                .map(|e| format!("\"{}\": {}", e.id, f(e)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"schema\": \"{}\", \"identical_all\": {}, \"wall\": {{{}}}, \"peak\": {{{}}}}}",
            self.schema,
            self.identical_all,
            map(&|e| format!("{:.6}", e.wall_secs)),
            map(&|e| e.peak_kib.to_string()),
        )
    }

    /// Human-readable summary rows, one per entry.
    #[must_use]
    pub fn rows(&self) -> Vec<Vec<String>> {
        self.entries
            .iter()
            .map(|e| {
                let rate = if e.wall_secs > 0.0 {
                    format!("{:.0}", e.units as f64 / e.wall_secs)
                } else {
                    "-".to_string()
                };
                vec![
                    e.id.clone(),
                    format!("{:.3}", e.wall_secs),
                    e.peak_kib.to_string(),
                    format!("{} {}", e.units, e.unit),
                    format!("{rate} {}/s", e.unit),
                    if e.identical { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect()
    }
}

/// One gated entry that slowed past the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct GateFailure {
    pub id: String,
    pub prev_secs: f64,
    pub cur_secs: f64,
}

impl GateFailure {
    /// Slowdown factor relative to the previous run.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.cur_secs / self.prev_secs
    }
}

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.4}s -> {:.4}s ({:.2}x)",
            self.id,
            self.prev_secs,
            self.cur_secs,
            self.ratio()
        )
    }
}

/// Gates `cur` against the previous history line: every id present in
/// both runs whose previous wall time clears [`GATE_MIN_SECS`] must not
/// have slowed past `threshold`. Ids that appear or disappear are not
/// failures — the taxonomy is allowed to grow.
///
/// # Errors
/// The previous line is not valid JSON or lacks the `wall` map.
pub fn gate_against(
    prev_line: &str,
    cur: &BenchAll,
    threshold: f64,
) -> Result<Vec<GateFailure>, String> {
    let prev = Value::parse(prev_line).map_err(|e| format!("bad history line: {e}"))?;
    let wall = prev
        .get("wall")
        .ok_or_else(|| "history line has no \"wall\" map".to_string())?;
    let mut failures = Vec::new();
    for e in &cur.entries {
        let Some(prev_secs) = wall.get(&e.id).and_then(Value::as_f64) else {
            continue;
        };
        if prev_secs < GATE_MIN_SECS {
            continue;
        }
        if e.wall_secs > prev_secs * threshold {
            failures.push(GateFailure {
                id: e.id.clone(),
                prev_secs,
                cur_secs: e.wall_secs,
            });
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> BenchAll {
        let cost = |w: f64, k: u64| PathCost {
            wall_secs: w,
            peak_kib: k,
        };
        BenchAll {
            schema: SCHEMA,
            entries: vec![
                entry(
                    "sim",
                    "seq",
                    "streamed",
                    "171.swim",
                    &cost(0.25, 1024),
                    50_000,
                    "events",
                    true,
                ),
                entry(
                    "codec",
                    "seq",
                    "encode",
                    "171.swim",
                    &cost(0.002, 64),
                    90_000,
                    "bytes",
                    true,
                ),
            ],
            identical_all: true,
        }
    }

    #[test]
    fn json_round_trips_through_the_schema() {
        let b = synthetic();
        let v = Value::parse(&b.to_json()).expect("BENCH.json must parse");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(v.get("identical_all").and_then(Value::as_bool), Some(true));
        let entries = v
            .get("entries")
            .and_then(Value::as_array)
            .expect("entries array");
        assert_eq!(entries.len(), b.entries.len());
        for (got, want) in entries.iter().zip(&b.entries) {
            assert_eq!(
                got.get("id").and_then(Value::as_str),
                Some(want.id.as_str())
            );
            assert_eq!(got.get("layer").and_then(Value::as_str), Some(want.layer));
            assert_eq!(got.get("access").and_then(Value::as_str), Some(want.access));
            assert_eq!(got.get("mode").and_then(Value::as_str), Some(want.mode));
            assert_eq!(got.get("kernel").and_then(Value::as_str), Some(want.kernel));
            assert_eq!(
                got.get("peak_kib").and_then(Value::as_u64),
                Some(want.peak_kib)
            );
            assert_eq!(got.get("units").and_then(Value::as_u64), Some(want.units));
            assert_eq!(got.get("unit").and_then(Value::as_str), Some(want.unit));
            assert_eq!(
                got.get("identical").and_then(Value::as_bool),
                Some(want.identical)
            );
            let wall = got.get("wall_secs").and_then(Value::as_f64).expect("wall");
            assert!((wall - want.wall_secs).abs() < 1e-6);
        }
    }

    #[test]
    fn history_line_parses_and_keys_by_id() {
        let b = synthetic();
        let v = Value::parse(&b.history_line()).expect("history line must parse");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        let wall = v.get("wall").expect("wall map");
        let secs = wall
            .get("sim_seq_streamed__171.swim")
            .and_then(Value::as_f64)
            .expect("entry key");
        assert!((secs - 0.25).abs() < 1e-6);
    }

    #[test]
    fn gate_passes_identity_and_fails_a_slowed_build() {
        let prev = synthetic();
        let line = prev.history_line();
        assert_eq!(gate_against(&line, &prev, GATE_THRESHOLD), Ok(vec![]));

        // Within threshold: 5% slower is tolerated.
        let mut near = prev.clone();
        near.entries[0].wall_secs *= 1.05;
        assert_eq!(gate_against(&line, &near, GATE_THRESHOLD), Ok(vec![]));

        // Past threshold: a deliberately slowed build must fail.
        let mut slow = prev.clone();
        slow.entries[0].wall_secs *= 1.5;
        let failures = gate_against(&line, &slow, GATE_THRESHOLD).expect("line parses");
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].id, "sim_seq_streamed__171.swim");
        assert!((failures[0].ratio() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn gate_exempts_sub_floor_entries_and_unknown_ids() {
        let prev = synthetic();
        let line = prev.history_line();
        // The codec entry sits below GATE_MIN_SECS: even a 100x slowdown
        // is scheduler noise at that scale.
        let mut slow = prev.clone();
        slow.entries[1].wall_secs *= 100.0;
        assert_eq!(gate_against(&line, &slow, GATE_THRESHOLD), Ok(vec![]));

        // A brand-new id has no baseline and cannot fail.
        let mut grown = prev.clone();
        grown.entries.push(entry(
            "gen",
            "rand",
            "walk",
            "183.equake",
            &PathCost {
                wall_secs: 9.0,
                peak_kib: 0,
            },
            1,
            "events",
            true,
        ));
        assert_eq!(gate_against(&line, &grown, GATE_THRESHOLD), Ok(vec![]));
    }

    #[test]
    fn malformed_history_is_an_error_not_a_pass() {
        let b = synthetic();
        assert!(gate_against("not json", &b, GATE_THRESHOLD).is_err());
        assert!(gate_against("{\"schema\": \"x\"}", &b, GATE_THRESHOLD).is_err());
    }
}
