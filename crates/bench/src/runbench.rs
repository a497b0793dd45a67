//! `repro bench --runlen`: the run-compression timing harness.
//!
//! Runs the full seven-scheme suite over every Table 2 kernel through
//! the two trace representations — the per-event path
//! ([`Session::run`]: per-event trace + per-event engine loop) and the
//! run-compressed fast path ([`Session::run_compressed`]: run-compressed
//! trace + O(#runs) engine loop) — and reports per-kernel suite wall
//! time and peak RSS for both, plus generator-only timings (the analytic
//! generator against the walk oracle), as the
//! machine-readable `BENCH_runlen.json` record. Every pair of reports is
//! cross-checked bitwise; `reports_identical` hard-fails the CI job when
//! false.
//!
//! Peak memory is measured per phase through the counting allocator's
//! heap watermark ([`crate::streambench::measure_phase_peak`]), so every
//! kernel and path reads its own peak — `VmHWM`, the old source, is a
//! process-lifetime high-water mark that reported the first kernel's
//! maximum for every kernel after it. Without the allocator (the
//! `alloc-profile` feature off) the harness falls back to `VmHWM` and
//! that staleness caveat returns.

use crate::config_for;
use crate::streambench::{measure_phase_peak, PathCost};
use sdpm_core::{Scheme, Session};
use sdpm_sim::SimReport;
use sdpm_trace::{generate_runs, generate_walk};
use sdpm_workloads::Benchmark;
use std::time::Instant;

/// Suite repetitions per path; the reported wall time is the minimum.
const REPS: usize = 3;

/// One kernel's measured costs.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCost {
    pub bench: &'static str,
    /// Seven-scheme suite through [`Session::run`].
    pub per_event: PathCost,
    /// Seven-scheme suite through [`Session::run_compressed`].
    pub run_compressed: PathCost,
    /// Walk oracle alone ([`generate_walk`]), best-of-`REPS` seconds.
    pub gen_walk_secs: f64,
    /// Analytic generator alone ([`generate_runs`]), best-of-`REPS`.
    pub gen_analytic_secs: f64,
    /// Per-event trace length.
    pub events: u64,
    /// Run-compressed record count for the same trace.
    pub records: u64,
    /// All seven scheme reports matched bitwise across the two paths.
    pub identical: bool,
}

impl KernelCost {
    /// End-to-end suite speedup of the fast path.
    #[must_use]
    pub fn suite_speedup(&self) -> f64 {
        self.per_event.wall_secs / self.run_compressed.wall_secs
    }

    /// Generator-only speedup of the analytic path.
    #[must_use]
    pub fn gen_speedup(&self) -> f64 {
        self.gen_walk_secs / self.gen_analytic_secs
    }
}

/// The full harness record: every Table 2 kernel, seven schemes each.
#[derive(Debug, Clone, PartialEq)]
pub struct RunlenBench {
    pub schemes: Vec<&'static str>,
    pub kernels: Vec<KernelCost>,
    /// Conjunction of every kernel's `identical` flag.
    pub reports_identical: bool,
}

fn identical(a: &SimReport, b: &SimReport) -> bool {
    a.exec_secs.to_bits() == b.exec_secs.to_bits()
        && a.total_energy_j().to_bits() == b.total_energy_j().to_bits()
        && a == b
}

/// Times both paths for one kernel. Repetitions are interleaved so
/// system-load drift hits both paths equally; the run-compressed suite
/// runs first within each repetition (see the module docs for the RSS
/// ordering argument). Each suite call builds a fresh [`Session`], so
/// the timing covers generation, instrumentation, and simulation — the
/// end-to-end cost a caller actually pays.
#[must_use]
pub fn run_kernel_bench(bench: &Benchmark) -> KernelCost {
    let cfg = config_for(bench);
    let schemes = Scheme::all();

    let suite_fast = || -> Vec<SimReport> {
        let mut s = Session::new(&bench.program, &cfg);
        schemes.iter().map(|&sch| s.run_compressed(sch)).collect()
    };
    let suite_slow = || -> Vec<SimReport> {
        let mut s = Session::new(&bench.program, &cfg);
        schemes.iter().map(|&sch| s.run(sch)).collect()
    };

    let mut best = [f64::INFINITY; 2];
    let mut peak = [0u64; 2];
    let mut fast_reports = Vec::new();
    let mut slow_reports = Vec::new();
    for rep in 0..REPS {
        let t0 = Instant::now();
        if rep == 0 {
            let (r, kib) = measure_phase_peak(suite_fast);
            fast_reports = r;
            peak[0] = kib;
        } else {
            fast_reports = suite_fast();
        }
        best[0] = best[0].min(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        if rep == 0 {
            let (r, kib) = measure_phase_peak(suite_slow);
            slow_reports = r;
            peak[1] = kib;
        } else {
            slow_reports = suite_slow();
        }
        best[1] = best[1].min(t1.elapsed().as_secs_f64());
    }

    let pool = sdpm_layout::DiskPool::new(cfg.disks);
    let mut gen_walk = f64::INFINITY;
    let mut gen_analytic = f64::INFINITY;
    let mut events = 0u64;
    let mut records = 0u64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let rt = generate_runs(&bench.program, pool, cfg.gen);
        gen_analytic = gen_analytic.min(t0.elapsed().as_secs_f64());
        records = rt.events.len() as u64;
        let t1 = Instant::now();
        let tr = generate_walk(&bench.program, pool, cfg.gen);
        gen_walk = gen_walk.min(t1.elapsed().as_secs_f64());
        events = tr.events.len() as u64;
        debug_assert_eq!(rt.event_len(), events, "lowered lengths must agree");
    }

    let ok = fast_reports.len() == slow_reports.len()
        && fast_reports
            .iter()
            .zip(&slow_reports)
            .all(|(f, s)| identical(f, s));

    KernelCost {
        bench: bench.name,
        per_event: PathCost {
            wall_secs: best[1],
            peak_kib: peak[1],
        },
        run_compressed: PathCost {
            wall_secs: best[0],
            peak_kib: peak[0],
        },
        gen_walk_secs: gen_walk,
        gen_analytic_secs: gen_analytic,
        events,
        records,
        identical: ok,
    }
}

/// Runs the harness over `benches` (all six Table 2 kernels in the CLI).
#[must_use]
pub fn run_runlen_bench(benches: &[Benchmark]) -> RunlenBench {
    let kernels: Vec<KernelCost> = benches.iter().map(run_kernel_bench).collect();
    let reports_identical = kernels.iter().all(|k| k.identical);
    RunlenBench {
        schemes: Scheme::all().iter().map(|s| s.label()).collect(),
        kernels,
        reports_identical,
    }
}

impl RunlenBench {
    /// The `BENCH_runlen.json` document (serde here is an API-only
    /// stand-in, so the JSON is assembled by hand).
    #[must_use]
    pub fn to_json(&self) -> String {
        let path = |c: &PathCost| {
            format!(
                "{{\"wall_secs\": {:.6}, \"peak_kib\": {}}}",
                c.wall_secs, c.peak_kib
            )
        };
        let schemes = self
            .schemes
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                format!(
                    "    {{\"bench\": \"{}\", \"per_event\": {}, \"run_compressed\": {}, \
                     \"suite_speedup\": {:.2}, \"gen_walk_secs\": {:.6}, \
                     \"gen_analytic_secs\": {:.6}, \"gen_speedup\": {:.2}, \
                     \"events\": {}, \"records\": {}, \"identical\": {}}}",
                    k.bench,
                    path(&k.per_event),
                    path(&k.run_compressed),
                    k.suite_speedup(),
                    k.gen_walk_secs,
                    k.gen_analytic_secs,
                    k.gen_speedup(),
                    k.events,
                    k.records,
                    k.identical,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"schemes\": [{}],\n  \"kernels\": [\n{}\n  ],\n  \
             \"reports_identical\": {}\n}}\n",
            schemes, kernels, self.reports_identical,
        )
    }

    /// Human-readable summary table rows, one per kernel.
    #[must_use]
    pub fn rows(&self) -> Vec<Vec<String>> {
        self.kernels
            .iter()
            .map(|k| {
                vec![
                    k.bench.to_string(),
                    format!("{:.3}", k.per_event.wall_secs),
                    format!("{:.3}", k.run_compressed.wall_secs),
                    format!("{:.1}x", k.suite_speedup()),
                    format!("{:.1}x", k.gen_speedup()),
                    format!("{}", k.events),
                    format!("{}", k.records),
                    if k.identical { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runlen_bench_cross_checks_one_kernel() {
        let bench = sdpm_workloads::swim();
        let k = run_kernel_bench(&bench);
        assert!(k.identical, "paths must agree bitwise");
        assert!(k.per_event.wall_secs > 0.0 && k.run_compressed.wall_secs > 0.0);
        assert!(
            k.records < k.events,
            "compression must shrink the record count: {} !< {}",
            k.records,
            k.events
        );
        let r = RunlenBench {
            schemes: Scheme::all().iter().map(|s| s.label()).collect(),
            kernels: vec![k],
            reports_identical: true,
        };
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"171.swim\""));
        assert!(json.contains("\"reports_identical\": true"));
    }
}
