//! The repository benchmark: three workloads (`paper`, `mix`,
//! `replay`) measured end to end with tracing off, and layer by layer in
//! a separate traced run. See `README.md` next to this package for the
//! metrics, the workloads and how to run them.
//!
//! The benchmark drives the reproduction only through the public
//! functions of its layers (`trace`, `core`, `xform`, `sim`, `verify`
//! and the `sdpm-bench` experiments). Every call it makes into a
//! layer sits inside a [`layers::timed`] span, so one traced pass splits
//! the wall time by layer without instrumenting the program itself.

#![forbid(unsafe_code)]

pub mod cells;
pub mod layers;
pub mod mix;
pub mod paper;
pub mod replay;

use cells::Outcome;
use sdpm_workloads::{all_benchmarks, Benchmark};

/// Seeds are reduced to one of this many recorded input variants; the
/// reference file holds every simulated statistic of every variant.
pub const VARIANTS: u64 = 8;

/// The input variant a workload seed selects. Variant 0 (the default
/// seed) keeps every calibrated seed, so it reproduces `repro all` and
/// `repro mix` exactly.
#[must_use]
pub fn variant_of(seed: u64) -> u64 {
    seed % VARIANTS
}

/// SplitMix64's finaliser: a fixed, platform-independent seed scrambler.
#[must_use]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The six SPECfp kernels of Table 2. Variant 0 keeps each kernel's
/// calibrated `noise_seed`; any other variant scrambles it, which moves
/// the compiler's cycle-estimation noise and so the directive schedule.
#[must_use]
pub fn kernels(variant: u64) -> Vec<Benchmark> {
    let mut benches = all_benchmarks();
    if variant != 0 {
        for b in &mut benches {
            b.noise_seed = mix64(b.noise_seed ^ mix64(variant));
        }
    }
    benches
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Mix,
    Replay,
}

impl Workload {
    /// Every workload, in README order.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Mix, Workload::Replay];

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Mix => "mix",
            Workload::Replay => "replay",
        }
    }
}

/// A workload's prepared inputs: everything the timed pass reads.
pub enum Inputs {
    Paper(paper::Inputs),
    Mix(mix::Inputs),
    Replay(replay::Inputs),
}

/// Builds the inputs of `workload` for input `variant` (the set-up that
/// `setup_s` measures).
#[must_use]
pub fn setup(workload: Workload, variant: u64) -> Inputs {
    match workload {
        Workload::Paper => Inputs::Paper(paper::setup(variant)),
        Workload::Mix => Inputs::Mix(mix::setup(variant)),
        Workload::Replay => Inputs::Replay(replay::setup(variant)),
    }
}

/// What one timed pass produced.
pub struct Pass {
    /// Every cell, keyed by a stable id, in a deterministic order.
    pub outcomes: Vec<(String, Outcome)>,
    /// Simulated I/O requests completed by the reports this pass received.
    pub sim_reqs: u64,
    /// Geometric mean of managed over Base energy on the workload's cells.
    pub energy_norm: f64,
    /// Geometric mean of managed over Base time (or makespan), same cells.
    pub slowdown: f64,
    /// Worst relative error against the paper's Tables 2 and 3 (`paper`).
    pub model_err_pct: Option<f64>,
}

/// One timed pass over prepared inputs.
#[must_use]
pub fn run_pass(inputs: &Inputs) -> Pass {
    match inputs {
        Inputs::Paper(i) => paper::pass(i),
        Inputs::Mix(i) => mix::pass(i),
        Inputs::Replay(i) => replay::pass(i),
    }
}

/// `sdpm_bench::parallel_map` (at most `available_parallelism` worker
/// threads) with each item inside a `bench.item` span, so the traced run
/// sees the work the worker threads do.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let _dispatch = sdpm_obs::prof::span("bench.dispatch");
    sdpm_bench::parallel_map(items, |item| {
        let _item = sdpm_obs::prof::span("bench.item");
        f(item)
    })
}

/// Runs `f`, turning a panic into one failed cell named `id`: a panic
/// in one cell must not hide the others.
pub fn guarded(id: &str, f: impl FnOnce() -> Vec<(String, Outcome)>) -> Vec<(String, Outcome)> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(cells) => cells,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                .unwrap_or_else(|| "panic".to_string());
            vec![(id.to_string(), Outcome::Failed(format!("panicked: {msg}")))]
        }
    }
}

/// Geometric mean; 0 for an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
