//! Iteration-to-time conversion with a measurement-noise model.
//!
//! Section 3: "cycle estimates for the loop iterations are obtained from
//! the actual measurement of the program execution by using a
//! high-quality timer called gethrtime". A measurement of a real run is
//! close to, but not exactly, what the simulated run will experience —
//! the run measured is not the run simulated, the timer has overhead,
//! iterations vary. We model the compiler's view as the true
//! per-iteration time scaled by a per-nest factor `1 + eps`, with `eps`
//! drawn uniformly from `[-spread, +spread]` out of a seeded generator.
//! This is the *only* divergence between the compiler-managed schemes and
//! the oracles, and therefore the sole source of the paper's Table 3
//! mispredicted speeds.
//!
//! The compiler's timeline is also **compute-only**: measured cycles per
//! iteration do not see the simulator's device-level service times. This
//! systematically *underestimates* gap lengths, which biases the
//! compiler toward shallower (safer) RPM levels and earlier
//! pre-activations — conservative in exactly the way a real system would
//! be.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdpm_ir::Program;
use serde::{Deserialize, Serialize};

/// Noise applied to the compiler's per-nest cycle estimates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Half-width of the uniform multiplicative *per-nest* error: the
    /// estimated per-iteration time of a nest is
    /// `true * (1 + U(-spread, +spread))` — the systematic part of a
    /// one-shot `gethrtime` measurement.
    pub spread: f64,
    /// Half-width of an additional *per-idle-gap* multiplicative error on
    /// estimated gap lengths. Models everything that differs between the
    /// measured run and the simulated run at sub-nest granularity (cache
    /// state, iteration variance); this is the knob the Table 3
    /// misprediction rates calibrate against.
    pub gap_jitter: f64,
    /// RNG seed; a fixed seed makes every figure bit-reproducible.
    pub seed: u64,
}

impl NoiseModel {
    /// No noise: estimates equal the truth.
    #[must_use]
    pub fn exact() -> Self {
        NoiseModel {
            spread: 0.0,
            gap_jitter: 0.0,
            seed: 0,
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            spread: 0.05,
            gap_jitter: 0.10,
            seed: 0x5DD5_1234_9ABC_DEF0,
        }
    }
}

/// The compiler's view of per-iteration time, one estimate per nest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleEstimator {
    /// Estimated seconds per iteration, per nest.
    per_nest_secs: Vec<f64>,
}

impl CycleEstimator {
    /// Exact estimates (the truth): used to isolate insertion logic from
    /// estimation error in tests and ablations.
    #[must_use]
    pub fn exact(program: &Program) -> Self {
        CycleEstimator {
            per_nest_secs: (0..program.nests.len())
                .map(|n| program.iter_secs(n))
                .collect(),
        }
    }

    /// Noisy estimates per [`NoiseModel`].
    #[must_use]
    pub fn noisy(program: &Program, noise: &NoiseModel) -> Self {
        CycleEstimator::exact(program).with_noise(program.nests.len(), noise)
    }

    /// Estimates modeled on the paper's `gethrtime` measurement of a real
    /// run: per-iteration **wall** time, i.e. the nest's compute time plus
    /// the service time of the I/O it issues, divided by its iteration
    /// count. This is what makes the compiler's gap estimates track the
    /// simulator's actual timeline closely (the remaining error is the
    /// noise model).
    #[must_use]
    pub fn measured(
        program: &Program,
        trace: &sdpm_trace::Trace,
        params: &sdpm_disk::DiskParams,
    ) -> Self {
        let ladder = sdpm_disk::RpmLadder::new(params);
        let max = ladder.max_level();
        let mut service = vec![0.0f64; program.nests.len()];
        for r in trace.requests() {
            service[r.nest] += sdpm_disk::service_time_secs(
                params,
                &ladder,
                max,
                sdpm_disk::ServiceRequest {
                    size_bytes: r.size_bytes,
                    sequential: r.sequential,
                },
            );
        }
        let per_nest_secs = (0..program.nests.len())
            .map(|n| {
                let iters = program.nests[n].iter_count();
                if iters == 0 {
                    return program.iter_secs(n);
                }
                program.iter_secs(n) + service[n] / iters as f64
            })
            .collect();
        CycleEstimator { per_nest_secs }
    }

    /// Applies per-nest multiplicative noise to these estimates.
    #[must_use]
    pub fn with_noise(mut self, nests: usize, noise: &NoiseModel) -> Self {
        debug_assert_eq!(nests, self.per_nest_secs.len());
        let mut rng = StdRng::seed_from_u64(noise.seed);
        for s in &mut self.per_nest_secs {
            let eps: f64 = if noise.spread > 0.0 {
                rng.random_range(-noise.spread..noise.spread)
            } else {
                0.0
            };
            *s *= (1.0 + eps).max(0.05);
        }
        self
    }

    /// Estimated seconds per iteration of `nest`.
    #[must_use]
    pub fn iter_secs(&self, nest: usize) -> f64 {
        self.per_nest_secs[nest]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpm_ir::{LoopDim, LoopNest};

    fn program() -> Program {
        let nest = |label: &str, count: u64, cycles: f64| LoopNest {
            label: label.into(),
            loops: vec![LoopDim::simple(count)],
            stmts: vec![],
            cycles_per_iter: cycles,
        };
        Program {
            name: "p".into(),
            arrays: vec![],
            nests: vec![nest("a", 100, 750.0), nest("b", 50, 1500.0)],
            clock_hz: 750.0e6,
        }
    }

    #[test]
    fn exact_estimator_matches_program() {
        let p = program();
        let e = CycleEstimator::exact(&p);
        assert!((e.iter_secs(0) - 1e-6).abs() < 1e-18);
        assert!((e.iter_secs(1) - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let p = program();
        let n = NoiseModel {
            spread: 0.2,
            gap_jitter: 0.0,
            seed: 42,
        };
        let a = CycleEstimator::noisy(&p, &n);
        let b = CycleEstimator::noisy(&p, &n);
        assert_eq!(a, b);
        let c = CycleEstimator::noisy(
            &p,
            &NoiseModel {
                spread: 0.2,
                gap_jitter: 0.0,
                seed: 43,
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn noise_stays_within_spread() {
        let p = program();
        for seed in 0..50 {
            let e = CycleEstimator::noisy(
                &p,
                &NoiseModel {
                    spread: 0.3,
                    gap_jitter: 0.0,
                    seed,
                },
            );
            for n in 0..2 {
                let ratio = e.iter_secs(n) / p.iter_secs(n);
                assert!(ratio > 0.7 - 1e-12 && ratio < 1.3 + 1e-12, "ratio {ratio}");
            }
        }
    }

    #[test]
    fn zero_spread_noisy_equals_exact() {
        let p = program();
        let e = CycleEstimator::noisy(&p, &NoiseModel::exact());
        assert_eq!(e, CycleEstimator::exact(&p));
    }
}
