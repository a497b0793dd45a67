//! Shared pipeline session: one trace generation per `(program, cfg)`.
//!
//! Evaluating the paper's seven schemes over a program replays the *same*
//! generated trace seven times; before this type existed every
//! [`run_scheme`](crate::run_scheme) call regenerated it from scratch. A
//! [`Session`] owns the cached base trace (validated once, at cache time)
//! and the per-mode instrumentation outcomes, so repeated scheme runs —
//! including the artifact- and recorder-carrying variants — pay for
//! generation and instrumentation at most once. Schemes consume the
//! cached traces through the [`sdpm_trace::EventSource`] stream interface
//! rather than a fresh materialization.
//!
//! Phase spans (`dap-construction`, the compiler phases) are emitted to a
//! recorder only when the corresponding work actually runs, i.e. on the
//! first scheme that needs it; cache hits are silent.

use crate::insert::{insert_directives, CmMode, InsertOutcome};
use crate::pipeline::{PipelineConfig, Scheme, SchemeArtifacts};
use sdpm_fault::FaultPlan;
use sdpm_ir::Program;
use sdpm_layout::DiskPool;
use sdpm_sim::{DirectiveConfig, Policy, SimError, SimReport};
use sdpm_trace::{generate, Trace};

#[cfg(feature = "obs")]
pub(crate) type Obs<'a> = Option<&'a dyn sdpm_obs::Recorder>;
#[cfg(not(feature = "obs"))]
pub(crate) type Obs<'a> = Option<&'a std::convert::Infallible>;

/// Runs `f` inside a `PhaseStart`/`PhaseEnd` pair when recording.
#[cfg(feature = "obs")]
pub(crate) fn phase<T>(rec: Obs<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(r) = rec else { return f() };
    r.record(&sdpm_obs::Event::PhaseStart { phase: name });
    let out = f();
    r.record(&sdpm_obs::Event::PhaseEnd { phase: name });
    out
}

#[cfg(not(feature = "obs"))]
pub(crate) fn phase<T>(_rec: Obs<'_>, _name: &'static str, f: impl FnOnce() -> T) -> T {
    f()
}

/// One program + pipeline configuration, with the generated trace and
/// instrumentation outcomes cached across scheme runs.
#[derive(Debug)]
pub struct Session<'a> {
    program: &'a Program,
    cfg: &'a PipelineConfig,
    pool: DiskPool,
    base: Option<Trace>,
    /// Cached instrumentation, indexed by [`CmMode`] (`Tpm` = 0).
    cm: [Option<InsertOutcome>; 2],
    generations: usize,
}

impl<'a> Session<'a> {
    #[must_use]
    pub fn new(program: &'a Program, cfg: &'a PipelineConfig) -> Self {
        Session {
            program,
            cfg,
            pool: DiskPool::new(cfg.disks),
            base: None,
            cm: [None, None],
            generations: 0,
        }
    }

    /// How many times this session has generated a trace. Stays at 1 no
    /// matter how many schemes run — a probe for the regression tests.
    #[must_use]
    pub fn generations(&self) -> usize {
        self.generations
    }

    /// The disk pool every scheme in this session simulates against.
    #[must_use]
    pub fn pool(&self) -> DiskPool {
        self.pool
    }

    /// The generated (un-instrumented) trace, produced and validated on
    /// first use.
    pub fn base_trace(&mut self) -> &Trace {
        self.base_trace_obs(None)
    }

    fn base_trace_obs(&mut self, rec: Obs<'_>) -> &Trace {
        if self.base.is_none() {
            let _sp = crate::prof::span("session.generate");
            let trace = phase(rec, "dap-construction", || {
                generate(self.program, self.pool, self.cfg.gen)
            });
            trace.validate().expect("generated trace must be valid");
            self.generations += 1;
            self.base = Some(trace);
        }
        self.base.as_ref().expect("just cached")
    }

    /// The instrumentation outcome for `mode`, computed (from the cached
    /// base trace) and validated on first use.
    pub fn instrumented(&mut self, mode: CmMode) -> &InsertOutcome {
        self.instrumented_obs(mode, None)
    }

    fn instrumented_obs(&mut self, mode: CmMode, rec: Obs<'_>) -> &InsertOutcome {
        let idx = match mode {
            CmMode::Tpm => 0,
            CmMode::Drpm => 1,
        };
        if self.cm[idx].is_none() {
            self.base_trace_obs(rec);
            let _sp = crate::prof::span("session.instrument");
            let base = self.base.as_ref().expect("just cached");
            let out = instrument(base, self.cfg, mode, rec);
            out.trace
                .validate()
                .expect("instrumented trace must be valid");
            self.cm[idx] = Some(out);
        }
        self.cm[idx].as_ref().expect("just cached")
    }

    /// The trace `mode` runs on: instrumented for a CM mode, the base
    /// trace for `None`.
    fn trace_obs(&mut self, mode: Option<CmMode>, rec: Obs<'_>) -> &Trace {
        match mode {
            None => self.base_trace_obs(rec),
            Some(mode) => &self.instrumented_obs(mode, rec).trace,
        }
    }

    /// Runs one scheme against the session's cached traces. The report's
    /// `policy` field carries the scheme label.
    #[must_use]
    pub fn run(&mut self, scheme: Scheme) -> SimReport {
        self.run_obs(scheme, None)
    }

    /// Like [`Session::run`], but keeps the pipeline's intermediate
    /// artifacts so they can be checked after the fact.
    #[must_use]
    pub fn run_with_artifacts(&mut self, scheme: Scheme) -> SchemeArtifacts {
        let report = self.run_obs(scheme, None);
        let (mode, _) = scheme_plan(scheme, self.cfg);
        let insertion = mode.map(|mode| self.instrumented(mode).clone());
        let trace = match &insertion {
            Some(out) => out.trace.clone(),
            None => self.base_trace().clone(),
        };
        SchemeArtifacts {
            scheme,
            trace,
            insertion,
            report,
        }
    }

    /// Like [`Session::run`], but streams pipeline phase spans and the
    /// simulator's event sequence into `rec`. Generation and compiler
    /// phases are emitted only if this run is the first to need them.
    #[cfg(feature = "obs")]
    #[must_use]
    pub fn run_with_recorder(&mut self, scheme: Scheme, rec: &dyn sdpm_obs::Recorder) -> SimReport {
        self.run_obs(scheme, Some(rec))
    }

    /// Runs one scheme with an optional fault-injection plan, returning
    /// typed errors instead of panicking on malformed inputs. With
    /// `faults: None` the report is bit-identical to [`Session::run`];
    /// with a plan, injected faults are tallied in
    /// [`sdpm_sim::SimReport::faults`] and the run still completes
    /// (graceful degradation, never a panic).
    pub fn run_with_faults(
        &mut self,
        scheme: Scheme,
        faults: Option<&FaultPlan>,
    ) -> Result<SimReport, SimError> {
        let cfg = self.cfg;
        let pool = self.pool;
        let (mode, policy) = scheme_plan(scheme, cfg);
        let t = self.trace_obs(mode, None);
        let mut report =
            sdpm_sim::try_simulate_source_faulted(t, &cfg.params, pool, &policy, faults)?;
        report.policy = scheme.label().to_string();
        Ok(report)
    }

    /// Simulates `scheme` on the cached trace it runs on. Clones nothing:
    /// only [`Session::run_with_artifacts`] copies traces out.
    fn run_obs(&mut self, scheme: Scheme, rec: Obs<'_>) -> SimReport {
        let cfg = self.cfg;
        let pool = self.pool;
        let (mode, policy) = scheme_plan(scheme, cfg);
        let t = self.trace_obs(mode, rec);
        let mut report = sim(t, cfg, pool, &policy, rec);
        report.policy = scheme.label().to_string();
        report
    }
}

/// The simulator policy `scheme` runs under, and the instrumentation
/// mode of the trace it runs on (`None`: the base trace).
fn scheme_plan(scheme: Scheme, cfg: &PipelineConfig) -> (Option<CmMode>, Policy) {
    let directive = Policy::Directive(DirectiveConfig {
        overhead_secs: cfg.overhead_secs,
    });
    match scheme {
        Scheme::Base => (None, Policy::Base),
        Scheme::Tpm => (None, Policy::Tpm(cfg.tpm)),
        Scheme::ITpm => (None, Policy::IdealTpm),
        Scheme::Drpm => (None, Policy::Drpm(cfg.drpm)),
        Scheme::IDrpm => (None, Policy::IdealDrpm),
        Scheme::CmTpm => (Some(CmMode::Tpm), directive),
        Scheme::CmDrpm => (Some(CmMode::Drpm), directive),
    }
}

/// Simulation under a `simulation` phase span, streaming into the
/// recorder when one is present. The trace was validated when the
/// session cached it, so it enters the simulator through the stream
/// interface ([`sdpm_sim::try_simulate_source_faulted`]) without a
/// second validation pass.
fn sim(
    trace: &Trace,
    cfg: &PipelineConfig,
    pool: DiskPool,
    policy: &Policy,
    rec: Obs<'_>,
) -> SimReport {
    let _sp = crate::prof::span("session.simulate");
    #[cfg(feature = "obs")]
    if let Some(r) = rec {
        return phase(rec, "simulation", || {
            sdpm_sim::simulate_source_with_recorder(trace, &cfg.params, pool, policy, r)
        });
    }
    let _ = rec;
    sdpm_sim::try_simulate_source_faulted(trace, &cfg.params, pool, policy, None)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// `insert_directives`, routed through the recording variant when a
/// recorder is present (it emits the two compiler phase spans itself).
fn instrument(trace: &Trace, cfg: &PipelineConfig, mode: CmMode, rec: Obs<'_>) -> InsertOutcome {
    #[cfg(feature = "obs")]
    if let Some(r) = rec {
        return crate::insert::insert_directives_with_recorder(
            trace,
            &cfg.params,
            &cfg.noise,
            mode,
            cfg.overhead_secs,
            r,
        );
    }
    let _ = rec;
    insert_directives(trace, &cfg.params, &cfg.noise, mode, cfg.overhead_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_scheme;
    use sdpm_workloads::synth::checkpoint_loop;

    #[test]
    fn seven_schemes_share_one_generation() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        assert_eq!(session.generations(), 0);
        for scheme in Scheme::all() {
            let _ = session.run(scheme);
        }
        assert_eq!(
            session.generations(),
            1,
            "every scheme must reuse the cached trace"
        );
    }

    #[test]
    fn session_runs_match_standalone_runs_bitwise() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        for scheme in Scheme::all() {
            let shared = session.run(scheme);
            let standalone = run_scheme(&p, scheme, &cfg);
            assert_eq!(
                shared.total_energy_j().to_bits(),
                standalone.total_energy_j().to_bits(),
                "{}: energy drifted",
                scheme.label()
            );
            assert_eq!(
                shared.exec_secs.to_bits(),
                standalone.exec_secs.to_bits(),
                "{}: exec time drifted",
                scheme.label()
            );
        }
    }

    #[test]
    fn run_with_faults_disabled_is_bit_exact_with_run() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        for scheme in Scheme::all() {
            let clean = session.run(scheme);
            let faultless = session
                .run_with_faults(scheme, None)
                .expect("fault-free run succeeds");
            assert_eq!(clean, faultless, "{}: reports differ", scheme.label());
            assert_eq!(
                clean.total_energy_j().to_bits(),
                faultless.total_energy_j().to_bits(),
                "{}: energy drifted",
                scheme.label()
            );
            assert_eq!(faultless.faults.total(), 0, "{}", scheme.label());
        }
    }

    #[test]
    fn run_with_faults_is_deterministic() {
        use sdpm_fault::{FaultConfig, FaultPlan};
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        let plan = FaultPlan::new(FaultConfig::uniform(7, 0.2));
        for scheme in Scheme::all() {
            let a = session
                .run_with_faults(scheme, Some(&plan))
                .expect("faulted run degrades gracefully");
            let b = session
                .run_with_faults(scheme, Some(&plan))
                .expect("faulted run degrades gracefully");
            assert_eq!(a, b, "{}: fault runs must be deterministic", scheme.label());
        }
    }

    #[test]
    fn instrumentation_is_cached_per_mode() {
        let p = checkpoint_loop(2, 2, 8.0);
        let cfg = PipelineConfig::default();
        let mut session = Session::new(&p, &cfg);
        let first = session.instrumented(CmMode::Drpm).clone();
        let again = session.instrumented(CmMode::Drpm);
        assert_eq!(&first, again);
        assert_eq!(session.generations(), 1);
        // The other mode reuses the same base trace.
        let _ = session.instrumented(CmMode::Tpm);
        assert_eq!(session.generations(), 1);
    }
}
