//! `replay`: replay and re-check stored plans.
//!
//! Set-up generates each kernel's base trace, its run-compressed form
//! and the CMTPM/CMDRPM-instrumented traces (both forms), and encodes
//! all six with the trace codec; it also builds the prover's program
//! variants and the seeded fault plans. The timed pass reads only those
//! stored inputs: it decodes the traces, runs all seven schemes both
//! per event and in run form, checks the CM runs with the directive
//! verifier, proves every variant × scheme, and runs every scheme under
//! each fault plan. No trace is generated in the timed pass.

use sdpm_bench::config_for;
use sdpm_bench::prove::prove_variants;
use sdpm_core::{CmMode, InsertOutcome, PipelineConfig, Scheme, Session};
use sdpm_fault::{FaultConfig, FaultPlan};
use sdpm_ir::Program;
use sdpm_layout::DiskPool;
use sdpm_obs::prof;
use sdpm_sim::{
    try_simulate, try_simulate_runs, try_simulate_source_faulted, DirectiveConfig, Policy,
    SimReport,
};
use sdpm_trace::codec::{decode, decode_runs, encode, encode_runs};
use sdpm_trace::run::compress;
use sdpm_trace::{RunTrace, Trace};
use sdpm_verify::symbolic::{prove_scheme, ProverConfig, Verdict};
use sdpm_verify::{verify_run, PlanRef, Severity};

use crate::cells::Outcome;
use crate::layers::timed;
use crate::{geomean, guarded, mix64, par_map, Pass};

/// Fault rates of the seeded plans (a light and a heavy column, as in
/// `repro faultsim`).
pub const FAULT_RATES: [f64; 2] = [0.01, 0.05];

/// One kernel's stored traces and plans.
pub struct Kernel {
    pub name: &'static str,
    pub cfg: PipelineConfig,
    /// Encoded traces: base, CMTPM, CMDRPM (per event).
    pub events: [Vec<u8>; 3],
    /// Encoded run-compressed forms of the same three traces.
    pub runs: [Vec<u8>; 3],
    /// The inserter's plans for CMTPM and CMDRPM (the verifier's input).
    pub plans: [InsertOutcome; 2],
    /// The prover's program variants: original, LF, TL, PDC.
    pub variants: Vec<(&'static str, Program)>,
    pub prover: ProverConfig,
}

pub struct Inputs {
    pub kernels: Vec<Kernel>,
    pub faults: Vec<(f64, FaultPlan)>,
}

fn store(bench: &sdpm_workloads::Benchmark) -> Kernel {
    let cfg = config_for(bench);
    let mut session = Session::new(&bench.program, &cfg);
    let base = session.base_trace().clone();
    let plans = [
        session.instrumented(CmMode::Tpm).clone(),
        session.instrumented(CmMode::Drpm).clone(),
    ];
    let traces = [&base, &plans[0].trace, &plans[1].trace];
    let events = traces.map(encode);
    let runs = traces.map(|t| encode_runs(&compress(t)).expect("generated traces encode"));
    Kernel {
        name: bench.name,
        prover: ProverConfig::from_pipeline(&cfg),
        variants: prove_variants(bench),
        cfg,
        events,
        runs,
        plans,
    }
}

#[must_use]
pub fn setup(variant: u64) -> Inputs {
    let kernels = crate::kernels(variant);
    let seed = if variant == 0 { 42 } else { mix64(variant) };
    Inputs {
        kernels: par_map(&kernels, store),
        faults: FAULT_RATES
            .iter()
            .map(|&r| (r, FaultPlan::new(FaultConfig::uniform(seed, r))))
            .collect(),
    }
}

/// The simulator policy of a scheme, as `core::Session` builds it.
#[must_use]
pub fn policy_for(scheme: Scheme, cfg: &PipelineConfig) -> Policy {
    match scheme {
        Scheme::Base => Policy::Base,
        Scheme::Tpm => Policy::Tpm(cfg.tpm),
        Scheme::ITpm => Policy::IdealTpm,
        Scheme::Drpm => Policy::Drpm(cfg.drpm),
        Scheme::IDrpm => Policy::IdealDrpm,
        Scheme::CmTpm | Scheme::CmDrpm => Policy::Directive(DirectiveConfig {
            overhead_secs: cfg.overhead_secs,
        }),
    }
}

/// Which stored trace a scheme runs on: 0 base, 1 CMTPM, 2 CMDRPM.
fn trace_index(scheme: Scheme) -> usize {
    match scheme {
        Scheme::CmTpm => 1,
        Scheme::CmDrpm => 2,
        _ => 0,
    }
}

fn verdict_line(v: &Verdict) -> String {
    let (status, obligations) = match v {
        Verdict::Proved { obligations, .. } => ("proved", obligations),
        Verdict::Refuted { obligations, .. } => ("refuted", obligations),
        Verdict::Unknown { obligations, .. } => ("unknown", obligations),
    };
    let obs: Vec<String> = obligations
        .iter()
        .map(|o| format!("{}:{}", o.code.as_str(), u8::from(o.proved())))
        .collect();
    format!("{status} {}", obs.join(","))
}

/// Per-kernel results: cells, requests simulated, and the CMDRPM
/// normalized energy and time.
struct KernelPass {
    cells: Vec<(String, Outcome)>,
    reqs: u64,
    cmdrpm: Option<(f64, f64)>,
}

fn sim_outcome(r: Result<SimReport, sdpm_sim::SimError>) -> Outcome {
    match r {
        Ok(r) => Outcome::Sim(Box::new(r)),
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

fn replay_kernel(k: &Kernel, faults: &[(f64, FaultPlan)]) -> KernelPass {
    let mut reqs = 0;
    let mut cmdrpm = None;
    let cells = guarded(&format!("replay/{}", k.name), || {
        let cfg = &k.cfg;
        let pool = DiskPool::new(cfg.disks);
        let mut cells = Vec::new();
        let events: Vec<Result<Trace, _>> = k
            .events
            .iter()
            .map(|b| timed("trace.codec", || decode(b)))
            .collect();
        let runs: Vec<Result<RunTrace, _>> = k
            .runs
            .iter()
            .map(|b| timed("trace.codec", || decode_runs(b)))
            .collect();
        let mut base = None;
        for scheme in Scheme::all() {
            let id = format!("replay/{}/{}", k.name, scheme.label());
            let ti = trace_index(scheme);
            let (Ok(trace), Ok(run_trace)) = (&events[ti], &runs[ti]) else {
                cells.push((id, Outcome::Failed("stored trace does not decode".into())));
                continue;
            };
            let policy = policy_for(scheme, cfg);
            let ev = timed("sim.engine", || {
                try_simulate(trace, &cfg.params, pool, &policy)
            });
            let rn = timed("sim.runs", || {
                try_simulate_runs(run_trace, &cfg.params, pool, &policy)
            });
            if let (Ok(e), Ok(r)) = (&ev, &rn) {
                reqs += e.requests + r.requests;
                if scheme == Scheme::Base {
                    base = Some(e.clone());
                }
                if let (Scheme::CmDrpm, Some(b)) = (scheme, &base) {
                    cmdrpm = Some((e.normalized_energy(b), e.normalized_time(b)));
                }
            }
            let run_cell = match (&ev, rn) {
                (Ok(e), Ok(r)) if *e != r => {
                    Outcome::Failed("run form diverges from per-event".into())
                }
                (_, r) => sim_outcome(r),
            };
            if ti > 0 {
                let plan = &k.plans[ti - 1];
                let diags = match &ev {
                    Ok(e) => timed("verify.directive", || {
                        verify_run(
                            trace,
                            &cfg.params,
                            cfg.overhead_secs,
                            Some(PlanRef::of(plan)),
                            Some(e),
                        )
                    }),
                    Err(_) => Vec::new(),
                };
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .count();
                let mut codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
                codes.sort_unstable();
                cells.push((
                    format!("{id}/verify"),
                    Outcome::Text(format!(
                        "diagnostics={} errors={errors} codes={}",
                        diags.len(),
                        codes.join(",")
                    )),
                ));
            }
            for (rate, plan) in faults {
                let r = timed("sim.fault", || {
                    try_simulate_source_faulted(trace, &cfg.params, pool, &policy, Some(plan))
                });
                if let Ok(r) = &r {
                    reqs += r.requests;
                    prof::add("fault.injected", r.faults.total());
                    prof::add("fault.degraded", u64::from(r.faults.total() > 0));
                }
                cells.push((format!("{id}/fault{rate}"), sim_outcome(r)));
            }
            cells.push((format!("{id}/event"), sim_outcome(ev)));
            cells.push((format!("{id}/runs"), run_cell));
        }
        for (variant, program) in &k.variants {
            for scheme in Scheme::all() {
                let v = timed("verify.symbolic", || {
                    prove_scheme(program, scheme, &k.prover)
                });
                prof::add(
                    "prove.unknown",
                    u64::from(matches!(v, Verdict::Unknown { .. })),
                );
                cells.push((
                    format!("prove/{}/{variant}/{}", k.name, scheme.label()),
                    Outcome::Text(verdict_line(&v)),
                ));
            }
        }
        cells
    });
    KernelPass {
        cells,
        reqs,
        cmdrpm,
    }
}

/// One `replay` pass over every stored kernel.
#[must_use]
pub fn pass(inp: &Inputs) -> Pass {
    let results = par_map(&inp.kernels, |k| replay_kernel(k, &inp.faults));
    let energy: Vec<f64> = results
        .iter()
        .filter_map(|r| r.cmdrpm)
        .map(|c| c.0)
        .collect();
    let time: Vec<f64> = results
        .iter()
        .filter_map(|r| r.cmdrpm)
        .map(|c| c.1)
        .collect();
    Pass {
        sim_reqs: results.iter().map(|r| r.reqs).sum(),
        outcomes: results.into_iter().flat_map(|r| r.cells).collect(),
        energy_norm: geomean(&energy),
        slowdown: geomean(&time),
        model_err_pct: None,
    }
}
