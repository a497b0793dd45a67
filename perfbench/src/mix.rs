//! `mix`: the `repro mix` contention/energy frontier.
//!
//! Every named mix (pair, quad, checkpoint, guard) × load 1, 2, 4 ×
//! Base/TPM/ADAPT/CM. Each cell builds a fresh `MixSession`, as
//! `sdpm_bench::mixbench::run_frontier` does, and runs the steps of
//! `MixSession::contended` as separate layer calls: the tenants'
//! streams (`core.scenario`, which generates and instruments every
//! tenant trace), the `(time, tenant, seq)` merge (`trace.mix`) and the
//! shared-pool engine (`sim.mix`).

use sdpm_bench::mixbench::{all_mixes, default_policies, MixDef, DEFAULT_LOADS};
use sdpm_layout::DiskPool;
use sdpm_obs::prof;
use sdpm_sim::{simulate_mix, MixPolicy, MixReport, SimError};
use sdpm_trace::{merge_tenants, AppEvent};

use crate::cells::Outcome;
use crate::layers::timed;
use crate::{geomean, guarded, mix64, par_map, Pass};

/// The mixes of this input variant and the frontier grid.
pub struct Inputs {
    pub defs: Vec<MixDef>,
    pub policies: Vec<MixPolicy>,
    /// `(mix index, load factor, policy index)` per cell.
    pub grid: Vec<(usize, f64, usize)>,
}

/// Variant 0 keeps each mix's built-in arrival seed (the published
/// frontier); any other variant reseeds every mix's arrivals.
#[must_use]
pub fn setup(variant: u64) -> Inputs {
    let defs: Vec<MixDef> = all_mixes()
        .into_iter()
        .zip(0u64..)
        .map(|(d, i)| {
            if variant == 0 {
                d
            } else {
                d.reseeded(mix64(variant).wrapping_add(i))
            }
        })
        .collect();
    let policies = default_policies();
    let mut grid = Vec::new();
    for m in 0..defs.len() {
        for &lf in &DEFAULT_LOADS {
            for p in 0..policies.len() {
                grid.push((m, lf, p));
            }
        }
    }
    Inputs {
        defs,
        policies,
        grid,
    }
}

/// One frontier cell: what `MixSession::contended` computes.
///
/// # Errors
/// As `MixSession::contended`: tenants that disagree on the pool or the
/// disk model, or anything `simulate_mix` reports.
pub fn run_cell(def: &MixDef, load: f64, policy: &MixPolicy) -> Result<MixReport, SimError> {
    let first = &def.tenants[0].cfg;
    if def
        .tenants
        .iter()
        .any(|t| t.cfg.disks != first.disks || t.cfg.params != first.params)
    {
        return Err(SimError::InvalidParams(
            "tenants disagree on the shared pool".into(),
        ));
    }
    let streams = timed("core.scenario", || def.session(load).tenant_streams());
    let events = timed("trace.mix", || {
        let events = merge_tenants(&streams);
        prof::add("mix.events", events.len() as u64);
        events
    });
    let names: Vec<&str> = def.tenants.iter().map(|t| t.name.as_str()).collect();
    let pool = DiskPool::new(first.disks);
    let report = timed("sim.mix", || {
        simulate_mix(&events, &names, &first.params, pool, policy)
    })?;
    let directives = events
        .iter()
        .filter(|e| matches!(e.event, AppEvent::Power { .. }))
        .count();
    prof::add("session.mix_runs", 1);
    prof::add("mix.reqs", report.requests);
    prof::add("mix.misfires", report.misfires.total());
    prof::add("mix.directives", directives as u64);
    Ok(report)
}

/// The stable id of a frontier cell.
#[must_use]
pub fn cell_id(def: &MixDef, load: f64, policy: &MixPolicy) -> String {
    format!("mix/{}/{load:.1}/{}", def.name, policy.label())
}

/// One `mix` pass over the whole frontier.
#[must_use]
pub fn pass(inp: &Inputs) -> Pass {
    let results = par_map(&inp.grid, |&(m, lf, p)| {
        let (def, policy) = (&inp.defs[m], &inp.policies[p]);
        let id = cell_id(def, lf, policy);
        let mut report = None;
        let cells = guarded(&id, || {
            let outcome = match run_cell(def, lf, policy) {
                Ok(r) => {
                    report = Some((r.total_energy_j(), r.makespan_secs, r.requests));
                    Outcome::Mix(Box::new(r))
                }
                Err(e) => Outcome::Failed(e.to_string()),
            };
            vec![(id.clone(), outcome)]
        });
        (cells, report)
    });

    // ADAPT over Base on each (mix, load) pair.
    let per_policy = inp.policies.len();
    let label = |p: usize| inp.policies[p].label();
    let (mut energy, mut time) = (Vec::new(), Vec::new());
    for (chunk, grid) in results.chunks(per_policy).zip(inp.grid.chunks(per_policy)) {
        let find = |name: &str| {
            grid.iter()
                .position(|&(_, _, p)| label(p) == name)
                .and_then(|i| chunk[i].1)
        };
        if let (Some(base), Some(adapt)) = (find("Base"), find("ADAPT")) {
            energy.push(adapt.0 / base.0);
            time.push(adapt.1 / base.1);
        }
    }
    let sim_reqs = results.iter().filter_map(|r| r.1).map(|r| r.2).sum();
    Pass {
        outcomes: results.into_iter().flat_map(|r| r.0).collect(),
        sim_reqs,
        energy_norm: geomean(&energy),
        slowdown: geomean(&time),
        model_err_pct: None,
    }
}
