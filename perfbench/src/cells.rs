//! Cells, their recorded reference, and the checker.
//!
//! A cell is one simulated result of a pass (a scheme run, a mix cell, a
//! prover verdict, an experiment's table row). It is rendered to one line
//! that carries its headline statistics at full precision plus a digest
//! of every statistic of the underlying report (per-disk energy, gaps,
//! misfire and fault tallies). The reference file holds those lines for
//! every input variant; a cell fails when it errors, panics, is missing,
//! or differs from its reference line in any digit.

use std::collections::HashMap;

use sdpm_sim::{MixReport, SimReport};

use crate::Workload;

/// The raw result behind one cell, as the pass produced it. Rendering
/// (and digesting) happens after the clock stops.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Sim(Box<SimReport>),
    Mix(Box<MixReport>),
    /// Named values (an experiment's table row).
    Values(Vec<(&'static str, f64)>),
    /// A one-line summary (a verdict or a diagnostic tally).
    Text(String),
    /// The cell errored or panicked.
    Failed(String),
}

/// A rendered cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    pub id: String,
    pub line: String,
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of every result field of a report. `sim_path` (which engine
/// produced it) is provenance, not outcome, and is left out, as in
/// `SimReport`'s own equality.
#[must_use]
pub fn sim_digest(r: &SimReport) -> u64 {
    fnv64(&format!(
        "{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}",
        r.exec_secs,
        r.energy,
        r.per_disk,
        r.requests,
        r.stall_secs,
        r.mean_slowdown,
        r.misfire_causes,
        r.faults
    ))
}

/// Renders one outcome. Floats print in Rust's shortest round-trip form,
/// so two lines are equal exactly when the values are bit-identical.
#[must_use]
pub fn render(o: &Outcome) -> String {
    match o {
        Outcome::Sim(r) => format!(
            "energy_j={:?} exec_s={:?} requests={} stall_s={:?} misfires={} faults={} digest={:016x}",
            r.total_energy_j(),
            r.exec_secs,
            r.requests,
            r.stall_secs,
            r.misfire_causes.total(),
            r.faults.total(),
            sim_digest(r)
        ),
        Outcome::Mix(r) => format!(
            "energy_j={:?} makespan_s={:?} requests={} p99_s={:?} misfires={} digest={:016x}",
            r.total_energy_j(),
            r.makespan_secs,
            r.requests,
            r.p99_response_secs,
            r.misfires.total(),
            fnv64(&format!("{r:?}"))
        ),
        Outcome::Values(vals) => vals
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(" "),
        Outcome::Text(t) => t.replace(['\t', '\n'], " "),
        Outcome::Failed(msg) => format!("FAILED {}", msg.replace(['\t', '\n'], " ")),
    }
}

/// Renders every outcome of a pass.
#[must_use]
pub fn render_all(outcomes: &[(String, Outcome)]) -> Vec<Cell> {
    outcomes
        .iter()
        .map(|(id, o)| Cell {
            id: id.clone(),
            line: render(o),
        })
        .collect()
}

/// The recorded reference of a workload: `variant \t id \t line` rows.
#[must_use]
pub fn reference_text(workload: Workload) -> &'static str {
    match workload {
        Workload::Paper => include_str!("../reference/paper.tsv"),
        Workload::Mix => include_str!("../reference/mix.tsv"),
        Workload::Replay => include_str!("../reference/replay.tsv"),
    }
}

/// Reference rows for `variant` of a reference text.
#[must_use]
pub fn reference_for(text: &str, variant: u64) -> HashMap<String, String> {
    let tag = variant.to_string();
    text.lines()
        .filter_map(|l| {
            let mut parts = l.splitn(3, '\t');
            let (v, id, line) = (parts.next()?, parts.next()?, parts.next()?);
            (v == tag).then(|| (id.to_string(), line.to_string()))
        })
        .collect()
}

/// Reference rows recording `cells` as `variant`.
#[must_use]
pub fn record(cells: &[Cell], variant: u64) -> String {
    cells
        .iter()
        .map(|c| format!("{variant}\t{}\t{}\n", c.id, c.line))
        .collect()
}

/// The checker's verdict on one pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Check {
    /// Cells expected or produced (the union of both id sets).
    pub attempted: u64,
    /// Cells missing, extra, failed or differing from the reference.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

/// Compares a pass's cells against the reference rows of its variant.
#[must_use]
pub fn check(cells: &[Cell], reference: &HashMap<String, String>) -> Check {
    let mut out = Check::default();
    let fail = |out: &mut Check, msg: String| {
        out.failed += 1;
        if out.failures.len() < 8 {
            out.failures.push(msg);
        }
    };
    let mut seen = std::collections::HashSet::new();
    for c in cells {
        out.attempted += 1;
        if !seen.insert(c.id.as_str()) {
            fail(&mut out, format!("{}: duplicate cell", c.id));
            continue;
        }
        match reference.get(&c.id) {
            None => fail(&mut out, format!("{}: not in the reference", c.id)),
            Some(want) if *want != c.line => fail(
                &mut out,
                format!("{}: got `{}`, reference `{want}`", c.id, c.line),
            ),
            Some(_) => {}
        }
    }
    let mut missing: Vec<&String> = reference
        .keys()
        .filter(|id| !seen.contains(id.as_str()))
        .collect();
    missing.sort();
    for id in missing {
        out.attempted += 1;
        fail(&mut out, format!("{id}: missing from the pass"));
    }
    out
}
