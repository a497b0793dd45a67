//! The benchmark's own checks: the checker catches a perturbed report,
//! runs repeat exactly, tracing does not change results, and the default
//! seed's recorded `paper` values are what `repro all` prints.

use std::collections::HashMap;

use sdpm_core::{run_scheme, Scheme};
use sdpm_perfbench::cells::{
    check, record, reference_for, reference_text, render_all, Cell, Outcome,
};
use sdpm_perfbench::{mix, replay, run_pass, setup, Workload};

fn cells_of(outcomes: &[(String, Outcome)]) -> Vec<Cell> {
    render_all(outcomes)
}

#[test]
fn a_perturbed_energy_value_is_a_failed_cell() {
    let bench = sdpm_workloads::swim();
    let cfg = sdpm_bench::config_for(&bench);
    let report = run_scheme(&bench.program, Scheme::CmDrpm, &cfg);
    let clean = vec![(
        "swim/CMDRPM".to_string(),
        Outcome::Sim(Box::new(report.clone())),
    )];
    let reference = reference_for(&record(&cells_of(&clean), 0), 0);
    assert_eq!(check(&cells_of(&clean), &reference).failed, 0);

    // One per-disk energy value, one ulp off: invisible in the headline
    // totals' leading digits, caught by the digest of every statistic.
    let mut perturbed = report;
    let e = &mut perturbed.per_disk[3].energy.idle_j;
    *e = f64::from_bits(e.to_bits() + 1);
    let cells = cells_of(&[("swim/CMDRPM".to_string(), Outcome::Sim(Box::new(perturbed)))]);
    let verdict = check(&cells, &reference);
    assert_eq!((verdict.attempted, verdict.failed), (1, 1), "{verdict:?}");
}

#[test]
fn missing_extra_and_failed_cells_all_count() {
    let ok = vec![
        ("a".to_string(), Outcome::Values(vec![("x", 1.0)])),
        ("b".to_string(), Outcome::Values(vec![("x", 2.0)])),
    ];
    let reference = reference_for(&record(&cells_of(&ok), 5), 5);
    assert!(reference_for(&record(&cells_of(&ok), 5), 4).is_empty());
    let bad = vec![
        ("a".to_string(), Outcome::Failed("panicked".into())),
        ("c".to_string(), Outcome::Values(vec![("x", 2.0)])),
    ];
    let verdict = check(&cells_of(&bad), &reference);
    assert_eq!((verdict.attempted, verdict.failed), (3, 3), "{verdict:?}");
}

#[test]
fn the_same_seed_twice_gives_identical_cells() {
    let a = cells_of(&run_pass(&setup(Workload::Replay, 3)).outcomes);
    let b = cells_of(&run_pass(&setup(Workload::Replay, 3)).outcomes);
    assert!(!a.is_empty());
    assert_eq!(a, b);

    let inputs = mix::setup(3);
    let (def, policy) = (&inputs.defs[0], &inputs.policies[2]);
    let first = mix::run_cell(def, 2.0, policy).expect("pair mix runs");
    let second = mix::run_cell(def, 2.0, policy).expect("pair mix runs");
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
}

#[test]
fn a_mix_cell_equals_mix_session_contended() {
    let inputs = mix::setup(0);
    for (m, p) in [(0, 1), (2, 2), (3, 3)] {
        let (def, policy) = (&inputs.defs[m], &inputs.policies[p]);
        let ours = mix::run_cell(def, 2.0, policy).expect("cell runs");
        let theirs = def.session(2.0).contended(policy).expect("cell runs");
        assert_eq!(format!("{ours:?}"), format!("{theirs:?}"), "{}", def.name);
    }
}

#[test]
fn traced_and_untraced_passes_give_identical_cells() {
    let inputs = setup(Workload::Replay, 0);
    let untraced = cells_of(&run_pass(&inputs).outcomes);
    sdpm_obs::prof::enable();
    let traced = cells_of(&run_pass(&inputs).outcomes);
    sdpm_obs::prof::disable();
    let _ = sdpm_obs::prof::take();
    assert_eq!(untraced, traced);
}

#[test]
fn the_replay_reference_holds_for_the_default_seed() {
    let inputs = setup(Workload::Replay, 0);
    let cells = cells_of(&run_pass(&inputs).outcomes);
    let verdict = check(&cells, &reference_for(reference_text(Workload::Replay), 0));
    assert_eq!(verdict.failed, 0, "{verdict:?}");
    assert!(cells.iter().all(|c| !c.line.starts_with("FAILED")));
    assert_eq!(
        cells.len(),
        replay_cells_per_kernel() * sdpm_workloads::all_benchmarks().len()
    );
}

/// 7 schemes × (event + runs + fault plans), 2 verifier cells, and the
/// prover's 4 variants × 7 schemes.
fn replay_cells_per_kernel() -> usize {
    7 * (2 + replay::FAULT_RATES.len()) + 2 + 4 * 7
}

#[test]
fn every_variant_is_recorded_for_every_workload() {
    for w in Workload::ALL {
        let counts: Vec<usize> = (0..sdpm_perfbench::VARIANTS)
            .map(|v| reference_for(reference_text(w), v).len())
            .collect();
        assert!(counts[0] > 0, "{}", w.name());
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{}: {counts:?}",
            w.name()
        );
    }
}

// ------------------------------------------------- default seed vs repro all

/// The data rows of the table printed under the `== <title>` line.
fn table<'a>(text: &'a str, title: &str) -> Vec<Vec<&'a str>> {
    let mut lines = text
        .lines()
        .skip_while(|l| !l.starts_with(&format!("== {title}")))
        .skip(1);
    let mut rows = Vec::new();
    for l in lines.by_ref() {
        if l.starts_with("---") {
            break;
        }
    }
    for l in lines {
        if l.trim().is_empty() {
            break;
        }
        rows.push(l.split_whitespace().collect());
    }
    assert!(!rows.is_empty(), "no table titled {title}");
    rows
}

fn row<'a>(rows: &'a [Vec<&'a str>], key: &str) -> &'a [&'a str] {
    rows.iter()
        .position(|r| r[0] == key)
        .map(|i| &rows[i][..])
        .unwrap_or_else(|| panic!("no row {key}"))
}

fn values(reference: &HashMap<String, String>, id: &str) -> HashMap<String, f64> {
    let line = reference
        .get(id)
        .unwrap_or_else(|| panic!("no reference cell {id}"));
    line.split(' ')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.parse().expect("numeric value")))
        .collect()
}

const SCHEMES: [&str; 7] = ["Base", "TPM", "ITPM", "DRPM", "IDRPM", "CMTPM", "CMDRPM"];

#[test]
fn the_default_seed_reproduces_repro_all() {
    let text = include_str!("../reference/repro_all.txt");
    let reference = reference_for(reference_text(Workload::Paper), 0);
    let v = |id: &str, k: &str| values(&reference, id)[k];
    let names: Vec<&str> = sdpm_workloads::all_benchmarks()
        .iter()
        .map(|b| b.name)
        .collect();

    let t2 = table(text, "Table 2");
    let fig3 = table(text, "Figure 3");
    let fig4 = table(text, "Figure 4");
    let t3 = table(text, "Table 3");
    let fig13 = table(text, "Figure 13");
    let gaps = table(text, "Idle-gap");
    for name in &names {
        let r = row(&t2, name);
        let id = format!("table2/{name}");
        assert_eq!(
            r[2].split('/').next(),
            Some(&*format!("{}", v(&id, "requests")))
        );
        assert_eq!(
            r[3].split('/').next(),
            Some(&*format!("{:.0}", v(&id, "base_energy_j")))
        );
        assert_eq!(
            r[4].split('/').next(),
            Some(&*format!("{:.0}", v(&id, "exec_ms")))
        );
        assert_eq!(r[5], format!("{:.2}%", v(&id, "worst_err") * 100.0));
        for (i, s) in SCHEMES.iter().enumerate() {
            let id = format!("fig34/{name}/{s}/norm");
            assert_eq!(
                row(&fig3, name)[i + 1],
                format!("{:.3}", v(&id, "norm_energy"))
            );
            assert_eq!(
                row(&fig4, name)[i + 1],
                format!("{:.3}", v(&id, "norm_time"))
            );
        }
        assert_eq!(
            row(&t3, name)[1],
            format!("{:.2}", v(&format!("table3/{name}"), "measured_pct"))
        );
        let at = fig13.iter().position(|r| r[0] == *name).expect("fig13 row");
        for (i, t) in ["none", "LF", "TL", "LF+DL", "TL+DL"].iter().enumerate() {
            for (r, s) in [(&fig13[at][2..], "CMTPM"), (&fig13[at + 1][1..], "CMDRPM")] {
                let id = format!("fig13/{name}/{t}/{s}/norm");
                assert_eq!(r[i], format!("{:.3}", v(&id, "norm_energy")), "{id}");
            }
        }
        let g = row(&gaps, name);
        let id = format!("gaps/{name}");
        assert_eq!(g[1], format!("{}", v(&id, "gaps")));
        assert_eq!(g[2], format!("{:.3}", v(&id, "p50")));
        assert_eq!(g[5], format!("{:.2}", v(&id, "max")));
    }

    for (title, prefix, key) in [
        ("Figure 5", "fig56", "norm_energy"),
        ("Figure 6", "fig56", "norm_time"),
        ("Figure 7", "fig78", "norm_energy"),
        ("Figure 8", "fig78", "norm_time"),
    ] {
        let rows = table(text, title);
        for r in &rows {
            let x: u64 = r[0].parse().expect("sweep point");
            for (i, s) in ["DRPM", "IDRPM", "CMDRPM"].iter().enumerate() {
                let id = format!("{prefix}/{x}/{s}/norm");
                assert_eq!(r[i + 1], format!("{:.3}", v(&id, key)), "{title} {id}");
            }
        }
    }

    for (title, sweep) in [
        ("Ablation: RPM step-transition time", "step"),
        ("Ablation: reactive DRPM window size", "window"),
        ("Ablation: estimation noise", "noise"),
        ("Ablation: tiling scope", "tiling"),
        ("Ablation: pre-activation", "preactivation"),
    ] {
        let prefix = format!("ablate/{sweep}/");
        let mut ids: Vec<&String> = reference
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .collect();
        ids.sort();
        let rows = table(text, title);
        assert_eq!(rows.len(), ids.len(), "{title}");
        for id in ids {
            let label = &id[prefix.len()..];
            let vals = values(&reference, id);
            let r = rows
                .iter()
                .find(|r| r.join(" ").starts_with(label))
                .unwrap_or_else(|| panic!("{title}: no row {label}"));
            let shown = &r[r.len() - vals.len()..];
            for (i, cell) in shown.iter().enumerate() {
                assert_eq!(*cell, format!("{:.3}", vals[&format!("v{i}")]), "{id}");
            }
        }
    }

    let pdc = table(text, "PDC baseline");
    for label in ["original", "PDC"] {
        let id = format!("pdc/{label}");
        let r = row(&pdc, label);
        assert_eq!(r[1], format!("{:.3}", v(&id, "cmtpm")));
        assert_eq!(r[2], format!("{:.3}", v(&id, "cmdrpm")));
        assert_eq!(r[3], format!("{:.2}", v(&id, "open_resp_ms")));
    }

    let fig2 = values(&reference, "fig2");
    assert!(text.contains(&format!(
        "({} I/O requests elided; {} power-management calls inserted)",
        fig2["requests"], fig2["inserted"]
    )));
}
