//! `paper`: every experiment `repro all` runs, over the six kernels.
//!
//! The experiments that fan out over kernels or sweep points (Table 2,
//! Figs. 3-8, Table 3, Fig. 13, the gap table) are written here against
//! `core::Session`/`run_scheme` and `xform::Transform`, exactly as
//! `sdpm_bench::experiments` writes them, so each call into a layer sits
//! in a span and every scheme run's full report is checked. The
//! sequential studies (ablations, Section 2, PDC) are called from
//! `sdpm_bench` as they are.

use sdpm_bench::ablations::{
    ablate_noise, ablate_preactivation, ablate_tiling_scope, ablate_transition_step, ablate_window,
};
use sdpm_bench::{config_for, paper_table3, pdc_study, section2_laptop_vs_server, with_striping};
use sdpm_core::{run_scheme, CmMode, PipelineConfig, Scheme, Session};
use sdpm_disk::{tpm_break_even_secs, ultrastar36z15, RpmLadder};
use sdpm_ir::Program;
use sdpm_layout::{DiskPool, Striping};
use sdpm_obs::prof;
use sdpm_sim::SimReport;
use sdpm_workloads::Benchmark;
use sdpm_xform::Transform;

use crate::cells::Outcome;
use crate::layers::timed;
use crate::{geomean, guarded, par_map, Pass};

/// The six kernels of this input variant and their configurations.
pub struct Inputs {
    pub kernels: Vec<Benchmark>,
    pub cfgs: Vec<PipelineConfig>,
    /// Index of 171.swim, the subject of Figs. 5-8 and the timeline.
    pub swim: usize,
}

#[must_use]
pub fn setup(variant: u64) -> Inputs {
    let kernels = crate::kernels(variant);
    let cfgs = kernels.iter().map(config_for).collect();
    let swim = kernels
        .iter()
        .position(|k| k.name == "171.swim")
        .expect("the suite includes 171.swim");
    Inputs {
        kernels,
        cfgs,
        swim,
    }
}

type Cells = Vec<(String, Outcome)>;

fn sim(id: String, r: SimReport) -> (String, Outcome) {
    (id, Outcome::Sim(Box::new(r)))
}

/// One scheme run through a session. A compiler-managed run also counts
/// the directives its (cached) plan inserted and the misfires it met.
fn session_run(session: &mut Session<'_>, scheme: Scheme) -> SimReport {
    let r = timed("core.session", || session.run(scheme));
    let mode = match scheme {
        Scheme::CmTpm => Some(CmMode::Tpm),
        Scheme::CmDrpm => Some(CmMode::Drpm),
        _ => None,
    };
    if let Some(mode) = mode {
        let inserted = session.instrumented(mode).inserted as u64;
        prof::add("insert.directives", inserted);
        prof::add("sim.directives", inserted);
        prof::add("sim.misfires", r.misfire_causes.total());
    }
    r
}

fn kernel_ids(inp: &Inputs) -> Vec<usize> {
    (0..inp.kernels.len()).collect()
}

/// Table 2: each kernel's base run against the paper's row.
fn table2(inp: &Inputs) -> (Cells, f64) {
    let rows = par_map(&kernel_ids(inp), |&i| {
        let k = &inp.kernels[i];
        let mut err = 0.0;
        let cells = guarded(&format!("table2/{}", k.name), || {
            let r = timed("core.session", || {
                run_scheme(&k.program, Scheme::Base, &inp.cfgs[i])
            });
            let data_mb = k.program.total_data_bytes() as f64 / (1024.0 * 1024.0);
            let exec_ms = r.exec_secs * 1e3;
            let p = &k.table2;
            err = [
                (data_mb, p.data_mb),
                (r.requests as f64, p.requests as f64),
                (r.total_energy_j(), p.base_energy_j),
                (exec_ms, p.exec_ms),
            ]
            .iter()
            .map(|(m, p)| ((m - p) / p).abs())
            .fold(0.0, f64::max);
            vec![
                (
                    format!("table2/{}", k.name),
                    Outcome::Values(vec![
                        ("data_mb", data_mb),
                        ("requests", r.requests as f64),
                        ("base_energy_j", r.total_energy_j()),
                        ("exec_ms", exec_ms),
                        ("worst_err", err),
                    ]),
                ),
                sim(format!("table2/{}/Base", k.name), r),
            ]
        });
        (cells, err)
    });
    let worst = rows.iter().map(|r| r.1).fold(0.0, f64::max);
    (rows.into_iter().flat_map(|r| r.0).collect(), worst)
}

/// Figs. 3 and 4: all seven schemes on every kernel. Also returns the
/// CMDRPM normalized energy and time per kernel.
fn fig3_fig4(inp: &Inputs) -> (Cells, Vec<(f64, f64)>) {
    let rows = par_map(&kernel_ids(inp), |&i| {
        let k = &inp.kernels[i];
        let mut cm = (f64::NAN, f64::NAN);
        let cells = guarded(&format!("fig34/{}", k.name), || {
            let mut session = timed("core.session", || Session::new(&k.program, &inp.cfgs[i]));
            let base = session_run(&mut session, Scheme::Base);
            let mut cells = Vec::new();
            for s in Scheme::all() {
                let r = if s == Scheme::Base {
                    base.clone()
                } else {
                    session_run(&mut session, s)
                };
                let (e, t) = (r.normalized_energy(&base), r.normalized_time(&base));
                if s == Scheme::CmDrpm {
                    cm = (e, t);
                }
                cells.push((
                    format!("fig34/{}/{}/norm", k.name, s.label()),
                    Outcome::Values(vec![("norm_energy", e), ("norm_time", t)]),
                ));
                cells.push(sim(format!("fig34/{}/{}", k.name, s.label()), r));
            }
            cells
        });
        (cells, cm)
    });
    let cm = rows.iter().map(|r| r.1).collect();
    (rows.into_iter().flat_map(|r| r.0).collect(), cm)
}

/// Table 3: CMDRPM's mispredicted disk speeds against the paper.
fn table3(inp: &Inputs) -> (Cells, f64) {
    let ladder = RpmLadder::new(&ultrastar36z15());
    let rows = par_map(&kernel_ids(inp), |&i| {
        let k = &inp.kernels[i];
        let mut err = 0.0;
        let cells = guarded(&format!("table3/{}", k.name), || {
            let r = timed("core.session", || {
                run_scheme(&k.program, Scheme::CmDrpm, &inp.cfgs[i])
            });
            let pct = r.mispredicted_speed_fraction(&ladder) * 100.0;
            let paper = paper_table3(k.name);
            err = ((pct - paper) / paper).abs();
            vec![
                (
                    format!("table3/{}", k.name),
                    Outcome::Values(vec![("measured_pct", pct), ("paper_pct", paper)]),
                ),
                sim(format!("table3/{}/CMDRPM", k.name), r),
            ]
        });
        (cells, err)
    });
    let worst = rows.iter().map(|r| r.1).fold(0.0, f64::max);
    (rows.into_iter().flat_map(|r| r.0).collect(), worst)
}

/// One sensitivity point: Base plus DRPM, IDRPM and CMDRPM.
fn sweep_point(id: &str, program: &Program, cfg: &PipelineConfig) -> Cells {
    guarded(id, || {
        let mut session = timed("core.session", || Session::new(program, cfg));
        let base = session_run(&mut session, Scheme::Base);
        let mut cells = Vec::new();
        for s in sdpm_bench::sensitivity_schemes() {
            let r = session_run(&mut session, s);
            cells.push((
                format!("{id}/{}/norm", s.label()),
                Outcome::Values(vec![
                    ("norm_energy", r.normalized_energy(&base)),
                    ("norm_time", r.normalized_time(&base)),
                ]),
            ));
            cells.push(sim(format!("{id}/{}", s.label()), r));
        }
        cells
    })
}

/// Figs. 5 and 6: swim under stripe sizes 16..256 KiB.
fn fig5_fig6(inp: &Inputs) -> Cells {
    let swim = &inp.kernels[inp.swim];
    let sizes: Vec<u64> = [16, 32, 64, 128, 256].iter().map(|k| k * 1024).collect();
    par_map(&sizes, |&bytes| {
        let striping = Striping {
            stripe_bytes: bytes,
            ..Striping::default_paper()
        };
        let program = with_striping(&swim.program, striping);
        sweep_point(&format!("fig56/{bytes}"), &program, &inp.cfgs[inp.swim])
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Figs. 7 and 8: swim under stripe factors 2..16, pool sized to match.
fn fig7_fig8(inp: &Inputs) -> Cells {
    let swim = &inp.kernels[inp.swim];
    par_map(&[2u32, 4, 8, 16], |&factor| {
        let striping = Striping {
            stripe_factor: factor,
            ..Striping::default_paper()
        };
        let program = with_striping(&swim.program, striping);
        let cfg = PipelineConfig {
            disks: factor,
            ..inp.cfgs[inp.swim].clone()
        };
        sweep_point(&format!("fig78/{factor}"), &program, &cfg)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Fig. 13: CMTPM and CMDRPM under each Section 6 transform.
fn fig13(inp: &Inputs) -> Cells {
    par_map(&kernel_ids(inp), |&i| {
        let k = &inp.kernels[i];
        let cfg = &inp.cfgs[i];
        guarded(&format!("fig13/{}", k.name), || {
            let pool = DiskPool::new(cfg.disks);
            let base = timed("core.session", || run_scheme(&k.program, Scheme::Base, cfg));
            let mut cells = vec![sim(format!("fig13/{}/Base", k.name), base.clone())];
            let mut eval = |label: &str, program: &Program| {
                let mut session = timed("core.session", || Session::new(program, cfg));
                for s in [Scheme::CmTpm, Scheme::CmDrpm] {
                    let r = session_run(&mut session, s);
                    cells.push((
                        format!("fig13/{}/{label}/{}/norm", k.name, s.label()),
                        Outcome::Values(vec![("norm_energy", r.normalized_energy(&base))]),
                    ));
                    cells.push(sim(format!("fig13/{}/{label}/{}", k.name, s.label()), r));
                }
            };
            eval("none", &k.program);
            for t in Transform::all() {
                let transformed = timed("xform", || t.apply(&k.program, pool));
                eval(t.label(), &transformed);
            }
            cells
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The ablation studies, as `repro ablate` runs them.
fn ablations() -> Cells {
    let _g = prof::span("paper.ablate");
    guarded("ablate", || {
        let sweeps = [
            (
                "step",
                ablate_transition_step(&[0.5, 2.0, 10.0, 50.0, 100.0, 200.0]),
            ),
            ("window", ablate_window(&[5, 15, 30, 60, 120])),
            ("noise", ablate_noise(&[0.0, 0.05, 0.1, 0.2, 0.4])),
            ("tiling", ablate_tiling_scope()),
            ("preactivation", ablate_preactivation()),
        ];
        const KEYS: [&str; 4] = ["v0", "v1", "v2", "v3"];
        let mut cells = Vec::new();
        for (name, rows) in sweeps {
            for row in rows {
                cells.push((
                    format!("ablate/{name}/{}", row.x),
                    Outcome::Values(KEYS.iter().copied().zip(row.values).collect()),
                ));
            }
        }
        cells
    })
}

/// Section 2, the PDC study and the swim disk-state timeline.
fn studies(inp: &Inputs) -> Cells {
    let mut cells = {
        let _g = prof::span("paper.section2");
        guarded("section2", || {
            section2_laptop_vs_server()
                .into_iter()
                .flat_map(|(model, rows)| {
                    rows.into_iter().map(move |r| {
                        (
                            format!("section2/{model}/{}", r.scheme),
                            Outcome::Values(vec![
                                ("norm_energy", r.norm_energy),
                                ("norm_time", r.norm_time),
                                ("energy_j", r.energy_j),
                                ("exec_secs", r.exec_secs),
                            ]),
                        )
                    })
                })
                .collect()
        })
    };
    {
        let _g = prof::span("paper.pdc");
        cells.extend(guarded("pdc", || {
            pdc_study()
                .into_iter()
                .map(|(label, cmtpm, cmdrpm, resp_ms)| {
                    (
                        format!("pdc/{label}"),
                        Outcome::Values(vec![
                            ("cmtpm", cmtpm),
                            ("cmdrpm", cmdrpm),
                            ("open_resp_ms", resp_ms),
                        ]),
                    )
                })
                .collect()
        }));
    }
    let swim = &inp.kernels[inp.swim];
    for scheme in [Scheme::Base, Scheme::CmDrpm] {
        let id = format!("timeline/{}", scheme.label());
        cells.extend(guarded(&id, || {
            let r = timed("core.session", || {
                run_scheme(&swim.program, scheme, &inp.cfgs[inp.swim])
            });
            vec![sim(id.clone(), r)]
        }));
    }
    cells
}

/// The idle-gap distribution under Base.
fn gaps(inp: &Inputs) -> Cells {
    let break_even = tpm_break_even_secs(&ultrastar36z15());
    par_map(&kernel_ids(inp), |&i| {
        let k = &inp.kernels[i];
        guarded(&format!("gaps/{}", k.name), || {
            let r = timed("core.session", || {
                run_scheme(&k.program, Scheme::Base, &inp.cfgs[i])
            });
            let mut lens: Vec<f64> = r
                .per_disk
                .iter()
                .flat_map(|d| d.gaps.iter().map(sdpm_sim::GapRecord::len_secs))
                .collect();
            lens.sort_by(f64::total_cmp);
            let q = |p: f64| {
                lens.get(((lens.len().max(1) - 1) as f64 * p) as usize)
                    .copied()
                    .unwrap_or(0.0)
            };
            let total: f64 = lens.iter().sum();
            let above: f64 = lens.iter().filter(|&&l| l > break_even).sum();
            vec![(
                format!("gaps/{}", k.name),
                Outcome::Values(vec![
                    ("gaps", lens.len() as f64),
                    ("p50", q(0.50)),
                    ("p90", q(0.90)),
                    ("p99", q(0.99)),
                    ("max", lens.last().copied().unwrap_or(0.0)),
                    (
                        "above_break_even",
                        if total > 0.0 { above / total } else { 0.0 },
                    ),
                ]),
            )]
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Fig. 2: the DAPs and the compiler-modified stream of the paper's
/// three-nest example (the program `repro fig2` prints).
fn fig2() -> Cells {
    use sdpm_core::{build_dap, insert_directives, NoiseModel};
    use sdpm_ir::{disk_activity, AffineExpr, ArrayRef, LoopDim, LoopNest, Statement};
    use sdpm_layout::{ArrayFile, DiskId, StorageOrder};
    use sdpm_trace::{generate, TraceGenConfig};

    guarded("fig2", || {
        let s_bytes: u64 = 512 * 1024;
        let elems = s_bytes / 8;
        let array = |name: &str, len: u64, start: u32, factor: u32, base_block: u64| ArrayFile {
            name: name.into(),
            dims: vec![len],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(start),
                stripe_factor: factor,
                stripe_bytes: s_bytes,
            },
            base_block,
        };
        let scan = |label: &str, refs: Vec<ArrayRef>| LoopNest {
            label: label.into(),
            loops: vec![LoopDim::simple(2 * elems)],
            stmts: vec![Statement {
                label: format!("S{label}"),
                refs,
            }],
            cycles_per_iter: 120.0,
        };
        let program = Program {
            name: "figure2".into(),
            arrays: vec![
                array("U1", 4 * elems, 0, 4, 0),
                array("U2", 2 * elems, 2, 1, 1_000_000),
            ],
            nests: vec![
                scan(
                    "Nest1",
                    vec![
                        ArrayRef::read(0, vec![AffineExpr::var(1, 0)]),
                        ArrayRef::read(1, vec![AffineExpr::var(1, 0)]),
                    ],
                ),
                LoopNest {
                    label: "Nest2".into(),
                    loops: vec![LoopDim::simple(100_000)],
                    stmts: vec![],
                    cycles_per_iter: 20.0 / 100_000.0 * Program::PAPER_CLOCK_HZ,
                },
                scan(
                    "Nest3",
                    vec![ArrayRef::read(
                        0,
                        vec![AffineExpr::var(1, 0).shifted(2 * elems as i64)],
                    )],
                ),
            ],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        let pool = DiskPool::new(4);
        let dap = build_dap(&disk_activity(&program, pool));
        let trace = timed("trace.gen", || {
            generate(
                &program,
                pool,
                TraceGenConfig {
                    io_chunk_bytes: 64 * 1024,
                    detect_sequential: false,
                },
            )
        });
        let out = timed("core.insert", || {
            insert_directives(
                &trace,
                &ultrastar36z15(),
                &NoiseModel::exact(),
                CmMode::Tpm,
                50e-6,
            )
        });
        prof::add("insert.directives", out.inserted as u64);
        let dap_entries: usize = dap.per_disk.iter().map(Vec::len).sum();
        vec![(
            "fig2".to_string(),
            Outcome::Values(vec![
                ("dap_entries", dap_entries as f64),
                ("requests", out.trace.stats().requests as f64),
                ("inserted", out.inserted as f64),
            ]),
        )]
    })
}

/// One `paper` pass: the experiments in `repro all` order.
#[must_use]
pub fn pass(inp: &Inputs) -> Pass {
    let (mut outcomes, t2_err) = table2(inp);
    let (cells, cmdrpm) = fig3_fig4(inp);
    outcomes.extend(cells);
    let (cells, t3_err) = table3(inp);
    outcomes.extend(cells);
    outcomes.extend(fig5_fig6(inp));
    outcomes.extend(fig7_fig8(inp));
    outcomes.extend(fig13(inp));
    outcomes.extend(ablations());
    outcomes.extend(studies(inp));
    outcomes.extend(gaps(inp));
    outcomes.extend(fig2());
    let sim_reqs = outcomes
        .iter()
        .map(|(_, o)| match o {
            Outcome::Sim(r) => r.requests,
            _ => 0,
        })
        .sum();
    let energy: Vec<f64> = cmdrpm.iter().map(|c| c.0).collect();
    let time: Vec<f64> = cmdrpm.iter().map(|c| c.1).collect();
    Pass {
        outcomes,
        sim_reqs,
        energy_norm: geomean(&energy),
        slowdown: geomean(&time),
        model_err_pct: Some(t2_err.max(t3_err) * 100.0),
    }
}
