//! `perfbench --workload <paper|mix|replay> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up several times (reporting the median as
//! `setup_s`), then runs timed passes until `--seconds` have elapsed
//! (at least one). Every pass's cells are checked against the recorded
//! reference after its clock stops. With `--trace 0` the last stdout
//! line is a JSON object with the end-to-end metrics; with `--trace 1`
//! half the time runs untraced passes and half traced ones, and the
//! JSON carries the per-layer metrics.
//!
//! `--record` prints the reference rows of one untraced pass instead.

use std::time::Instant;

use sdpm_obs::prof;
use sdpm_perfbench::cells::{
    check, record, reference_for, reference_text, render_all, Check, Outcome,
};
use sdpm_perfbench::layers::LayerTable;
use sdpm_perfbench::{run_pass, setup, variant_of, Workload};

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload paper|mix|replay --seed N --seconds S --trace 0|1 [--record]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::Paper,
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    args.workload =
        Workload::parse(&name).unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    args
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set-up repetitions: `replay` generates six kernels' traces per
/// set-up, the others only build programs and configurations.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::Replay => 3,
        Workload::Paper | Workload::Mix => 101,
    }
}

/// What one measured pass left behind.
struct Measured {
    wall_s: f64,
    reqs_per_s: f64,
    peak_mib: f64,
    energy_norm: f64,
    slowdown: f64,
    model_err_pct: Option<f64>,
    layers: Option<LayerTable>,
}

struct Tally {
    attempted: u64,
    failed: u64,
    /// The first pass's outcomes and its verdict. A later pass whose
    /// outcomes equal these (reports compare field by field) has the same
    /// verdict, so only passes that differ are rendered and re-checked.
    first: Option<(Vec<(String, Outcome)>, Check)>,
}

fn measure(
    inputs: &sdpm_perfbench::Inputs,
    reference: &std::collections::HashMap<String, String>,
    traced: bool,
    tally: &mut Tally,
) -> Measured {
    if traced {
        prof::enable();
    }
    // The pass's own high-water mark: the peak live heap above what was
    // live when it started (the inputs and the retained first pass).
    let mark = prof::heap_mark();
    let live_before = mark.peak_bytes().unwrap_or(0);
    let t0 = Instant::now();
    let pass = {
        let _root = prof::span("bench.pass");
        run_pass(inputs)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let peak = mark.peak_bytes().unwrap_or(0).saturating_sub(live_before);
    let layers = traced.then(|| {
        prof::disable();
        LayerTable::from_profile(&prof::take())
    });
    let verdict = match &tally.first {
        Some((outcomes, verdict)) if *outcomes == pass.outcomes => verdict.clone(),
        _ => {
            let verdict = check(&render_all(&pass.outcomes), reference);
            for f in &verdict.failures {
                eprintln!("perfbench: failed cell {f}");
            }
            verdict
        }
    };
    tally.attempted += verdict.attempted;
    tally.failed += verdict.failed;
    if tally.first.is_none() {
        tally.first = Some((pass.outcomes, verdict));
    }
    Measured {
        wall_s,
        reqs_per_s: pass.sim_reqs as f64 / wall_s,
        peak_mib: peak as f64 / (1024.0 * 1024.0),
        energy_norm: pass.energy_norm,
        slowdown: pass.slowdown,
        model_err_pct: pass.model_err_pct,
        layers,
    }
}

/// Runs passes until `seconds` have elapsed (at least one).
fn measure_for(
    seconds: f64,
    inputs: &sdpm_perfbench::Inputs,
    reference: &std::collections::HashMap<String, String>,
    traced: bool,
    tally: &mut Tally,
) -> Vec<Measured> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        out.push(measure(inputs, reference, traced, tally));
    }
    out
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = parse_args();
    let variant = variant_of(args.seed);
    let reference = reference_for(reference_text(args.workload), variant);

    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..setup_reps(args.workload) {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(setup(args.workload, variant));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let setup_median = median(&mut setup_s);

    if args.record {
        let pass = run_pass(&inputs);
        print!("{}", record(&render_all(&pass.outcomes), variant));
        return;
    }

    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        first: None,
    };
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let untraced = measure_for(args.seconds / 2.0, &inputs, &reference, false, &mut tally);
        let traced = measure_for(args.seconds / 2.0, &inputs, &reference, true, &mut tally);
        let untraced_wall = median(&mut untraced.iter().map(|m| m.wall_s).collect::<Vec<_>>());
        let traced_wall = median(&mut traced.iter().map(|m| m.wall_s).collect::<Vec<_>>());
        let tables: Vec<Vec<(&str, f64, &str)>> = traced
            .iter()
            .map(|m| m.layers.as_ref().expect("traced pass").metrics())
            .collect();
        let mut out: Vec<(&str, f64, &str)> = tables[0]
            .iter()
            .enumerate()
            .map(|(i, &(name, _, unit))| {
                let mut vals: Vec<f64> = tables.iter().map(|t| t[i].1).collect();
                (name, median(&mut vals), unit)
            })
            .collect();
        out.push(("traced.overhead_s", traced_wall - untraced_wall, "s"));
        println!(
            "{} traced: {} untraced + {} traced passes, untraced wall {untraced_wall:.4} s, \
             traced wall {traced_wall:.4} s, threads {threads}",
            args.workload.name(),
            untraced.len(),
            traced.len()
        );
        out
    } else {
        let passes = measure_for(args.seconds, &inputs, &reference, false, &mut tally);
        let med =
            |f: &dyn Fn(&Measured) -> f64| median(&mut passes.iter().map(f).collect::<Vec<_>>());
        let last = passes.last().expect("at least one pass");
        let mut walls: Vec<f64> = passes.iter().map(|m| m.wall_s).collect();
        walls.sort_by(f64::total_cmp);
        println!(
            "{}: seed {} (input variant {variant}), {} passes ({:.4}..{:.4} s), \
             setup {:.4}..{:.4} s, {} threads, failed_frac {}{}",
            args.workload.name(),
            args.seed,
            passes.len(),
            walls[0],
            walls[walls.len() - 1],
            setup_s[0],
            setup_s[setup_s.len() - 1],
            threads,
            tally.failed as f64 / tally.attempted.max(1) as f64,
            last.model_err_pct
                .map_or_else(String::new, |e| format!(", model_err_pct {e:.4}"))
        );
        vec![
            ("wall_s", med(&|m| m.wall_s), "s"),
            ("setup_s", setup_median, "s"),
            ("sim_reqs_per_s", med(&|m| m.reqs_per_s), "1/s"),
            ("peak_heap_mib", med(&|m| m.peak_mib), "MiB"),
            ("energy_norm", last.energy_norm, "ratio"),
            ("slowdown", last.slowdown, "ratio"),
        ]
    };
    for (name, v, unit) in &metrics {
        println!("  {name:<36} {v:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    );
}
