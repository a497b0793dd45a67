//! Inspect the compiler's intermediate artifacts for the swim benchmark:
//! the disk access pattern (DAP) in the paper's `<nest, iteration, state>`
//! form, the power-management calls the instrumentation pass inserts,
//! and the per-disk idle gaps it decided on.
//!
//! ```text
//! cargo run --release --example compiler_pass_inspector
//! ```

use sdpm_core::{build_dap, insert_directives, CmMode, NoiseModel};
use sdpm_disk::ultrastar36z15;
use sdpm_ir::{disk_activity, render_nest};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_trace::{generate, AppEvent};
use sdpm_workloads::swim;

fn main() {
    let bench = swim();
    let pool = DiskPool::new(8);
    let program = &bench.program;

    // --- The analyzed source, as the compiler sees it --------------------
    println!(
        "== first two nests of {} (IR rendered as pseudo-C) ==",
        bench.name
    );
    for nest in program.nests.iter().take(2) {
        print!("{}", render_nest(nest, program));
    }
    println!();

    // --- Disk access pattern (Section 3) ---------------------------------
    let activity = disk_activity(program, pool);
    let dap = build_dap(&activity);
    println!("== DAP of {} (disk 0, first 8 transitions) ==", bench.name);
    for e in dap.per_disk[0].iter().take(8) {
        println!(
            "  < {}, iteration {}, {} >",
            program.nests[e.nest].label,
            e.iter,
            match e.state {
                sdpm_core::DapState::Active => "active",
                sdpm_core::DapState::Idle => "idle",
            }
        );
    }

    // --- Instrumentation (the inserted calls) ----------------------------
    let trace = generate(program, pool, bench.gen);
    let params = ultrastar36z15();
    let out = insert_directives(
        &trace,
        &params,
        &NoiseModel {
            spread: bench.noise_spread,
            gap_jitter: bench.noise_jitter,
            seed: bench.noise_seed,
        },
        CmMode::Drpm,
        50e-6,
    );
    println!(
        "\ninstrumentation inserted {} power-management calls over {} requests",
        out.inserted,
        trace.stats().requests
    );
    println!("first 6 calls in stream order:");
    let mut shown = 0;
    for e in &out.trace.events {
        if let AppEvent::Power { disk, action } = e {
            println!("  {action:?} on {disk}");
            shown += 1;
            if shown == 6 {
                break;
            }
        }
    }

    let acted: usize = out
        .decisions
        .iter()
        .filter(|d| d.level.is_some() || d.spun_down)
        .count();
    println!(
        "\ndecisions: {} gaps examined, {} acted on ({:.1}%)",
        out.decisions.len(),
        acted,
        100.0 * acted as f64 / out.decisions.len() as f64
    );

    // --- The longest idle gaps the compiler estimated on disk 0 ----------
    let mut disk0: Vec<_> = out
        .decisions
        .iter()
        .filter(|d| d.disk == DiskId(0))
        .collect();
    disk0.sort_by(|a, b| b.estimated_secs.total_cmp(&a.estimated_secs));
    println!("disk 0: {} gaps; the 3 longest (estimated):", disk0.len());
    for d in disk0.iter().take(3) {
        println!("  {:.3} s -> level {:?}", d.estimated_secs, d.level);
    }
}
