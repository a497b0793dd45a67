//! Component microbenchmarks: the hot paths of every subsystem.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sdpm_bench::mixbench::quad_mix;
use sdpm_core::{insert_directives, CmMode, NoiseModel};
use sdpm_disk::{best_rpm_for_gap, ultrastar36z15, RpmLadder};
use sdpm_ir::disk_activity;
use sdpm_layout::DiskPool;
use sdpm_sim::{
    simulate, simulate_mix, AdaptiveConfig, DirectiveConfig, DrpmConfig, MixPolicy, Policy,
};
use sdpm_trace::codec::{decode, encode};
use sdpm_trace::{generate, merge_tenants};
use sdpm_workloads::{galgel, mgrid, wupwise};
use sdpm_xform::{loop_fission, loop_tiling, TilingConfig};
use std::hint::black_box;

fn bench_analysis(c: &mut Criterion) {
    let bench = galgel();
    let pool = DiskPool::new(8);
    let iters: u64 = bench.program.nests.iter().map(|n| n.iter_count()).sum();
    let mut g = c.benchmark_group("analysis");
    g.sample_size(10);
    g.throughput(Throughput::Elements(iters));
    g.bench_function("disk_activity_walk", |b| {
        b.iter(|| black_box(disk_activity(&bench.program, pool)))
    });
    g.finish();
}

/// The generator jumps from cache miss to cache miss, so its work is the
/// events it emits, not the loop iterations it skips: galgel, wupwise
/// (a column walk, one segment per column) and mgrid (many small nests).
fn bench_generation(c: &mut Criterion) {
    let pool = DiskPool::new(8);
    let mut g = c.benchmark_group("trace_generation");
    g.sample_size(10);
    for bench in [galgel(), wupwise(), mgrid()] {
        let events = generate(&bench.program, pool, bench.gen).events.len();
        g.throughput(Throughput::Elements(events as u64));
        g.bench_function(bench.name, |b| {
            b.iter(|| black_box(generate(&bench.program, pool, bench.gen)))
        });
    }
    g.finish();
}

fn bench_instrumentation(c: &mut Criterion) {
    let bench = galgel();
    let pool = DiskPool::new(8);
    let trace = generate(&bench.program, pool, bench.gen);
    let params = ultrastar36z15();
    let noise = NoiseModel::default();
    let mut g = c.benchmark_group("instrumentation");
    g.sample_size(20);
    g.throughput(Throughput::Elements(trace.stats().requests));
    g.bench_function("insert_directives_drpm", |b| {
        b.iter(|| {
            black_box(insert_directives(
                &trace,
                &params,
                &noise,
                CmMode::Drpm,
                50e-6,
            ))
        })
    });
    g.bench_function("insert_directives_tpm", |b| {
        b.iter(|| {
            black_box(insert_directives(
                &trace,
                &params,
                &noise,
                CmMode::Tpm,
                50e-6,
            ))
        })
    });
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let bench = galgel();
    let pool = DiskPool::new(8);
    let trace = generate(&bench.program, pool, bench.gen);
    let params = ultrastar36z15();
    let mut g = c.benchmark_group("simulator");
    g.sample_size(20);
    g.throughput(Throughput::Elements(trace.stats().requests));
    g.bench_function("base", |b| {
        b.iter(|| black_box(simulate(&trace, &params, pool, &Policy::Base)))
    });
    g.bench_function("reactive_drpm", |b| {
        b.iter(|| {
            black_box(simulate(
                &trace,
                &params,
                pool,
                &Policy::Drpm(DrpmConfig::default()),
            ))
        })
    });
    g.bench_function("ideal_drpm_two_pass", |b| {
        b.iter(|| black_box(simulate(&trace, &params, pool, &Policy::IdealDrpm)))
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let bench = galgel();
    let pool = DiskPool::new(8);
    let trace = generate(&bench.program, pool, bench.gen);
    let bytes = encode(&trace);
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode", |b| b.iter(|| black_box(encode(&trace))));
    g.bench_function("decode", |b| b.iter(|| black_box(decode(&bytes).unwrap())));
    g.finish();
}

fn bench_transforms(c: &mut Criterion) {
    let bench = galgel();
    let pool = DiskPool::new(8);
    let mut g = c.benchmark_group("transforms");
    g.bench_function("loop_fission_dl", |b| {
        b.iter(|| black_box(loop_fission(&bench.program, pool, true)))
    });
    g.bench_function("loop_tiling_dl", |b| {
        b.iter(|| {
            black_box(loop_tiling(
                &bench.program,
                pool,
                true,
                &TilingConfig::default(),
            ))
        })
    });
    g.finish();
}

/// The shared-pool mix on prebuilt inputs: the quad mix's tenant
/// streams at load 4 are generated once, so `merge_tenants` and
/// `simulate_mix` are timed without trace generation.
fn bench_mix(c: &mut Criterion) {
    let def = quad_mix();
    let streams = def.session(4.0).tenant_streams();
    let events = merge_tenants(&streams);
    let names: Vec<&str> = def.tenants.iter().map(|t| t.name.as_str()).collect();
    let cfg = &def.tenants[0].cfg;
    let pool = DiskPool::new(cfg.disks);
    let mut g = c.benchmark_group("mix");
    g.sample_size(20);
    g.throughput(Throughput::Elements(events.len() as u64));
    g.bench_function("merge_tenants", |b| {
        b.iter(|| black_box(merge_tenants(&streams)))
    });
    for policy in [
        MixPolicy::Adaptive(AdaptiveConfig::default()),
        MixPolicy::Directive(DirectiveConfig::default()),
    ] {
        g.bench_function(&format!("simulate_mix_{}", policy.label()), |b| {
            b.iter(|| black_box(simulate_mix(&events, &names, &cfg.params, pool, &policy)))
        });
    }
    g.finish();
}

fn bench_breakeven(c: &mut Criterion) {
    let params = ultrastar36z15();
    let ladder = RpmLadder::new(&params);
    let max = ladder.max_level();
    c.bench_function("best_rpm_for_gap", |b| {
        let mut gap = 0.001f64;
        b.iter(|| {
            gap = (gap * 1.37) % 60.0 + 0.001;
            black_box(best_rpm_for_gap(&ladder, max, gap))
        })
    });
}

criterion_group! {
    name = components;
    config = Criterion::default();
    targets = bench_analysis, bench_generation, bench_instrumentation, bench_simulator,
              bench_codec, bench_transforms, bench_mix, bench_breakeven
}
criterion_main!(components);
