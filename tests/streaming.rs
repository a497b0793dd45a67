//! Streaming data-path equivalence: the streamed, lazily generated,
//! codec-decoded and materialized simulation paths must produce
//! bit-exact `SimReport`s on
//! every scheme of every Table 2 kernel, and the shared pipeline
//! session must generate each benchmark's trace exactly once.

use sdpm_bench::{config_for, parallel_map, suite};
use sdpm_core::{CmMode, Scheme, Session};
use sdpm_disk::DiskParams;
use sdpm_layout::DiskPool;
use sdpm_sim::{simulate, try_simulate_source_faulted, DirectiveConfig, Policy, SimReport};
use sdpm_trace::codec::{encode, DecodeStream};
use sdpm_trace::{EventSource, EventStream, GenSource, Trace};

/// An owned encoded trace acting as a re-openable stream source, so the
/// codec path can feed the simulator directly.
struct BytesSource(Vec<u8>);

impl EventSource for BytesSource {
    fn open(&self) -> Box<dyn EventStream + '_> {
        Box::new(DecodeStream::new(&self.0).expect("self-encoded trace"))
    }
}

fn assert_identical(reference: &SimReport, candidate: &SimReport, what: &str) {
    assert_eq!(
        reference.exec_secs.to_bits(),
        candidate.exec_secs.to_bits(),
        "{what}: exec time drifted"
    );
    assert_eq!(
        reference.total_energy_j().to_bits(),
        candidate.total_energy_j().to_bits(),
        "{what}: energy drifted"
    );
    assert_eq!(reference, candidate, "{what}: reports differ");
}

/// The fault-free streamed simulation of `source`.
fn streamed(
    source: &dyn EventSource,
    params: &DiskParams,
    pool: DiskPool,
    policy: &Policy,
) -> SimReport {
    try_simulate_source_faulted(source, params, pool, policy, None).expect("valid stream")
}

/// The `(policy, trace)` pair a scheme resolves to once the session has
/// generated and instrumented.
fn policy_and_trace(
    session: &mut Session<'_>,
    cfg: &sdpm_core::PipelineConfig,
    scheme: Scheme,
) -> (Policy, Trace) {
    let policy = match scheme {
        Scheme::Base => Policy::Base,
        Scheme::Tpm => Policy::Tpm(cfg.tpm),
        Scheme::ITpm => Policy::IdealTpm,
        Scheme::Drpm => Policy::Drpm(cfg.drpm),
        Scheme::IDrpm => Policy::IdealDrpm,
        Scheme::CmTpm | Scheme::CmDrpm => Policy::Directive(DirectiveConfig {
            overhead_secs: cfg.overhead_secs,
        }),
    };
    let trace = match scheme {
        Scheme::CmTpm => session.instrumented(CmMode::Tpm).trace.clone(),
        Scheme::CmDrpm => session.instrumented(CmMode::Drpm).trace.clone(),
        _ => session.base_trace().clone(),
    };
    (policy, trace)
}

#[test]
fn all_paths_agree_bitwise_on_every_scheme_and_kernel() {
    let benches = suite();
    assert_eq!(benches.len(), 6, "the Table 2 kernel suite");
    parallel_map(&benches, |bench| {
        let cfg = config_for(bench);
        let pool = DiskPool::new(cfg.disks);
        let mut session = Session::new(&bench.program, &cfg);
        let gen_source = GenSource::new(&bench.program, pool, cfg.gen);
        for scheme in Scheme::all() {
            let (policy, trace) = policy_and_trace(&mut session, &cfg, scheme);
            let what = format!("{} {}", bench.name, scheme.label());
            let materialized = simulate(&trace, &cfg.params, pool, &policy);

            // Chunked stream over the materialized trace.
            let chunked = streamed(&trace, &cfg.params, pool, &policy);
            assert_identical(&materialized, &chunked, &format!("{what} streamed"));

            // Lazy generator stream: no materialized trace at all. Only
            // meaningful for un-instrumented schemes — CM schemes *are*
            // their instrumented trace.
            if !matches!(scheme, Scheme::CmTpm | Scheme::CmDrpm) {
                let lazy = streamed(&gen_source, &cfg.params, pool, &policy);
                assert_identical(&materialized, &lazy, &format!("{what} lazy-generated"));
            }
        }

        // Round trip through the streaming binary codec (covers Power
        // directives via the instrumented CMDRPM trace).
        let inst = session.instrumented(CmMode::Drpm).trace.clone();
        let encoded = BytesSource(encode(&inst));
        let policy = Policy::Directive(DirectiveConfig {
            overhead_secs: cfg.overhead_secs,
        });
        let from_codec = streamed(&encoded, &cfg.params, pool, &policy);
        let reference = simulate(&inst, &cfg.params, pool, &policy);
        assert_identical(
            &reference,
            &from_codec,
            &format!("{} codec-streamed", bench.name),
        );

        assert_eq!(
            session.generations(),
            1,
            "{}: every scheme must reuse one generated trace",
            bench.name
        );
    });
}

#[test]
fn run_all_schemes_generates_exactly_once() {
    let bench = sdpm_workloads::swim();
    let cfg = config_for(&bench);
    // `run_all_schemes` shares one session internally; probe the same
    // code path it uses and check the session-level counter.
    let mut session = Session::new(&bench.program, &cfg);
    let all: Vec<_> = Scheme::all()
        .into_iter()
        .map(|s| (s, session.run(s)))
        .collect();
    assert_eq!(all.len(), 7);
    assert_eq!(session.generations(), 1);

    // And the free function is bit-identical to the probed session.
    let free = sdpm_core::run_all_schemes(&bench.program, &cfg);
    for ((s_a, a), (s_b, b)) in all.iter().zip(&free) {
        assert_eq!(s_a, s_b);
        assert_identical(a, b, &format!("run_all_schemes {}", s_a.label()));
    }
}
