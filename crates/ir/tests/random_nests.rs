//! Differential tests on random affine programs ([`arb::affine_program`]):
//! the analytic trace generator must match the per-iteration walk
//! oracle event for event, and the O(#runs) engine must match the
//! per-event engine bitwise on the result.

mod arb;

use arb::affine_program;
use proptest::prelude::*;
use sdpm_disk::ultrastar36z15;
use sdpm_ir::conform::linearized_ref;
use sdpm_ir::segmented_forms;
use sdpm_layout::DiskPool;
use sdpm_sim::{simulate, try_simulate_runs, DrpmConfig, Policy, TpmConfig};
use sdpm_trace::{compress, generate, generate_runs, generate_walk, TraceGenConfig};

const POOL: u32 = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn analytic_generation_matches_the_walk_and_runs_match_events(
        p in affine_program(POOL),
        io_chunk_bytes in prop_oneof![Just(64u64), Just(200), Just(1024), Just(4096)],
        detect_sequential in any::<bool>(),
    ) {
        let pool = DiskPool::new(POOL);
        let config = TraceGenConfig { io_chunk_bytes, detect_sequential };
        let t = generate(&p, pool, config);
        prop_assert_eq!(&t, &generate_walk(&p, pool, config));
        prop_assert_eq!(&generate_runs(&p, pool, config).lower(), &t);

        let params = ultrastar36z15();
        let runs = compress(&t);
        for policy in [
            Policy::Base,
            Policy::Tpm(TpmConfig::default()),
            Policy::Drpm(DrpmConfig::default()),
        ] {
            let slow = simulate(&t, &params, pool, &policy);
            let fast = try_simulate_runs(&runs, &params, pool, &policy).unwrap();
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(fast.exec_secs.to_bits(), slow.exec_secs.to_bits());
            prop_assert_eq!(fast.total_energy_j().to_bits(), slow.total_energy_j().to_bits());
        }
    }

    #[test]
    fn drawn_programs_validate(p in affine_program(POOL)) {
        prop_assert_eq!(p.validate(DiskPool::new(POOL)), Ok(()));
    }
}

/// The strategy reaches every split depth the generator can plan: whole
/// nest, two intermediate ones, and innermost-only.
#[test]
fn draws_cover_every_split_depth() {
    let mut seen = [false; 4];
    let mut rng = proptest::test_runner::TestRng::from_name("split-coverage");
    let strategy = affine_program(POOL);
    for _ in 0..512 {
        let p = strategy.generate(&mut rng);
        for n in &p.nests {
            let lins: Vec<_> = n
                .stmts
                .iter()
                .flat_map(|s| s.refs.iter())
                .map(|r| linearized_ref(r, &p.arrays[r.array], p.arrays[r.array].order))
                .collect();
            seen[segmented_forms(n, &lins).0] = true;
        }
    }
    assert_eq!(seen, [true; 4], "split depths drawn");
}
