//! Differential tests on random affine programs ([`arb::affine_program`]):
//! the analytic trace generator must match the per-iteration walk
//! oracle event for event, and its run-compressed form must lower back
//! to it and replay through the O(#runs) engine bitwise like the
//! per-event engine.

mod arb;

use arb::affine_program;
use proptest::prelude::*;
use sdpm_disk::ultrastar36z15;
use sdpm_ir::conform::linearized_ref;
use sdpm_ir::segmented_forms;
use sdpm_layout::DiskPool;
use sdpm_sim::{simulate, try_simulate_runs, DrpmConfig, Policy, TpmConfig};
use sdpm_trace::{compress, generate, generate_walk, TraceGenConfig};

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
        let runs = compress(&t);
        prop_assert_eq!(&runs.lower(), &t);

        let params = ultrastar36z15();
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

/// Each nest of 512 drawn programs: its planned split depth and, per
/// reference, the array and the in-segment slope of its closed form.
fn drawn_plans(seed: &str) -> Vec<(usize, Vec<(usize, i128)>)> {
    let mut rng = proptest::test_runner::TestRng::from_name(seed);
    let strategy = affine_program(POOL);
    let mut plans = Vec::new();
    for _ in 0..512 {
        let p = strategy.generate(&mut rng);
        for n in &p.nests {
            let refs: Vec<_> = n.stmts.iter().flat_map(|s| s.refs.iter()).collect();
            let lins: Vec<_> = refs
                .iter()
                .map(|r| linearized_ref(r, &p.arrays[r.array], p.arrays[r.array].order))
                .collect();
            let (split, forms) = segmented_forms(n, &lins);
            let slopes = refs.iter().zip(forms).map(|(r, f)| (r.array, f.slope));
            plans.push((split, slopes.collect()));
        }
    }
    plans
}

/// The strategy reaches every split depth the generator can plan: whole
/// nest, two intermediate ones, and innermost-only.
#[test]
fn draws_cover_every_split_depth() {
    let mut seen = [false; 4];
    for (split, _) in drawn_plans("split-coverage") {
        seen[split] = true;
    }
    assert_eq!(seen, [true; 4], "split depths drawn");
}

/// The strategy draws the shapes where a stale cached next miss would
/// diverge from the walk: two moving references to one array with equal
/// slopes, two with opposite slopes, and references moving backwards.
#[test]
fn draws_cover_shared_arrays_and_negative_slopes() {
    let (mut equal, mut opposite, mut negative) = (false, false, false);
    for (_, refs) in drawn_plans("slope-coverage") {
        negative |= refs.iter().any(|&(_, s)| s < 0);
        for (i, &(a, s)) in refs.iter().enumerate() {
            for &(b, t) in &refs[i + 1..] {
                if a == b && s != 0 {
                    equal |= s == t;
                    opposite |= s == -t;
                }
            }
        }
    }
    assert!(equal, "equal slopes on one array drawn");
    assert!(opposite, "opposite slopes on one array drawn");
    assert!(negative, "negative slopes drawn");
}
