//! Property tests of CDCM swap deltas: `CdcmObjective::swap_delta` must
//! be *bit-exact* with the difference of two independent full
//! evaluations — along SA-style chains (accepted and rejected moves) and
//! for GA-style queries on mappings the objective has not just seen —
//! and delta-driven annealing must follow the same trajectory as
//! full-evaluation annealing, seed for seed.
//!
//! Case counts default low for the regular CI run; the scheduled fuzz job
//! raises them through `NOC_FUZZ_CASES`.

use noc::apps::TgffConfig;
use noc::energy::{evaluate_cdcm, Technology};
use noc::mapping::{anneal, anneal_delta, CdcmObjective, SaConfig, SwapDeltaCost};
use noc::model::{Cdcg, Mapping, Mesh, TileId};
use noc::sim::SimParams;
use proptest::prelude::*;

/// Cases per property; override with `NOC_FUZZ_CASES` (the scheduled CI
/// fuzz job runs hundreds).
fn fuzz_cases() -> u32 {
    std::env::var("NOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// A random application plus a mesh that fits it, plus a parameter set
/// (alternating injection serialization to exercise the FIFO paths).
fn instance() -> impl Strategy<Value = (Cdcg, Mesh, SimParams)> {
    (2usize..7, 1usize..40, 2usize..5, 2usize..4, any::<u64>()).prop_map(
        |(cores, packets, width, height, seed)| {
            let cores = cores.min(width * height).max(2);
            let packets = packets.max(1);
            let cdcg = noc::apps::generate(&TgffConfig::new(
                cores,
                packets,
                (packets as u64) * 60,
                seed,
            ));
            let mesh = Mesh::new(width, height).expect("valid dims");
            let mut params = SimParams::new();
            params.injection_serialization = seed % 2 == 0;
            (cdcg, mesh, params)
        },
    )
}

fn permuted_mapping(mesh: &Mesh, cores: usize, seed: u64) -> Mapping {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut tiles: Vec<TileId> = mesh.tiles().collect();
    tiles.shuffle(&mut rng);
    Mapping::from_tiles(mesh, tiles.into_iter().take(cores)).expect("injective")
}

/// Small deterministic generator for swap sequences.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// `CdcmObjective::swap_delta` is exactly `cost(swap(m)) - cost(m)` —
    /// bitwise, where both costs come from independent full
    /// `evaluate_cdcm` runs, not from the objective's own cache. Queries
    /// alternate between the chain's current mapping (the SA pattern)
    /// and a fresh mapping in neither cache slot (the GA mutation
    /// pattern).
    #[test]
    fn objective_swap_delta_is_the_exact_cost_difference(
        (cdcg, mesh, params) in instance(),
        seed in any::<u64>(),
    ) {
        let tech = Technology::t007();
        let obj = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        let full = |m: &Mapping| {
            evaluate_cdcm(&cdcg, &mesh, m, &tech, &params)
                .expect("evaluates")
                .objective_pj()
        };
        let mut current = permuted_mapping(&mesh, cdcg.core_count(), seed);
        // The two mappings the objective evaluated last (its cache).
        let mut recent = [current.clone(), current.clone()];
        let mut rng = seed;
        let n = mesh.tile_count();
        let mut uncached_queries = 0u32;
        for step in 0..12u32 {
            let a = TileId::new((splitmix(&mut rng) % n as u64) as usize);
            let b = TileId::new((splitmix(&mut rng) % n as u64) as usize);
            let base = if step % 3 == 2 {
                // Every instance has at least 12 mappings (2+ cores on 4+
                // tiles), so a few redraws find one outside the cache.
                let mut fresh = permuted_mapping(&mesh, cdcg.core_count(), splitmix(&mut rng));
                for _ in 0..64 {
                    if !recent.contains(&fresh) {
                        break;
                    }
                    fresh = permuted_mapping(&mesh, cdcg.core_count(), splitmix(&mut rng));
                }
                if !recent.contains(&fresh) {
                    uncached_queries += 1;
                }
                fresh
            } else {
                current.clone()
            };
            let delta = obj.swap_delta(&base, a, b);
            let mut swapped = base.clone();
            swapped.swap_tiles(a, b);
            prop_assert_eq!(
                delta,
                full(&swapped) - full(&base),
                "step {} swap {}-{}",
                step,
                a,
                b
            );
            if a != b {
                recent = [base.clone(), swapped.clone()];
            }
            if base == current && splitmix(&mut rng).is_multiple_of(2) {
                current = swapped;
            }
        }
        prop_assert_eq!(uncached_queries, 4);
    }

    /// Delta-driven SA and full-evaluation SA visit the same moves and
    /// accept the same candidates, so they land on the same best mapping
    /// and cost, seed for seed.
    #[test]
    fn delta_sa_matches_full_sa_trajectories(
        (cdcg, mesh, params) in instance(),
        seed in any::<u64>(),
    ) {
        let tech = Technology::t007();
        let cores = cdcg.core_count();
        // A budget the quick profile never exhausts, so both variants
        // terminate on the stall condition at the same epoch.
        let mut config = SaConfig::quick(seed);
        config.max_evaluations = 10_000_000;

        let full_obj = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        let full = anneal(&full_obj, &mesh, cores, &config);

        let delta_obj = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        let delta = anneal_delta(&delta_obj, &mesh, cores, &config);

        prop_assert_eq!(&full.mapping, &delta.mapping);
        prop_assert_eq!(full.cost, delta.cost);
        // And the delta run served its current mapping from the cache
        // instead of re-evaluating it every move.
        let stats = delta_obj.delta_stats();
        prop_assert!(
            stats.cache_hits > 0,
            "delta SA never hit the cost cache: {:?}",
            stats
        );
    }
}
