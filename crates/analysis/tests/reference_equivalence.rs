//! Property test: the explorer is exactly the reference search.
//!
//! `common::reference_search` states the search in its plainest form —
//! breadth-first over unmemoized `SyncEngine` clones, deduplicated on
//! `state_key(0)`. The explorer must reach the same result through its
//! encoded keys, memoized planners, chunked merge and worker pool, with
//! loop prevention off (the flat scheme) and on (the `LpEngine` sweep
//! rule), at one and eight workers: the same states, cap, stable
//! vectors, frontier depth and peak queue. Random instances cover all
//! three protocol variants, four session shapes (one of them a
//! redundantly reflected cluster, where loop prevention differs from
//! `Transfer`), and small caps, so the state at which a cap fires is
//! compared too.

use ibgp_analysis::{explore, ExploreOptions, Reachability};
use ibgp_proto::variants::ProtocolConfig;
use proptest::prelude::*;

mod common;
use common::{build_exits, build_topology, reference_search, Reference};

/// The explorer's result in the reference's terms.
fn observed(r: &Reachability) -> Reference {
    Reference {
        states: r.states,
        capped: r.stop.state_cap().is_some(),
        stable_vectors: r.stable_vectors.clone(),
        frontier_depth: r.metrics.frontier_depth,
        peak_queue: r.metrics.peak_queue,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn explore_matches_the_reference_search(
        n in 2usize..=5,
        shape in 0u8..4,
        chain_costs in prop::collection::vec(1u64..10, 4),
        extra_links in prop::collection::vec((0u32..5, 0u32..5, 1u64..10), 0..4),
        n_exits in 1usize..=4,
        exit_raw in prop::collection::vec((1u32..3, 0u32..11, 0u32..5, 0u64..6), 4),
        variant in 0u8..3,
        // 0 = effectively uncapped; k > 0 caps after k states.
        cap_raw in 0usize..40,
    ) {
        let topo = build_topology(n, shape, &chain_costs, &extra_links);
        let exits = build_exits(n, n_exits, &exit_raw);
        let config = [
            ProtocolConfig::STANDARD,
            ProtocolConfig::WALTON,
            ProtocolConfig::MODIFIED,
        ][variant as usize];
        let max_states = if cap_raw == 0 { 200_000 } else { cap_raw };
        for lp in [false, true] {
            let want = reference_search(&topo, config, &exits, lp, max_states);
            for jobs in [1, 8] {
                let options = ExploreOptions::new()
                    .max_states(max_states)
                    .loop_prevention(lp)
                    .jobs(jobs);
                let got = observed(&explore(&topo, config, exits.clone(), options));
                prop_assert_eq!(
                    &got, &want,
                    "lp {} jobs {}: got {:?}, want {:?}", lp, jobs, got, want
                );
            }
        }
    }
}

/// One- and two-router instances, which the property test (2..=5
/// routers) never draws at one. With one router the full set is that
/// router's singleton, so the explorer builds the singleton and only
/// accounts the full set; with two, a full set with one enabled router
/// repeats that router's singleton. Every variant, loop prevention off
/// (the flat scheme) and on (the sweep rule), one and eight workers.
#[test]
fn one_and_two_router_searches_match_the_reference_search() {
    // Exits as (next AS, MED, exit point, cost), as `build_exits` takes
    // them.
    type Exits = &'static [(u32, u32, u32, u64)];
    // (routers, session shape, exits).
    let cases: [(usize, u8, Exits); 7] = [
        (1, 0, &[(1, 0, 0, 0)]),
        (1, 0, &[(1, 5, 0, 0), (1, 2, 0, 3)]),
        (1, 1, &[(1, 5, 0, 2), (2, 0, 0, 1), (1, 1, 0, 0)]),
        (2, 0, &[(1, 0, 0, 0), (1, 0, 1, 0)]),
        (2, 0, &[(1, 3, 0, 1), (2, 0, 1, 0), (1, 1, 1, 2)]),
        (2, 1, &[(1, 0, 1, 0), (1, 4, 0, 1)]),
        (
            2,
            1,
            &[(1, 2, 0, 0), (1, 0, 1, 1), (2, 5, 1, 0), (2, 1, 0, 4)],
        ),
    ];
    for (case, &(n, shape, raw)) in cases.iter().enumerate() {
        let topo = build_topology(n, shape, &[3], &[]);
        let exits = build_exits(n, raw.len(), raw);
        for config in [
            ProtocolConfig::STANDARD,
            ProtocolConfig::WALTON,
            ProtocolConfig::MODIFIED,
        ] {
            for lp in [false, true] {
                let want = reference_search(&topo, config, &exits, lp, 200_000);
                for jobs in [1, 8] {
                    let options = ExploreOptions::new().loop_prevention(lp).jobs(jobs);
                    let got = observed(&explore(&topo, config, exits.clone(), options));
                    assert_eq!(
                        got, want,
                        "case {case} ({n} router(s)), {config:?}, lp {lp}, jobs {jobs}"
                    );
                }
            }
        }
    }
}
