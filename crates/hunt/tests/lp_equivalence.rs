//! Exactness control for the loop-prevention mechanics: with a single
//! cluster behind a single reflector (no reflector–reflector
//! redundancy), the message-level attributes are inert — CLUSTER_LIST
//! can never accumulate a second entry so the receive-side loop check
//! never fires, and SSLD only suppresses copies the recipient already
//! originates — so classification with loop prevention on must agree
//! with the paper's `Transfer` relation exactly, on the verdict *and*
//! on the reachable stable outcomes.

use ibgp_hunt::spec::{ExitSpec, ReflectionSpec, ScenarioSpec, SpecKind};
use ibgp_hunt::{classify_spec, HuntOptions};
use ibgp_proto::ProtocolVariant;
use proptest::prelude::*;

/// One random single-reflector scenario: router 0 reflects for everyone
/// else; a random spanning chain plus extra chords for IGP variety;
/// 2–3 exits with varied attributes at random routers.
fn single_rr_spec(n: usize, seed: u64) -> ScenarioSpec {
    // Small deterministic LCG so cases derive entirely from `seed`
    // (keeps the property reproducible from the proptest case alone).
    let mut state = seed | 1;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound.max(1)
    };
    let mut links = Vec::new();
    for v in 1..n as u32 {
        // Chain keeps the IGP connected; random costs vary the metric.
        links.push((v - 1, v, 1 + next(9)));
    }
    for _ in 0..next(3) {
        let u = next(n as u64) as u32;
        let v = next(n as u64) as u32;
        if u != v
            && !links
                .iter()
                .any(|&(a, b, _)| (a, b) == (u, v) || (b, a) == (u, v))
        {
            links.push((u, v, 1 + next(9)));
        }
    }
    let exits = (0..2 + next(2))
        .map(|i| {
            ExitSpec::new(i as u32 + 1, next(n as u64) as u32, 1 + (i as u32 % 2))
                .med(next(20) as u32)
        })
        .collect();
    ScenarioSpec {
        name: format!("single-rr-{seed}"),
        routers: n,
        links,
        kind: SpecKind::Reflection(ReflectionSpec {
            full_mesh: false,
            clusters: vec![(vec![0], (1..n as u32).collect())],
            client_sessions: Vec::new(),
            variant: ProtocolVariant::Standard,
            loop_prevention: false,
        }),
        exits,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn single_cluster_single_reflector_verdicts_are_identical(
        n in 2usize..6,
        seed in any::<u64>(),
    ) {
        let plain = single_rr_spec(n, seed);
        let mut lp = plain.clone();
        match &mut lp.kind {
            SpecKind::Reflection(r) => r.loop_prevention = true,
            _ => unreachable!(),
        }
        let opts = HuntOptions::default();
        let off = classify_spec(&plain, &opts).unwrap();
        let on = classify_spec(&lp, &opts).unwrap();
        prop_assert_eq!(off.class, on.class, "lp flipped the verdict on {}", plain.name);
        prop_assert_eq!(off.complete, on.complete);
        // Same reachable stable outcomes, not just the same class.
        let mut a = off.stable_vectors.clone();
        let mut b = on.stable_vectors.clone();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b, "lp changed the stable set on {}", plain.name);
    }
}
