//! Cross-path verdict parity: flat reflection vs flat hierarchy.
//!
//! A reflection spec with plain clusters (no full-mesh override, no
//! declared client–client sessions, standard protocol) is expressible
//! verbatim as a depth-1 hierarchy: same routers, same links, each
//! `(reflectors, clients)` cluster becoming a flat `ClusterSpec`, since
//! top-level hierarchy reflectors are fully meshed exactly like flat
//! reflection's reflectors. The two engines must then derive the same
//! search evidence — the same set of stable best-exit vectors and the
//! same persistence/convergence conclusion.
//!
//! The one pinned taxonomy difference (see `OscillationClass::from_evidence`
//! in `crates/analysis/src/oscillation.rs` and README "Scenario kinds"): the flat
//! reflection path follows a unique-stable-vector search with an
//! all-at-once live-cycle probe and reports *transient* when the probe
//! finds a reachable live cycle, while the confed/hierarchy searches
//! have no probe and classify a unique stable vector as *stable*. A
//! class mismatch is therefore legal in exactly that shape and no other.

use ibgp_analysis::OscillationClass;
use ibgp_hierarchy::{ClusterSpec, HierMode, Member};
use ibgp_hunt::spec::{HierSpec, ReflectionSpec, ScenarioSpec, SpecKind};
use ibgp_hunt::{classify_spec, generate_spec, HuntOptions, Verdict};
use ibgp_proto::ProtocolVariant;

/// Re-express a plain-clustered standard reflection spec as a depth-1
/// hierarchy; `None` when the spec uses structure the hierarchy kind
/// cannot encode (full mesh, client–client sessions, other variants).
fn as_flat_hierarchy(spec: &ScenarioSpec) -> Option<ScenarioSpec> {
    let SpecKind::Reflection(r) = &spec.kind else {
        return None;
    };
    if r.full_mesh || !r.client_sessions.is_empty() || r.variant != ProtocolVariant::Standard {
        return None;
    }
    let top = r
        .clusters
        .iter()
        .map(|(reflectors, clients)| ClusterSpec {
            reflectors: reflectors.clone(),
            members: clients.iter().map(|&c| Member::Router(c)).collect(),
        })
        .collect();
    let mut out = spec.clone();
    out.kind = SpecKind::Hierarchy(HierSpec {
        top,
        mode: HierMode::SingleBest,
    });
    Some(out)
}

fn sorted_vectors(v: &Verdict) -> Vec<Vec<Option<ibgp_types::ExitPathId>>> {
    let mut sv = v.stable_vectors.clone();
    sv.sort();
    sv
}

fn assert_parity(name: &str, refl: &ScenarioSpec, hier: &ScenarioSpec, opts: &HuntOptions) {
    let rv = classify_spec(refl, opts).expect("reflection spec classifies");
    let hv = classify_spec(hier, opts).expect("hierarchy spec classifies");
    assert!(rv.complete && hv.complete, "{name}: both searches complete");
    assert_eq!(
        sorted_vectors(&rv),
        sorted_vectors(&hv),
        "{name}: the reachable stable best-exit vectors must agree"
    );
    assert_eq!(
        rv.class == OscillationClass::Persistent,
        hv.class == OscillationClass::Persistent,
        "{name}: persistence is probe-independent and must agree"
    );
    if rv.class != hv.class {
        // The pinned live-cycle-probe difference, in its only legal shape.
        assert_eq!(rv.class, OscillationClass::Transient, "{name}");
        assert_eq!(hv.class, OscillationClass::Stable, "{name}");
        assert_eq!(
            rv.stable_vectors.len(),
            1,
            "{name}: the probe only runs on a unique stable vector"
        );
    }
}

#[test]
fn paper_figures_agree_across_both_paths() {
    let opts = HuntOptions::default();
    let mut compared = Vec::new();
    for s in ibgp_scenarios::all_scenarios() {
        let refl = ScenarioSpec::from_scenario(&s, ProtocolVariant::Standard);
        let Some(hier) = as_flat_hierarchy(&refl) else {
            continue;
        };
        if hier.build().is_err() {
            continue;
        }
        assert_parity(s.name, &refl, &hier, &opts);
        compared.push(s.name);
    }
    assert!(
        compared.len() >= 2,
        "expected several figures expressible both ways, got {compared:?}"
    );
}

#[test]
fn the_disagree_gadget_agrees_across_both_paths() {
    // The canonical 2-cluster bistable gadget, covering the
    // multiple-stable-vector (transient) case explicitly.
    let refl = ScenarioSpec {
        name: "disagree".into(),
        routers: 4,
        links: vec![(0, 2, 10), (0, 3, 1), (1, 3, 10), (1, 2, 1)],
        kind: SpecKind::Reflection(ReflectionSpec {
            full_mesh: false,
            clusters: vec![(vec![0], vec![2]), (vec![1], vec![3])],
            client_sessions: vec![],
            variant: ProtocolVariant::Standard,
            loop_prevention: false,
        }),
        exits: vec![
            ibgp_hunt::ExitSpec::new(1, 2, 1),
            ibgp_hunt::ExitSpec::new(2, 3, 1),
        ],
    };
    let hier = as_flat_hierarchy(&refl).expect("plain clusters are expressible");
    let opts = HuntOptions::default();
    assert_parity("disagree", &refl, &hier, &opts);
    let rv = classify_spec(&refl, &opts).unwrap();
    assert_eq!(rv.class, OscillationClass::Transient);
    assert_eq!(rv.stable_vectors.len(), 2);
}

#[test]
fn generated_reflection_instances_agree_across_both_paths() {
    let opts = HuntOptions::default();
    let mut compared = 0;
    for family in [
        ibgp_hunt::Family::Reflection,
        ibgp_hunt::Family::MultiReflector,
    ] {
        for index in 0..8 {
            let refl = generate_spec(family, 11, index);
            let Some(hier) = as_flat_hierarchy(&refl) else {
                continue;
            };
            if refl.build().is_err() || hier.build().is_err() {
                continue;
            }
            assert_parity(&refl.name, &refl, &hier, &opts);
            compared += 1;
        }
    }
    assert!(compared >= 4, "too few comparable instances: {compared}");
}
