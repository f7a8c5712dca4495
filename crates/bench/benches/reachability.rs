//! Reachability exploration benchmark: thread scaling of the
//! batch-frontier explorer (shard-owned visited sets, flat state
//! encoding) at `jobs` ∈ {1, 2, 4, 8} on the fig13/walton search and on
//! a 12-router random sweep, with a determinism cross-check at every
//! thread count.

use criterion::{criterion_group, criterion_main, Criterion};
use ibgp::analysis::reachability::{explore, ExploreOptions};
use ibgp::scenarios::fig13;
use ibgp::scenarios::random::{random_scenario, RandomConfig};
use ibgp::ProtocolConfig;
use std::hint::black_box;

const MAX_STATES: usize = 500_000;
const JOBS: [usize; 4] = [1, 2, 4, 8];

fn opts(jobs: usize) -> ExploreOptions {
    ExploreOptions::new().max_states(MAX_STATES).jobs(jobs)
}

/// 12 routers (4 clusters × 2 clients), enough exits to disagree over.
fn random_sweep_scenario() -> ibgp::Scenario {
    let cfg = RandomConfig {
        clusters: 4,
        clients_per_cluster: 2,
        exits: 5,
        ..RandomConfig::default()
    };
    random_scenario(cfg, 11)
}

fn bench_thread_scaling(c: &mut Criterion) {
    let fig13 = fig13::scenario();
    let random = random_sweep_scenario();
    let cases: [(&str, &ibgp::Scenario, ProtocolConfig); 2] = [
        ("fig13/walton/scaling", &fig13, ProtocolConfig::WALTON),
        (
            "random12/standard/scaling",
            &random,
            ProtocolConfig::STANDARD,
        ),
    ];

    for (label, s, config) in cases {
        let reference = explore(&s.topology, config, s.exits(), opts(1));
        let base = reference.metrics.elapsed_nanos.max(1) as f64;
        println!(
            "{label}: {} states at jobs=1 ({:.0} states/sec)",
            reference.states,
            reference.metrics.states_per_sec()
        );
        let mut group = c.benchmark_group(label);
        for jobs in JOBS {
            // Determinism cross-check: every thread count must reproduce
            // the sequential result bit for bit.
            let parallel = explore(&s.topology, config, s.exits(), opts(jobs));
            assert_eq!(parallel.states, reference.states, "{label} jobs={jobs}");
            assert_eq!(parallel.complete, reference.complete);
            assert_eq!(parallel.stable_vectors, reference.stable_vectors);
            println!(
                "{label}: jobs={jobs} -> {:.2}x vs jobs=1 ({} handoffs, peak shard {})",
                base / parallel.metrics.elapsed_nanos.max(1) as f64,
                parallel.metrics.handoffs,
                parallel.metrics.peak_shard,
            );
            group.bench_function(format!("jobs-{jobs}"), |b| {
                b.iter(|| explore(black_box(&s.topology), config, s.exits(), opts(jobs)))
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(3)
        .warm_up_time(std::time::Duration::from_millis(100))
        .measurement_time(std::time::Duration::from_secs(5));
    targets = bench_thread_scaling
}
criterion_main!(benches);
