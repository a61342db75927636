//! Campaign-runner determinism battery: thread-count independence,
//! same-seed replay, and summary sanity.

use bass::scenario::{run_campaign, CampaignOptions, CampaignSummary, ScenarioSpec};
use serde_json::Value;

/// A reference campaign small enough for test time but exercising churn,
/// fades, faults, and multiple replicas.
fn test_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_reference();
    spec.horizon_ticks = 120;
    spec.replicas = 3;
    spec
}

/// The summary of `spec`'s campaign at `seed` over `jobs` threads.
fn summary(spec: &ScenarioSpec, seed: u64, jobs: usize) -> CampaignSummary {
    let opts = CampaignOptions { jobs, ..CampaignOptions::default() };
    run_campaign(spec, seed, &opts).unwrap().summary
}

#[test]
fn sequential_and_parallel_summaries_are_byte_identical() {
    let spec = test_spec();
    let sequential = summary(&spec, 42, 1);
    let parallel = summary(&spec, 42, 4);
    assert_eq!(
        sequential.to_json(),
        parallel.to_json(),
        "--jobs must never change campaign output"
    );
}

#[test]
fn same_seed_replays_bit_for_bit_and_seeds_differ() {
    let spec = test_spec();
    let a = summary(&spec, 7, 2);
    let b = summary(&spec, 7, 2);
    assert_eq!(a.to_json(), b.to_json(), "same seed must replay bit-for-bit");
    let c = summary(&spec, 8, 2);
    assert_ne!(a.to_json(), c.to_json(), "different seeds must differ");
}

#[test]
fn summary_json_is_well_formed_and_consistent() {
    let spec = test_spec();
    let summary = summary(&spec, 3, 2);
    // Counters fold correctly across replicas.
    assert_eq!(summary.replicas.len(), spec.replicas as usize);
    assert_eq!(
        summary.aggregate.ticks,
        spec.horizon_ticks * u64::from(spec.replicas)
    );
    let admitted: u64 = summary.replicas.iter().map(|r| r.apps_admitted).sum();
    assert_eq!(summary.aggregate.apps_admitted, admitted);
    let samples: u64 = summary.replicas.iter().map(|r| r.goodput.samples).sum();
    assert_eq!(summary.aggregate.goodput.samples, samples);
    for r in &summary.replicas {
        assert!(r.apps_retired <= r.apps_admitted);
        assert!(r.goodput.samples > 0);
        let share: f64 = r.bandwidth_share.values().sum();
        assert!(share == 0.0 || (share - 1.0).abs() < 1e-9);
    }
    // The JSON round-trips through both the shim parser and the typed
    // representation.
    let json = summary.to_json();
    let value: Value = serde_json::from_str(&json).expect("summary is valid JSON");
    assert!(value["aggregate"]["goodput"]["p50"].as_f64().is_some());
    let back: CampaignSummary = serde_json::from_str(&json).expect("summary deserializes");
    assert_eq!(back, summary);
}

#[test]
fn replica_seeds_are_order_independent() {
    // Replica k's scenario is forked straight off the campaign seed, so
    // shrinking the replica count must keep the surviving replicas'
    // results identical — the guarantee that makes sharding safe.
    let mut spec = test_spec();
    spec.replicas = 3;
    let three = summary(&spec, 21, 2);
    spec.replicas = 2;
    let two = summary(&spec, 21, 2);
    assert_eq!(
        serde_json::to_string(&three.replicas[..2]).unwrap(),
        serde_json::to_string(&two.replicas[..]).unwrap()
    );
}

/// `examples/campaign_city.json` is the source of truth for the
/// city-scale scenario (CI's campaign and arena smokes and every doc
/// command read it): it must parse, validate, and stay the 100-node,
/// 100 000-tick city the docs describe.
#[test]
fn city_example_spec_parses_and_validates() {
    let spec = ScenarioSpec::from_json(include_str!("../examples/campaign_city.json"))
        .expect("the example parses");
    spec.validate().expect("the example validates");
    assert_eq!(spec.name, "city-100");
    assert_eq!(spec.node_count(), 100);
    assert_eq!(
        (spec.horizon_ticks, spec.step_ms, spec.sample_every_ticks, spec.replicas),
        (100_000, 1000, 100, 1)
    );
}
