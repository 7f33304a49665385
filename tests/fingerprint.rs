//! Check fingerprints: the derived-`Hash` format against the
//! canonical-JSON reference it replaced (`lightyear::fingerprint_v1`).
//!
//! * **Same partition.** On every corpus entry and on the 50-router WAN,
//!   clean and with injected bugs, the map from old to new fingerprints
//!   is a bijection over the generated checks: dedup, the result cache
//!   and re-verification see exactly the same classes as before.
//! * **Stale spills miss.** A `--cache-dir` spill written by a build
//!   that keyed checks the old way, even one carrying forged verdicts,
//!   answers nothing after the upgrade: every check is re-proved and the
//!   report is byte-identical to a cold run.

use lightyear::check::{CheckResult, Counterexample};
use lightyear::engine::{RunMode, Verifier};
use lightyear::fingerprint_v1::fingerprint_pairs;
use lightyear::reverify::ReverifyEngine;
use lightyear::{
    load_check_cache, load_pass_cache, save_check_cache, CheckCache, NetworkInvariants, Report,
    SafetyProperty, SolvedCheck,
};
use netgen::wan::{self, WanParams};
use netgen::zoo::{self, ZooParams, CORPUS};
use orchestrator::Fingerprint;
use std::collections::HashMap;

/// Assert that `v1 -> v2` is a bijection over one check population.
fn assert_same_partition(label: &str, pairs: &[(Fingerprint, Fingerprint)]) {
    assert!(!pairs.is_empty(), "{label}: no checks");
    let mut old_to_new: HashMap<Fingerprint, Fingerprint> = HashMap::new();
    let mut new_to_old: HashMap<Fingerprint, Fingerprint> = HashMap::new();
    for &(old, new) in pairs {
        assert_eq!(
            *old_to_new.entry(old).or_insert(new),
            new,
            "{label}: the new format splits an old class"
        );
        assert_eq!(
            *new_to_old.entry(new).or_insert(old),
            old,
            "{label}: the new format merges two old classes"
        );
    }
    assert_eq!(old_to_new.len(), new_to_old.len(), "{label}");
    assert!(
        old_to_new.keys().all(|k| !new_to_old.contains_key(k)),
        "{label}: an old key equals a new one"
    );
}

/// The 50-router WAN of the paper's §6.1 scale.
fn wan50() -> WanParams {
    WanParams {
        regions: 6,
        routers_per_region: 6,
        edge_routers: 14,
        peers_per_edge: 2,
        seed: 0,
    }
}

fn check_wan(label: &str, s: &wan::Scenario) {
    let v = Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.from_peer_ghost());
    for (name, q) in s.peering_predicates() {
        let (props, inv) = s.peering_property_inputs(&q);
        assert_same_partition(
            &format!("{label} {name}"),
            &fingerprint_pairs(&v, &props, &inv),
        );
    }
}

#[test]
fn new_fingerprints_partition_the_zoo_like_the_old_ones() {
    for entry in CORPUS {
        let s = zoo::build(&ZooParams::for_entry(entry));
        let v =
            Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.from_peer_ghost());
        for (suite, (props, inv)) in [
            ("peering", s.peering_suite()),
            ("fencing", s.fencing_suite()),
        ] {
            let pairs = fingerprint_pairs(&v, &props, &inv);
            assert_same_partition(&format!("{} {suite}", entry.name), &pairs);
        }
    }
}

#[test]
fn new_fingerprints_partition_the_wan_like_the_old_ones() {
    let params = wan50();
    check_wan("wan50 clean", &wan::build(&params));

    // Every bug class on its own peer map, so the mutated maps differ
    // from the fleet template and from each other.
    let mut configs = wan::configs(&params);
    netgen::mutate::drop_community_sets(&mut configs, "EDGE0", "FROM-PEER0").unwrap();
    netgen::mutate::drop_aspath_filters(&mut configs, "EDGE1", "FROM-PEER1").unwrap();
    for (i, list) in ["BOGONS", "REUSED", "INFRA", "DEFAULT", "TOO-SPECIFIC"]
        .iter()
        .enumerate()
    {
        let router = format!("EDGE{}", i + 2);
        netgen::mutate::drop_prefix_deny(&mut configs, &router, "FROM-PEER0", list).unwrap();
    }
    check_wan("wan50 mutated", &wan::build_from_configs(&params, configs));
}

/// A small WAN with one real violation, and its no-private-asn suite.
fn failing_wan() -> (wan::Scenario, Vec<SafetyProperty>, NetworkInvariants) {
    let params = WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 2,
        peers_per_edge: 2,
        seed: 7,
    };
    let mut configs = wan::configs(&params);
    netgen::mutate::drop_aspath_filters(&mut configs, "EDGE1", "FROM-PEER1").unwrap();
    let s = wan::build_from_configs(&params, configs);
    let (_, q) = s
        .peering_predicates()
        .into_iter()
        .find(|(n, _)| n == "no-private-asn")
        .unwrap();
    let (props, inv) = s.peering_property_inputs(&q);
    (s, props, inv)
}

fn rendered(s: &wan::Scenario, r: &Report) -> (String, String) {
    (r.to_string(), r.format_failures(&s.network.topology))
}

/// A spill holding the opposite of every cold verdict — a pass for each
/// failing check, a failure (borrowing a real counterexample) for each
/// passing one — keyed by `key(old, new)` of each check. Returns the
/// number of entries written (one per distinct key).
fn forged_spill(
    pairs: &[(Fingerprint, Fingerprint)],
    cold: &Report,
    key: impl Fn(Fingerprint, Fingerprint) -> Fingerprint,
    dir: &std::path::Path,
) -> usize {
    let cex: Counterexample = cold
        .outcomes
        .iter()
        .find_map(|o| match &o.result {
            CheckResult::Fail(c) => Some((**c).clone()),
            CheckResult::Pass => None,
        })
        .expect("the cold run has a failure");
    let forged = CheckCache::new();
    for o in &cold.outcomes {
        let (old, new) = pairs[o.check.id];
        let result = match o.result {
            CheckResult::Pass => CheckResult::Fail(Box::new(cex.clone())),
            CheckResult::Fail(_) => CheckResult::Pass,
        };
        let core = result.passed().then(Vec::new);
        forged.insert(
            key(old, new),
            SolvedCheck {
                result,
                stats: o.stats,
                core,
            },
        );
    }
    let _ = std::fs::remove_dir_all(dir);
    save_check_cache(&forged, dir).unwrap()
}

#[test]
fn spills_keyed_by_old_fingerprints_answer_nothing() {
    let (s, props, inv) = failing_wan();
    let v =
        || Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.from_peer_ghost());
    let pairs = fingerprint_pairs(&v(), &props, &inv);

    // Cold runs on empty caches; their caches still count the hits of
    // in-round dedup, which a stale spill must not add to.
    let mut cold_engine = ReverifyEngine::new();
    let (cold, cold_stats) = cold_engine.reverify(&v(), &props, &inv, None);
    assert!(!cold.all_passed() && cold.num_checks() > 1);
    assert_eq!(cold_stats.dirty, cold_stats.total);
    let cold_hits = cold_engine.cache().stats().hits;
    let cold_cache = std::sync::Arc::new(CheckCache::new());
    let cold_multi = v()
        .with_mode(RunMode::Parallel)
        .with_cache(cold_cache.clone())
        .verify_safety_multi(&props, &inv);

    let dir = std::env::temp_dir().join(format!("ly-fp-v1-spill-{}", std::process::id()));
    let written = forged_spill(&pairs, &cold, |old, _| old, &dir);

    // Restart path of `watch --cache-dir` and `serve` tenants.
    let (cache, loaded) = load_pass_cache(&dir).unwrap();
    assert!(loaded > 0, "the forged passes load");
    let (warm, stats) =
        ReverifyEngine::with_results(cache.clone()).reverify(&v(), &props, &inv, None);
    assert_eq!(
        cache.stats().hits,
        cold_hits,
        "no old key may answer a check"
    );
    assert_eq!(
        stats.summary(),
        cold_stats.summary(),
        "every check is re-proved"
    );
    assert_eq!(rendered(&s, &warm), rendered(&s, &cold));

    // `verify --cache-dir` loads failures too, and re-validates them.
    let (cache, loaded) = load_check_cache(&dir).unwrap();
    assert_eq!(loaded, written);
    let warm_multi = v()
        .with_mode(RunMode::Parallel)
        .with_cache(cache.clone())
        .verify_safety_multi(&props, &inv);
    assert_eq!(cache.stats().hits, cold_cache.stats().hits);
    assert_eq!(
        warm_multi.exec.cache_hits, 0,
        "no old key may answer a check"
    );
    assert_eq!(rendered(&s, &warm_multi), rendered(&s, &cold_multi));

    // Control: the same forgeries under the current keys are found, so
    // the misses above are the keys' doing, not an unread spill.
    forged_spill(&pairs, &cold, |_, new| new, &dir);
    let (cache, _) = load_pass_cache(&dir).unwrap();
    let (replayed, _) =
        ReverifyEngine::with_results(cache.clone()).reverify(&v(), &props, &inv, None);
    assert!(cache.stats().hits > cold_hits);
    assert_ne!(rendered(&s, &replayed), rendered(&s, &cold));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reference really is the old format: the smallest key of the
/// default WAN's first peering suite, as a build that still keyed
/// spills this way wrote it.
#[test]
fn reference_reproduces_old_keys() {
    let s = wan::build(&WanParams::default());
    let (_, q) = s.peering_predicates().into_iter().next().unwrap();
    let (props, inv) = s.peering_property_inputs(&q);
    let v = Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.from_peer_ghost());
    let smallest = fingerprint_pairs(&v, &props, &inv)
        .iter()
        .map(|p| p.0)
        .min()
        .unwrap();
    assert_eq!(smallest.to_hex(), "0f49d9d36559759f8a5af2fc87b34c1a");
}
