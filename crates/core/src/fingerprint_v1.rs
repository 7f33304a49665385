//! Test-only reference: the version-1 check fingerprint, which hashed
//! each predicate, route-map entry list and originated route as
//! canonical JSON text (a serde `Value` tree rendered with sorted
//! map/set entries). [`crate::fingerprint`] replaced it with derived
//! `Hash`; this copy stays so tests can show that the two partition
//! every check population into the same classes, and can forge spills
//! keyed the way version-1 builds wrote them.
//!
//! Compiled only for tests: under `cfg(test)`, or with the
//! `fingerprint-v1` feature that the workspace's integration tests turn
//! on (the network generators depend on this crate, so corpus-wide
//! tests cannot live in its unit tests).

use crate::engine::{CheckBody, Verifier};
use crate::ghost::{GhostAttr, GhostUpdate};
use crate::invariants::NetworkInvariants;
use crate::pred::RoutePred;
use crate::safety::SafetyProperty;
use crate::universe::Universe;
use bgp_model::policy::Policy;
use bgp_model::routemap::RouteMap;
use orchestrator::{Fingerprint, FpHasher};
use serde::Serialize;
use std::hash::Hasher;

const FP_VERSION: u32 = 1;

fn canonical_json<T: Serialize>(x: &T) -> String {
    serde_json::to_string(&x.to_value()).expect("canonical serialization")
}

fn write_serde(h: &mut FpHasher, tag: &str, x: &impl Serialize) {
    h.write_tag(tag);
    h.write_str(&canonical_json(x));
}

/// Version-1 digest of the attribute universe.
pub fn universe_digest(u: &Universe) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_tag("universe");
    h.write_u32(FP_VERSION);
    let mut comms = u.communities().to_vec();
    comms.sort();
    h.write_u64(comms.len() as u64);
    for c in comms {
        h.write_u32(c.0);
    }
    let mut regexes = u.regexes().to_vec();
    regexes.sort();
    h.write_u64(regexes.len() as u64);
    for r in regexes {
        h.write_str(&r);
    }
    let mut ghosts = u.ghosts().to_vec();
    ghosts.sort();
    h.write_u64(ghosts.len() as u64);
    for g in ghosts {
        h.write_str(&g);
    }
    h.finish()
}

fn write_pred(h: &mut FpHasher, tag: &str, p: &RoutePred) {
    write_serde(h, tag, p);
}

fn write_route_map(h: &mut FpHasher, map: Option<&RouteMap>) {
    match map {
        None => h.write_tag("no-map"),
        Some(m) => {
            h.write_tag("map");
            write_serde(h, "entries", &m.entries);
        }
    }
}

fn write_ghost_update(h: &mut FpHasher, u: GhostUpdate) {
    h.write_u8(match u {
        GhostUpdate::SetTrue => 1,
        GhostUpdate::SetFalse => 2,
        GhostUpdate::Unchanged => 0,
    });
}

fn write_ghosts(
    h: &mut FpHasher,
    ghosts: &[GhostAttr],
    per_ghost: impl Fn(&mut FpHasher, &GhostAttr),
) {
    let mut sorted: Vec<&GhostAttr> = ghosts.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    h.write_u64(sorted.len() as u64);
    for g in sorted {
        h.write_str(&g.name);
        per_ghost(h, g);
    }
}

/// The version-1 fingerprint of one resolved check.
pub(crate) fn check_fingerprint(
    universe_fp: Fingerprint,
    policy: &Policy,
    ghosts: &[GhostAttr],
    body: &CheckBody,
) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_tag("check");
    h.write_u32(FP_VERSION);
    h.write_u64((universe_fp.0 >> 64) as u64);
    h.write_u64(universe_fp.0 as u64);
    match body {
        CheckBody::Transfer {
            edge,
            is_import,
            assume,
            ensure,
            require_accept,
        } => {
            h.write_tag("transfer");
            h.write_u8(*is_import as u8);
            h.write_u8(*require_accept as u8);
            let map = if *is_import {
                policy.import_map(*edge)
            } else {
                policy.export_map(*edge)
            };
            write_route_map(&mut h, map);
            write_ghosts(&mut h, ghosts, |h, g| {
                let u = if *is_import {
                    g.import_update(*edge)
                } else {
                    g.export_update(*edge)
                };
                write_ghost_update(h, u);
            });
            write_pred(&mut h, "assume", assume);
            write_pred(&mut h, "ensure", ensure);
        }
        CheckBody::Originate { edge, ensure } => {
            h.write_tag("originate");
            let mut routes: Vec<String> = policy
                .originated(*edge)
                .iter()
                .map(canonical_json)
                .collect();
            routes.sort();
            h.write_u64(routes.len() as u64);
            for r in routes {
                h.write_str(&r);
            }
            write_ghosts(&mut h, ghosts, |h, g| h.write_u8(g.originate_value as u8));
            write_pred(&mut h, "ensure", ensure);
        }
        CheckBody::Implication { assume, ensure } => {
            h.write_tag("implication");
            write_pred(&mut h, "assume", assume);
            write_pred(&mut h, "ensure", ensure);
        }
    }
    h.finish()
}

/// `(version-1, current)` fingerprints of every check the suite
/// generates, in generation order (the order a
/// [`crate::reverify::ReverifyEngine`] round resolves them in).
pub fn fingerprint_pairs(
    v: &Verifier,
    props: &[SafetyProperty],
    inv: &NetworkInvariants,
) -> Vec<(Fingerprint, Fingerprint)> {
    let (checks, universe) = v.resolve_multi(props, inv);
    let (old_u, new_u) = (
        universe_digest(&universe),
        crate::fingerprint::universe_digest(&universe),
    );
    checks
        .iter()
        .map(|c| {
            (
                check_fingerprint(old_u, v.policy(), v.ghosts(), &c.body),
                crate::fingerprint::check_fingerprint(new_u, v.policy(), v.ghosts(), &c.body),
            )
        })
        .collect()
}
