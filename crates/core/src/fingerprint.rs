//! Structural fingerprints of resolved checks (the orchestrator key).
//!
//! A fingerprint identifies the *mathematical content* of a check —
//! what formula the solver will see — and is invariant under
//! router/edge renaming: router names, node/edge ids, check ids and
//! route-map *names* are never hashed. WAN-scale networks instantiate
//! the same route-map template on hundreds of peerings under the same
//! invariant template, so those checks collapse to a single fingerprint
//! and a single solver call (`orchestrator::run_deduped`).
//!
//! The fingerprints form one chain, each link hashing the one before:
//!
//! * `transfer_fingerprint`: one edge direction's transfer relation —
//!   the universe digest, the direction, the route-map *contents*
//!   (entries, not the name) and every ghost's name with its update on
//!   that edge and direction.
//! * `rest_fingerprint`: everything but the assume side —
//!   H(transfer, `require_accept`, ensure) for a transfer check,
//!   H(universe, ensure) for an implication.
//! * `check_fingerprint`: H(rest, assume). An Originate check has no
//!   symbolic assume side and hashes its own body: the universe digest,
//!   the originated routes as a multiset (route digests, sorted), each
//!   ghost's name with its origination default, and the ensure side.
//!
//! **Canonical stream.** Values are written by their derived
//! [`std::hash::Hash`] impls into [`FpHasher`], whose `Hasher` face
//! pins every integer to fixed-width little-endian and `usize`/`isize`
//! to 8 bytes. std supplies the framing: a length prefix before every
//! slice, `Vec` and `BTreeSet`, a terminator after every string, and
//! each enum variant's discriminant before its fields, so distinct
//! values cannot run together into one stream. `BTreeSet`s (a route's
//! communities) hash in sorted order; unordered tables this module
//! builds itself (ghosts, originated routes, universe tables) are
//! sorted first. Every chain starts from a tag and `FP_VERSION`.
//!
//! **Toolchain changes only cost misses.** The stream belongs to the
//! std `Hash` impls of the compiler that built the binary (and integer
//! slices are written as raw native-endian bytes). A toolchain that
//! writes some type differently moves the fingerprint of every check
//! containing that type, so a cache spilled by the old build stops
//! matching and its checks are re-proved. A wrong match would need the
//! old build's stream for one check to equal the new build's stream for
//! a *different* check byte for byte; a framing change (a terminator, a
//! prefix width) moves every value of the changed type alike, which
//! yields misses, not such pairs.

use crate::engine::CheckBody;
use crate::ghost::GhostAttr;
use crate::universe::Universe;
use bgp_model::policy::Policy;
use bgp_model::topology::EdgeId;
use orchestrator::{Fingerprint, FpHasher};
use std::hash::{Hash, Hasher};

/// Bump when any canonical encoding below changes; spilled caches keyed
/// under the old version then simply miss instead of corrupting runs.
/// Version 1 hashed canonical JSON text; version 2 derived `Hash`.
const FP_VERSION: u32 = 2;

/// A hasher opened with a structure tag and the format version.
fn tagged(tag: &str) -> FpHasher {
    let mut h = FpHasher::new();
    h.write_tag(tag);
    h.write_u32(FP_VERSION);
    h
}

/// Digest of one value under a structure tag.
fn digest(tag: &str, x: &impl Hash) -> Fingerprint {
    let mut h = tagged(tag);
    x.hash(&mut h);
    h.finish()
}

/// Digest of the attribute universe (sorted, order-insensitive).
pub fn universe_digest(u: &Universe) -> Fingerprint {
    let mut comms = u.communities().to_vec();
    comms.sort();
    let mut regexes = u.regexes().to_vec();
    regexes.sort();
    let mut ghosts = u.ghosts().to_vec();
    ghosts.sort();
    digest("universe", &(comms, regexes, ghosts))
}

/// Ghosts sorted by name, each paired with the part of it that the
/// check's formula depends on.
fn hash_ghosts<T: Hash>(h: &mut FpHasher, ghosts: &[GhostAttr], part: impl Fn(&GhostAttr) -> T) {
    let mut sorted: Vec<(&str, T)> = ghosts.iter().map(|g| (g.name.as_str(), part(g))).collect();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    sorted.hash(h);
}

/// The fingerprint of one edge's **transfer relation** only — the
/// route-map contents, the ghost updates on that edge+direction and the
/// universe digest, *without* any assume/ensure predicate. This is the
/// part of a transfer check's encoding a persistent re-verify session
/// keeps across runs: when it is unchanged, the session's existing
/// symbolic transfer can answer a re-dirtied check without re-encoding;
/// when it differs, the session re-encodes the new relation and the old
/// one is left retracted.
pub(crate) fn transfer_fingerprint(
    universe_fp: Fingerprint,
    policy: &Policy,
    ghosts: &[GhostAttr],
    edge: EdgeId,
    is_import: bool,
) -> Fingerprint {
    let mut h = tagged("transfer");
    universe_fp.hash(&mut h);
    is_import.hash(&mut h);
    let map = if is_import {
        policy.import_map(edge)
    } else {
        policy.export_map(edge)
    };
    map.map(|m| &m.entries).hash(&mut h);
    hash_ghosts(&mut h, ghosts, |g| {
        if is_import {
            g.import_update(edge)
        } else {
            g.export_update(edge)
        }
    });
    h.finish()
}

/// The fingerprint of everything in a check's formula **except** its
/// assume predicate — the universe digest, the transfer relation (or
/// implication tag) and the ensure side. Two checks with equal rest
/// fingerprints pose the same `¬goal` query over the same symbolic
/// route and transfer; only their assumed invariants differ. This is
/// the key of the re-verify engine's conjunct-core cache: a check that
/// previously passed with core `C` still passes whenever its rest is
/// unchanged and every conjunct of `C` still occurs in the new assume —
/// strengthening the positive-position assume can only shrink the model
/// set of `assume ∧ ¬goal`.
pub(crate) fn rest_fingerprint(
    universe_fp: Fingerprint,
    policy: &Policy,
    ghosts: &[GhostAttr],
    body: &CheckBody,
) -> Option<Fingerprint> {
    let (mut h, ensure) = match body {
        CheckBody::Transfer {
            edge,
            is_import,
            ensure,
            require_accept,
            ..
        } => {
            let mut h = tagged("rest-transfer");
            transfer_fingerprint(universe_fp, policy, ghosts, *edge, *is_import).hash(&mut h);
            require_accept.hash(&mut h);
            (h, ensure)
        }
        CheckBody::Implication { ensure, .. } => {
            let mut h = tagged("rest-implication");
            universe_fp.hash(&mut h);
            (h, ensure)
        }
        // Concrete finite evaluation: no symbolic assume side, no core.
        CheckBody::Originate { .. } => return None,
    };
    ensure.hash(&mut h);
    Some(h.finish())
}

/// Canonical fingerprint of one assume conjunct. Only ever compared
/// between rounds with identical universe layouts (the re-verify engine
/// resets its core cache on any layout change) and under equal rest
/// fingerprints, which embed the universe digest.
pub(crate) fn conjunct_fingerprint(pred: &crate::pred::RoutePred) -> u128 {
    digest("conjunct", pred).0
}

/// The fingerprint of one resolved check.
pub(crate) fn check_fingerprint(
    universe_fp: Fingerprint,
    policy: &Policy,
    ghosts: &[GhostAttr],
    body: &CheckBody,
) -> Fingerprint {
    match body {
        CheckBody::Transfer { assume, .. } | CheckBody::Implication { assume, .. } => {
            let mut h = tagged("check");
            rest_fingerprint(universe_fp, policy, ghosts, body).hash(&mut h);
            assume.hash(&mut h);
            h.finish()
        }
        CheckBody::Originate { edge, ensure } => {
            let mut h = tagged("originate");
            universe_fp.hash(&mut h);
            let mut routes: Vec<Fingerprint> = policy
                .originated(*edge)
                .iter()
                .map(|r| digest("route", r))
                .collect();
            routes.sort();
            routes.hash(&mut h);
            hash_ghosts(&mut h, ghosts, |g| g.originate_value);
            ensure.hash(&mut h);
            h.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghost::GhostUpdate;
    use crate::pred::RoutePred;
    use bgp_model::routemap::{RouteMap, RouteMapEntry, SetAction};
    use bgp_model::{Community, Route};

    fn tag_map(name: &str) -> RouteMap {
        let mut m = RouteMap::new(name);
        m.push(RouteMapEntry::permit(10).setting(SetAction::Community {
            comms: vec![Community::new(100, 1)],
            additive: true,
        }));
        m
    }

    fn transfer_body(edge: EdgeId) -> CheckBody {
        CheckBody::Transfer {
            edge,
            is_import: true,
            assume: RoutePred::True,
            ensure: RoutePred::has_community(Community::new(100, 1)),
            require_accept: false,
        }
    }

    #[test]
    fn renamed_identical_templates_share_a_fingerprint() {
        // Same map contents under different names on different edges.
        let mut pol = Policy::new();
        pol.set_import(EdgeId(0), tag_map("FROM-PEER0"));
        pol.set_import(EdgeId(7), tag_map("FROM-PEER7"));
        let u = Universe::from_policy(&pol);
        let ufp = universe_digest(&u);
        let a = check_fingerprint(ufp, &pol, &[], &transfer_body(EdgeId(0)));
        let b = check_fingerprint(ufp, &pol, &[], &transfer_body(EdgeId(7)));
        assert_eq!(a, b, "identical templates must collapse");
    }

    #[test]
    fn different_contents_differ() {
        let mut pol = Policy::new();
        pol.set_import(EdgeId(0), tag_map("A"));
        let mut other = RouteMap::new("A");
        other.push(RouteMapEntry::deny(10));
        pol.set_import(EdgeId(1), other);
        let u = Universe::from_policy(&pol);
        let ufp = universe_digest(&u);
        let a = check_fingerprint(ufp, &pol, &[], &transfer_body(EdgeId(0)));
        let b = check_fingerprint(ufp, &pol, &[], &transfer_body(EdgeId(1)));
        assert_ne!(a, b);
    }

    #[test]
    fn ghost_updates_on_the_edge_matter() {
        let mut pol = Policy::new();
        pol.set_import(EdgeId(0), tag_map("A"));
        pol.set_import(EdgeId(1), tag_map("B"));
        let u = Universe::from_policy(&pol);
        let ufp = universe_digest(&u);
        let set_true =
            crate::ghost::GhostAttr::new("G").with_import(EdgeId(0), GhostUpdate::SetTrue);
        let a = check_fingerprint(
            ufp,
            &pol,
            std::slice::from_ref(&set_true),
            &transfer_body(EdgeId(0)),
        );
        let b = check_fingerprint(ufp, &pol, &[set_true], &transfer_body(EdgeId(1)));
        assert_ne!(a, b, "differing ghost updates must split the fingerprint");
    }

    #[test]
    fn universe_digest_is_order_insensitive() {
        let mut u1 = Universe::new();
        u1.add_community(Community::new(1, 1));
        u1.add_community(Community::new(2, 2));
        u1.add_ghost("A");
        u1.add_ghost("B");
        let mut u2 = Universe::new();
        u2.add_ghost("B");
        u2.add_ghost("A");
        u2.add_community(Community::new(2, 2));
        u2.add_community(Community::new(1, 1));
        assert_eq!(universe_digest(&u1), universe_digest(&u2));
        u2.add_regex("_65000_");
        assert_ne!(universe_digest(&u1), universe_digest(&u2));
    }

    #[test]
    fn originate_hashes_routes_and_defaults() {
        let mut pol = Policy::new();
        pol.add_origination(EdgeId(0), Route::new("198.51.100.0/24".parse().unwrap()));
        let u = Universe::from_policy(&pol);
        let ufp = universe_digest(&u);
        let body = CheckBody::Originate {
            edge: EdgeId(0),
            ensure: RoutePred::True,
        };
        let a = check_fingerprint(ufp, &pol, &[], &body);
        // Same edge, additional origination changes the set.
        pol.add_origination(EdgeId(0), Route::new("203.0.113.0/24".parse().unwrap()));
        let b = check_fingerprint(ufp, &pol, &[], &body);
        assert_ne!(a, b);
        // The routes are a multiset: order does not matter, contents do.
        let on = |edge: EdgeId| CheckBody::Originate {
            edge,
            ensure: RoutePred::True,
        };
        pol.add_origination(EdgeId(1), Route::new("203.0.113.0/24".parse().unwrap()));
        pol.add_origination(EdgeId(1), Route::new("198.51.100.0/24".parse().unwrap()));
        pol.add_origination(EdgeId(2), Route::new("198.51.100.0/24".parse().unwrap()));
        pol.add_origination(EdgeId(2), Route::new("192.0.2.0/24".parse().unwrap()));
        let fp = |e| check_fingerprint(ufp, &pol, &[], &on(EdgeId(e)));
        assert_eq!(fp(0), fp(1));
        assert_ne!(fp(0), fp(2));
        // Origination defaults are part of the check.
        let tagged = crate::ghost::GhostAttr::new("G");
        let mut set = tagged.clone();
        set.originate_value = true;
        assert_ne!(
            check_fingerprint(ufp, &pol, &[tagged], &on(EdgeId(0))),
            check_fingerprint(ufp, &pol, &[set], &on(EdgeId(0)))
        );
    }
}
