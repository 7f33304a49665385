//! The `edit-serve` tenants: a corpus network, a peering-hygiene spec,
//! and a seeded edit stream that never invalidates the spec.
//!
//! `netgen::edits::random_edit` may remove a peering, which deletes an
//! external the spec names; the daemon then refuses that delta and every
//! later one. This generator draws only edits that keep every spec name
//! resolvable:
//!
//! * semantic tweaks on one router that keep the spec true (a peer
//!   import's MED, a site import's local-pref, dropping a peer import's
//!   AS-path denies);
//! * cosmetic edits that must re-verify with `dirty 0` (a route-map
//!   rename, an unused prefix list);
//! * bugs that break the spec at one peer import (untagging, letting
//!   reused prefixes in, a wrong local-pref).
//!
//! The stream alternates between the base network and the base plus one
//! pool edit, so every request is a one-router delta, each bug is
//! reverted by the next round, and the network stays stationary.

use crate::record::mix;
use api::ConfigFile;
use bgp_config::ast::SetAst;
use bgp_config::{print_config, ConfigAst};
use bgp_model::topology::Topology;
use lightyear::ghost::{GhostAttr, GhostUpdate};
use lightyear::invariants::{Location, NetworkInvariants};
use lightyear::pred::{Cmp, RoutePred};
use lightyear::SafetyProperty;
use netgen::edits::{add_unused_prefix_list, rename_route_map, set_local_pref};
use netgen::mutate::{drop_aspath_filters, drop_community_sets, drop_prefix_deny};
use netgen::wan::{peer_comm, reused_prefix};
use netgen::zoo::{self, ZooParams};
use serde_json::Value;

/// What one pool edit is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    pub router: String,
    pub description: String,
    /// Semantically invisible: the round must report `dirty 0`.
    pub cosmetic: bool,
    /// Breaks the spec: the round's report must fail.
    pub bug: bool,
}

/// One configuration set of the stream, in the daemon's (name-sorted)
/// file order.
pub struct State {
    /// `None` for the base network.
    pub edit: Option<Edit>,
    pub configs: Vec<ConfigFile>,
}

/// The spec's names, kept as text: the same names go to the daemon as
/// `spec.json` and resolve in process.
pub struct TenantSpec {
    /// `"PEERp -> host"` import edges (set `FromPeer`).
    pub peer_edges: Vec<String>,
    /// `"SITEk -> reflector"` import edges (clear `FromPeer`).
    pub site_edges: Vec<String>,
    /// `(name, location, predicate)`; the predicate is also the
    /// invariant at every location.
    pub properties: Vec<(String, String, RoutePred)>,
}

/// A resolved spec: ghosts and one `(name, property, invariants)` per
/// spec property.
pub type Resolved = (
    Vec<GhostAttr>,
    Vec<(String, SafetyProperty, NetworkInvariants)>,
);

impl TenantSpec {
    /// The `spec.json` document the daemon receives.
    pub fn to_json(&self) -> Value {
        let strs = |v: &[String]| Value::Array(v.iter().cloned().map(Value::Str).collect());
        let ghost = Value::Object(vec![
            ("name".to_string(), Value::Str("FromPeer".to_string())),
            ("set_true_on_import".to_string(), strs(&self.peer_edges)),
            ("set_false_on_import".to_string(), strs(&self.site_edges)),
        ]);
        let safety = self
            .properties
            .iter()
            .map(|(name, loc, pred)| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(name.clone())),
                    ("location".to_string(), Value::Str(loc.clone())),
                    ("property".to_string(), serde_json::to_value(pred)),
                    ("invariant_default".to_string(), serde_json::to_value(pred)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("ghosts".to_string(), Value::Array(vec![ghost])),
            ("safety".to_string(), Value::Array(safety)),
        ])
    }

    /// Resolve the names against a lowered topology, as the daemon's
    /// spec resolution does.
    pub fn resolve(&self, topo: &Topology) -> Result<Resolved, String> {
        let node = |name: &str| {
            topo.node_by_name(name.trim())
                .ok_or_else(|| format!("spec error: unknown router {name:?}"))
        };
        let edge = |s: &str| {
            let (a, b) = s.split_once("->").ok_or(format!("not an edge: {s}"))?;
            topo.edge_between(node(a)?, node(b)?)
                .ok_or_else(|| format!("spec error: no edge {s}"))
        };
        let mut g = GhostAttr::new("FromPeer");
        for s in &self.peer_edges {
            g.on_import(edge(s)?, GhostUpdate::SetTrue);
        }
        for s in &self.site_edges {
            g.on_import(edge(s)?, GhostUpdate::SetFalse);
        }
        let props = self
            .properties
            .iter()
            .map(|(name, loc, pred)| {
                let prop =
                    SafetyProperty::new(Location::Node(node(loc)?), pred.clone()).named(name);
                Ok((
                    name.clone(),
                    prop,
                    NetworkInvariants::with_default(pred.clone()),
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok((vec![g], props))
    }
}

/// One tenant's generated inputs.
pub struct Tenant {
    pub name: String,
    pub spec: TenantSpec,
    /// `states[0]` is the base network, `states[1..]` the edit pool.
    pub states: Vec<State>,
    /// Pool order of the stream (indices into `states[1..]`).
    order: Vec<usize>,
}

impl Tenant {
    /// The state index of delta round `r` (1-based): odd rounds apply
    /// the next pool edit, even rounds revert to the base.
    pub fn state_of(&self, r: usize) -> usize {
        if r % 2 == 1 {
            1 + self.order[(r / 2) % self.order.len()]
        } else {
            0
        }
    }
}

/// Build a tenant on the corpus network `params` with a pool of
/// `pool` edits (a multiple of 3: semantic, cosmetic and bug edits in
/// turn), all drawn from `seed`.
pub fn tenant(name: &str, params: &ZooParams, seed: u64, pool: usize) -> Tenant {
    let mut base = zoo::configs(params);
    base.sort_by(|a, b| a.hostname.cmp(&b.hostname));
    let spec = hygiene_spec(&base);
    let peer_hosts: Vec<String> = neighbors_named(&base, "PEER")
        .into_iter()
        .map(|(host, _)| host)
        .collect();
    let sites: Vec<String> = neighbors_named(&base, "SITE")
        .into_iter()
        .map(|(host, _)| host)
        .collect();
    let mut states = vec![State {
        edit: None,
        configs: files(&base),
    }];
    let mut k = 0u64;
    while states.len() <= pool {
        k += 1;
        let r = mix(seed, k);
        let pick = |v: &[String]| v[(r >> 8) as usize % v.len()].clone();
        let any = base[(r >> 8) as usize % base.len()].hostname.clone();
        let mut cfg = base.clone();
        let choice = (r % 3) as u32;
        let edit = match (states.len() - 1) % 3 {
            0 => semantic(&mut cfg, choice, &pick(&peer_hosts), &pick(&sites), r),
            1 => cosmetic(&mut cfg, choice % 2, &any, r),
            _ => bug(&mut cfg, choice, &pick(&peer_hosts), r),
        };
        // A draw that does not apply (say, a rename onto a taken name)
        // is simply redrawn.
        if let Some(edit) = edit {
            states.push(State {
                edit: Some(edit),
                configs: files(&cfg),
            });
        }
    }
    let mut order: Vec<usize> = (0..pool).collect();
    for i in (1..pool).rev() {
        order.swap(i, (mix(seed, 1 << 32 | i as u64) % (i as u64 + 1)) as usize);
    }
    Tenant {
        name: name.to_string(),
        spec,
        states,
        order,
    }
}

/// The peering-hygiene spec: peer-learned routes are tagged `200:1`,
/// never a reused prefix and at local-pref 100, checked at the first
/// reflector under the same invariant everywhere.
fn hygiene_spec(base: &[ConfigAst]) -> TenantSpec {
    let edges = |prefix: &str| -> Vec<String> {
        neighbors_named(base, prefix)
            .into_iter()
            .map(|(host, ext)| format!("{ext} -> {host}"))
            .collect()
    };
    let site0 = neighbors_named(base, "SITE0")
        .into_iter()
        .next()
        .map(|(host, _)| host)
        .expect("every corpus network has a SITE0 reflector");
    let pred = RoutePred::ghost("FromPeer").implies(
        RoutePred::has_community(peer_comm())
            .and(
                RoutePred::prefix_in(vec![bgp_model::prefix::PrefixRange::orlonger(
                    reused_prefix(),
                )])
                .not(),
            )
            .and(RoutePred::local_pref(Cmp::Eq, 100)),
    );
    TenantSpec {
        peer_edges: edges("PEER"),
        site_edges: edges("SITE"),
        properties: vec![("peer-hygiene".to_string(), site0, pred)],
    }
}

/// `(router, neighbor description)` for every session whose peer's
/// description starts with `prefix`.
fn neighbors_named(configs: &[ConfigAst], prefix: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for c in configs {
        for n in c.router_bgp.iter().flat_map(|b| b.neighbors.values()) {
            if let Some(d) = n.description.as_deref().filter(|d| d.starts_with(prefix)) {
                out.push((c.hostname.clone(), d.to_string()));
            }
        }
    }
    out
}

fn files(configs: &[ConfigAst]) -> Vec<ConfigFile> {
    configs
        .iter()
        .map(|c| ConfigFile {
            name: c.hostname.clone(),
            text: print_config(c),
        })
        .collect()
}

fn edit(router: &str, description: String, cosmetic: bool, bug: bool) -> Option<Edit> {
    Some(Edit {
        router: router.to_string(),
        description,
        cosmetic,
        bug,
    })
}

/// A one-router change the spec still holds under.
fn semantic(
    cfg: &mut [ConfigAst],
    choice: u32,
    peer_host: &str,
    site: &str,
    r: u64,
) -> Option<Edit> {
    match choice {
        0 => {
            let med = 1 + (r >> 16) as u32 % 200;
            let c = cfg.iter_mut().find(|c| c.hostname == peer_host)?;
            let entry = c
                .route_maps
                .get_mut("FROM-PEER")?
                .iter_mut()
                .find(|e| e.permit)?;
            entry.sets.retain(|s| !matches!(s, SetAst::Med(_)));
            entry.sets.push(SetAst::Med(med));
            edit(
                peer_host,
                format!("set metric {med} in FROM-PEER"),
                false,
                false,
            )
        }
        1 => {
            let lp = 90 + (r >> 16) as u32 % 50;
            let e = set_local_pref(cfg, site, "FROM-SITE", lp)?;
            edit(site, e.description, false, false)
        }
        _ => {
            let b = drop_aspath_filters(cfg, peer_host, "FROM-PEER")?;
            edit(peer_host, b.description, false, false)
        }
    }
}

/// A semantically invisible one-router change.
fn cosmetic(cfg: &mut [ConfigAst], choice: u32, router: &str, r: u64) -> Option<Edit> {
    let n = (r >> 16) % 1000;
    let e = match choice {
        0 => rename_route_map(cfg, router, "FENCE", &format!("FENCE-V{n}"))?,
        _ => add_unused_prefix_list(cfg, router, &format!("UNUSED-{n}"))?,
    };
    edit(router, e.description, true, false)
}

/// A one-router change that breaks the spec at one peer import.
fn bug(cfg: &mut [ConfigAst], choice: u32, peer_host: &str, r: u64) -> Option<Edit> {
    let description = match choice {
        0 => drop_community_sets(cfg, peer_host, "FROM-PEER")?.description,
        1 => drop_prefix_deny(cfg, peer_host, "FROM-PEER", "REUSED")?.description,
        _ => {
            let lp = 101 + (r >> 16) as u32 % 50;
            set_local_pref(cfg, peer_host, "FROM-PEER", lp)?.description
        }
    };
    edit(peer_host, description, false, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_config::{lower, parse_config};

    fn params() -> ZooParams {
        ZooParams::scaled(zoo::CORPUS.last().expect("corpus is non-empty"), 48)
    }

    fn texts(t: &Tenant) -> Vec<Vec<String>> {
        t.states
            .iter()
            .map(|s| s.configs.iter().map(|f| f.text.clone()).collect())
            .collect()
    }

    #[test]
    fn stream_is_a_pure_function_of_the_seed() {
        let (a, b) = (tenant("a", &params(), 7, 6), tenant("b", &params(), 7, 6));
        assert_eq!(texts(&a), texts(&b));
        assert_eq!(a.order, b.order);
        let stream = |t: &Tenant| (1..40).map(|r| t.state_of(r)).collect::<Vec<_>>();
        assert_eq!(stream(&a), stream(&b));
        assert_ne!(texts(&a), texts(&tenant("c", &params(), 8, 6)));
    }

    #[test]
    fn no_edit_invalidates_the_spec_and_each_is_one_router() {
        for seed in 0..12 {
            let t = tenant("t", &params(), seed, 6);
            let base: Vec<ConfigAst> = t.states[0]
                .configs
                .iter()
                .map(|f| parse_config(&f.text).expect("base parses"))
                .collect();
            for s in &t.states[1..] {
                let e = s.edit.as_ref().expect("pool states carry their edit");
                let asts: Vec<ConfigAst> = s
                    .configs
                    .iter()
                    .map(|f| parse_config(&f.text).expect("edited config parses"))
                    .collect();
                let net = lower(&asts).expect("edited configs lower");
                if let Err(err) = t.spec.resolve(&net.topology) {
                    panic!("seed {seed}: {e:?} invalidates the spec: {err}");
                }
                let d = delta::diff_configs(&base, &asts);
                let want = if e.cosmetic {
                    vec![]
                } else {
                    vec![e.router.clone()]
                };
                assert_eq!(
                    d.changed_routers(),
                    want,
                    "seed {seed}: {e:?}: {}",
                    d.summary()
                );
            }
            // Every kind of edit is in the pool.
            let kinds = |f: fn(&Edit) -> bool| {
                t.states[1..]
                    .iter()
                    .filter(|s| f(s.edit.as_ref().unwrap()))
                    .count()
            };
            assert_eq!(kinds(|e| e.bug), 2);
            assert_eq!(kinds(|e| e.cosmetic), 2);
        }
    }
}
