//! The one-shot verification workloads, `fresh-corpus` and `wan-audit`:
//! a closed loop of one verification at a time, each timed from config
//! text in memory through parse, lower, spec resolution and the batch
//! verify to the rendered `api` report.

use crate::record::{mix, ms_since, timed, with_registry, Record};
use crate::{render, Args};
use bgp_config::{lower, parse_config, print_config, ConfigAst, Network};
use bgp_model::topology::NodeId;
use lightyear::engine::Verifier;
use lightyear::ghost::GhostAttr;
use lightyear::{NetworkInvariants, SafetyProperty};
use netgen::wan::{self, WanParams};
use netgen::zoo::{self, ZooParams, ZooScenario};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Corpus wirings generated per run; sweeps cycle through them.
const CORPUS_WIRINGS: u64 = 3;

/// WAN variants generated per run (even: clean, odd: buggy).
const WAN_VARIANTS: u64 = 32;

/// The paper-scale WAN of §6.1: 6 regions x 6 routers + 14 edge routers.
fn wan_params(seed: u64) -> WanParams {
    WanParams {
        regions: 6,
        routers_per_region: 6,
        edge_routers: 14,
        peers_per_edge: 2,
        seed,
    }
}

/// A `netgen::mutate` bug class, named for what it drops from one edge
/// router's peer import map.
#[derive(Clone, Copy, Debug)]
enum BugClass {
    CommunitySets,
    AsPathFilters,
    PrefixDeny(&'static str),
}

const BUG_CLASSES: [BugClass; 7] = [
    BugClass::CommunitySets,
    BugClass::AsPathFilters,
    BugClass::PrefixDeny("BOGONS"),
    BugClass::PrefixDeny("REUSED"),
    BugClass::PrefixDeny("INFRA"),
    BugClass::PrefixDeny("DEFAULT"),
    BugClass::PrefixDeny("TOO-SPECIFIC"),
];

impl BugClass {
    /// The peering properties the bug breaks. Dropping the
    /// (replacing) community set both untags peer routes and lets their
    /// incoming regional communities through.
    fn breaks(self) -> &'static [&'static str] {
        match self {
            BugClass::CommunitySets => &["peer-tagged", "no-regional-comms"],
            BugClass::AsPathFilters => &["no-private-asn", "no-self-asn"],
            BugClass::PrefixDeny("BOGONS") => &["no-bogons"],
            BugClass::PrefixDeny("REUSED") => &["no-reused-from-peers"],
            BugClass::PrefixDeny("INFRA") => &["no-infra-prefixes"],
            BugClass::PrefixDeny("DEFAULT") => &["no-default-route"],
            BugClass::PrefixDeny(_) => &["no-too-specific"],
        }
    }

    fn inject(self, configs: &mut [ConfigAst], router: &str, map: &str) -> bool {
        use netgen::mutate::*;
        match self {
            BugClass::CommunitySets => drop_community_sets(configs, router, map),
            BugClass::AsPathFilters => drop_aspath_filters(configs, router, map),
            BugClass::PrefixDeny(list) => drop_prefix_deny(configs, router, map, list),
        }
        .is_some()
    }
}

/// What an input network is, beyond its config text: the metadata the
/// spec is resolved from, and the known answer.
enum Net {
    Zoo {
        params: ZooParams,
        reflectors: Vec<NodeId>,
        clusters: Vec<usize>,
    },
    Wan {
        params: WanParams,
        /// Known answer: `(property, kind, location, route map)` of
        /// every failing check, sorted. Empty for a clean variant.
        failures: Vec<(String, String, String, Option<String>)>,
    },
}

impl Net {
    /// WAN audits render cores (the `verify --json` path); corpus
    /// verification does not.
    fn keeps_cores(&self) -> bool {
        matches!(self, Net::Wan { .. })
    }
}

/// One generated input.
pub struct Item {
    label: String,
    /// Inputs of one family (a corpus entry, the WAN) are diffed
    /// against each other by the traced run's delta probe.
    family: &'static str,
    texts: Vec<String>,
    bytes: usize,
    net: Net,
}

fn item(label: String, family: &'static str, asts: &[ConfigAst], net: Net) -> Item {
    let texts: Vec<String> = asts.iter().map(print_config).collect();
    Item {
        label,
        family,
        bytes: texts.iter().map(String::len).sum(),
        texts,
        net,
    }
}

/// Corpus inputs per pass through all wirings.
pub const CORPUS_PASS: usize = CORPUS_WIRINGS as usize * zoo::CORPUS.len();

/// `fresh-corpus` inputs: every corpus entry under each of
/// [`CORPUS_WIRINGS`] per-sweep wiring seeds, in sweep order.
pub fn corpus_items(seed: u64) -> Vec<Item> {
    let mut items = Vec::new();
    for w in 0..CORPUS_WIRINGS {
        for (e, entry) in zoo::CORPUS.iter().enumerate() {
            let params = ZooParams::for_entry(entry).with_seed(mix(seed, w * 64 + e as u64));
            let s = zoo::build(&params);
            let net = Net::Zoo {
                params: params.clone(),
                reflectors: s.reflectors,
                clusters: s.clusters,
            };
            items.push(item(
                format!("{}#{w}", entry.name),
                entry.name,
                &zoo::configs(&params),
                net,
            ));
        }
    }
    items
}

/// `wan-audit` inputs: seeded 50-router WAN variants alternating clean
/// and buggy (two `netgen::mutate` bugs on distinct edge-router peer
/// import maps).
pub fn wan_items(seed: u64) -> Vec<Item> {
    (0..WAN_VARIANTS)
        .map(|i| {
            let r = mix(seed, 1000 + i);
            let params = wan_params(r % 10_000);
            let mut asts = wan::configs(&params);
            let mut failures = Vec::new();
            let mut bugs = Vec::new();
            if i % 2 == 1 {
                // Two bugs per buggy variant on distinct (edge router,
                // peer map) slots. The classes go round the list from a
                // seeded start, so every run mixes them alike.
                let slots = params.edge_routers * params.peers_per_edge;
                let first = (r >> 24) as usize % slots;
                let start = (mix(seed, 999) % BUG_CLASSES.len() as u64) as usize;
                for b in 0..2 {
                    let slot = (first + b * (slots / 2 + 1)) % slots;
                    let (m, p) = (slot / params.peers_per_edge, slot % params.peers_per_edge);
                    let class = BUG_CLASSES[(start + i as usize - 1 + b) % BUG_CLASSES.len()];
                    let (router, map) = (format!("EDGE{m}"), format!("FROM-PEER{p}"));
                    assert!(
                        class.inject(&mut asts, &router, &map),
                        "bug {class:?} applies to {router} {map}"
                    );
                    for prop in class.breaks() {
                        failures.push((
                            prop.to_string(),
                            "import".to_string(),
                            format!("PEER{m}-{p} -> {router}"),
                            Some(map.clone()),
                        ));
                    }
                    bugs.push(format!("{class:?}@{router}/{map}"));
                }
            }
            failures.sort();
            let label = if bugs.is_empty() {
                format!("wan{}-clean", params.seed)
            } else {
                format!("wan{}-{}", params.seed, bugs.join("+"))
            };
            item(label, "wan", &asts, Net::Wan { params, failures })
        })
        .collect()
}

/// The resolved spec of one input: ghosts plus named suites.
struct Problem {
    ghosts: Vec<GhostAttr>,
    suites: Vec<(String, Vec<SafetyProperty>, NetworkInvariants)>,
}

/// Resolve the workload's spec against a freshly lowered network. The
/// network moves into the scenario type the suites are defined on and
/// back out again.
fn resolve_spec(net: &Net, network: Network) -> (Network, Problem) {
    match net {
        Net::Zoo {
            params,
            reflectors,
            clusters,
        } => {
            let s = ZooScenario {
                params: params.clone(),
                network,
                reflectors: reflectors.clone(),
                clusters: clusters.clone(),
            };
            let (pp, pi) = s.peering_suite();
            let (fp, fi) = s.fencing_suite();
            let problem = Problem {
                ghosts: vec![s.from_peer_ghost()],
                suites: vec![
                    ("zoo-peering".to_string(), pp, pi),
                    ("zoo-fencing".to_string(), fp, fi),
                ],
            };
            (s.network, problem)
        }
        Net::Wan { params, .. } => {
            let s = wan::Scenario {
                params: *params,
                network,
                metadata: wan::WanMetadata {
                    regions: Vec::new(),
                },
            };
            let mut ghosts = vec![s.from_peer_ghost()];
            let mut suites: Vec<_> = s
                .peering_predicates()
                .into_iter()
                .map(|(name, q)| {
                    let (p, i) = s.peering_property_inputs(&q);
                    (name, p, i)
                })
                .collect();
            for k in 0..params.regions {
                ghosts.push(s.from_region_ghost(k));
                let (p, i) = s.reuse_safety_inputs(k);
                suites.push((format!("reuse-safety-region{k}"), p, i));
            }
            let problem = Problem { ghosts, suites };
            (s.network, problem)
        }
    }
}

/// The answer of one verification.
struct Answer {
    reports: Vec<api::PropertyReport>,
    checks: u64,
}

/// Per-stage times (ms) and counters of one traced verification.
#[derive(Default)]
struct Stages {
    parse: f64,
    lower: f64,
    spec: f64,
    verify: f64,
    resolve: f64,
    render: f64,
    generated: f64,
    executed: f64,
    groups: f64,
    steals: f64,
}

fn parse_all(texts: &[String]) -> Result<Vec<ConfigAst>, String> {
    texts
        .iter()
        .map(|t| parse_config(t).map_err(|e| e.to_string()))
        .collect()
}

/// One verification from config text to rendered report. With `stages`,
/// every stage is timed on its own and the resolve-only call
/// (`check_conjuncts_all`) is timed even where rendering does not need
/// it; the parsed configs are returned for the delta probe.
fn verify_item(
    item: &Item,
    mut stages: Option<&mut Stages>,
) -> Result<(Answer, Vec<ConfigAst>), String> {
    let mut lap = Instant::now();
    let mut mark = |slot: fn(&mut Stages) -> &mut f64, stages: &mut Option<&mut Stages>| {
        if let Some(s) = stages.as_deref_mut() {
            *slot(s) += ms_since(lap);
        }
        lap = Instant::now();
    };
    let asts = parse_all(&item.texts)?;
    mark(|s| &mut s.parse, &mut stages);
    let network = lower(&asts).map_err(|e| e.to_string())?;
    mark(|s| &mut s.lower, &mut stages);
    let (network, problem) = resolve_spec(&item.net, network);
    let topo = &network.topology;
    let mut v = Verifier::new(topo, &network.policy).with_jobs(1);
    for g in problem.ghosts {
        v = v.with_ghost(g);
    }
    let refs: Vec<(&[SafetyProperty], &NetworkInvariants)> = problem
        .suites
        .iter()
        .map(|(_, p, i)| (p.as_slice(), i))
        .collect();
    mark(|s| &mut s.spec, &mut stages);
    let keep_cores = item.net.keeps_cores();
    let multi = v.verify_safety_batch_streaming(&refs, keep_cores);
    mark(|s| &mut s.verify, &mut stages);
    let conjuncts: Vec<Vec<Option<Vec<String>>>> = if keep_cores || stages.is_some() {
        refs.iter()
            .map(|(p, i)| v.check_conjuncts_all(p, i))
            .collect()
    } else {
        Vec::new()
    };
    mark(|s| &mut s.resolve, &mut stages);
    let reports: Vec<api::PropertyReport> = problem
        .suites
        .iter()
        .zip(&multi.summaries)
        .enumerate()
        .map(|(i, ((name, _, _), summary))| {
            let conjs = if keep_cores {
                conjuncts[i].as_slice()
            } else {
                &[]
            };
            render::property_report(name, summary, topo, conjs, Some(render::timing(summary)))
        })
        .collect();
    std::hint::black_box(render::to_json(&reports));
    mark(|s| &mut s.render, &mut stages);
    if let Some(s) = stages {
        let exec = &multi.exec;
        s.generated = exec.generated as f64;
        s.executed = exec.executed as f64;
        s.groups = exec.groups as f64;
        s.steals = exec.steals as f64;
    }
    let checks = reports.iter().map(|r| r.checks).sum();
    Ok((Answer { reports, checks }, asts))
}

/// Compare an answer with the input's known answer.
fn check_answer(item: &Item, a: &Answer) -> Result<(), String> {
    let expected: &[(String, String, String, Option<String>)] = match &item.net {
        Net::Zoo { .. } => &[],
        Net::Wan { failures, .. } => failures,
    };
    let mut got: Vec<(String, String, String, Option<String>)> = a
        .reports
        .iter()
        .flat_map(|r| {
            r.failures.iter().map(|f| {
                (
                    r.property.clone(),
                    f.kind.clone(),
                    f.location.clone(),
                    f.route_map.clone(),
                )
            })
        })
        .collect();
    got.sort();
    let passed_ok = a.reports.iter().all(|r| r.passed == r.failures.is_empty());
    if got != expected || !passed_ok {
        return Err(format!(
            "{}: expected failures {expected:?}, got {got:?}",
            item.label
        ));
    }
    Ok(())
}

/// Generate the inputs `setup_reps` times (the median is `setup_s`),
/// then run the closed loop over them for `args.seconds`. The deadline
/// is checked every `batch` items, so a corpus run covers whole passes
/// and every run verifies the same mix of inputs.
pub fn run(args: &Args, make: fn(u64) -> Vec<Item>, batch: usize, setup_reps: usize) -> Record {
    let mut rec = Record::default();
    let mut items = Vec::new();
    for _ in 0..setup_reps {
        let (made, ms) = timed(|| make(args.seed));
        rec.setup_s.push(ms / 1e3);
        items = made;
    }
    rec.fact("inputs", serde_json::Value::UInt(items.len() as u64));
    rec.fact(
        "input_mb",
        serde_json::Value::Float(items.iter().map(|i| i.bytes).sum::<usize>() as f64 / 1e6),
    );

    // One untimed batch first, so the timed loop starts on a grown heap
    // and warm caches. Its answers are checked again in the loop.
    for item in items.iter().take(batch) {
        let _ = catch_unwind(AssertUnwindSafe(|| verify_item(item, None)));
    }

    let mut prev: BTreeMap<&'static str, Vec<ConfigAst>> = BTreeMap::new();
    let t_loop = Instant::now();
    let mut i = 0usize;
    while !i.is_multiple_of(batch) || t_loop.elapsed().as_secs_f64() < args.seconds {
        let item = &items[i % items.len()];
        i += 1;
        rec.attempted += 1;
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| verify_item(item, None)));
        let ms = ms_since(t);
        match out {
            Ok(Ok((answer, _))) => {
                rec.verdict_ms.push(ms);
                rec.checks += answer.checks;
                if let Err(e) = check_answer(item, &answer) {
                    rec.mismatch(e);
                }
            }
            Ok(Err(e)) => rec.fail(format!("{}: {e}", item.label)),
            Err(_) => rec.fail(format!("{}: panicked", item.label)),
        }
        if args.trace {
            traced(item, &mut prev, &mut rec);
        }
    }
    rec.loop_s = t_loop.elapsed().as_secs_f64();
    rec.peak_rss_kb = obs::peak_rss_kb();
    if args.trace {
        let untraced = rec.verdict_ms.clone();
        rec.trace_overhead(&untraced);
    }
    rec
}

/// The traced twin of one verification: the same input again with the
/// obs registry installed and every stage timed, plus the delta probe
/// (`diff_configs` against the previous traced input of the same family,
/// a question the one-shot path never asks).
fn traced(item: &Item, prev: &mut BTreeMap<&'static str, Vec<ConfigAst>>, rec: &mut Record) {
    let mut st = Stages::default();
    let ((out, total), snap) = with_registry(|| {
        timed(|| catch_unwind(AssertUnwindSafe(|| verify_item(item, Some(&mut st)))))
    });
    let Ok(Ok((answer, asts))) = out else {
        rec.fail(format!("{}: traced run failed", item.label));
        return;
    };
    if let Err(e) = check_answer(item, &answer) {
        rec.mismatch(e);
    }
    let c = |name: &str| snap.counter(name) as f64;
    let encode = c("smt.encode_ns") / 1e6;
    let solve = c("smt.solve_ns") / 1e6;
    // The resolve-only call is on the verdict path where cores are
    // rendered, and a probe elsewhere.
    let probe = if item.net.keeps_cores() {
        0.0
    } else {
        st.resolve
    };
    rec.traced_verdict_ms.push(total - probe);
    let samples: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("bgp_config.parse_ms", st.parse),
        ("bgp_config.parse_bytes", item.bytes as f64),
        ("bgp_config.lower_ms", st.lower),
        ("lightyear.resolve_ms", st.resolve),
        ("lightyear.verify_ms", st.verify),
        (
            "lightyear.unattributed_ms",
            st.verify - st.resolve - encode - solve,
        ),
        ("orchestrator.generated", st.generated),
        ("orchestrator.executed", st.executed),
        ("orchestrator.groups", st.groups),
        ("orchestrator.steals", st.steals),
        ("engine.encode_ms", encode),
        ("engine.solve_ms", solve),
        ("smt.solves", c("smt.solves")),
        ("smt.conflicts", c("smt.conflicts")),
        ("smt.propagations", c("smt.propagations")),
        ("api.render_ms", st.render),
    ]);
    for (k, v) in samples {
        rec.layer(k, v);
    }
    if let Some(old) = prev.get(item.family) {
        let (_, ms) = timed(|| std::hint::black_box(delta::diff_configs(old, &asts)));
        rec.layer("delta.diff_ms", ms);
    }
    prev.insert(item.family, asts);
}
