//! The `edit-serve` workload: a `lightyear serve` daemon with two
//! Kdl-size tenants, one closed-loop client each, sending pre-serialized
//! `SubmitDelta` requests from the seeded edit stream of [`crate::edits`].
//! Each request is timed from request write to fully read response.
//!
//! Every answer is checked against a fresh in-process verification of
//! the same configuration set, computed before timing: the response's
//! report documents must be byte-identical to it, and a cosmetic delta
//! must re-verify with `dirty 0`.
//!
//! The traced run splits the measured time between the HTTP loop and an
//! in-process replay of the same stream through the public calls the
//! daemon's round makes, once untraced and once with the obs registry
//! installed and every call timed.

use crate::edits::{self, Tenant, TenantSpec};
use crate::http::{request, Daemon};
use crate::record::{median, ms_since, timed, vm_hwm_kb, with_registry, Record};
use crate::{render, Args};
use api::{ApiCall, ApiRequest, ConfigFile};
use bgp_config::{lower, parse_config, ConfigAst};
use lightyear::engine::Verifier;
use lightyear::reverify::{ReverifyEngine, ReverifyStats};
use netgen::zoo::{self, ZooParams};
use serde_json::Value;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

/// Tenants (one client each) and edit-pool size per tenant.
const TENANTS: u64 = 2;
const POOL: usize = 6;

/// Set-up repetitions (their median is `setup_s`).
const SETUP_REPS: usize = 3;

/// One tenant's inputs with its request bodies serialized.
struct Prepared {
    tenant: Tenant,
    submit: Vec<u8>,
    /// One `SubmitDelta` body per state.
    deltas: Vec<Vec<u8>>,
}

/// The known answer for one state.
struct Expected {
    /// The report array as the daemon prints it (see [`reports_tail`]).
    tail: String,
    passed: bool,
    checks: u64,
}

fn body(tenant: &str, call: ApiCall) -> Vec<u8> {
    let v = ApiRequest::new(tenant, call).to_value();
    serde_json::to_string(&v)
        .expect("requests serialize")
        .into_bytes()
}

/// Generate both tenants (Kdl, distinct wiring seeds) and their bodies.
fn generate(seed: u64) -> Vec<Prepared> {
    let kdl = zoo::CORPUS.last().expect("corpus is non-empty");
    (0..TENANTS)
        .map(|t| {
            let params = ZooParams::for_entry(kdl).with_seed(crate::record::mix(seed, 500 + t));
            let tenant = edits::tenant(
                &format!("t{t}"),
                &params,
                crate::record::mix(seed, 600 + t),
                POOL,
            );
            let submit = body(
                &tenant.name,
                ApiCall::SubmitConfigs {
                    configs: tenant.states[0].configs.clone(),
                    spec: tenant.spec.to_json(),
                },
            );
            let deltas = tenant
                .states
                .iter()
                .map(|s| {
                    body(
                        &tenant.name,
                        ApiCall::SubmitDelta {
                            configs: s.configs.clone(),
                        },
                    )
                })
                .collect();
            Prepared {
                tenant,
                submit,
                deltas,
            }
        })
        .collect()
}

/// The part of a round response from the `"reports"` key on. The
/// daemon pretty-prints `{api_version, ok, error, result: {round,
/// passed, line, reports}}`; indentation depends on nesting only, so
/// this tail is byte-comparable whatever the round, verdict and line.
fn reports_tail(reports: &[api::PropertyReport]) -> String {
    let result = Value::Object(vec![
        ("round".to_string(), Value::UInt(0)),
        ("passed".to_string(), Value::Bool(true)),
        ("line".to_string(), Value::Str(String::new())),
        (
            "reports".to_string(),
            Value::Array(reports.iter().map(|r| r.to_value()).collect()),
        ),
    ]);
    let text = serde_json::to_string_pretty(&api::ApiResponse::success(result).to_value())
        .expect("responses serialize");
    let at = text.find(REPORTS_KEY).expect("the envelope has reports");
    text[at..].to_string()
}

/// A quote inside a JSON string is escaped, so this key text occurs
/// only as the real key.
const REPORTS_KEY: &str = "\"reports\": ";

/// Per-call times (ms) and stats of one traced replay round.
#[derive(Default)]
struct RoundStages {
    parse: f64,
    diff: f64,
    lower: f64,
    spec: f64,
    reverify: f64,
    resolve: f64,
    render: f64,
    stats: ReverifyStats,
}

/// The in-process twin of one tenant session: the public calls the
/// daemon's round makes, in the same order.
struct Replay<'a> {
    spec: &'a TenantSpec,
    engines: Vec<ReverifyEngine>,
    current: Vec<ConfigAst>,
}

impl<'a> Replay<'a> {
    fn new(spec: &'a TenantSpec) -> Self {
        Replay {
            spec,
            engines: spec
                .properties
                .iter()
                .map(|_| ReverifyEngine::new())
                .collect(),
            current: Vec::new(),
        }
    }

    /// One round over `files` (`full`: no diff, the baseline round).
    /// Returns the reports' response tail and the per-property reports.
    fn round(
        &mut self,
        files: &[ConfigFile],
        full: bool,
        mut st: Option<&mut RoundStages>,
    ) -> Result<(String, Vec<api::PropertyReport>), String> {
        let mut lap = Instant::now();
        let mut mark = |slot: fn(&mut RoundStages) -> &mut f64,
                        st: &mut Option<&mut RoundStages>| {
            if let Some(s) = st.as_deref_mut() {
                *slot(s) += ms_since(lap);
            }
            lap = Instant::now();
        };
        let asts: Vec<ConfigAst> = files
            .iter()
            .map(|c| parse_config(&c.text).map_err(|e| format!("{}: {e}", c.name)))
            .collect::<Result<_, _>>()?;
        mark(|s| &mut s.parse, &mut st);
        let changed = (!full).then(|| delta::diff_configs(&self.current, &asts).changed_routers());
        mark(|s| &mut s.diff, &mut st);
        let net = lower(&asts).map_err(|e| e.to_string())?;
        mark(|s| &mut s.lower, &mut st);
        let topo = &net.topology;
        let (ghosts, props) = self.spec.resolve(topo)?;
        let mut v = Verifier::new(topo, &net.policy);
        for g in ghosts {
            v = v.with_ghost(g);
        }
        mark(|s| &mut s.spec, &mut st);
        let mut reports = Vec::with_capacity(props.len());
        for (engine, (name, prop, inv)) in self.engines.iter_mut().zip(&props) {
            let one = std::slice::from_ref(prop);
            let (report, rstats) = engine.reverify(&v, one, inv, changed.as_deref());
            mark(|s| &mut s.reverify, &mut st);
            let conjs = v.check_conjuncts_all(one, inv);
            mark(|s| &mut s.resolve, &mut st);
            reports.push(render::property_report(
                name,
                &report.summarize(),
                topo,
                &conjs,
                None,
            ));
            mark(|s| &mut s.render, &mut st);
            if let Some(s) = st.as_deref_mut() {
                let t = &mut s.stats;
                t.total += rstats.total;
                t.dirty += rstats.dirty;
                t.candidates += rstats.candidates;
                t.reused += rstats.reused;
                t.core_clean += rstats.core_clean;
                t.sessions_created += rstats.sessions_created;
            }
        }
        let tail = reports_tail(&reports);
        mark(|s| &mut s.render, &mut st);
        self.current = asts;
        Ok((tail, reports))
    }
}

/// The known answer of every state: a fresh in-process verification
/// (a new session's baseline round), tenants in parallel.
fn oracle(prepared: &[Prepared]) -> Result<Vec<Vec<Expected>>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = prepared
            .iter()
            .map(|p| {
                s.spawn(move || {
                    p.tenant
                        .states
                        .iter()
                        .map(|state| {
                            let (tail, reports) =
                                Replay::new(&p.tenant.spec).round(&state.configs, true, None)?;
                            Ok(Expected {
                                tail,
                                passed: reports.iter().all(|r| r.passed),
                                checks: reports.iter().map(|r| r.checks).sum(),
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "oracle panicked".to_string())?)
            .collect()
    })
}

/// One client's measurements.
#[derive(Default)]
struct ClientLog {
    ms: Vec<f64>,
    checks: u64,
    attempted: u64,
    failed: Vec<String>,
    wrong: Vec<String>,
}

/// Check one round response against the known answer. `cosmetic`: the
/// delta from the previous state is semantically invisible.
fn check_response(body: &[u8], want: &Expected, cosmetic: bool) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let at = text.find(REPORTS_KEY).ok_or("response has no reports")?;
    if text[at..] != want.tail {
        return Err("reports differ from a fresh verification".to_string());
    }
    let head: Value = serde_json::from_str(&format!("{}\"reports\": []}}}}", &text[..at]))
        .map_err(|e| format!("unreadable response head: {e}"))?;
    let result = &head["result"];
    if result["passed"].as_bool() != Some(want.passed) {
        return Err(format!("passed should be {}", want.passed));
    }
    let line = result["line"].as_str().unwrap_or_default();
    if cosmetic && !line.contains("dirty 0/") {
        return Err(format!("cosmetic delta re-verified checks: {line}"));
    }
    Ok(())
}

/// One tenant's closed loop until `deadline`.
fn client(addr: SocketAddr, p: &Prepared, want: &[Expected], deadline: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let t = &p.tenant;
    let mut r = 1;
    while Instant::now() < deadline {
        let (state, prev) = (t.state_of(r), t.state_of(r - 1));
        r += 1;
        log.attempted += 1;
        let t0 = Instant::now();
        let resp = request(addr, "POST", "/api/v1", &p.deltas[state]);
        let ms = ms_since(t0);
        let (code, body) = match resp {
            Ok(x) => x,
            Err(e) => {
                log.failed.push(format!("{}: {e}", t.name));
                continue;
            }
        };
        if code != 200 {
            let snippet = String::from_utf8_lossy(&body[..body.len().min(200)]).into_owned();
            log.failed
                .push(format!("{} round {r}: HTTP {code}: {snippet}", t.name));
            continue;
        }
        log.ms.push(ms);
        log.checks += want[state].checks;
        let cosmetic = [state, prev]
            .iter()
            .any(|&s| t.states[s].edit.as_ref().is_some_and(|e| e.cosmetic));
        if let Err(e) = check_response(&body, &want[state], cosmetic) {
            log.wrong.push(format!("{} state {state}: {e}", t.name));
        }
    }
    log
}

/// Counters of the daemon's `/metrics`.
fn daemon_counters(addr: SocketAddr) -> BTreeMap<String, u64> {
    let Ok((200, body)) = request(addr, "GET", "/metrics", b"") else {
        return BTreeMap::new();
    };
    let doc: Value = match serde_json::from_slice(&body) {
        Ok(v) => v,
        Err(_) => return BTreeMap::new(),
    };
    match &doc["metrics"]["counters"] {
        Value::Object(fields) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Start the daemon and submit every tenant's baseline: the cold start.
fn cold_start(args: &Args, prepared: &[Prepared]) -> Result<(Daemon, Vec<Vec<u8>>), String> {
    let bin = args
        .lightyear
        .as_deref()
        .ok_or("edit-serve needs --lightyear <path to the lightyear binary>")?;
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(TENANTS as usize);
    let daemon = Daemon::start(bin, workers, &args.work_dir)?;
    let mut baselines = Vec::new();
    for p in prepared {
        let (code, body) =
            request(daemon.addr, "POST", "/api/v1", &p.submit).map_err(|e| e.to_string())?;
        if code != 200 {
            return Err(format!(
                "{}: SubmitConfigs answered {code}: {}",
                p.tenant.name,
                String::from_utf8_lossy(&body[..body.len().min(300)])
            ));
        }
        baselines.push(body);
    }
    Ok((daemon, baselines))
}

pub fn run(args: &Args) -> Result<Record, String> {
    let mut rec = Record::default();
    let mut started = None;
    for _ in 0..SETUP_REPS {
        // Each repetition is a whole set-up; the last one's daemon stays.
        drop(started.take());
        let t0 = Instant::now();
        let prepared = generate(args.seed);
        let (daemon, baselines) = cold_start(args, &prepared)?;
        rec.setup_s.push(t0.elapsed().as_secs_f64());
        started = Some((prepared, daemon, baselines));
    }
    let (prepared, daemon, baselines) = started.expect("at least one set-up");
    let want = oracle(&prepared)?;
    for ((p, w), body) in prepared.iter().zip(&want).zip(&baselines) {
        if let Err(e) = check_response(body, &w[0], false) {
            rec.mismatch(format!("{} baseline: {e}", p.tenant.name));
        }
        for (state, expected) in p.tenant.states.iter().zip(w) {
            let bug = state.edit.as_ref().is_some_and(|e| e.bug);
            if expected.passed == bug {
                rec.mismatch(format!(
                    "{}: {:?} should {} the spec",
                    p.tenant.name,
                    state.edit,
                    if bug { "break" } else { "keep" }
                ));
            }
        }
    }
    let bodies = prepared.iter().flat_map(|p| &p.deltas);
    let request_mb = bodies.clone().map(Vec::len).sum::<usize>() as f64 / 1e6;
    rec.fact(
        "serve.request_mb",
        Value::Float(request_mb / bodies.count() as f64),
    );

    // The HTTP loop: all of the run, or half of it when traced.
    let http_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before = daemon_counters(daemon.addr);
    let t_loop = Instant::now();
    let deadline = t_loop + std::time::Duration::from_secs_f64(http_s);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = prepared
            .iter()
            .zip(&want)
            .map(|(p, w)| s.spawn(move || client(daemon.addr, p, w, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    rec.loop_s = t_loop.elapsed().as_secs_f64();
    for log in logs {
        rec.verdict_ms.extend(log.ms);
        rec.checks += log.checks;
        rec.attempted += log.attempted;
        log.failed.into_iter().for_each(|e| rec.fail(e));
        log.wrong.into_iter().for_each(|e| rec.mismatch(e));
    }
    let after = daemon_counters(daemon.addr);
    let moved: Vec<(String, Value)> = after
        .iter()
        .filter_map(|(k, &v)| {
            let d = v.saturating_sub(before.get(k).copied().unwrap_or(0));
            (d > 0).then(|| (k.clone(), Value::UInt(d)))
        })
        .collect();
    rec.fact("daemon_counter_deltas", Value::Object(moved));
    rec.peak_rss_kb = vm_hwm_kb(daemon.pid());
    drop(daemon);

    if args.trace {
        replay(args.seconds - http_s, &prepared, &want, &mut rec)?;
        let untraced = rec
            .layers
            .get("serve.replay_round_ms")
            .cloned()
            .unwrap_or_default();
        if !untraced.is_empty() {
            let http_p50 = median(&rec.verdict_ms);
            rec.layer("serve.overhead_ms", http_p50 - median(&untraced));
            rec.trace_overhead(&untraced);
        }
    }
    Ok(rec)
}

/// Replay the stream in process for `seconds`: per round and tenant, an
/// untraced session's round (timed whole) and a traced session's round
/// (every call timed, obs registry installed). Both sessions see the
/// same requests, so their answers are checked like the daemon's.
fn replay(
    seconds: f64,
    prepared: &[Prepared],
    want: &[Vec<Expected>],
    rec: &mut Record,
) -> Result<(), String> {
    let mut sessions: Vec<(Replay, Replay)> = prepared
        .iter()
        .map(|p| (Replay::new(&p.tenant.spec), Replay::new(&p.tenant.spec)))
        .collect();
    for ((u, t), p) in sessions.iter_mut().zip(prepared) {
        u.round(&p.tenant.states[0].configs, true, None)?;
        t.round(&p.tenant.states[0].configs, true, None)?;
    }
    let start = Instant::now();
    let mut r = 1;
    while start.elapsed().as_secs_f64() < seconds {
        for (((u, t), p), w) in sessions.iter_mut().zip(prepared).zip(want) {
            let state = p.tenant.state_of(r);
            let files = &p.tenant.states[state].configs;
            // Alternate which twin goes first, so neither always runs
            // on caches the other warmed.
            let mut st = RoundStages::default();
            let mut run_untraced = || timed(|| u.round(files, false, None));
            let mut run_traced =
                || with_registry(|| timed(|| t.round(files, false, Some(&mut st))));
            let ((out, ms), ((traced, total), snap)) = if r % 2 == 0 {
                let first = run_untraced();
                (first, run_traced())
            } else {
                let first = run_traced();
                (run_untraced(), first)
            };
            rec.layer("serve.replay_round_ms", ms);
            rec.traced_verdict_ms.push(total);
            for (tail, who) in [(out?.0, "untraced"), (traced?.0, "traced")] {
                if tail != w[state].tail {
                    rec.mismatch(format!(
                        "{} state {state}: {who} replay differs",
                        p.tenant.name
                    ));
                }
            }
            let c = |name: &str| snap.counter(name) as f64;
            let (encode, solve) = (c("smt.encode_ns") / 1e6, c("smt.solve_ns") / 1e6);
            let samples = [
                ("bgp_config.parse_ms", st.parse),
                (
                    "bgp_config.parse_bytes",
                    files.iter().map(|f| f.text.len()).sum::<usize>() as f64,
                ),
                ("bgp_config.lower_ms", st.lower),
                ("delta.diff_ms", st.diff),
                ("lightyear.resolve_ms", st.resolve),
                ("lightyear.reverify_ms", st.reverify),
                ("lightyear.verify_ms", st.reverify),
                (
                    "lightyear.unattributed_ms",
                    st.reverify - st.resolve - encode - solve,
                ),
                ("lightyear.reverify.dirty", st.stats.dirty as f64),
                ("lightyear.reverify.candidates", st.stats.candidates as f64),
                ("lightyear.reverify.reused", st.stats.reused as f64),
                ("lightyear.reverify.core_clean", st.stats.core_clean as f64),
                (
                    "lightyear.reverify.sessions_created",
                    st.stats.sessions_created as f64,
                ),
                ("engine.encode_ms", encode),
                ("engine.solve_ms", solve),
                ("smt.solves", c("smt.solves")),
                ("smt.conflicts", c("smt.conflicts")),
                ("smt.propagations", c("smt.propagations")),
                ("api.render_ms", st.render),
            ];
            for (k, v) in samples {
                rec.layer(k, v);
            }
        }
        r += 1;
    }
    Ok(())
}
