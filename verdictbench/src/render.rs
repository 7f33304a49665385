//! Report rendering through the shared `api` schema, built the way the
//! CLI renders `verify --json` entries and `serve` round reports: one
//! [`api::PropertyReport`] per property, serialized as a JSON array.

use api::report::TimingDoc;
use bgp_model::topology::Topology;
use lightyear::check::ReportSummary;
use serde_json::Value;

/// One property's report document. `conjuncts` is the check-id-indexed
/// table of `Verifier::check_conjuncts_all`; pass `&[]` when cores were
/// not kept. `timing` is carried by one-shot `verify` entries only.
pub fn property_report(
    name: &str,
    report: &ReportSummary,
    topo: &Topology,
    conjuncts: &[Option<Vec<String>>],
    timing: Option<TimingDoc>,
) -> api::PropertyReport {
    api::PropertyReport {
        property: name.to_string(),
        liveness: false,
        passed: report.all_passed(),
        checks: report.num_checks() as u64,
        timing,
        failures: report
            .failures()
            .iter()
            .map(|f| api::FailureDoc {
                kind: f.check.kind.to_string(),
                location: f.check.location.display(topo),
                route_map: f.check.map_name.clone(),
                description: f.check.description.clone(),
            })
            .collect(),
        cores: report
            .cores()
            .iter()
            .map(|(check, core)| {
                let conjs = conjuncts
                    .get(check.id)
                    .cloned()
                    .flatten()
                    .unwrap_or_default();
                api::CoreDoc {
                    check: check.id as u64,
                    kind: check.kind.to_string(),
                    location: check.location.display(topo),
                    core: core.iter().map(|&i| i as u64).collect(),
                    load_bearing: core.iter().filter_map(|&i| conjs.get(i).cloned()).collect(),
                    conjuncts: conjs.len() as u64,
                }
            })
            .collect(),
    }
}

/// The solver statistics a one-shot `verify` entry carries.
pub fn timing(report: &ReportSummary) -> TimingDoc {
    TimingDoc {
        solver_calls: report.solver_invocations() as u64,
        total_seconds: report.total_time.as_secs_f64(),
        solve_seconds: report.solve_time().as_secs_f64(),
    }
}

/// Serialize a report list the way both surfaces emit it.
pub fn to_json(reports: &[api::PropertyReport]) -> String {
    let docs = Value::Array(reports.iter().map(api::PropertyReport::to_value).collect());
    serde_json::to_string(&docs).expect("report values serialize")
}
