//! `cds-harness conformance` — drive the differential conformance suite
//! (metamorphic oracle + cross-variant fuzzer) and replay the committed
//! corpus as a CI gate.
//!
//! Three layers, all reported together:
//!
//! 1. **relations** — every metamorphic relation checked against the
//!    reference pricer and every [`PriceRoute`] on canonical probes;
//! 2. **fuzz** — `--options N` seeded adversarial cases through every
//!    route, spreads compared to the reference under
//!    [`UlpComparator::ENGINE_F64`], failures shrunk to minimal
//!    reproducers;
//! 3. **corpus** (`--check DIR`) — every `*.case` file replayed through
//!    every route and the oracle; any divergence or violation fails the
//!    gate.

use crate::json::Json;
use cds_conformance::case::ConformanceCase;
use cds_conformance::differential::{fuzz, route_failures, FuzzReport};
use cds_conformance::oracle::{ReferenceModel, Relation, RouteModel, SpreadModel};
use cds_engine::route::PriceRoute;
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency};
use cds_quant::ulp::UlpComparator;
use std::path::Path;

/// Default number of fuzz cases per `conformance` run (each case prices
/// 1–5 options through every route).
pub const DEFAULT_FUZZ_CASES: u64 = 48;

/// One relation×model verdict from the sweep.
#[derive(Debug, Clone)]
pub struct RelationOutcome {
    /// Relation label.
    pub relation: String,
    /// Model (reference or route) label.
    pub model: String,
    /// `None` when satisfied, the violation evidence otherwise.
    pub violation: Option<String>,
}

/// One corpus case replay.
#[derive(Debug, Clone)]
pub struct CorpusOutcome {
    /// File stem of the corpus case.
    pub name: String,
    /// Route divergences (empty = clean).
    pub route_failures: Vec<String>,
    /// Oracle violations on the reference model (empty = clean).
    pub relation_violations: Vec<String>,
}

/// Full conformance report.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Fuzz-stream seed.
    pub seed: u64,
    /// Relation sweep outcomes (relations × models × probes collapsed
    /// to worst per relation×model).
    pub relations: Vec<RelationOutcome>,
    /// Differential fuzz summary.
    pub fuzz: FuzzReport,
    /// Corpus replays (empty when `--check` was not given).
    pub corpus: Vec<CorpusOutcome>,
}

impl ConformanceReport {
    /// True when nothing anywhere diverged or violated a relation.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.relations.iter().all(|r| r.violation.is_none())
            && self.fuzz.failures.is_empty()
            && self
                .corpus
                .iter()
                .all(|c| c.route_failures.is_empty() && c.relation_violations.is_empty())
    }

    /// Serialise for `--json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let relations = self
            .relations
            .iter()
            .map(|r| {
                Json::object(vec![
                    ("relation", Json::Str(r.relation.clone())),
                    ("model", Json::Str(r.model.clone())),
                    ("violation", r.violation.clone().map_or(Json::Null, Json::Str)),
                ])
            })
            .collect();
        let fuzz_failures = self
            .fuzz
            .failures
            .iter()
            .map(|f| {
                Json::object(vec![
                    ("seed", Json::Number(f.seed as f64)),
                    ("index", Json::Number(f.index as f64)),
                    ("case", Json::Str(f.shrunk.to_text())),
                    (
                        "failures",
                        Json::Array(
                            f.failures.iter().map(|rf| Json::Str(rf.to_string())).collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let corpus = self
            .corpus
            .iter()
            .map(|c| {
                Json::object(vec![
                    ("name", Json::Str(c.name.clone())),
                    (
                        "route_failures",
                        Json::Array(c.route_failures.iter().cloned().map(Json::Str).collect()),
                    ),
                    (
                        "relation_violations",
                        Json::Array(c.relation_violations.iter().cloned().map(Json::Str).collect()),
                    ),
                ])
            })
            .collect();
        Json::object(vec![
            ("schema", Json::Str("cds-conformance/v1".to_string())),
            ("seed", Json::Number(self.seed as f64)),
            ("routes", Json::Number(self.fuzz.routes as f64)),
            ("fuzz_cases", Json::Number(self.fuzz.cases as f64)),
            ("options_priced", Json::Number(self.fuzz.options_priced as f64)),
            ("clean", Json::Bool(self.clean())),
            ("relations", Json::Array(relations)),
            ("fuzz_failures", Json::Array(fuzz_failures)),
            ("corpus", Json::Array(corpus)),
        ])
    }
}

/// Canonical probe inputs for the relation sweep: one rough market with
/// a liquid-tenor option, one flat market at a Listing-1 boundary
/// maturity with zero recovery.
fn probes() -> Vec<(MarketData<f64>, CdsOption)> {
    vec![
        (MarketData::paper_workload(11), CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.40)),
        (MarketData::flat(0.03, 0.04, 64), CdsOption::new(1.75, PaymentFrequency::Quarterly, 0.0)),
    ]
}

/// Check every relation against the reference and every route; report
/// the first violation per relation×model (or none).
#[must_use]
pub fn relation_sweep() -> Vec<RelationOutcome> {
    let probes = probes();
    let mut models: Vec<Box<dyn SpreadModel>> = vec![Box::new(ReferenceModel)];
    models.extend(PriceRoute::ALL.map(|r| Box::new(RouteModel::new(r)) as Box<dyn SpreadModel>));
    let mut out = Vec::with_capacity(models.len() * Relation::ALL.len());
    for model in &models {
        for relation in Relation::ALL {
            let violation = probes
                .iter()
                .find_map(|(m, o)| relation.check(model.as_ref(), m, o).err())
                .map(|v| v.to_string());
            out.push(RelationOutcome {
                relation: relation.label().to_string(),
                model: model.name().to_string(),
                violation,
            });
        }
    }
    out
}

/// Replay every `*.case` file under `dir`.
///
/// `Err` is an environment problem (unreadable directory, malformed
/// case file) — the caller should exit 2, not 1: a broken corpus is not
/// an engine regression.
pub fn check_corpus(dir: &Path, cmp: &UlpComparator) -> Result<Vec<CorpusOutcome>, String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus directory {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("corpus directory {} holds no .case files", dir.display()));
    }
    let mut out = Vec::with_capacity(entries.len());
    for path in entries {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let case = ConformanceCase::parse(&text)
            .map_err(|e| format!("malformed corpus case {}: {e}", path.display()))?;
        let name = path
            .file_stem()
            .map_or_else(|| case.name.clone(), |s| s.to_string_lossy().into_owned());
        let failures = route_failures(&case, cmp)
            .map_err(|e| format!("corpus case {} is unpriceable: {e}", path.display()))?;
        let market =
            case.build_market().map_err(|e| format!("corpus case {}: {e}", path.display()))?;
        let mut violations = Vec::new();
        for option in &case.options {
            for relation in Relation::ALL {
                if let Err(v) = relation.check(&ReferenceModel, &market, option) {
                    violations.push(v.to_string());
                }
            }
        }
        out.push(CorpusOutcome {
            name,
            route_failures: failures.iter().map(ToString::to_string).collect(),
            relation_violations: violations,
        });
    }
    Ok(out)
}

/// Run the full suite: relation sweep + differential fuzz (+ corpus
/// replay when `corpus_dir` is given).
pub fn run(
    seed: u64,
    fuzz_cases: u64,
    corpus_dir: Option<&Path>,
) -> Result<ConformanceReport, String> {
    let cmp = UlpComparator::ENGINE_F64;
    let relations = relation_sweep();
    let fuzz_report = fuzz(seed, fuzz_cases, &cmp);
    let corpus = match corpus_dir {
        Some(dir) => check_corpus(dir, &cmp)?,
        None => Vec::new(),
    };
    Ok(ConformanceReport { seed, relations, fuzz: fuzz_report, corpus })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_default_run_is_clean() {
        let report = match run(7, 6, None) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        };
        assert!(report.clean(), "{:?}", report.to_json().pretty());
        // 1 reference + every route, 8 relations each.
        assert_eq!(report.relations.len(), (1 + PriceRoute::ALL.len()) * Relation::ALL.len());
    }

    /// The route count docs/TESTING.md states ("all N …") and
    /// `PriceRoute::ALL` cannot drift apart: adding or folding a route
    /// without editing the doc fails here.
    #[test]
    fn documented_route_count_matches_the_route_list() {
        let doc = include_str!("../../../docs/TESTING.md");
        let counts: Vec<usize> = doc
            .split("all ")
            .skip(1)
            .filter_map(|rest| {
                let digits = rest.chars().take_while(char::is_ascii_digit).count();
                rest[..digits].parse().ok()
            })
            .collect();
        assert_eq!(counts.len(), 2, "docs/TESTING.md states the route count twice: {counts:?}");
        for n in counts {
            assert_eq!(n, PriceRoute::ALL.len(), "docs/TESTING.md says {n} routes");
        }
    }

    #[test]
    fn report_json_round_trips_through_the_parser() {
        let report = match run(7, 2, None) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        };
        let text = report.to_json().pretty();
        let parsed = match crate::json::parse(&text) {
            Ok(j) => j,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some("cds-conformance/v1"));
        assert_eq!(parsed.get("clean"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("routes").and_then(Json::as_f64), Some(PriceRoute::ALL.len() as f64));
    }

    #[test]
    fn a_missing_corpus_directory_is_an_environment_error() {
        let err = match check_corpus(Path::new("/nonexistent-corpus"), &UlpComparator::ENGINE_F64) {
            Err(e) => e,
            Ok(_) => panic!("missing directory accepted"),
        };
        assert!(err.contains("cannot read corpus directory"), "{err}");
    }
}
