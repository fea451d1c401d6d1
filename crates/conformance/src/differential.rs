//! The differential fuzzer: seeded adversarial cases through every
//! [`PriceRoute`], spreads compared to the golden reference under a
//! ULP-bounded comparator, failures shrunk to a minimal reproducer.

use crate::case::ConformanceCase;
use crate::generator::{generate_case, shrink};
use cds_engine::route::PriceRoute;
use cds_quant::ulp::{UlpComparator, UlpMismatch};

/// One route disagreeing with the reference on one option of a case.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteFailure {
    /// Stable route label (see [`PriceRoute::label`]).
    pub route: String,
    /// Index of the disagreeing option within the case.
    pub option_index: usize,
    /// The comparator evidence (absent when the route errored outright).
    pub mismatch: Option<UlpMismatch>,
    /// The route's error, when it failed to price at all.
    pub error: Option<String>,
}

impl std::fmt::Display for RouteFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "route {} option #{}: ", self.route, self.option_index)?;
        match (&self.mismatch, &self.error) {
            (Some(m), _) => write!(f, "{m}"),
            (None, Some(e)) => write!(f, "route error: {e}"),
            (None, None) => write!(f, "unspecified failure"),
        }
    }
}

/// Price `case` through every route and compare against the reference.
///
/// `Err` means the case itself is unusable (market fails to build or
/// the reference refuses an option) — a corpus problem, not an engine
/// divergence. `Ok(failures)` is empty when every route matches the
/// reference within `cmp` on every option.
pub fn route_failures(
    case: &ConformanceCase,
    cmp: &UlpComparator,
) -> Result<Vec<RouteFailure>, String> {
    let market = case.build_market().map_err(|e| format!("market build failed: {e}"))?;
    let mut golden = Vec::with_capacity(case.options.len());
    for (i, option) in case.options.iter().enumerate() {
        let r = cds_quant::cds::try_price_cds(&market, option)
            .map_err(|e| format!("reference failed on option #{i}: {e}"))?;
        golden.push(r.spread_bps);
    }
    let mut failures = Vec::new();
    for route in PriceRoute::ALL {
        match route.price(&market, &case.options) {
            Ok(spreads) => {
                if let Err((option_index, mismatch)) = cmp.check_all(&spreads, &golden) {
                    failures.push(RouteFailure {
                        route: route.label().to_string(),
                        option_index,
                        mismatch: Some(mismatch),
                        error: None,
                    });
                }
            }
            Err(e) => failures.push(RouteFailure {
                route: route.label().to_string(),
                option_index: 0,
                mismatch: None,
                error: Some(e.to_string()),
            }),
        }
    }
    Ok(failures)
}

/// A fuzz case that disagreed, shrunk to a minimal reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// `(seed, index)` of the originating generated case.
    pub seed: u64,
    /// Stream index of the originating case.
    pub index: u64,
    /// Minimal failing case (what gets committed to the corpus).
    pub shrunk: ConformanceCase,
    /// Route disagreements on the shrunk case.
    pub failures: Vec<RouteFailure>,
}

/// Summary of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Seed of the case stream.
    pub seed: u64,
    /// Number of cases generated and checked.
    pub cases: u64,
    /// Number of routes each case was priced through.
    pub routes: usize,
    /// Total options priced per route.
    pub options_priced: u64,
    /// Shrunk failures (empty on a clean run).
    pub failures: Vec<FuzzFailure>,
}

/// Run `cases` generated cases from `seed` through every route.
///
/// Failures are shrunk with [`shrink`] under the predicate "some route
/// still disagrees", so the reported case is a minimal reproducer.
pub fn fuzz(seed: u64, cases: u64, cmp: &UlpComparator) -> FuzzReport {
    let mut report = FuzzReport {
        seed,
        cases,
        routes: PriceRoute::ALL.len(),
        options_priced: 0,
        failures: Vec::new(),
    };
    for index in 0..cases {
        let case = generate_case(seed, index);
        report.options_priced += case.options.len() as u64;
        match route_failures(&case, cmp) {
            Ok(failures) if failures.is_empty() => {}
            Ok(_) => {
                let shrunk = shrink(
                    &case,
                    &mut |c| matches!(route_failures(c, cmp), Ok(f) if !f.is_empty()),
                );
                let failures = route_failures(&shrunk, cmp).unwrap_or_default();
                report.failures.push(FuzzFailure { seed, index, shrunk, failures });
            }
            Err(e) => {
                // A generated case must always build; treat a generator
                // bug as a failure with the evidence in the note.
                let mut shrunk = case.clone();
                shrunk.note = format!("generator produced an unusable case: {e}");
                report.failures.push(FuzzFailure { seed, index, shrunk, failures: Vec::new() });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::MarketSpec;
    use cds_quant::option::{CdsOption, PaymentFrequency};

    #[test]
    fn clean_case_has_no_route_failures() {
        let case = ConformanceCase {
            name: "smoke".to_string(),
            note: String::new(),
            market: MarketSpec::Paper { seed: 1 },
            options: vec![
                CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.4),
                CdsOption::new(1.75, PaymentFrequency::Quarterly, 0.0),
            ],
        };
        let failures = match route_failures(&case, &UlpComparator::ENGINE_F64) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        };
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn an_exact_comparator_flags_route_divergence() {
        // The routes do not agree to the last bit everywhere; with
        // max_ulps = 0 and no floor the differential harness must be
        // able to see a difference somewhere in a small fuzz run,
        // proving the comparison is not vacuous.
        let report = fuzz(7, 24, &UlpComparator::EXACT);
        assert!(
            !report.failures.is_empty(),
            "exact comparison across {} routes found no divergence at all",
            report.routes
        );
        for f in &report.failures {
            assert!(!f.shrunk.options.is_empty());
        }
    }

    #[test]
    fn engine_preset_fuzz_is_clean() {
        let report = fuzz(42, 48, &UlpComparator::ENGINE_F64);
        let rendered: Vec<String> = report
            .failures
            .iter()
            .flat_map(|f| f.failures.iter().map(|rf| format!("{} ({})", rf, f.shrunk.name)))
            .collect();
        assert!(report.failures.is_empty(), "route divergence beyond budget: {rendered:?}");
        assert!(report.options_priced >= report.cases);
    }

    #[test]
    fn unusable_generated_case_is_reported_not_panicked() {
        let case = ConformanceCase {
            name: "bad".to_string(),
            note: String::new(),
            market: MarketSpec::Flat { rate: 0.02, hazard: 0.02, knots: 2 },
            options: vec![],
        };
        // No options: reference golden is empty, routes return empty —
        // vacuously clean, but must not panic.
        let failures = match route_failures(&case, &UlpComparator::ENGINE_F64) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        };
        assert!(failures.is_empty());
    }
}
