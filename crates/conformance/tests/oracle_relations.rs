//! The metamorphic oracle holds for the reference pricer AND for every
//! engine route — the relations are properties of correct pricing, not
//! of one implementation.

use cds_conformance::case::{ConformanceCase, MarketSpec};
use cds_conformance::generator::generate_case;
use cds_conformance::oracle::{ReferenceModel, Relation, RouteModel, SpreadModel};
use cds_engine::route::PriceRoute;
use cds_quant::option::{CdsOption, PaymentFrequency};
use proptest::prelude::*;

/// Canonical probe inputs: one rough market with a liquid-tenor option,
/// one flat market with a Listing-1 boundary maturity and zero recovery.
fn probes() -> Vec<(cds_quant::option::MarketData<f64>, CdsOption)> {
    vec![
        (
            cds_quant::option::MarketData::paper_workload(11),
            CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.40),
        ),
        (
            cds_quant::option::MarketData::flat(0.03, 0.04, 64),
            CdsOption::new(1.75, PaymentFrequency::Quarterly, 0.0),
        ),
    ]
}

#[test]
fn every_route_satisfies_every_relation_on_canonical_probes() {
    for (market, option) in probes() {
        for route in PriceRoute::ALL {
            let model = RouteModel::new(route);
            for relation in Relation::ALL {
                if let Err(v) = relation.check(&model, &market, &option) {
                    panic!("{v}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The reference satisfies every relation on adversarial generated
    // inputs, not just hand-picked ones (near-flat curves, step
    // hazards, sub-period maturities, boundary counts, extreme
    // recoveries all flow through here).
    #[test]
    fn reference_relations_hold_on_generated_cases(seed in 0u64..1 << 32) {
        let case = generate_case(seed, 0);
        let market = match case.build_market() {
            Ok(m) => m,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(format!("{e}"))),
        };
        for option in &case.options {
            for relation in Relation::ALL {
                let checked = relation.check(&ReferenceModel, &market, option);
                prop_assert!(checked.is_ok(), "{} on {}: {:?}", relation, case.name, checked);
            }
        }
    }
}

#[test]
fn relations_hold_for_routes_on_a_corpus_style_case() {
    // A case round-tripped through the corpus text format prices
    // identically (bit-exact market + options), so the oracle verdict
    // is the same before and after serialisation.
    let case = ConformanceCase {
        name: "oracle-corpus-roundtrip".to_string(),
        note: String::new(),
        market: MarketSpec::StepHazard {
            rate: 0.02,
            low: 0.005,
            high: 0.09,
            step_tenor: 3.0,
            knots: 64,
        },
        options: vec![CdsOption::new(2.0, PaymentFrequency::SemiAnnual, 0.25)],
    };
    let reparsed = match ConformanceCase::parse(&case.to_text()) {
        Ok(c) => c,
        Err(e) => panic!("{e}"),
    };
    let market = match reparsed.build_market() {
        Ok(m) => m,
        Err(e) => panic!("{e}"),
    };
    let model = RouteModel::new(PriceRoute::StreamingResume);
    for relation in Relation::ALL {
        if let Err(v) = relation.check(&model, &market, &reparsed.options[0]) {
            panic!("{v}");
        }
    }
    let a = ReferenceModel.spread_bps(&market, &case.options[0]);
    let b = ReferenceModel.spread_bps(&market, &reparsed.options[0]);
    assert_eq!(a, b, "corpus round-trip changed the priced spread");
}
