//! One baseline gate for every `--check` report.
//!
//! Each gated report module declares a [`Gate`] next to its `to_json`:
//! the schema version its baselines carry and a static list of
//! [`Check`]s. [`parse_baseline`] validates a committed baseline before
//! any measurement runs, and [`evaluate`] runs the list over
//! `(baseline, current)` JSON. Neither has a branch per report.
//!
//! A check reads one field of the current report and applies one of
//! three [`Kind`]s — equality, a floor or a ceiling, the latter two with
//! a relative tolerance — against a [`Reference`]:
//!
//! * [`Reference::Recorded`] — the baseline's own value of the same
//!   field. A recorded value ≤ 0 under a floor or ceiling is an
//!   unmeasured placeholder (the latency fields of a modelled CPU row)
//!   and is not gated;
//! * [`Reference::Bound`] — another baseline field holding an explicit
//!   bound (`min_lane_speedup`, `p99_micros_max`), applied as written;
//! * [`Reference::Literal`] — a fixed value (`bit_mismatches == 0`).
//!   Re-baselining can never relax it.
//!
//! A check scoped [`Check::within`] a keyed array (`rows`, `metrics`,
//! `cases`) runs on every pair of records matched by `name`; a record
//! present on one side only is reported by name.

use crate::json::Json;

/// How a check compares the current value with its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The values must be equal.
    Eq,
    /// A floor: the value may not fall below `reference × (1 − tolerance)`.
    Min(f64),
    /// A ceiling: the value may not rise above `reference × (1 + tolerance)`.
    Max(f64),
}

/// What a check compares against.
#[derive(Debug, Clone, PartialEq)]
pub enum Reference {
    /// The baseline's value of the checked field itself.
    Recorded,
    /// A differently named baseline field holding an explicit bound.
    Bound(&'static str),
    /// A fixed value that no baseline can move.
    Literal(Json),
}

/// One gated comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The keyed array the check runs over, or `None` for a top-level
    /// field.
    pub records: Option<&'static str>,
    /// The field of the current report (or record) being checked.
    pub field: &'static str,
    /// Equality, floor or ceiling.
    pub kind: Kind,
    /// What the field is compared against.
    pub reference: Reference,
}

impl Check {
    const fn new(field: &'static str, kind: Kind, reference: Reference) -> Check {
        Check { records: None, field, kind, reference }
    }

    /// `field` equals the baseline's `field`.
    pub const fn eq(field: &'static str) -> Check {
        Check::new(field, Kind::Eq, Reference::Recorded)
    }

    /// `field` equals a fixed value.
    pub const fn literal(field: &'static str, value: Json) -> Check {
        Check::new(field, Kind::Eq, Reference::Literal(value))
    }

    /// `field` stays above the baseline's `field` less `tolerance`.
    pub const fn min(field: &'static str, tolerance: f64) -> Check {
        Check::new(field, Kind::Min(tolerance), Reference::Recorded)
    }

    /// `field` stays below the baseline's `field` plus `tolerance`.
    pub const fn max(field: &'static str, tolerance: f64) -> Check {
        Check::new(field, Kind::Max(tolerance), Reference::Recorded)
    }

    /// `field` is at least the baseline's `bound`, without tolerance.
    pub const fn at_least(field: &'static str, bound: &'static str) -> Check {
        Check::new(field, Kind::Min(0.0), Reference::Bound(bound))
    }

    /// `field` is at most the baseline's `bound`, without tolerance.
    pub const fn at_most(field: &'static str, bound: &'static str) -> Check {
        Check::new(field, Kind::Max(0.0), Reference::Bound(bound))
    }

    /// Scope the check to every record of the keyed array `records`.
    pub const fn within(mut self, records: &'static str) -> Check {
        self.records = Some(records);
        self
    }

    /// The baseline field this check reads, if any.
    fn baseline_field(&self) -> Option<&'static str> {
        match self.reference {
            Reference::Recorded => Some(self.field),
            Reference::Bound(bound) => Some(bound),
            Reference::Literal(_) => None,
        }
    }

    /// Compare one current object against one baseline object, pushing
    /// a message located at `at` for each problem.
    fn apply(&self, gate: &str, at: &str, baseline: &Json, current: &Json, out: &mut Vec<String>) {
        let reference = match &self.reference {
            Reference::Literal(value) => Some(value),
            _ => self.baseline_field().and_then(|f| baseline.get(f)),
        };
        let (Some(cur), Some(reference)) = (current.get(self.field), reference) else {
            out.push(format!("{at}: missing from the current run or the baseline"));
            return;
        };
        let (tolerance, side) = match self.kind {
            Kind::Eq => {
                if cur != reference {
                    let (want, got) = (compact(reference), compact(cur));
                    out.push(format!("{at} differs: expected {want}, got {got}"));
                }
                return;
            }
            Kind::Min(t) => (-t, "fell below the floor"),
            Kind::Max(t) => (t, "rose above the ceiling"),
        };
        let (Some(c), Some(r)) = (cur.as_f64(), reference.as_f64()) else {
            out.push(format!("{at}: not a number"));
            return;
        };
        if self.reference == Reference::Recorded && r <= 0.0 {
            return;
        }
        let bound = r * (1.0 + tolerance);
        let failed = if matches!(self.kind, Kind::Min(_)) { c < bound } else { c > bound };
        if failed {
            let source = match self.reference {
                Reference::Bound(name) => format!("baseline {name}"),
                _ => format!("baseline {} {:+.0}%", num(r), tolerance * 100.0),
            };
            out.push(format!(
                "{gate} regressed: {at} = {} {side} {} ({source})",
                num(c),
                num(bound)
            ));
        }
    }
}

/// A report's gate: the schema version its baselines carry and the
/// checks run against them.
#[derive(Debug)]
pub struct Gate {
    /// Short name used in messages (`bench`, `SLO`, …).
    pub name: &'static str,
    /// The `schema_version` a baseline must carry.
    pub schema_version: u64,
    /// Every check, in report order.
    pub checks: &'static [Check],
}

/// The `name`d records of a keyed array (empty when absent).
fn records<'a>(doc: &'a Json, array: &str) -> Vec<(&'a str, &'a Json)> {
    doc.get(array)
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| Some((r.get("name")?.as_str()?, r)))
        .collect()
}

/// Parse a baseline and validate it against `gate`: the schema version
/// must match, and every field the checks read must be present (numeric
/// where a floor or ceiling reads it). Errors are environment problems
/// (exit 2), never gate failures.
pub fn parse_baseline(gate: &Gate, text: &str) -> Result<Json, String> {
    let baseline = crate::json::parse(text)?;
    let version = baseline
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing numeric field 'schema_version'")?;
    if version != gate.schema_version as f64 {
        return Err(format!(
            "{} schema version {version} != supported {} — regenerate the baseline",
            gate.name, gate.schema_version
        ));
    }
    for check in gate.checks {
        let Some(field) = check.baseline_field() else { continue };
        let has = |doc: &Json| match (check.kind, doc.get(field)) {
            (Kind::Eq, value) => value.is_some(),
            (_, value) => value.and_then(Json::as_f64).is_some(),
        };
        match check.records {
            None if !has(&baseline) => return Err(format!("missing field '{field}'")),
            None => {}
            Some(array) => {
                let items = baseline
                    .get(array)
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("missing '{array}' array"))?;
                for item in items {
                    let name = item
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("a '{array}' record has no name"))?;
                    if !has(item) {
                        return Err(format!("{array} '{name}' missing field '{field}'"));
                    }
                }
            }
        }
    }
    Ok(baseline)
}

/// Run `gate` over a validated `baseline` and the `current` report:
/// one message per problem, empty when the gate passes.
pub fn evaluate(gate: &Gate, baseline: &Json, current: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let mut matched: Vec<&str> = Vec::new();
    for check in gate.checks {
        let Some(array) = check.records else {
            check.apply(gate.name, check.field, baseline, current, &mut problems);
            continue;
        };
        let (base, cur) = (records(baseline, array), records(current, array));
        if !matched.contains(&array) {
            matched.push(array);
            for (name, _) in base.iter().filter(|(n, _)| !cur.iter().any(|(c, _)| c == n)) {
                problems.push(format!("{array} '{name}' missing from the current run"));
            }
            for (name, _) in cur.iter().filter(|(n, _)| !base.iter().any(|(b, _)| b == n)) {
                problems.push(format!(
                    "{array} '{name}' not in the baseline — regenerate it with --json"
                ));
            }
        }
        for (name, b) in &base {
            if let Some((_, c)) = cur.iter().find(|(n, _)| n == name) {
                let at = format!("{array} '{name}' {}", check.field);
                check.apply(gate.name, &at, b, c, &mut problems);
            }
        }
    }
    problems
}

/// A number for a message: six decimals at most, trailing zeros cut.
fn num(x: f64) -> String {
    let s = format!("{x:.6}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// A JSON value on one line.
fn compact(value: &Json) -> String {
    value.pretty().split_whitespace().collect::<Vec<_>>().join(" ")
}

/// One row per committed baseline: each validates and gates clean
/// against itself, each check fails alone when one value moves just past
/// its bound and passes inside it, and a dropped or added record and a
/// stale or incomplete baseline are each reported.
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Every committed baseline (`results/*_baseline.json` except the
    /// coverage floor, which no `--check` reads) with its gate.
    fn committed() -> Vec<(&'static str, &'static Gate, &'static str)> {
        vec![
            ("bench", &crate::bench::GATE, include_str!("../../../results/bench_baseline.json")),
            ("chaos", &crate::chaos::GATE, include_str!("../../../results/chaos_baseline.json")),
            (
                "server_chaos",
                &crate::server_chaos::GATE,
                include_str!("../../../results/server_chaos_baseline.json"),
            ),
            (
                "server_slo",
                &crate::loadgen::GATE,
                include_str!("../../../results/server_slo_baseline.json"),
            ),
            (
                "storage_chaos",
                &crate::storage_chaos::GATE,
                include_str!("../../../results/storage_chaos_baseline.json"),
            ),
            (
                "tenant_isolation",
                &crate::server_chaos::GATE,
                include_str!("../../../results/tenant_isolation_baseline.json"),
            ),
            (
                "throughput",
                &crate::throughput::GATE,
                include_str!("../../../results/throughput_baseline.json"),
            ),
            (
                "tick_storm",
                &crate::tick_storm::GATE,
                include_str!("../../../results/tick_storm_baseline.json"),
            ),
        ]
    }

    fn baseline(name: &str, gate: &Gate, text: &str) -> Json {
        parse_baseline(gate, text).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    /// The objects `check` reads: the document itself or each record.
    fn objects<'a>(check: &Check, doc: &'a Json) -> Vec<&'a Json> {
        match check.records {
            None => vec![doc],
            Some(array) => records(doc, array).into_iter().map(|(_, r)| r).collect(),
        }
    }

    fn fields(doc: &mut Json) -> &mut BTreeMap<String, Json> {
        match doc {
            Json::Object(map) => map,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn objects_mut<'a>(check: &Check, doc: &'a mut Json) -> Vec<&'a mut BTreeMap<String, Json>> {
        match check.records {
            None => vec![fields(doc)],
            Some(array) => match fields(doc).get_mut(array) {
                Some(Json::Array(items)) => items.iter_mut().map(fields).collect(),
                _ => panic!("no '{array}' array"),
            },
        }
    }

    fn reference(check: &Check, baseline: &Json) -> Json {
        match &check.reference {
            Reference::Literal(value) => value.clone(),
            _ => {
                check.baseline_field().and_then(|f| baseline.get(f)).cloned().unwrap_or(Json::Null)
            }
        }
    }

    /// A current report built from the baseline that meets every check
    /// exactly: each checked field set to its reference.
    fn satisfying(gate: &Gate, baseline: &Json) -> Json {
        let mut current = baseline.clone();
        for check in gate.checks {
            let refs: Vec<Json> =
                objects(check, baseline).into_iter().map(|b| reference(check, b)).collect();
            for (obj, r) in objects_mut(check, &mut current).into_iter().zip(refs) {
                obj.insert(check.field.to_string(), r);
            }
        }
        current
    }

    /// `current` with the `index`th object of `check` set to `value`.
    fn with(check: &Check, current: &Json, index: usize, value: Json) -> Json {
        let mut out = current.clone();
        objects_mut(check, &mut out)[index].insert(check.field.to_string(), value);
        out
    }

    fn moved(value: &Json) -> Json {
        match value {
            Json::Bool(b) => Json::Bool(!b),
            Json::Number(x) => Json::Number(x + 1.0),
            Json::Str(s) => Json::Str(format!("{s}~")),
            Json::Array(items) => {
                Json::Array(items.iter().cloned().chain([Json::Str("extra".into())]).collect())
            }
            _ => Json::Bool(true),
        }
    }

    #[test]
    fn committed_baselines_cover_every_results_file() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut on_disk: Vec<String> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter_map(|f| f.strip_suffix("_baseline.json").map(str::to_string))
            .filter(|f| f != "coverage")
            .collect();
        on_disk.sort();
        let table: Vec<String> = committed().iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(table, on_disk);
    }

    #[test]
    fn committed_baselines_validate_and_gate_clean_against_themselves() {
        for (name, gate, text) in committed() {
            let base = baseline(name, gate, text);
            let problems = evaluate(gate, &base, &satisfying(gate, &base));
            assert!(problems.is_empty(), "{name}: {problems:?}");
        }
    }

    #[test]
    fn every_check_fails_just_past_its_bound_and_passes_inside_it() {
        for (name, gate, text) in committed() {
            let base = baseline(name, gate, text);
            let current = satisfying(gate, &base);
            for check in gate.checks {
                for (i, b) in objects(check, &base).into_iter().enumerate() {
                    let r = reference(check, b);
                    let record = b.get("name").and_then(Json::as_str).unwrap_or(check.field);
                    let case = format!("{name}: {record} {}", check.field);
                    let (tolerance, floor) = match check.kind {
                        Kind::Eq => {
                            let problems =
                                evaluate(gate, &base, &with(check, &current, i, moved(&r)));
                            assert_eq!(problems.len(), 1, "{case}: {problems:?}");
                            assert!(problems[0].contains(check.field), "{case}: {problems:?}");
                            assert!(problems[0].contains(record), "{case}: {problems:?}");
                            continue;
                        }
                        Kind::Min(t) => (-t, true),
                        Kind::Max(t) => (t, false),
                    };
                    let r = r.as_f64().unwrap_or_else(|| panic!("{case}: not a number"));
                    let wild = if floor { -1e12 } else { 1e12 };
                    if check.reference == Reference::Recorded && r <= 0.0 {
                        let problems =
                            evaluate(gate, &base, &with(check, &current, i, Json::Number(wild)));
                        assert!(problems.is_empty(), "{case}: placeholder gated: {problems:?}");
                        continue;
                    }
                    let bound = r * (1.0 + tolerance);
                    let step = (bound.abs() * 1e-9).max(1e-9);
                    let (past, inside) = if floor {
                        (bound - step, bound + step)
                    } else {
                        (bound + step, bound - step)
                    };
                    let problems =
                        evaluate(gate, &base, &with(check, &current, i, Json::Number(past)));
                    assert_eq!(problems.len(), 1, "{case}: {problems:?}");
                    assert!(problems[0].contains(check.field), "{case}: {problems:?}");
                    assert!(problems[0].contains(record), "{case}: {problems:?}");
                    assert!(problems[0].contains("regressed"), "{case}: {problems:?}");
                    for ok in [bound, inside] {
                        let problems =
                            evaluate(gate, &base, &with(check, &current, i, Json::Number(ok)));
                        assert!(problems.is_empty(), "{case} at {ok}: {problems:?}");
                    }
                }
            }
        }
    }

    /// Each percentage in a row of the Gates table of docs/TESTING.md.
    fn documented_percentages(doc: &str, gate: &str) -> Vec<f64> {
        let row = doc
            .lines()
            .find(|l| l.starts_with(&format!("| `{gate}` |")))
            .unwrap_or_else(|| panic!("docs/TESTING.md has no Gates row for `{gate}`"));
        row.split('%')
            .rev()
            .skip(1)
            .filter_map(|before| {
                let digits =
                    before.chars().rev().take_while(|c| c.is_ascii_digit() || *c == '.').count();
                before[before.len() - digits..].parse().ok()
            })
            .collect()
    }

    /// The documented tolerances and the check lists cannot drift apart:
    /// editing either one alone fails here.
    #[test]
    fn documented_tolerances_match_the_check_lists() {
        let doc = include_str!("../../../docs/TESTING.md");
        for (name, gate, tolerance) in [
            ("bench", &crate::bench::GATE, crate::bench::TOLERANCE),
            ("throughput", &crate::throughput::GATE, crate::throughput::TOLERANCE),
            ("tick-storm", &crate::tick_storm::GATE, crate::tick_storm::TOLERANCE),
        ] {
            let documented = documented_percentages(doc, name);
            assert!(!documented.is_empty(), "`{name}` row states no tolerance");
            for pct in documented {
                assert_eq!(pct, tolerance * 100.0, "`{name}`: documented {pct}% vs TOLERANCE");
            }
            for check in gate.checks {
                if let Kind::Min(t) | Kind::Max(t) = check.kind {
                    if check.reference == Reference::Recorded {
                        assert_eq!(t, tolerance, "`{name}` check `{}`", check.field);
                    }
                }
            }
        }
    }

    #[test]
    fn dropped_and_added_records_are_reported_by_name() {
        for (name, gate, text) in committed() {
            let base = baseline(name, gate, text);
            let current = satisfying(gate, &base);
            let mut arrays: Vec<&str> = gate.checks.iter().filter_map(|c| c.records).collect();
            arrays.dedup();
            for array in arrays {
                let first = records(&current, array)[0].0.to_string();
                let mut dropped = current.clone();
                let mut added = current.clone();
                match (fields(&mut dropped).get_mut(array), fields(&mut added).get_mut(array)) {
                    (Some(Json::Array(d)), Some(Json::Array(a))) => {
                        d.remove(0);
                        let mut extra = a[0].clone();
                        fields(&mut extra).insert("name".into(), Json::Str("gate/extra".into()));
                        a.push(extra);
                    }
                    _ => panic!("{name}: no '{array}' array"),
                }
                let problems = evaluate(gate, &base, &dropped);
                assert_eq!(problems.len(), 1, "{name}: {problems:?}");
                assert!(problems[0].contains(&first) && problems[0].contains("missing"));
                let problems = evaluate(gate, &base, &added);
                assert_eq!(problems.len(), 1, "{name}: {problems:?}");
                assert!(problems[0].contains("gate/extra") && problems[0].contains("not in"));
            }
        }
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        for (name, gate, text) in committed() {
            let base = baseline(name, gate, text);
            assert!(parse_baseline(gate, "{ not json").is_err(), "{name}");
            let mut stale = base.clone();
            fields(&mut stale).insert("schema_version".into(), Json::Number(99.0));
            let err = parse_baseline(gate, &stale.pretty()).expect_err("stale schema");
            assert!(err.contains("schema version"), "{name}: {err}");
            for check in gate.checks {
                let Some(field) = check.baseline_field() else { continue };
                let mut lacking = base.clone();
                objects_mut(check, &mut lacking)[0].remove(field);
                let err = parse_baseline(gate, &lacking.pretty()).expect_err("missing field");
                assert!(err.contains(field), "{name}: {err}");
                if check.kind != Kind::Eq {
                    let mut wrong = base.clone();
                    objects_mut(check, &mut wrong)[0].insert(field.into(), Json::Str("x".into()));
                    let err = parse_baseline(gate, &wrong.pretty()).expect_err("non-numeric bound");
                    assert!(err.contains(field), "{name}: {err}");
                }
            }
        }
    }

    #[test]
    fn literals_ignore_the_baseline() {
        let mut base = baseline(
            "tick_storm",
            &crate::tick_storm::GATE,
            include_str!("../../../results/tick_storm_baseline.json"),
        );
        // A baseline that recorded a dirty run cannot relax the literals.
        fields(&mut base).insert("bit_mismatches".into(), Json::Number(5.0));
        fields(&mut base).insert("zero_delta_clean".into(), Json::Bool(false));
        let mut dirty = satisfying(&crate::tick_storm::GATE, &base);
        fields(&mut dirty).insert("bit_mismatches".into(), Json::Number(5.0));
        fields(&mut dirty).insert("zero_delta_clean".into(), Json::Bool(false));
        let problems = evaluate(&crate::tick_storm::GATE, &base, &dirty);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
