//! Conformance cases and the committed-corpus text format.
//!
//! A [`ConformanceCase`] is a *generative* description of one workload —
//! a market shape plus a set of options — rather than a dump of curve
//! knots: the corpus stays human-readable, diffs stay small, and a case
//! file pins the exact inputs (every float is stored by its IEEE-754 bit
//! pattern, so a reloaded case reproduces the original run bit for bit).
//!
//! Format (`results/conformance_corpus/*.case`):
//!
//! ```text
//! cds-conformance-case v1
//! name: listing1-partial-sum-6-points
//! note: Listing-1 partial-sum boundary — exactly 6 quarterly points
//! market: flat rate=0x3f947ae147ae147b hazard=0x3f8eb851eb851eb8 knots=64
//! option: maturity=0x3ff8000000000000 frequency=quarterly recovery=0x3fd999999999999a
//! ```
//!
//! Lines starting with `#` are comments (the writer emits the decimal
//! rendering of every float as a comment for the human reader). Payloads
//! decode through the strict [`cds_engine::codec`]; parsing returns typed
//! errors and never panics, whatever the input.

use cds_engine::codec::{f64_to_token, CodecError, Fields};
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency};
use cds_quant::QuantError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A market shape that can be rebuilt exactly from its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum MarketSpec {
    /// The paper's 1024-knot calibration workload.
    Paper {
        /// Workload seed.
        seed: u64,
    },
    /// The crisis-regime workload (inverted hazard, near-zero rates).
    Stressed {
        /// Workload seed.
        seed: u64,
    },
    /// Flat interest and hazard curves.
    Flat {
        /// Flat interest rate.
        rate: f64,
        /// Flat hazard rate.
        hazard: f64,
        /// Knots per curve.
        knots: usize,
    },
    /// A flat curve perturbed by tiny seeded wobble — adversarial for
    /// comparisons because neighbouring knots are almost equal, so
    /// interpolation differences cancel to the last few bits.
    NearFlat {
        /// Base interest rate.
        rate: f64,
        /// Base hazard rate.
        hazard: f64,
        /// Relative wobble amplitude (e.g. `1e-7`).
        wobble: f64,
        /// Wobble seed.
        seed: u64,
        /// Knots per curve.
        knots: usize,
    },
    /// A hazard step: `low` before `step_tenor`, `high` after — the
    /// sharpest curve shape piecewise-linear interpolation admits.
    StepHazard {
        /// Flat interest rate.
        rate: f64,
        /// Hazard before the step.
        low: f64,
        /// Hazard after the step.
        high: f64,
        /// Tenor of the step.
        step_tenor: f64,
        /// Knots per curve.
        knots: usize,
    },
}

/// Curve horizon of the synthetic (non-paper) market shapes, years.
const SYNTHETIC_HORIZON: f64 = 30.0;

impl MarketSpec {
    /// Materialise the market data this spec describes.
    pub fn build(&self) -> Result<MarketData<f64>, QuantError> {
        use cds_quant::curve::{Curve, CurvePoint};
        match *self {
            MarketSpec::Paper { seed } => Ok(MarketData::paper_workload(seed)),
            MarketSpec::Stressed { seed } => Ok(MarketData::stressed_workload(seed)),
            MarketSpec::Flat { rate, hazard, knots } => Ok(MarketData::flat(rate, hazard, knots)),
            MarketSpec::NearFlat { rate, hazard, wobble, seed, knots } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut interest = Vec::with_capacity(knots);
                let mut hazards = Vec::with_capacity(knots);
                for i in 1..=knots {
                    let t = SYNTHETIC_HORIZON * i as f64 / knots as f64;
                    let wr: f64 = rng.gen_range(-1.0..1.0);
                    let wh: f64 = rng.gen_range(-1.0..1.0);
                    interest.push(CurvePoint { tenor: t, value: rate * (1.0 + wobble * wr) });
                    hazards.push(CurvePoint { tenor: t, value: hazard * (1.0 + wobble * wh) });
                }
                Ok(MarketData { interest: Curve::new(interest)?, hazard: Curve::new(hazards)? })
            }
            MarketSpec::StepHazard { rate, low, high, step_tenor, knots } => {
                let mut hazards = Vec::with_capacity(knots);
                for i in 1..=knots {
                    let t = SYNTHETIC_HORIZON * i as f64 / knots as f64;
                    let h = if t < step_tenor { low } else { high };
                    hazards.push(CurvePoint { tenor: t, value: h });
                }
                Ok(MarketData {
                    interest: Curve::flat(rate, knots, SYNTHETIC_HORIZON),
                    hazard: Curve::new(hazards)?,
                })
            }
        }
    }

    /// One-line serialisation (the `market:` payload).
    fn to_line(&self) -> String {
        match *self {
            MarketSpec::Paper { seed } => format!("paper seed={seed}"),
            MarketSpec::Stressed { seed } => format!("stressed seed={seed}"),
            MarketSpec::Flat { rate, hazard, knots } => {
                format!(
                    "flat rate={} hazard={} knots={knots}",
                    f64_to_token(rate),
                    f64_to_token(hazard)
                )
            }
            MarketSpec::NearFlat { rate, hazard, wobble, seed, knots } => format!(
                "nearflat rate={} hazard={} wobble={} seed={seed} knots={knots}",
                f64_to_token(rate),
                f64_to_token(hazard),
                f64_to_token(wobble)
            ),
            MarketSpec::StepHazard { rate, low, high, step_tenor, knots } => format!(
                "step rate={} low={} high={} step_tenor={} knots={knots}",
                f64_to_token(rate),
                f64_to_token(low),
                f64_to_token(high),
                f64_to_token(step_tenor)
            ),
        }
    }

    /// Human-oriented comment rendering (decimal values).
    fn to_comment(&self) -> String {
        match *self {
            MarketSpec::Paper { seed } => format!("paper workload, seed {seed}"),
            MarketSpec::Stressed { seed } => format!("stressed workload, seed {seed}"),
            MarketSpec::Flat { rate, hazard, knots } => {
                format!("flat r={rate} h={hazard} over {knots} knots")
            }
            MarketSpec::NearFlat { rate, hazard, wobble, seed, knots } => {
                format!("near-flat r={rate} h={hazard} wobble={wobble} seed={seed} knots={knots}")
            }
            MarketSpec::StepHazard { rate, low, high, step_tenor, knots } => {
                format!("step hazard {low}->{high} at {step_tenor}y, r={rate}, {knots} knots")
            }
        }
    }
}

/// One conformance workload: a market spec and the options priced on it.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceCase {
    /// Corpus slug (also the file stem).
    pub name: String,
    /// Why this case is in the corpus.
    pub note: String,
    /// The market shape.
    pub market: MarketSpec,
    /// The options to price.
    pub options: Vec<CdsOption>,
}

/// A malformed corpus file. Carries the offending line and a reason.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusError {
    /// 1-based line number (0 when the problem is file-level).
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "corpus case invalid: {}", self.reason)
        } else {
            write!(f, "corpus case invalid at line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for CorpusError {}

fn freq_name(f: PaymentFrequency) -> &'static str {
    match f {
        PaymentFrequency::Annual => "annual",
        PaymentFrequency::SemiAnnual => "semiannual",
        PaymentFrequency::Quarterly => "quarterly",
        PaymentFrequency::Monthly => "monthly",
    }
}

fn parse_freq(s: &str) -> Result<PaymentFrequency, String> {
    let freq = PaymentFrequency::ALL.into_iter().find(|&f| freq_name(f) == s);
    freq.ok_or_else(|| format!("unknown payment frequency {s}"))
}

impl ConformanceCase {
    /// Serialise to the corpus text format (bit-exact round trip).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("cds-conformance-case v1\n");
        out.push_str(&format!("name: {}\n", self.name));
        out.push_str(&format!("note: {}\n", self.note));
        out.push_str(&format!("# market: {}\n", self.market.to_comment()));
        out.push_str(&format!("market: {}\n", self.market.to_line()));
        for o in &self.options {
            out.push_str(&format!(
                "# option: {}y {} recovery {}\n",
                o.maturity,
                freq_name(o.frequency),
                o.recovery_rate
            ));
            out.push_str(&format!(
                "option: maturity={} frequency={} recovery={}\n",
                f64_to_token(o.maturity),
                freq_name(o.frequency),
                f64_to_token(o.recovery_rate)
            ));
        }
        out
    }

    /// Parse the corpus text format. Never panics; malformed input yields
    /// a [`CorpusError`] naming the offending line.
    pub fn parse(text: &str) -> Result<ConformanceCase, CorpusError> {
        let err = |line: usize, reason: String| CorpusError { line, reason };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| err(0, "empty corpus case".to_string()))?;
        if header.trim() != "cds-conformance-case v1" {
            return Err(err(1, format!("bad header {header:?}")));
        }
        let mut name = None;
        let mut note = String::new();
        let mut market = None;
        let mut options = Vec::new();
        for (i, raw) in lines {
            let line_no = i + 1;
            let codec = |e: CodecError| err(line_no, e.to_string());
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, payload) = line
                .split_once(':')
                .ok_or_else(|| err(line_no, format!("expected `key: value`, got {line:?}")))?;
            let payload = payload.trim();
            match key.trim() {
                "name" => name = Some(payload.to_string()),
                "note" => note = payload.to_string(),
                "market" => {
                    let (shape, rest) = payload.split_once(' ').unwrap_or((payload, ""));
                    let f = Fields::parse(rest.split_whitespace()).map_err(codec)?;
                    let spec = match shape {
                        "paper" => MarketSpec::Paper { seed: f.dec("seed").map_err(codec)? },
                        "stressed" => MarketSpec::Stressed { seed: f.dec("seed").map_err(codec)? },
                        "flat" => MarketSpec::Flat {
                            rate: f.f64("rate").map_err(codec)?,
                            hazard: f.f64("hazard").map_err(codec)?,
                            knots: f.dec("knots").map_err(codec)?,
                        },
                        "nearflat" => MarketSpec::NearFlat {
                            rate: f.f64("rate").map_err(codec)?,
                            hazard: f.f64("hazard").map_err(codec)?,
                            wobble: f.f64("wobble").map_err(codec)?,
                            seed: f.dec("seed").map_err(codec)?,
                            knots: f.dec("knots").map_err(codec)?,
                        },
                        "step" => MarketSpec::StepHazard {
                            rate: f.f64("rate").map_err(codec)?,
                            low: f.f64("low").map_err(codec)?,
                            high: f.f64("high").map_err(codec)?,
                            step_tenor: f.f64("step_tenor").map_err(codec)?,
                            knots: f.dec("knots").map_err(codec)?,
                        },
                        other => return Err(err(line_no, format!("unknown market shape {other}"))),
                    };
                    market = Some(spec);
                }
                "option" => {
                    let f = Fields::parse(payload.split_whitespace()).map_err(codec)?;
                    let maturity = f.f64("maturity").map_err(codec)?;
                    let frequency = parse_freq(f.get("frequency").map_err(codec)?)
                        .map_err(|e| err(line_no, e))?;
                    let recovery = f.f64("recovery").map_err(codec)?;
                    let option = CdsOption::validated(maturity, frequency, recovery)
                        .map_err(|e| err(line_no, format!("invalid option: {e}")))?;
                    options.push(option);
                }
                other => return Err(err(line_no, format!("unknown key {other}"))),
            }
        }
        let name = name.ok_or_else(|| err(0, "missing name".to_string()))?;
        let market = market.ok_or_else(|| err(0, "missing market".to_string()))?;
        if options.is_empty() {
            return Err(err(0, "case has no options".to_string()));
        }
        Ok(ConformanceCase { name, note, market, options })
    }

    /// Build the market this case describes.
    pub fn build_market(&self) -> Result<MarketData<f64>, QuantError> {
        self.market.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConformanceCase {
        ConformanceCase {
            name: "sample".into(),
            note: "round-trip fixture".into(),
            market: MarketSpec::StepHazard {
                rate: 0.0213,
                low: 0.004,
                high: 0.087,
                step_tenor: 2.718471828,
                knots: 48,
            },
            options: vec![
                CdsOption::new(1.5, PaymentFrequency::Quarterly, 0.4),
                CdsOption::new(0.087, PaymentFrequency::Monthly, 0.999),
            ],
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let case = sample();
        let parsed = match ConformanceCase::parse(&case.to_text()) {
            Ok(c) => c,
            Err(e) => panic!("round trip failed: {e}"),
        };
        assert_eq!(parsed, case);
        // Bit-exactness, not just PartialEq: compare the bit patterns.
        for (a, b) in parsed.options.iter().zip(&case.options) {
            assert_eq!(a.maturity.to_bits(), b.maturity.to_bits());
            assert_eq!(a.recovery_rate.to_bits(), b.recovery_rate.to_bits());
        }
    }

    #[test]
    fn every_market_shape_round_trips_and_builds() {
        let shapes = [
            MarketSpec::Paper { seed: 7 },
            MarketSpec::Stressed { seed: 9 },
            MarketSpec::Flat { rate: 0.02, hazard: 0.015, knots: 64 },
            MarketSpec::NearFlat { rate: 0.02, hazard: 0.015, wobble: 1e-7, seed: 3, knots: 32 },
            MarketSpec::StepHazard {
                rate: 0.01,
                low: 0.002,
                high: 0.09,
                step_tenor: 3.0,
                knots: 40,
            },
        ];
        for market in shapes {
            let case = ConformanceCase {
                name: "shape".into(),
                note: String::new(),
                market,
                options: vec![CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.4)],
            };
            let parsed = match ConformanceCase::parse(&case.to_text()) {
                Ok(c) => c,
                Err(e) => panic!("{e}"),
            };
            assert_eq!(parsed, case);
            assert!(parsed.build_market().is_ok());
        }
    }

    #[test]
    fn malformed_inputs_yield_typed_errors_not_panics() {
        let bad = [
            "",
            "wrong header",
            "cds-conformance-case v1\nname: x",                         // no market/options
            "cds-conformance-case v1\nname: x\nmarket: warp seed=1",    // unknown shape
            "cds-conformance-case v1\nname: x\nmarket: flat rate=xyz hazard=0.1 knots=2",
            "cds-conformance-case v1\nname: x\nmarket: paper seed=1\noption: maturity=0x1 frequency=daily recovery=0x1",
            "cds-conformance-case v1\nname: x\nmarket: paper seed=1\noption: maturity=-1.0 frequency=quarterly recovery=0.4",
            "cds-conformance-case v1\ngarbage line without colon",
            "cds-conformance-case v1\nwho: knows",
        ];
        for text in bad {
            assert!(ConformanceCase::parse(text).is_err(), "accepted: {text:?}");
        }
    }

    /// The writer is unchanged: every committed corpus file is exactly
    /// what its parsed case serialises back to.
    #[test]
    fn committed_corpus_round_trips_byte_for_byte() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/conformance_corpus");
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).expect("committed corpus directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "case") {
                let text = std::fs::read_to_string(&path).expect("readable case");
                let case = ConformanceCase::parse(&text)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert_eq!(case.to_text(), text, "{}", path.display());
                files += 1;
            }
        }
        assert!(files > 0, "no .case files under {}", dir.display());
    }

    #[test]
    fn non_canonical_fields_are_typed_errors_naming_the_field() {
        let head = "cds-conformance-case v1\nname: d\nmarket: paper seed=1\n";
        let option = "frequency=quarterly recovery=0x3fd999999999999a";
        for (line, needle) in [
            // A truncated bit pattern is a valid tiny float to a lenient
            // parser; a decimal is no bit pattern at all.
            (format!("option: maturity=0x4014 {option}"), "field `maturity`"),
            (format!("option: maturity=5.0 {option}"), "field `maturity`"),
            (format!("option: maturity=0x4014000000000000 {option} stray"), "`stray`"),
            (
                format!("option: maturity=0x4014000000000000 {option} maturity=0x4014000000000000"),
                "duplicate field `maturity`",
            ),
            ("market: paper seed=+1".to_string(), "field `seed`"),
        ] {
            let text = format!("{head}{line}\n");
            match ConformanceCase::parse(&text) {
                Err(e) => {
                    assert_eq!(e.line, 4, "{line}: {e}");
                    assert!(e.reason.contains(needle), "{line}: `{e}` should name {needle}");
                }
                Ok(case) => panic!("accepted {line:?} as {case:?}"),
            }
        }
    }
}
