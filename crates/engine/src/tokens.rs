//! Token types flowing on the engine's HLS streams.
//!
//! Hardware streams carry fixed-width words, so every token is a small
//! `Copy` struct. A unified value token ([`Tok`]) is used on all
//! intermediate streams — the per-stream meaning of its `value` field is
//! documented at each stream's creation site — which lets the generic
//! zip/merge stages of `dataflow-sim` operate on homogeneous types, just
//! as the hardware streams all carry 64-bit words.

use dataflow_sim::fault::{FaultEvent, FaultKind, FaultPlan};

/// `plan` with every token type tagged by its owning option index, so
/// each fault event names the option it hit (the option the scrubber
/// quarantines).
pub(crate) fn tag_options(plan: &FaultPlan) -> FaultPlan {
    plan.clone()
        .identify::<OptionTok>(|t| Some(t.opt_idx))
        .identify::<TimePointTok>(|t| Some(t.opt_idx))
        .identify::<Tok>(|t| Some(t.opt_idx))
        .identify::<SpreadTok>(|t| Some(t.opt_idx))
}

/// Options whose tokens a corruption fault mutated, as the option
/// indices the graph was built with.
pub(crate) fn corrupted_options(events: &[FaultEvent]) -> impl Iterator<Item = u32> + '_ {
    events.iter().filter(|e| e.kind == FaultKind::Corrupt).filter_map(|e| e.opt_idx)
}

/// An option entering the engine (the red once-per-option inputs of the
/// paper's Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptionTok {
    /// Index within the batch, for result ordering.
    pub opt_idx: u32,
    /// Maturity in years.
    pub maturity: f64,
    /// Premium payments per year.
    pub payments_per_year: u32,
    /// Recovery rate.
    pub recovery: f64,
}

/// One schedule time point (the blue per-time-point streams of Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePointTok {
    /// Owning option index.
    pub opt_idx: u32,
    /// The time point `tᵢ`.
    pub t: f64,
    /// Period length `Δᵢ = tᵢ − tᵢ₋₁`.
    pub delta: f64,
    /// Period mid-point `(tᵢ₋₁ + tᵢ)/2`.
    pub mid: f64,
    /// True on the option's final time point (the maturity).
    pub last: bool,
}

/// Generic per-time-point or per-option value token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tok {
    /// Owning option index.
    pub opt_idx: u32,
    /// Stream-specific payload (survival probability, discount factor,
    /// leg term, accumulated sum, recovery rate, …).
    pub value: f64,
    /// True on the option's final token.
    pub last: bool,
}

impl Tok {
    /// Construct a token.
    pub fn new(opt_idx: u32, value: f64, last: bool) -> Self {
        Tok { opt_idx, value, last }
    }
}

/// A finished spread result leaving the engine (green output of Fig 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpreadTok {
    /// Option index the spread belongs to.
    pub opt_idx: u32,
    /// Fair spread in basis points.
    pub spread_bps: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_small_copy_types() {
        // Hardware buses are fixed-width; keep tokens register-sized.
        assert!(std::mem::size_of::<Tok>() <= 24);
        assert!(std::mem::size_of::<TimePointTok>() <= 40);
        assert!(std::mem::size_of::<OptionTok>() <= 32);
        assert!(std::mem::size_of::<SpreadTok>() <= 16);
    }

    #[test]
    fn tok_constructor() {
        let t = Tok::new(3, 0.5, true);
        assert_eq!(t.opt_idx, 3);
        assert_eq!(t.value, 0.5);
        assert!(t.last);
    }
}
