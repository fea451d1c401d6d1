//! Write-ahead run journal: checkpoints and deterministic resume.
//!
//! A streaming run emits a [`Checkpoint`] after every
//! `cadence` completed options (plus a terminal commit record). Each
//! checkpoint is a self-contained watermark — the admitted and shed
//! option sets, the fault-plan seed, and every completion so far with
//! its cycle and **bit-exact** spread (serialized as raw `f64` bits) —
//! so an engine that dies mid-run loses at most one checkpoint interval:
//! [`crate::streaming::resume_streaming_from`] replays only the work
//! after the watermark, and because per-option pricing is independent of
//! batch composition the resumed spreads are bit-identical to an
//! uninterrupted run.
//!
//! The serialization is a deliberately simple line-based text format
//! (`cds-checkpoint v1`, one `key=value` per line) parsed with typed
//! [`CdsError::Journal`] errors — checkpoint IO never panics. The final
//! line is a commit marker (`commit=<completion count>`): a journal cut
//! short mid-write — dropping whole lines or a tail of the completion
//! list — fails parsing instead of silently passing for a checkpoint
//! with fewer completions.

use crate::codec::{self, bits_to_hex, CodecError, Fields};
use crate::error::CdsError;
use crate::streaming::StreamingReport;
use dataflow_sim::Cycle;

/// Magic first line of the text serialization.
pub const CHECKPOINT_MAGIC: &str = "cds-checkpoint v1";

/// Current checkpoint schema version.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// One completed option recorded in a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedOption {
    /// Original index of the option.
    pub index: u32,
    /// Cycle at which its spread left the engine.
    pub done_cycle: Cycle,
    /// The spread, preserved bit-exactly across serialization.
    pub spread_bps: f64,
}

/// A self-contained watermark of a partially completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Serialization schema version.
    pub schema_version: u32,
    /// Total options in the original workload.
    pub total_options: u32,
    /// Completions between checkpoints when this was emitted.
    pub cadence: u32,
    /// Completion cycle of the latest option included.
    pub watermark_cycle: Cycle,
    /// Seed of the active fault plan, if any.
    pub fault_seed: Option<u64>,
    /// Name of the scenario the run was recorded under (e.g. a harness
    /// fault scenario, or a serving-layer journal label). `None` for
    /// unlabelled runs; when set, [`crate::streaming::resume_streaming_from`]
    /// refuses to resume under a *different* requested scenario instead
    /// of silently replaying the wrong journal.
    pub scenario: Option<String>,
    /// Original indices admitted past the ingress, ascending.
    pub admitted: Vec<u32>,
    /// Original indices shed by admission control, ascending.
    pub shed: Vec<u32>,
    /// Completions up to the watermark, in completion order.
    pub completed: Vec<CompletedOption>,
}

impl Checkpoint {
    /// Serialize to the line-based text format. Spreads are written as
    /// raw `f64` bit patterns so parsing restores them bit-identically.
    #[must_use]
    pub fn to_text(&self) -> String {
        let ids = |v: &[u32]| v.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        let completed = self
            .completed
            .iter()
            .map(|c| {
                format!("{}:{}:{}", c.index, c.done_cycle, bits_to_hex(c.spread_bps.to_bits()))
            })
            .collect::<Vec<_>>()
            .join(",");
        let fault_seed = self.fault_seed.map_or_else(|| "none".to_string(), |s| s.to_string());
        // The scenario line is omitted entirely (not written as a
        // sentinel) for unlabelled runs: "none" is a legitimate harness
        // scenario name, so a sentinel would collide with it.
        let scenario =
            self.scenario.as_ref().map_or_else(String::new, |s| format!("scenario={s}\n"));
        format!(
            "{CHECKPOINT_MAGIC}\nschema_version={}\ntotal_options={}\ncadence={}\n\
             watermark_cycle={}\nfault_seed={fault_seed}\n{scenario}admitted={}\nshed={}\ncompleted={completed}\n\
             commit={}\n",
            self.schema_version,
            self.total_options,
            self.cadence,
            self.watermark_cycle,
            ids(&self.admitted),
            ids(&self.shed),
            self.completed.len(),
        )
    }

    /// Persist this checkpoint at `path` through a [`crate::journal_io::JournalIo`]
    /// with the full crash-consistent discipline (write `<path>.tmp`,
    /// fsync it, rename over `path`, sync the parent directory). A
    /// crash at any point leaves either the previous checkpoint or this
    /// one — never a torn file (see
    /// [`crate::journal_io::enumerate_crash_states`], which proves it).
    ///
    /// # Errors
    /// [`CdsError::Storage`] on any substrate failure.
    pub fn persist(
        &self,
        io: &dyn crate::journal_io::JournalIo,
        path: &std::path::Path,
    ) -> Result<(), CdsError> {
        crate::journal_io::atomic_publish(io, path, self.to_text().as_bytes()).map_err(|e| {
            CdsError::Storage { path: path.display().to_string(), cause: e.to_string() }
        })
    }

    /// Load a checkpoint persisted by [`Checkpoint::persist`].
    ///
    /// # Errors
    /// [`CdsError::Storage`] when the file cannot be read, or the typed
    /// parse failure.
    pub fn load(path: &std::path::Path) -> Result<Checkpoint, CdsError> {
        let text = std::fs::read_to_string(path).map_err(|e| CdsError::Storage {
            path: path.display().to_string(),
            cause: e.to_string(),
        })?;
        Checkpoint::parse(&text)
    }

    /// Parse the text format through the strict [`crate::codec`]. Every
    /// malformation is a typed [`CdsError::Journal`] — this never panics.
    pub fn parse(text: &str) -> Result<Checkpoint, CdsError> {
        let journal = |reason: String| CdsError::Journal { reason };
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(CHECKPOINT_MAGIC) {
            return Err(journal(format!("missing magic line `{CHECKPOINT_MAGIC}`")));
        }
        let fields = Fields::parse(lines.map(str::trim).filter(|l| !l.is_empty()))?;
        // A comma-separated list; an empty value is an empty list.
        let list = |key: &'static str| {
            fields.get(key).map(|raw| raw.split(',').filter(move |_| !raw.is_empty()))
        };
        let id_list = |key: &'static str| -> Result<Vec<u32>, CodecError> {
            list(key)?.map(|s| codec::dec(s).map_err(|e| e.in_field(key))).collect()
        };

        let schema_version: u32 = fields.dec("schema_version")?;
        if schema_version != CHECKPOINT_SCHEMA_VERSION {
            return Err(journal(format!(
                "unsupported schema_version {schema_version} (expected {CHECKPOINT_SCHEMA_VERSION})"
            )));
        }
        let fault_seed = match fields.get("fault_seed")? {
            "none" => None,
            _ => Some(fields.dec("fault_seed")?),
        };
        let mut completed = Vec::new();
        for item in list("completed")? {
            let [idx, cycle, bits] = item.split(':').collect::<Vec<_>>()[..] else {
                return Err(journal(format!("completed entry `{item}` is not idx:cycle:bits")));
            };
            let field = |e: CodecError| CdsError::from(e.in_field("completed"));
            completed.push(CompletedOption {
                index: codec::dec(idx).map_err(field)?,
                done_cycle: codec::dec_u64(cycle).map_err(field)?,
                spread_bps: f64::from_bits(codec::hex_to_bits(bits).map_err(field)?),
            });
        }
        // The commit marker makes truncation detectable: a journal cut
        // short loses the marker line (missing field) or keeps it while
        // losing completion entries (count mismatch) — either way a
        // typed error, never a silently smaller checkpoint.
        let commit: usize = fields.dec("commit")?;
        if commit != completed.len() {
            return Err(journal(format!(
                "commit marker records {commit} completions but the journal holds {} \
                 (truncated journal?)",
                completed.len()
            )));
        }

        let checkpoint = Checkpoint {
            schema_version,
            total_options: fields.dec("total_options")?,
            cadence: fields.dec("cadence")?,
            watermark_cycle: fields.dec("watermark_cycle")?,
            fault_seed,
            // Optional for backward compatibility: journals written
            // before scenario labels existed parse as unlabelled.
            scenario: fields.get("scenario").ok().map(str::to_string),
            admitted: id_list("admitted")?,
            shed: id_list("shed")?,
            completed,
        };
        checkpoint.validate()?;
        Ok(checkpoint)
    }

    /// Internal-consistency checks shared by [`Checkpoint::parse`] and
    /// the resume entry points.
    pub fn validate(&self) -> Result<(), CdsError> {
        let journal = |reason: String| CdsError::Journal { reason };
        if let Some(s) = &self.scenario {
            if s.is_empty() || s.chars().any(char::is_whitespace) {
                return Err(journal(format!(
                    "scenario label `{s}` must be a non-empty single token"
                )));
            }
        }
        let total = self.total_options;
        for (name, ids) in [("admitted", &self.admitted), ("shed", &self.shed)] {
            if let Some(&bad) = ids.iter().find(|&&i| i >= total) {
                return Err(journal(format!("{name} index {bad} >= total_options {total}")));
            }
        }
        let admitted: std::collections::BTreeSet<u32> = self.admitted.iter().copied().collect();
        if admitted.len() != self.admitted.len() {
            return Err(journal("admitted contains duplicate indices".to_string()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for c in &self.completed {
            if !admitted.contains(&c.index) {
                return Err(journal(format!("completed option {} was never admitted", c.index)));
            }
            if !seen.insert(c.index) {
                return Err(journal(format!("option {} completed twice", c.index)));
            }
            if !c.spread_bps.is_finite() {
                return Err(journal(format!("option {} has a non-finite spread", c.index)));
            }
        }
        if self.shed.iter().any(|i| admitted.contains(i)) {
            return Err(journal("an option is both admitted and shed".to_string()));
        }
        Ok(())
    }
}

/// Derive the checkpoint stream of a finished streaming run.
///
/// Completions are ordered by completion cycle (the order a write-ahead
/// journal on real hardware would observe); a cumulative checkpoint is
/// emitted after every `cadence` completions, plus a terminal commit
/// record covering any partial tail. A crash scenario therefore resumes
/// from the last *cadence-aligned* checkpoint and loses at most one
/// interval of work.
pub fn streaming_checkpoints(
    total_options: u32,
    report: &StreamingReport,
    fault_seed: Option<u64>,
    scenario: Option<&str>,
    cadence: u32,
) -> Result<Vec<Checkpoint>, CdsError> {
    if cadence == 0 {
        return Err(CdsError::Config { reason: "checkpoint cadence must be at least 1" });
    }
    let shed: std::collections::BTreeSet<u32> = report.shed_indices.iter().copied().collect();
    let lost: std::collections::BTreeSet<u32> = report.lost_indices.iter().copied().collect();
    let admitted: Vec<u32> = (0..total_options).filter(|i| !shed.contains(i)).collect();
    // spans/spreads are aligned, in ascending original-index order over
    // the completed set = admitted minus lost.
    let mut completions: Vec<CompletedOption> = admitted
        .iter()
        .filter(|i| !lost.contains(i))
        .zip(report.spans.iter().zip(&report.spreads))
        .map(|(&index, (&(_, done_cycle), &spread_bps))| CompletedOption {
            index,
            done_cycle,
            spread_bps,
        })
        .collect();
    completions.sort_by_key(|c| (c.done_cycle, c.index));
    // Every cadence boundary, then the tail unless it lands on one.
    let n = completions.len();
    let mut ends: Vec<usize> = (cadence as usize..=n).step_by(cadence as usize).collect();
    if ends.last() != Some(&n) {
        ends.push(n);
    }
    Ok(ends
        .into_iter()
        .map(|end| Checkpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            total_options,
            cadence,
            watermark_cycle: completions[..end].last().map_or(0, |c| c.done_cycle),
            fault_seed,
            scenario: scenario.map(str::to_string),
            admitted: admitted.clone(),
            shed: report.shed_indices.clone(),
            completed: completions[..end].to_vec(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            total_options: 6,
            cadence: 2,
            watermark_cycle: 123_456,
            fault_seed: Some(0xD2),
            scenario: Some("corrupt-spread".to_string()),
            admitted: vec![0, 1, 2, 4, 5],
            shed: vec![3],
            completed: vec![
                CompletedOption { index: 0, done_cycle: 101_000, spread_bps: 87.125 },
                CompletedOption { index: 2, done_cycle: 123_456, spread_bps: 90.062_5 },
            ],
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let ckpt = sample();
        let parsed = match Checkpoint::parse(&ckpt.to_text()) {
            Ok(c) => c,
            Err(e) => panic!("round trip failed: {e}"),
        };
        assert_eq!(parsed, ckpt);
        // Bit-exactness survives an awkward spread value too.
        let mut odd = ckpt;
        odd.completed[0].spread_bps = 1.0 / 3.0 * 271.0;
        let parsed = match Checkpoint::parse(&odd.to_text()) {
            Ok(c) => c,
            Err(e) => panic!("round trip failed: {e}"),
        };
        assert_eq!(parsed.completed[0].spread_bps.to_bits(), odd.completed[0].spread_bps.to_bits());
    }

    #[test]
    fn parse_rejects_malformed_input_with_typed_errors() {
        let cases = [
            ("", "magic"),
            ("cds-checkpoint v1\nnonsense\n", "key=value"),
            ("cds-checkpoint v1\nschema_version=1\n", "missing field"),
            (
                "cds-checkpoint v1\nschema_version=2\ntotal_options=1\ncadence=1\n\
                 watermark_cycle=0\nfault_seed=none\nadmitted=0\nshed=\ncompleted=\n",
                "unsupported schema_version",
            ),
            (
                "cds-checkpoint v1\nschema_version=1\ntotal_options=1\ncadence=1\n\
                 watermark_cycle=0\nfault_seed=none\nadmitted=0\nshed=\ncompleted=0:5\n",
                "idx:cycle:bits",
            ),
            (
                "cds-checkpoint v1\nschema_version=1\ntotal_options=1\ncadence=1\n\
                 watermark_cycle=0\nfault_seed=xyz\nadmitted=0\nshed=\ncompleted=\n",
                "fault_seed",
            ),
            // A journal missing its terminal commit marker (truncated
            // after the completed line) must not pass.
            (
                "cds-checkpoint v1\nschema_version=1\ntotal_options=1\ncadence=1\n\
                 watermark_cycle=0\nfault_seed=none\nadmitted=0\nshed=\ncompleted=\n",
                "missing field `commit`",
            ),
            // A commit marker disagreeing with the completion count is a
            // truncation mid-list.
            (
                "cds-checkpoint v1\nschema_version=1\ntotal_options=2\ncadence=1\n\
                 watermark_cycle=9\nfault_seed=none\nadmitted=0,1\nshed=\n\
                 completed=0:9:4056000000000000\ncommit=2\n",
                "truncated journal",
            ),
            // Spread bits must be exactly 16 hex digits: a truncated
            // pattern is a valid tiny float to a lenient parser.
            (
                "cds-checkpoint v1\nschema_version=1\ntotal_options=1\ncadence=1\n\
                 watermark_cycle=5\nfault_seed=none\nadmitted=0\nshed=\n\
                 completed=0:5:4059\ncommit=1\n",
                "field `completed`: bad bit pattern `4059`",
            ),
            (
                "cds-checkpoint v1\nschema_version=1\ntotal_options=1\ncadence=1\n\
                 watermark_cycle=5\nfault_seed=none\nadmitted=0\nshed=\n\
                 completed=0:5:+405900000000000\ncommit=1\n",
                "field `completed`: bad bit pattern `+405900000000000`",
            ),
            // A repeated line is an error, not "the last one wins".
            (
                "cds-checkpoint v1\nschema_version=1\ntotal_options=1\ncadence=1\n\
                 watermark_cycle=5\nfault_seed=none\nadmitted=0\nshed=\n\
                 completed=0:5:4059000000000000\ncompleted=\ncommit=1\n",
                "duplicate field `completed`",
            ),
        ];
        for (text, needle) in cases {
            match Checkpoint::parse(text) {
                Err(CdsError::Journal { reason }) => {
                    assert!(reason.contains(needle), "`{reason}` should mention `{needle}`");
                }
                other => panic!("expected Journal error mentioning `{needle}`, got {other:?}"),
            }
        }
    }

    #[test]
    fn scenario_label_is_optional_and_validated() {
        // Unlabelled checkpoints omit the line and parse back to None —
        // also the backward-compatibility path for journals written
        // before scenario labels existed.
        let mut ckpt = sample();
        ckpt.scenario = None;
        assert!(!ckpt.to_text().contains("scenario"));
        let parsed = match Checkpoint::parse(&ckpt.to_text()) {
            Ok(c) => c,
            Err(e) => panic!("unlabelled round trip failed: {e}"),
        };
        assert_eq!(parsed.scenario, None);
        // The harness scenario literally named "none" survives the trip
        // (no sentinel collision with the omitted-line encoding).
        ckpt.scenario = Some("none".to_string());
        let parsed = match Checkpoint::parse(&ckpt.to_text()) {
            Ok(c) => c,
            Err(e) => panic!("labelled round trip failed: {e}"),
        };
        assert_eq!(parsed.scenario.as_deref(), Some("none"));
        // Labels that would corrupt the line format are rejected.
        for bad in ["", "has space", "line\nbreak"] {
            ckpt.scenario = Some(bad.to_string());
            assert!(ckpt.validate().is_err(), "label `{bad:?}` must be rejected");
        }
    }

    #[test]
    fn validate_rejects_inconsistent_watermarks() {
        let mut ckpt = sample();
        ckpt.completed.push(CompletedOption { index: 3, done_cycle: 1, spread_bps: 1.0 });
        let err = ckpt.validate();
        assert!(matches!(err, Err(CdsError::Journal { .. })), "shed option completed: {err:?}");

        let mut ckpt = sample();
        ckpt.completed.push(ckpt.completed[0]);
        assert!(ckpt.validate().is_err(), "duplicate completion must be rejected");

        let mut ckpt = sample();
        ckpt.admitted.push(99);
        assert!(ckpt.validate().is_err(), "admitted index beyond total must be rejected");
    }
}
