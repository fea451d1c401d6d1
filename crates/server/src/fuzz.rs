//! Seeded wire-level protocol fuzzer.
//!
//! Generates hostile request lines — garbage verbs, invalid UTF-8,
//! oversized lines, wrong arity, absurd numbers, control bytes — with a
//! **known expected outcome** per line, so callers can assert the exact
//! 1:1 reply accounting the hardened reader guarantees: every
//! terminated non-blank line yields exactly one reply (usually a typed
//! `ERR`), blank lines yield none, and nothing crashes, hangs, or
//! wedges the connection.
//!
//! The generator is deterministic in its seed (the fault plans'
//! [`splitmix64`] over a stepped state) so the same corpus is replayed
//! by `tests/hostile_clients.rs` and the `server/protocol-fuzz`
//! isolation scenario.

use dataflow_sim::fault::splitmix64;

/// What a fuzz line exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzKind {
    /// Printable garbage that is no known verb.
    GarbageVerb,
    /// Bytes that are not valid UTF-8.
    NonUtf8,
    /// A line longer than the server's `max_line_bytes`.
    Oversized,
    /// A known verb with missing or extra arguments.
    BadArity,
    /// `QUOTE` with unparsable or absurd numeric fields.
    BadNumbers,
    /// Control and NUL bytes.
    ControlBytes,
    /// Only whitespace (the server deliberately stays silent).
    WhitespaceOnly,
    /// `TENANT` with an invalid name.
    BadTenant,
}

/// One generated hostile line, newline-terminated, with its expected
/// reply accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzLine {
    /// Raw bytes to write, including the trailing `\n`.
    pub bytes: Vec<u8>,
    /// The category the generator drew.
    pub kind: FuzzKind,
    /// Whether the server owes exactly one reply line for this input
    /// (false only for whitespace-only lines, which are skipped
    /// silently by design).
    pub expect_reply: bool,
}

/// The next draw: [`splitmix64`] of the state, which then steps by the
/// generator's golden-ratio increment.
fn next(state: &mut u64) -> u64 {
    let draw = splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    draw
}

fn pick<'a, T>(state: &mut u64, items: &'a [T]) -> &'a T {
    &items[(next(state) % items.len() as u64) as usize]
}

/// Deterministically generate `n` hostile newline-terminated lines for
/// a server configured with `max_line_bytes`. Every line is guaranteed
/// *invalid*: none parses as a well-formed request, so `expect_reply`
/// lines always yield an `ERR`-class response.
pub fn fuzz_lines(seed: u64, n: usize, max_line_bytes: usize) -> Vec<FuzzLine> {
    let mut state = seed ^ 0xC0DE_F00D_BAAD_5EED;
    (0..n).map(|_| gen_line(&mut state, max_line_bytes)).collect()
}

fn gen_line(state: &mut u64, max_line_bytes: usize) -> FuzzLine {
    let kind = *pick(
        state,
        &[
            FuzzKind::GarbageVerb,
            FuzzKind::NonUtf8,
            FuzzKind::Oversized,
            FuzzKind::BadArity,
            FuzzKind::BadNumbers,
            FuzzKind::ControlBytes,
            FuzzKind::WhitespaceOnly,
            FuzzKind::BadTenant,
        ],
    );
    let mut bytes = match kind {
        FuzzKind::GarbageVerb => {
            // '#' prefix guarantees no collision with a real verb.
            let len = 1 + (next(state) % 24) as usize;
            let mut b = vec![b'#'];
            for _ in 0..len {
                b.push(b'!' + (next(state) % 90) as u8); // printable ASCII
            }
            b
        }
        FuzzKind::NonUtf8 => {
            let len = 1 + (next(state) % 16) as usize;
            let mut b = b"QUOTE ".to_vec();
            for _ in 0..len {
                // Continuation/invalid bytes: never valid UTF-8 here.
                b.push(0xF8 + (next(state) % 8) as u8);
            }
            b
        }
        FuzzKind::Oversized => {
            let extra = 1 + (next(state) % (max_line_bytes as u64 + 1)) as usize;
            vec![b'A'; max_line_bytes + extra]
        }
        FuzzKind::BadArity => pick(
            state,
            &[
                &b"QUOTE"[..],
                b"QUOTE 7",
                b"QUOTE 7 0x3ff0000000000000",
                b"TICK",
                b"TICK 1 2",
                b"FAULT",
                b"FAULT STALL",
                b"FAULT STALL 0",
                b"TENANT",
                b"PING extra",
                b"STATS now please",
                b"DRAIN 1",
            ],
        )
        .to_vec(),
        FuzzKind::BadNumbers => pick(
            state,
            &[
                &b"QUOTE x 0x3ff0000000000000 Q 0x3fd0000000000000"[..],
                b"QUOTE -1 0x3ff0000000000000 Q 0x3fd0000000000000",
                // Not `1e999`: Rust parses that to `inf`, a legal raw
                // quote param. `1e` fails the f64 parse itself.
                b"QUOTE 7 1e Q 0.3",
                b"QUOTE 7 0xZZZZ Q 0x3fd0000000000000",
                // Non-canonical: a short bit pattern, a signed id.
                b"QUOTE 7 0x4014 Q 0x3fd0000000000000",
                b"QUOTE +7 0x3ff0000000000000 Q 0x3fd0000000000000",
                b"QUOTE 99999999999999999999999999 0x1 Q 0x1",
                b"QUOTE 7 0x3ff0000000000000 MEDIUM 0x3fd0000000000000",
                b"TICK 0xnope",
                b"FAULT STALL zero 10",
            ],
        )
        .to_vec(),
        FuzzKind::ControlBytes => {
            let len = 1 + (next(state) % 12) as usize;
            let mut b = Vec::new();
            for _ in 0..len {
                b.push((next(state) % 32) as u8); // C0 controls incl. NUL
            }
            b.retain(|&c| c != b'\n' && c != b'\r');
            if b.iter().all(|c| c.is_ascii_whitespace()) {
                b.push(0x01); // keep the line non-blank after trim
            }
            b
        }
        FuzzKind::WhitespaceOnly => {
            let len = (next(state) % 8) as usize;
            vec![b' '; len]
        }
        FuzzKind::BadTenant => pick(
            state,
            &[
                &b"TENANT ../../etc/passwd"[..],
                b"TENANT bad name",
                b"TENANT",
                b"TENANT a_name_that_is_way_too_long_for_the_thirty_two_char_cap",
                b"TENANT !",
                b"TENANT \xCE\xBB", // non-ASCII (valid UTF-8, invalid name)
            ],
        )
        .to_vec(),
    };
    // Whitespace-only lines (after trim) are skipped silently by the
    // server; everything else owes exactly one reply.
    let expect_reply = match std::str::from_utf8(&bytes) {
        Ok(s) => !s.trim().is_empty(),
        Err(_) => true, // non-UTF-8 always gets a typed ERR
    };
    bytes.push(b'\n');
    FuzzLine { bytes, kind, expect_reply }
}

/// Deterministically generate `n` *torn* lines: valid-looking request
/// prefixes cut mid-token with **no** trailing newline. A client
/// writing one and closing the socket exercises the EOF partial-line
/// path; a client writing one and stalling exercises the idle reaper.
pub fn torn_lines(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut state = seed ^ 0x7041_5EED_0000_0001;
    (0..n)
        .map(|_| {
            let full = *pick(
                &mut state,
                &[
                    &b"QUOTE 12 0x3ff0000000000000 Q 0x3fd0000000000000"[..],
                    b"TENANT somebody",
                    b"FAULT STALL 0 100",
                    b"TICK 99",
                    b"STATS",
                ],
            );
            let cut = 1 + (next(&mut state) % (full.len() as u64 - 1)) as usize;
            full[..cut].to_vec()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;

    #[test]
    fn same_seed_same_corpus() {
        assert_eq!(fuzz_lines(7, 64, 256), fuzz_lines(7, 64, 256));
        assert_eq!(torn_lines(7, 16), torn_lines(7, 16));
        assert_ne!(fuzz_lines(7, 64, 256), fuzz_lines(8, 64, 256));
    }

    #[test]
    fn corpus_bytes_are_pinned() {
        // FNV-1a over the first 256 lines for one seed: the hash moves
        // if the generator's stream changes, which would change what
        // `hostile_clients` and the protocol-fuzz scenario replay.
        let hash = fuzz_lines(42, 256, 256)
            .iter()
            .flat_map(|l| &l.bytes)
            .fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            });
        assert_eq!(hash, 0xF5BB_CF31_D2BD_AE0D);
    }

    #[test]
    fn every_line_is_newline_terminated_and_invalid() {
        for line in fuzz_lines(42, 512, 256) {
            assert_eq!(*line.bytes.last().expect("non-empty"), b'\n');
            assert_eq!(line.bytes.iter().filter(|&&b| b == b'\n').count(), 1);
            // No fuzz line may accidentally be a well-formed request.
            if let Ok(s) = std::str::from_utf8(&line.bytes) {
                let trimmed = s.trim();
                if !trimmed.is_empty() {
                    assert!(
                        parse_request(trimmed).is_err(),
                        "fuzz line parsed as a valid request: {trimmed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_lines_exceed_the_cap() {
        let cap = 256;
        let lines = fuzz_lines(11, 512, cap);
        let oversized: Vec<_> = lines.iter().filter(|l| l.kind == FuzzKind::Oversized).collect();
        assert!(!oversized.is_empty());
        for line in oversized {
            assert!(line.bytes.len() - 1 > cap);
            assert!(line.expect_reply);
        }
    }

    #[test]
    fn whitespace_lines_expect_no_reply() {
        for line in fuzz_lines(3, 512, 256) {
            let blank = std::str::from_utf8(&line.bytes).map(|s| s.trim().is_empty()) == Ok(true);
            assert_eq!(!blank, line.expect_reply, "{line:?}");
        }
    }

    #[test]
    fn torn_lines_are_unterminated_proper_prefixes() {
        for torn in torn_lines(5, 64) {
            assert!(!torn.is_empty());
            assert!(!torn.contains(&b'\n'));
        }
    }
}
