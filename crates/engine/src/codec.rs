//! The one strict codec for bit-exact record fields. The one journal
//! ([`crate::journal`]: the streaming journal and the server WAL), the
//! server wire protocol, the harness run journal and the conformance
//! corpus all encode and decode through it:
//!
//! * a bit pattern is exactly 16 ASCII hex digits, with no sign, prefix
//!   or whitespace ([`hex_to_bits`]), or the same after `0x` in a token
//!   ([`f64_from_token`]);
//! * an integer is ASCII digits only, and out of range is an error
//!   ([`dec_u64`], [`dec`]);
//! * a [`Fields`] record rejects a token without `=`, a repeated key and
//!   a missing key.
//!
//! A lenient parser reads a torn `4059` as a valid, tiny `f64`, so a
//! torn write would resume as a wrong spread. Here it is a typed
//! [`CodecError`] naming the token; each format maps it into its own
//! error type.

use std::fmt;

/// A strict decode failure. Each variant names the offending token, or
/// the key itself for a repeated or missing key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Not exactly 16 hex digits (after the `0x` of a token).
    Bits(String),
    /// Not an unsigned decimal integer in range.
    Int(String),
    /// A record item without `=`, or with an empty key.
    NotKeyValue(String),
    /// A key given twice in one record.
    DuplicateKey(String),
    /// A required key absent from the record.
    MissingKey(String),
    /// An error met while decoding the named field.
    Field(String, Box<CodecError>),
}

impl CodecError {
    /// Name the field this error was met in, unless one is named already.
    #[must_use]
    pub fn in_field(self, field: &str) -> CodecError {
        match self {
            CodecError::Field(..) => self,
            e => CodecError::Field(field.to_string(), Box::new(e)),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Bits(t) => write!(f, "bad bit pattern `{t}` (want exactly 16 hex digits)"),
            CodecError::Int(t) => write!(f, "bad unsigned integer `{t}`"),
            CodecError::NotKeyValue(t) => write!(f, "expected key=value, got `{t}`"),
            CodecError::DuplicateKey(key) => write!(f, "duplicate field `{key}`"),
            CodecError::MissingKey(key) => write!(f, "missing field `{key}`"),
            CodecError::Field(key, e) => write!(f, "field `{key}`: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encode a 64-bit pattern as exactly 16 lowercase hex digits.
#[must_use]
pub fn bits_to_hex(bits: u64) -> String {
    format!("{bits:016x}")
}

/// Decode exactly 16 ASCII hex digits.
pub fn hex_to_bits(hex: &str) -> Result<u64, CodecError> {
    let digit = |b: u8| char::from(b).to_digit(16).map(u64::from);
    let bits = hex.bytes().try_fold(0u64, |acc, b| Some((acc << 4) | digit(b)?));
    bits.filter(|_| hex.len() == 16).ok_or_else(|| CodecError::Bits(hex.to_string()))
}

/// Encode an `f64` as a bit-exact `0x`-prefixed token.
#[must_use]
pub fn f64_to_token(v: f64) -> String {
    format!("0x{}", bits_to_hex(v.to_bits()))
}

/// Decode a token written by [`f64_to_token`].
pub fn f64_from_token(tok: &str) -> Result<f64, CodecError> {
    let bits = tok.strip_prefix("0x").and_then(|hex| hex_to_bits(hex).ok());
    bits.map(f64::from_bits).ok_or_else(|| CodecError::Bits(tok.to_string()))
}

/// Decode one or more ASCII digits as a `u64`.
pub fn dec_u64(tok: &str) -> Result<u64, CodecError> {
    let digit = |b: u8| char::from(b).to_digit(10).map(u64::from);
    let value = tok.bytes().try_fold(0u64, |acc, b| acc.checked_mul(10)?.checked_add(digit(b)?));
    value.filter(|_| !tok.is_empty()).ok_or_else(|| CodecError::Int(tok.to_string()))
}

/// [`dec_u64`] narrowed to `T`; out of `T`'s range is the same error.
pub fn dec<T: TryFrom<u64>>(tok: &str) -> Result<T, CodecError> {
    T::try_from(dec_u64(tok)?).map_err(|_| CodecError::Int(tok.to_string()))
}

/// A strict `key=value` record, built from tokens or from lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Split each item at its first `=`; values may be empty.
    pub fn parse(items: impl IntoIterator<Item = &'a str>) -> Result<Fields<'a>, CodecError> {
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        for item in items {
            let (key, value) = item
                .split_once('=')
                .filter(|(key, _)| !key.is_empty())
                .ok_or_else(|| CodecError::NotKeyValue(item.to_string()))?;
            if pairs.iter().any(|&(k, _)| k == key) {
                return Err(CodecError::DuplicateKey(key.to_string()));
            }
            pairs.push((key, value));
        }
        Ok(Fields { pairs })
    }

    /// The value of a required `key`.
    pub fn get(&self, key: &str) -> Result<&'a str, CodecError> {
        let value = self.pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
        value.ok_or_else(|| CodecError::MissingKey(key.to_string()))
    }

    /// The required `key` as an unsigned decimal.
    pub fn dec<T: TryFrom<u64>>(&self, key: &str) -> Result<T, CodecError> {
        dec(self.get(key)?).map_err(|e| e.in_field(key))
    }

    /// The required `key` as a `0x` bit-pattern token.
    pub fn f64(&self, key: &str) -> Result<f64, CodecError> {
        f64_from_token(self.get(key)?).map_err(|e| e.in_field(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every special `f64` class, by bit pattern.
    const SPECIALS: [u64; 14] = [
        0x0000_0000_0000_0000, // +0
        0x8000_0000_0000_0000, // -0
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x7ff8_0000_0000_0000, // canonical quiet NaN
        0xfff8_0000_0000_0000, // negative quiet NaN
        0x7ff0_0000_0000_0001, // signalling NaN, smallest payload
        0x7ff8_dead_beef_cafe, // quiet NaN with a payload
        0xffff_ffff_ffff_ffff, // all-ones NaN
        0x0000_0000_0000_0001, // smallest subnormal
        0x000f_ffff_ffff_ffff, // largest subnormal
        0x8000_0000_0000_0001, // negative subnormal
        0x7fef_ffff_ffff_ffff, // f64::MAX
        0x0010_0000_0000_0000, // f64::MIN_POSITIVE
    ];

    #[test]
    fn special_floats_round_trip_through_both_forms() {
        assert_eq!(SPECIALS[12], f64::MAX.to_bits());
        assert_eq!(SPECIALS[13], f64::MIN_POSITIVE.to_bits());
        for bits in SPECIALS {
            let hex = bits_to_hex(bits);
            assert_eq!(hex.len(), 16);
            assert_eq!(hex_to_bits(&hex), Ok(bits), "{hex}");
            let token = f64_to_token(f64::from_bits(bits));
            assert_eq!(token, format!("0x{hex}"));
            assert_eq!(f64_from_token(&token).map(f64::to_bits), Ok(bits), "{token}");
        }
        // Both letter cases are hex digits.
        assert_eq!(hex_to_bits("7FF8DEADBEEFCAFE"), Ok(0x7ff8_dead_beef_cafe));
    }

    #[test]
    fn malformed_bit_patterns_are_rejected() {
        for bad in [
            "",
            "405900000000000",   // 15 digits
            "40590000000000000", // 17 digits
            "+405900000000000",  // signed, still 16 chars
            "-405900000000000",
            " 405900000000000",
            "405900000000000 ",
            "4059 00000000000",
            "405900000000000g",
            "0x40590000000000",
            "4059",
            "40590000000000é",
        ] {
            assert_eq!(hex_to_bits(bad), Err(CodecError::Bits(bad.to_string())));
            assert!(f64_from_token(&format!("0x{bad}")).is_err(), "0x{bad}");
        }
        for bad in ["4059000000000000", "0X4059000000000000", "0x", "x4059000000000000", "0x4059"] {
            assert_eq!(f64_from_token(bad), Err(CodecError::Bits(bad.to_string())));
        }
    }

    #[test]
    fn decimals_are_digits_only_and_in_range() {
        assert_eq!(dec_u64("0"), Ok(0));
        assert_eq!(dec_u64("007"), Ok(7));
        assert_eq!(dec_u64("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(dec::<u32>("4294967295"), Ok(u32::MAX));
        for bad in ["", "+7", "-7", " 7", "7 ", "7x", "0x7", "1e3", "18446744073709551616"] {
            assert_eq!(dec_u64(bad), Err(CodecError::Int(bad.to_string())));
        }
        assert_eq!(dec::<u32>("4294967296"), Err(CodecError::Int("4294967296".to_string())));
    }

    #[test]
    fn fields_are_strict_and_errors_name_the_field() {
        let f = Fields::parse("a=1 b= c=0x3ff0000000000000 d=x=y".split_whitespace())
            .expect("well formed");
        assert_eq!(f.dec::<u8>("a"), Ok(1));
        assert_eq!(f.get("b"), Ok(""));
        assert_eq!(f.f64("c"), Ok(1.0));
        assert_eq!(f.get("d"), Ok("x=y"));

        assert_eq!(f.get("e").map_err(|e| e.to_string()), Err("missing field `e`".to_string()));
        let bits = f.f64("a").map_err(|e| e.to_string());
        let want = "field `a`: bad bit pattern `1` (want exactly 16 hex digits)";
        assert_eq!(bits, Err(want.to_string()));
        let int =
            CodecError::Field("c".into(), Box::new(CodecError::Int("0x3ff0000000000000".into())));
        assert_eq!(f.dec::<u64>("c"), Err(int.clone()));
        // A named field is not renamed by an outer context.
        assert_eq!(int.clone().in_field("outer"), int);

        for (items, err) in [
            (vec!["a=1", "stray"], CodecError::NotKeyValue("stray".into())),
            (vec!["=1"], CodecError::NotKeyValue("=1".into())),
            (vec!["a=1", "a=1"], CodecError::DuplicateKey("a".into())),
            (vec!["a=1", "b=2", "a=3"], CodecError::DuplicateKey("a".into())),
        ] {
            assert_eq!(Fields::parse(items.clone()), Err(err), "{items:?}");
        }
    }
}
