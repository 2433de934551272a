//! The [`Digest`] type: a 32-byte SHA-256 output used as a class-bytecode
//! fingerprint throughout Communix.

use std::fmt;
use std::str::FromStr;

use crate::hex::{decode_hex, decode_hex_into, encode_hex, ParseHexError};

/// Length of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
///
/// Communix attaches one of these to every call-stack frame of a deadlock
/// signature (the hash of the class defining that frame, §III-C), and uses
/// digest equality to decide whether a signature "matches" the classes
/// loaded by a running application.
///
/// # Example
///
/// ```
/// use communix_crypto::{sha256, Digest};
///
/// let d = sha256(b"bytecode");
/// let hex = d.to_hex();
/// assert_eq!(hex.parse::<Digest>().unwrap(), d);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest([u8; DIGEST_LEN]);

impl Digest {
    /// Wraps raw digest bytes.
    pub const fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }

    /// Returns the digest bytes.
    pub const fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Encodes the digest as 64 lowercase hex characters.
    pub fn to_hex(&self) -> String {
        encode_hex(&self.0)
    }

    /// Parses a digest from 64 hex characters.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDigestError`] if the input is not exactly 64 valid hex
    /// characters.
    pub fn from_hex(s: &str) -> Result<Self, ParseDigestError> {
        if s.len() != 2 * DIGEST_LEN {
            // Whichever error decoding the whole input names first.
            return Err(match decode_hex(s) {
                Ok(bytes) => ParseDigestError::Length(bytes.len()),
                Err(e) => ParseDigestError::Hex(e),
            });
        }
        let mut out = [0u8; DIGEST_LEN];
        decode_hex_into(s.as_bytes(), &mut out).map_err(ParseDigestError::Hex)?;
        Ok(Digest(out))
    }

    /// A short human-readable prefix (first 8 hex chars), used in log lines
    /// and Debug output. Not a substitute for full equality checks.
    pub fn short(&self) -> String {
        encode_hex(&self.0[..4])
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl FromStr for Digest {
    type Err = ParseDigestError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Digest::from_hex(s)
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Error returned when parsing a [`Digest`] from hex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseDigestError {
    /// The hex payload itself was malformed.
    Hex(ParseHexError),
    /// Decoded byte count was not [`DIGEST_LEN`].
    Length(usize),
}

impl fmt::Display for ParseDigestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDigestError::Hex(e) => write!(f, "invalid digest hex: {e}"),
            ParseDigestError::Length(n) => {
                write!(f, "digest must be {DIGEST_LEN} bytes, got {n}")
            }
        }
    }
}

impl std::error::Error for ParseDigestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseDigestError::Hex(e) => Some(e),
            ParseDigestError::Length(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()).unwrap(), d);
        assert_eq!(d.to_hex().parse::<Digest>().unwrap(), d);
    }

    #[test]
    fn wrong_length_rejected() {
        assert_eq!(Digest::from_hex("abcd"), Err(ParseDigestError::Length(2)));
    }

    #[test]
    fn bad_hex_rejected() {
        let s = "zz".repeat(32);
        assert!(matches!(
            Digest::from_hex(&s),
            Err(ParseDigestError::Hex(_))
        ));
    }

    #[test]
    fn one_bad_byte_is_named_at_every_position() {
        let hex = sha256(b"positions").to_hex();
        for at in 0..hex.len() {
            for ch in ['g', 'G', '/', ':', '@', '`', ' '] {
                let mut bad = hex.clone().into_bytes();
                bad[at] = ch as u8;
                let bad = String::from_utf8(bad).unwrap();
                assert_eq!(
                    Digest::from_hex(&bad),
                    Err(ParseDigestError::Hex(ParseHexError::InvalidChar {
                        index: at,
                        ch
                    }))
                );
            }
        }
    }

    #[test]
    fn a_wrong_length_reports_what_decoding_it_finds_first() {
        let hex = sha256(b"lengths").to_hex();
        assert_eq!(
            Digest::from_hex(&hex[..63]),
            Err(ParseDigestError::Hex(ParseHexError::OddLength(63)))
        );
        assert_eq!(
            Digest::from_hex(&format!("{hex}00")),
            Err(ParseDigestError::Length(33))
        );
        assert_eq!(
            Digest::from_hex(&format!("{hex}0g")),
            Err(ParseDigestError::Hex(ParseHexError::InvalidChar {
                index: 65,
                ch: 'g'
            }))
        );
        assert_eq!(
            Digest::from_hex("é"),
            Err(ParseDigestError::Hex(ParseHexError::InvalidChar {
                index: 0,
                ch: '\u{c3}'
            }))
        );
    }

    #[test]
    fn debug_is_short_and_nonempty() {
        let d = sha256(b"dbg");
        let dbg = format!("{d:?}");
        assert!(dbg.starts_with("Digest("));
        assert!(dbg.len() < 24);
    }

    #[test]
    fn display_is_full_hex() {
        let d = sha256(b"disp");
        assert_eq!(format!("{d}"), d.to_hex());
        assert_eq!(format!("{d}").len(), 64);
    }

    #[test]
    fn ord_is_bytewise() {
        let a = Digest::from_bytes([0u8; 32]);
        let b = Digest::from_bytes([1u8; 32]);
        assert!(a < b);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Digest::default().as_bytes(), &[0u8; 32]);
    }
}
