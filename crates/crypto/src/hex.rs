//! Minimal hexadecimal codec used by digests, the wire protocol, and the
//! on-disk history format.

use std::fmt;

/// Error returned when parsing invalid hexadecimal input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseHexError {
    /// The input length was odd.
    OddLength(usize),
    /// A character was not in `[0-9a-fA-F]`.
    InvalidChar {
        /// Byte offset of the offending character.
        index: usize,
        /// The offending character.
        ch: char,
    },
}

impl fmt::Display for ParseHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseHexError::OddLength(n) => write!(f, "odd hex length {n}"),
            ParseHexError::InvalidChar { index, ch } => {
                write!(f, "invalid hex character {ch:?} at index {index}")
            }
        }
    }
}

impl std::error::Error for ParseHexError {}

const HEX_CHARS: &[u8; 16] = b"0123456789abcdef";

/// Encodes `bytes` as lowercase hex.
///
/// # Example
///
/// ```
/// assert_eq!(communix_crypto::encode_hex(&[0xde, 0xad]), "dead");
/// ```
pub fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(HEX_CHARS[(b >> 4) as usize] as char);
        out.push(HEX_CHARS[(b & 0xf) as usize] as char);
    }
    out
}

/// A byte's value as a hex digit, or [`NOT_HEX`]. Looking the digit up
/// instead of branching on its range keeps the decode loop free of
/// data-dependent branches, which mispredict on random digests — and
/// digests are most of a signature's text.
const NIBBLE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut d = 0;
    while d < 10 {
        table[(b'0' + d) as usize] = d;
        d += 1;
    }
    let mut d = 0;
    while d < 6 {
        table[(b'a' + d) as usize] = 10 + d;
        table[(b'A' + d) as usize] = 10 + d;
        d += 1;
    }
    table
};

/// [`NIBBLE`]'s mark for a non-hex byte. Every digit is at most 0xF, so
/// the OR of an input's lookups exceeds 0xF exactly when a byte was bad.
const NOT_HEX: u8 = 0xFF;

/// Decodes `hex` into `out`, which must hold exactly `hex.len() / 2`
/// bytes. On error `out` holds unspecified bytes.
///
/// The loop never stops early: it ORs every looked-up digit together and
/// checks once at the end. Only a failed decode scans again, to name the
/// first offending byte.
///
/// # Panics
///
/// If `hex` has even length and `out` is not half as long.
pub(crate) fn decode_hex_into(hex: &[u8], out: &mut [u8]) -> Result<(), ParseHexError> {
    if !hex.len().is_multiple_of(2) {
        return Err(ParseHexError::OddLength(hex.len()));
    }
    assert_eq!(out.len(), hex.len() / 2, "output is half the hex length");
    let mut seen = 0u8;
    for (byte, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
        let (hi, lo) = (NIBBLE[pair[0] as usize], NIBBLE[pair[1] as usize]);
        seen |= hi | lo;
        *byte = (hi << 4) | lo;
    }
    if seen <= 0xF {
        return Ok(());
    }
    let index = hex
        .iter()
        .position(|&b| NIBBLE[b as usize] == NOT_HEX)
        .expect("a digit above 0xF is NOT_HEX");
    Err(ParseHexError::InvalidChar {
        index,
        ch: hex[index] as char,
    })
}

/// Decodes lowercase or uppercase hex into bytes.
///
/// # Errors
///
/// Returns [`ParseHexError`] if the input has odd length or contains a
/// non-hex character.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), communix_crypto::ParseHexError> {
/// assert_eq!(communix_crypto::decode_hex("DEAD")?, vec![0xde, 0xad]);
/// # Ok(())
/// # }
/// ```
pub fn decode_hex(s: &str) -> Result<Vec<u8>, ParseHexError> {
    let mut out = vec![0u8; s.len() / 2];
    decode_hex_into(s.as_bytes(), &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time decoder the table replaced, kept as the
    /// reference its results are compared against.
    fn reference_decode(bytes: &[u8]) -> Result<Vec<u8>, ParseHexError> {
        fn nibble(ch: u8, index: usize) -> Result<u8, ParseHexError> {
            match ch {
                b'0'..=b'9' => Ok(ch - b'0'),
                b'a'..=b'f' => Ok(ch - b'a' + 10),
                b'A'..=b'F' => Ok(ch - b'A' + 10),
                _ => Err(ParseHexError::InvalidChar {
                    index,
                    ch: ch as char,
                }),
            }
        }
        if !bytes.len().is_multiple_of(2) {
            return Err(ParseHexError::OddLength(bytes.len()));
        }
        let mut out = Vec::with_capacity(bytes.len() / 2);
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            let hi = nibble(pair[0], 2 * i)?;
            let lo = nibble(pair[1], 2 * i + 1)?;
            out.push((hi << 4) | lo);
        }
        Ok(out)
    }

    fn table_decode(bytes: &[u8]) -> Result<Vec<u8>, ParseHexError> {
        let mut out = vec![0u8; bytes.len() / 2];
        decode_hex_into(bytes, &mut out).map(|()| out)
    }

    /// Mostly hex digits, so whole inputs often decode, with the bytes
    /// around each digit range and arbitrary (non-ASCII) ones mixed in.
    fn arb_byte() -> impl Strategy<Value = u8> {
        prop_oneof![
            (0usize..22).prop_map(|i| b"0123456789abcdefABCDEF"[i]),
            (0usize..22).prop_map(|i| b"0123456789abcdefABCDEF"[i]),
            (0usize..8).prop_map(|i| b"/:@G`g \0"[i]),
            any::<u8>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn table_decode_equals_the_byte_at_a_time_reference(
            bytes in proptest::collection::vec(arb_byte(), 0..80),
        ) {
            prop_assert_eq!(table_decode(&bytes), reference_decode(&bytes));
            let text = String::from_utf8_lossy(&bytes);
            prop_assert_eq!(decode_hex(&text), reference_decode(text.as_bytes()));
        }
    }

    #[test]
    fn every_byte_value_at_every_digest_position_decodes_as_the_reference() {
        let digest = b"0123456789abcdefABCDEF0123456789abcdefABCDEF0123456789abcdef0a1B";
        for at in 0..digest.len() {
            for b in 0..=255u8 {
                let mut hex = *digest;
                hex[at] = b;
                assert_eq!(table_decode(&hex), reference_decode(&hex), "{b:#x} at {at}");
            }
        }
    }

    #[test]
    fn roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decode_hex(&encode_hex(&data)).unwrap(), data);
    }

    #[test]
    fn empty() {
        assert_eq!(encode_hex(&[]), "");
        assert_eq!(decode_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn uppercase_accepted() {
        assert_eq!(decode_hex("AbCd").unwrap(), vec![0xab, 0xcd]);
    }

    #[test]
    fn odd_length_rejected() {
        assert_eq!(decode_hex("abc"), Err(ParseHexError::OddLength(3)));
    }

    #[test]
    fn invalid_char_rejected_with_position() {
        assert_eq!(
            decode_hex("ab0g"),
            Err(ParseHexError::InvalidChar { index: 3, ch: 'g' })
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(ParseHexError::OddLength(3).to_string(), "odd hex length 3");
        assert!(ParseHexError::InvalidChar { index: 3, ch: 'g' }
            .to_string()
            .contains("index 3"));
    }
}
