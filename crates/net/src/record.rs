//! The on-disk record format of both sides' logs: the server's WAL
//! segments and the client's local repository. A log is an 8-byte magic
//! of its own, then records framed as `[len: u32 LE][crc32(payload): u32
//! LE][payload]` with UTF-8 payloads, only ever appended, so its state is
//! its [`replay`].

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, written from scratch — no external deps)
// ---------------------------------------------------------------------

/// Slicing-by-8 tables, built at compile time. `CRC_TABLES[0]` is the
/// classic byte table; `CRC_TABLES[k][b]` is byte `b`'s CRC contribution
/// followed by `k` zero bytes, so eight lookups advance the CRC over
/// eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`, eight bytes per step: every record pays it
/// on append and again on each replay (recovery, GC, repository open),
/// over the whole ≈ 1.7 KB signature text.
fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &byte in words.remainder() {
        crc = t[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// One record holding `payload`: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
pub fn frame(payload: &str) -> Vec<u8> {
    let (len, crc) = (payload.len() as u32, crc32(payload.as_bytes()));
    [&len.to_le_bytes(), &crc.to_le_bytes(), payload.as_bytes()].concat()
}

/// Walks the records in `data` (a log less its magic), feeding each
/// valid payload to `sink`, and stops at the first record that is cut
/// short, fails its CRC or is not UTF-8. Returns `(records, valid_len)`:
/// the records fed and the bytes they span, which is where the next
/// record belongs. `valid_len < data.len()` means the walk stopped on a
/// torn or corrupt record.
pub fn replay(data: &[u8], mut sink: impl FnMut(&str)) -> (u64, usize) {
    let mut offset = 0usize;
    let mut records = 0u64;
    while offset < data.len() {
        let Some(header) = data.get(offset..offset + 8) else {
            break;
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        let Some(payload) = data.get(offset + 8..offset + 8 + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        sink(text);
        records += 1;
        offset += 8 + len;
    }
    (records, offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector plus the empty string.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time CRC the slicing tables replaced, kept as the
    /// reference they are compared against.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        let mut crc = !0u32;
        for &byte in data {
            crc = table[((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    proptest! {
        /// Every length and every alignment: the eight-byte steps start
        /// wherever the slice does, and the tail takes what is left.
        #[test]
        fn sliced_crc_equals_the_byte_at_a_time_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..4104),
        ) {
            for start in 0..8.min(bytes.len() + 1) {
                let data = &bytes[start..];
                prop_assert_eq!(crc32(data), reference_crc32(data), "from {}", start);
            }
        }
    }

    #[test]
    fn a_wal_record_is_the_bytes_the_byte_at_a_time_crc_framed() {
        let text = "app.Bank#transfer:42:\
                    9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08";
        let mut golden = vec![85, 0, 0, 0, 0x17, 0x56, 0x45, 0x65];
        golden.extend_from_slice(text.as_bytes());
        assert_eq!(frame(text), golden);
    }

    #[test]
    fn replay_reports_the_valid_prefix_at_every_cut() {
        let records = ["alpha", "", "gamma-gamma"];
        let mut data = Vec::new();
        let mut ends = vec![0];
        for r in records {
            data.extend(frame(r));
            ends.push(data.len());
        }
        for cut in 0..=data.len() {
            let mut seen = Vec::new();
            let replayed = replay(&data[..cut], |p| seen.push(p.to_owned()));
            let whole = ends.iter().rposition(|&e| e <= cut).expect("0 is an end");
            assert_eq!(replayed, (whole as u64, ends[whole]), "cut {cut}");
            assert_eq!(seen, records[..whole], "cut {cut}");
        }
    }

    #[test]
    fn replay_stops_at_a_corrupt_or_non_utf8_record() {
        let mut data = frame("kept");
        let kept = data.len();
        data.extend(frame("flipped"));
        data.extend(frame("after"));
        data[kept + 9] ^= 0x20;
        assert_eq!(replay(&data, |_| {}), (1, kept));

        let mut data = frame("kept");
        let bad = [0xFFu8, 0xFE];
        data.extend_from_slice(&(bad.len() as u32).to_le_bytes());
        data.extend_from_slice(&crc32(&bad).to_le_bytes());
        data.extend_from_slice(&bad);
        assert_eq!(replay(&data, |_| {}), (1, kept));
    }
}
