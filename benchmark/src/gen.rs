//! Seed plumbing and order-free digests. Every input of a run derives
//! from `--seed` through [`sub_seed`], so the same seed gives the same
//! inputs; every output check compares digests built here.

/// A 64-bit hash of `bytes`, eight bytes a step (a catch-up digests
/// 17 MB per iteration, so a byte-at-a-time hash would cost as much as
/// the op it checks). The key the traced handler uses to map a request
/// back to its op, and the element hash of [`SetDigest`]. Not for
/// adversarial input.
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = bytes.len() as u64 ^ 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunk of eight"));
        h = (h ^ w).wrapping_mul(K);
        h ^= h >> 29;
    }
    let tail = words
        .remainder()
        .iter()
        .enumerate()
        .fold(0u64, |t, (i, b)| t | u64::from(*b) << (8 * i));
    h = (h ^ tail).wrapping_mul(K);
    h ^ (h >> 32)
}

/// A seed for one named input stream of one workload, derived from the
/// run's `--seed` (SplitMix64 finaliser over seed ⊕ stream hash).
pub fn sub_seed(seed: u64, stream: &str) -> u64 {
    let mut z = seed ^ hash64(stream.as_bytes());
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Digest of a set of texts that does not depend on order: unique ADDs
/// commute, so the server may store a stream in any interleaving and
/// recovery is checked by set equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetDigest {
    /// Elements added.
    pub count: u64,
    /// Wrapping sum of the elements' hashes.
    pub sum: u64,
}

impl SetDigest {
    /// Adds one element.
    pub fn add(&mut self, text: &str) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(hash64(text.as_bytes()));
    }

    /// Digest of all of `texts`.
    pub fn of<'a>(texts: impl IntoIterator<Item = &'a str>) -> SetDigest {
        let mut d = SetDigest::default();
        for t in texts {
            d.add(t);
        }
        d
    }

    /// Union with a disjoint set.
    pub fn merge(&mut self, other: SetDigest) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_digest_ignores_order_and_sees_differences() {
        let a = SetDigest::of(["x", "y", "z"]);
        let b = SetDigest::of(["z", "x", "y"]);
        assert_eq!(a, b);
        assert_ne!(a, SetDigest::of(["x", "y"]));
        assert_ne!(a, SetDigest::of(["x", "y", "w"]));
        let mut c = SetDigest::of(["x"]);
        c.merge(SetDigest::of(["y", "z"]));
        assert_eq!(a, c);
    }

    #[test]
    fn hash_sees_every_byte_and_the_length() {
        let base = hash64(b"0123456789abcdef-tail");
        assert_eq!(base, hash64(b"0123456789abcdef-tail"));
        assert_ne!(base, hash64(b"0123456789abcdef-tail\0"));
        assert_ne!(base, hash64(b"1123456789abcdef-tail"));
        assert_ne!(base, hash64(b"0123456789abcdef-taim"));
        assert_ne!(hash64(b""), hash64(b"\0"));
    }

    #[test]
    fn sub_seeds_are_stable_and_distinct_per_stream() {
        assert_eq!(sub_seed(1, "pool"), sub_seed(1, "pool"));
        assert_ne!(sub_seed(1, "pool"), sub_seed(2, "pool"));
        assert_ne!(sub_seed(1, "pool"), sub_seed(1, "preload"));
    }
}
