//! Seeded request orders and the order-independent schedule digest.

/// SplitMix64: the seed mixer behind every order the benchmark draws.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A permutation of `0..n` drawn from `(seed, stream)` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64, stream: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = mix(seed ^ mix(stream));
    for i in (1..n).rev() {
        state = mix(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold one word into the digest.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of per-request record digests, folded in request-id order so the
/// result does not depend on the order the requests ran in.
pub fn fold_records(records: &[u64]) -> u64 {
    let mut d = Digest::default();
    for (id, r) in records.iter().enumerate() {
        d.word(id as u64);
        d.word(*r);
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let a = permutation(50, 7, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, permutation(50, 7, 0));
        assert_ne!(a, permutation(50, 8, 0));
        assert_ne!(a, permutation(50, 7, 1));
    }

    #[test]
    fn record_fold_depends_on_ids_and_values() {
        assert_eq!(fold_records(&[1, 2]), fold_records(&[1, 2]));
        assert_ne!(fold_records(&[1, 2]), fold_records(&[2, 1]));
        let mut d = Digest::default();
        d.word(3);
        assert_ne!(d, Digest::default());
    }
}
