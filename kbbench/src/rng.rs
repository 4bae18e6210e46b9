//! Seeded load generation primitives: keyed ChaCha8 streams, FNV-1a
//! digests and a zipf rank sampler.
//!
//! Everything the benchmark feeds the program derives from `--seed`
//! through [`stream`]: one independent generator per named purpose
//! (`corpus-shuffle`, `query-schedule`, `typos`, ...), so adding a draw to
//! one stream never shifts another. Digests are benchmark-owned FNV-1a so
//! a product change to its own hashes cannot move them.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a (64 bit).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv {
    /// Fold `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold one integer (little endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// The generator for purpose `key` under `seed`: the seed fills the first
/// eight key bytes, the FNV-1a of the purpose name the next eight.
pub fn stream(seed: u64, key: &str) -> ChaCha8Rng {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..16].copy_from_slice(&fnv1a(key.as_bytes()).to_le_bytes());
    ChaCha8Rng::from_seed(bytes)
}

/// A `u64` derived from `seed` for purpose `key` (e.g. the corpus seed).
pub fn derive(seed: u64, key: &str) -> u64 {
    stream(seed, key).gen()
}

/// Zipf distribution over ranks `0..n`: rank `r` has weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Distribution over `n >= 1` ranks with exponent `s > 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(
            n > 0 && s.is_finite() && s > 0.0,
            "zipf needs n >= 1 and a finite s > 0"
        );
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|rank| {
                acc += ((rank + 1) as f64).powf(-s);
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Draw one rank in `0..n`.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let total = self.cdf[self.cdf.len() - 1];
        let u = rng.gen::<f64>() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn streams_are_keyed_and_repeatable() {
        let draw = |seed: u64, key: &str| -> Vec<u64> {
            let mut rng = stream(seed, key);
            (0..4).map(|_| rng.gen()).collect()
        };
        let (a, b) = (draw(7, "typos"), draw(7, "typos"));
        let (other_key, other_seed) = (draw(7, "query-schedule")[0], draw(8, "typos")[0]);
        assert_eq!(a, b);
        assert_ne!(a[0], other_key);
        assert_ne!(a[0], other_seed);
        assert_eq!(derive(7, "typos"), a[0]);
    }

    #[test]
    fn zipf_head_dominates_and_stays_in_range() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = stream(3, "zipf-test");
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1/H(100, 1.1) ~ 0.24 of the mass.
        assert!(
            (10_500..13_500).contains(&counts[0]),
            "rank 0 drew {}",
            counts[0]
        );
        // Rank 1 carries 2^-1.1 ~ 0.47 of rank 0's mass.
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((0.40..0.54).contains(&ratio), "rank1/rank0 = {ratio}");
        let head: usize = counts[..10].iter().sum();
        let tail: usize = counts[90..].iter().sum();
        assert!(head > 20 * tail, "head {head} vs tail {tail}");
        assert!(counts.iter().all(|&c| c > 0), "every rank is reachable");
    }

    #[test]
    fn zipf_single_rank_is_constant() {
        let zipf = Zipf::new(1, 1.1);
        let mut rng = stream(3, "zipf-test");
        assert!((0..100).all(|_| zipf.sample(&mut rng) == 0));
    }
}
