//! The workspace's one seeded random stream: dev-only support for the
//! clustering unit tests, which pull it in with
//! `#[path = ".../tests/support/seeded_words.rs"] mod seeded_words;`.
//! A corpus drawn from it depends on nothing but the seed.

#![allow(dead_code)]

/// SplitMix64: a stream depends on nothing but its seed.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`, up to modulo bias.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`, on the 2⁻⁵³ grid.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}
