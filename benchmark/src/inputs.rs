//! Seeded input generators. The program under test only ever sees what
//! these return; the seed never reaches it.

use nob_algos::fft::Complex;
use nob_algos::mm::MmInput;
use nob_algos::semiring::{Matrix, WrapU64};

/// SplitMix64: a full-period 64-bit generator that is well mixed from any
/// seed, including 0 and consecutive seeds.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` sort keys.
pub fn keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// A three-tone signal of length `n` whose tone phases and amplitudes come
/// from the seed.
pub fn signal(n: usize, seed: u64) -> Vec<Complex> {
    let mut rng = SplitMix64::new(seed);
    let tones: Vec<(f64, f64, f64)> = [3.0, 17.0, 5.0]
        .iter()
        .map(|&f| (f, 0.25 + rng.next_f64(), rng.next_f64() * std::f64::consts::TAU))
        .collect();
    (0..n)
        .map(|t| {
            let th = std::f64::consts::TAU * t as f64 / n as f64;
            let (mut re, mut im) = (0.0, 0.0);
            for &(f, amp, phase) in &tones {
                re += amp * (f * th + phase).cos();
                im += 0.5 * amp * (f * th + phase).sin();
            }
            Complex::new(re, im)
        })
        .collect()
}

/// Two `√n × √n` integer matrices with entries below 1000.
pub fn matrices(n: usize, seed: u64) -> MmInput<WrapU64> {
    let side = 1usize << (n.trailing_zeros() / 2);
    assert_eq!(side * side, n, "n-MM needs a square number of entries");
    let mut rng = SplitMix64::new(seed);
    let a = Matrix::from_fn(side, |_, _| WrapU64(rng.next_u64() % 1000));
    let b = Matrix::from_fn(side, |_, _| WrapU64(rng.next_u64() % 1000));
    MmInput::new(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(keys(64, 7), keys(64, 7));
        assert_ne!(keys(64, 7), keys(64, 8));
        assert_eq!(signal(64, 7), signal(64, 7));
        assert_ne!(signal(64, 7), signal(64, 8));
        assert_eq!(matrices(64, 7).a, matrices(64, 7).a);
        assert_ne!(matrices(64, 7).b, matrices(64, 8).b);
    }
}
