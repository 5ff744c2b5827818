//! Seeded input generation. Everything a workload feeds the program is
//! drawn here from the run's `--seed`, so one seed always yields the
//! same tensors, the same compile order and the same request stream.

/// SplitMix64: a small, well-mixed generator that needs no dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed. Distinct `stream`
    /// values give independent sequences under the same seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 bits of precision (exact in `f32`).
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// `len` values uniform in `[-1, 1)`, drawn from `(seed, stream)`.
pub fn tensor(seed: u64, stream: u64, len: usize) -> Vec<f32> {
    let mut r = Rng::new(seed, stream);
    (0..len).map(|_| r.unit() * 2.0 - 1.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tensor_and_other_seed_differs() {
        assert_eq!(tensor(7, 3, 1000), tensor(7, 3, 1000));
        assert_ne!(tensor(7, 3, 1000), tensor(8, 3, 1000));
        assert_ne!(tensor(7, 3, 1000), tensor(7, 4, 1000));
        assert!(tensor(1, 1, 10_000).iter().all(|x| (-1.0..1.0).contains(x)));
    }

    #[test]
    fn permutation_is_a_seeded_permutation() {
        let p = Rng::new(5, 0).permutation(12);
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..12).collect::<Vec<_>>());
        assert_eq!(p, Rng::new(5, 0).permutation(12));
        assert_ne!(p, Rng::new(6, 0).permutation(12));
    }
}
