//! A small, self-contained deterministic PRNG.
//!
//! Simulations in this workspace must be bit-for-bit reproducible across
//! machines and dependency upgrades, so instead of relying on an external
//! RNG whose stream may change between crate versions, we implement
//! xoshiro256** (Blackman & Vigna) seeded via SplitMix64 — the standard,
//! well-tested construction — together with the handful of distributions
//! the simulators need (uniform, normal, exponential, Poisson).

use std::fmt;

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// # Examples
///
/// ```
/// use bass_util::rng::SimRng;
///
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng").field("state", &self.s).finish()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The state is expanded with SplitMix64, so nearby seeds produce
    /// uncorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator, e.g. one per link or per
    /// client, so that adding an entity does not perturb others' streams.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let mixed = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        SimRng::seed_from_u64(mixed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform range must satisfy lo <= hi");
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform integer in `[0, n)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(n) requires n > 0");
        // Widening multiply rejection sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A standard normal sample (Box–Muller, one value per call).
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid u1 == 0 so ln() stays finite.
        let u1 = loop {
            let u = self.next_f64();
            if u > 1e-300 {
                break u;
            }
        };
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// An exponential sample with the given rate (events per unit time).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = loop {
            let u = self.next_f64();
            if u > 1e-300 {
                break u;
            }
        };
        -u.ln() / rate
    }

    /// A Poisson sample with the given mean (Knuth's algorithm; adequate
    /// for the small means used in workload generation).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson mean must be non-negative");
        if mean == 0.0 {
            return 0;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
            // Guard against pathological means.
            if k > 10_000_000 {
                return k;
            }
        }
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Randomly reorders a slice (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SimRng::seed_from_u64(99);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let same = (0..16).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_range() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = r.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn below_in_range_and_covers() {
        let mut r = SimRng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v = r.below(5) as usize;
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::seed_from_u64(6);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn poisson_mean() {
        let mut r = SimRng::seed_from_u64(8);
        let n = 10_000;
        let mean = (0..n).map(|_| r.poisson(3.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from_u64(10);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut r = SimRng::seed_from_u64(11);
        let empty: [u8; 0] = [];
        assert_eq!(r.choose(&empty), None);
        let items = [1, 2, 3];
        assert!(items.contains(r.choose(&items).unwrap()));
    }
}
