//! Seeded Poisson arrival schedules for the open-loop workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arrival offsets in nanoseconds of a Poisson process of `rate_per_s`,
/// from 0 up to (excluding) `horizon_s`. The same seed gives the same
/// schedule.
pub fn poisson_offsets_ns(seed: u64, rate_per_s: f64, horizon_s: f64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon_ns = horizon_s * 1e9;
    let mut out = Vec::with_capacity((rate_per_s * horizon_s * 1.1) as usize + 16);
    let mut t_ns = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1], so ln is finite.
        let u: f64 = rng.gen();
        t_ns += -(1.0 - u).ln() / rate_per_s * 1e9;
        if t_ns >= horizon_ns {
            return out;
        }
        out.push(t_ns as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_other_seed_differs() {
        let a = poisson_offsets_ns(7, 1000.0, 2.0);
        assert_eq!(a, poisson_offsets_ns(7, 1000.0, 2.0));
        assert_ne!(a, poisson_offsets_ns(8, 1000.0, 2.0));
    }

    #[test]
    fn schedule_is_sorted_inside_the_horizon_and_near_the_rate() {
        let a = poisson_offsets_ns(1, 1000.0, 4.0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 4_000_000_000);
        // 4000 expected, sigma ~63: six sigma either side.
        assert!((3600..4400).contains(&a.len()), "{}", a.len());
    }
}
