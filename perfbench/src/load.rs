//! The lookup generator and the statistics the report is built from.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssim::{Key, NodeId, Workload, WorkloadView};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Open loop in simulated time: exactly `per_round` lookups are due at the
/// start of every round until [`Lookups::stopper`] is raised, whatever the
/// backlog. Origins are uniform over live hosts and keys uniform over the
/// guest space, both drawn from the benchmark's own seed — never from the
/// engine's streams, so the lookup stream cannot perturb the protocol's
/// random choices and the protocol's seed cannot move the lookup stream.
pub struct Lookups {
    per_round: u32,
    keys: u32,
    rng: SmallRng,
    stop: Arc<AtomicBool>,
}

impl Lookups {
    pub fn new(per_round: u32, keys: u32, seed: u64) -> Self {
        Self {
            per_round,
            keys,
            rng: SmallRng::seed_from_u64(seed),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Raise the returned flag to stop issuing (in-flight lookups drain).
    pub fn stopper(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }
}

impl Workload for Lookups {
    fn name(&self) -> &str {
        "perfbench-open-loop"
    }

    fn inject(&mut self, view: &WorkloadView<'_>, _: &mut SmallRng, out: &mut Vec<(NodeId, Key)>) {
        if view.ids.is_empty() || self.stop.load(Ordering::Relaxed) {
            return;
        }
        for _ in 0..self.per_round {
            let origin = view.ids[self.rng.gen_range(0..view.ids.len())];
            out.push((origin, self.rng.gen_range(0..self.keys)));
        }
    }
}

/// Quantile `q` of integer samples given as a histogram (`hist[v]` samples
/// of value `v`), interpolated within the bucket that holds it, as for
/// grouped data: bucket `v` spans `[v − ½, v + ½)`. A shift of a few
/// samples across a bucket edge then moves the figure a little, where the
/// plain order statistic would jump by a whole round.
pub fn grouped_quantile(hist: &[u64], q: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    let want = q * total as f64;
    let mut below = 0u64;
    for (v, &c) in hist.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= want {
            let lo = (v as f64 - 0.5).max(0.0);
            let hi = v as f64 + 0.5;
            return lo + (hi - lo) * (want - below as f64) / c as f64;
        }
        below += c;
    }
    0.0
}

/// Add `other` into `acc`, bucket by bucket.
pub fn merge_hist(acc: &mut Vec<u64>, other: &[u64]) {
    if acc.len() < other.len() {
        acc.resize(other.len(), 0);
    }
    for (a, &b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile of a sample by linear interpolation between order statistics.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    match v.get(i + 1) {
        Some(&next) => v[i] + frac * (next - v[i]),
        None => v[i],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_quantile_interpolates_within_the_bucket() {
        // 10 samples of 2, 10 of 3: the median sits on the 2|3 edge.
        let hist = [0, 0, 10, 10];
        assert!((grouped_quantile(&hist, 0.5) - 2.5).abs() < 1e-12);
        assert!((grouped_quantile(&hist, 0.25) - 2.0).abs() < 1e-12);
        assert!((grouped_quantile(&hist, 1.0) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
