//! The randomization experiment itself: real vs permuted instance counts,
//! z-scores, empirical p-values, box-plot summaries.

use crate::stats::{mean, population_std_dev, FiveNumberSummary};
use flowmotif_core::enumerate::{
    enumerate_in_match, CountSink, EnumerationScratch, SearchOptions, SearchStats,
};
use flowmotif_core::{find_structural_matches, Motif, StructuralMatch};
use flowmotif_datasets::permute_flows;
use flowmotif_graph::{TemporalMultigraph, TimeSeriesGraph};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parameters of the randomization experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignificanceConfig {
    /// Number of randomized replicas (the paper uses 20).
    pub num_replicas: usize,
    /// Base RNG seed; replica `i` uses `seed + i`.
    pub seed: u64,
    /// Worker threads for the replica counts (0 = all cores). Replicas
    /// are embarrassingly parallel — each is seeded independently — so
    /// results are identical at any thread count.
    pub threads: usize,
}

impl Default for SignificanceConfig {
    fn default() -> Self {
        Self { num_replicas: 20, seed: 0xF10F, threads: 1 }
    }
}

/// Significance verdict for one motif on one dataset (one bar of Fig. 14).
#[derive(Debug, Clone, PartialEq)]
pub struct MotifSignificance {
    /// Motif display name.
    pub motif: String,
    /// Instances in the real network (`r_M`).
    pub real_count: u64,
    /// Instances in each randomized replica.
    pub random_counts: Vec<u64>,
    /// Mean of `random_counts` (`µ_M`).
    pub random_mean: f64,
    /// Population std-dev of `random_counts` (`σ_M`).
    pub random_std: f64,
    /// `z_M = (r_M − µ_M) / σ_M`; infinite σ=0 cases are reported as the
    /// sign of the numerator times `f64::INFINITY`, or 0 when both vanish.
    pub z_score: f64,
    /// Empirical p-value: fraction of replicas with a count `>=` the real
    /// one (the paper reports 0 everywhere).
    pub p_value: f64,
    /// Box-plot summary of the replica counts.
    pub box_plot: FiveNumberSummary,
}

flowmotif_util::impl_to_json!(MotifSignificance {
    motif,
    real_count,
    random_counts,
    random_mean,
    random_std,
    z_score,
    p_value,
    box_plot,
});

fn count_with_matches(g: &TimeSeriesGraph, motif: &Motif, matches: &[StructuralMatch]) -> u64 {
    let mut sink = CountSink::default();
    let mut stats = SearchStats::default();
    let (opts, scratch) = (SearchOptions::default(), &mut EnumerationScratch::default());
    for sm in matches {
        enumerate_in_match(g, motif, sm, None, opts, &mut sink, &mut stats, scratch);
    }
    sink.count
}

/// Counts instances in each flow-permuted replica. Replicas shard over
/// worker threads through a shared atomic counter (the
/// `flowmotif_core::parallel` pattern); replica `i` always uses
/// `seed + i`, so the counts are independent of the thread count.
fn replica_counts(
    real: &TemporalMultigraph,
    motif: &Motif,
    matches: &[StructuralMatch],
    cfg: SignificanceConfig,
) -> Vec<u64> {
    let count_one = |i: usize| {
        let replica = permute_flows(real, cfg.seed + i as u64);
        let replica_ts: TimeSeriesGraph = (&replica).into();
        count_with_matches(&replica_ts, motif, matches)
    };
    let workers = if cfg.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.threads
    }
    .min(cfg.num_replicas.max(1));
    if workers <= 1 {
        return (0..cfg.num_replicas).map(count_one).collect();
    }
    let next = AtomicUsize::new(0);
    let mut counts = vec![0u64; cfg.num_replicas];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let count_one = &count_one;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cfg.num_replicas {
                            break;
                        }
                        local.push((i, count_one(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, c) in h.join().expect("replica worker panicked") {
                counts[i] = c;
            }
        }
    });
    counts
}

/// Assesses one motif: counts instances in the real graph and in
/// `cfg.num_replicas` flow-permuted replicas, reusing the structural
/// matches (valid because the null model fixes structure and timestamps).
pub fn assess_motif(
    real: &TemporalMultigraph,
    motif: &Motif,
    cfg: SignificanceConfig,
) -> MotifSignificance {
    let real_ts: TimeSeriesGraph = real.into();
    let matches = find_structural_matches(&real_ts, motif.path());
    let real_count = count_with_matches(&real_ts, motif, &matches);
    let random_counts = replica_counts(real, motif, &matches, cfg);

    let counts_f: Vec<f64> = random_counts.iter().map(|&c| c as f64).collect();
    let mu = mean(&counts_f);
    let sigma = population_std_dev(&counts_f);
    let diff = real_count as f64 - mu;
    let z_score = if sigma > 0.0 {
        diff / sigma
    } else if diff == 0.0 {
        0.0
    } else {
        diff.signum() * f64::INFINITY
    };
    let p_value = if random_counts.is_empty() {
        1.0
    } else {
        random_counts.iter().filter(|&&c| c >= real_count).count() as f64
            / random_counts.len() as f64
    };
    MotifSignificance {
        motif: motif.name(),
        real_count,
        box_plot: FiveNumberSummary::of(&counts_f),
        random_counts,
        random_mean: mu,
        random_std: sigma,
        z_score,
        p_value,
    }
}

/// Assesses a batch of motifs (one dataset panel of Fig. 14).
pub fn assess_motifs(
    real: &TemporalMultigraph,
    motifs: &[Motif],
    cfg: SignificanceConfig,
) -> Vec<MotifSignificance> {
    motifs.iter().map(|m| assess_motif(real, m, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmotif_core::catalog;
    use flowmotif_datasets::Dataset;
    use flowmotif_graph::GraphBuilder;

    #[test]
    fn structured_flows_are_significant() {
        // Build a network where high flows are *concentrated* on chains:
        // many 0->a->b chains with flow exactly 10, plus background pairs
        // with flow 1. Permuting flows scatters the 10s, so far fewer
        // chains clear ϕ=10.
        let mut b = GraphBuilder::new();
        let mut t = 0i64;
        for i in 0..30u32 {
            let a = 100 + 2 * i;
            b.add_interaction(a, a + 1, t, 10.0);
            b.add_interaction(a + 1, 900 + i, t + 1, 10.0);
            t += 1000; // chains are isolated in time
        }
        // Background noise: lots of low-flow pairs, never forming chains.
        for i in 0..200u32 {
            b.add_interaction(2000 + i, 3000 + i, t + i as i64 * 7, 1.0);
        }
        let mg: TemporalMultigraph = b.build_multigraph();
        let motif = catalog::by_name("M(3,2)", 10, 10.0).unwrap();
        let cfg = SignificanceConfig { num_replicas: 10, seed: 7, threads: 1 };
        let sig = assess_motif(&mg, &motif, cfg);
        assert_eq!(sig.real_count, 30);
        assert!(sig.random_mean < sig.real_count as f64, "{sig:?}");
        assert!(sig.z_score > 3.0, "z={}", sig.z_score);
        assert_eq!(sig.p_value, 0.0);
        assert!(sig.box_plot.max < sig.real_count as f64);
    }

    #[test]
    fn phi_zero_is_invariant_under_permutation() {
        // With ϕ=0 the flow values are irrelevant: every replica count
        // equals the real count and z = 0.
        let mg = Dataset::Passenger.generate_multigraph(0.1, 5);
        let motif = catalog::by_name("M(3,2)", 900, 0.0).unwrap();
        let cfg = SignificanceConfig { num_replicas: 5, seed: 11, threads: 1 };
        let sig = assess_motif(&mg, &motif, cfg);
        assert!(sig.random_counts.iter().all(|&c| c == sig.real_count));
        assert_eq!(sig.z_score, 0.0);
        assert_eq!(sig.p_value, 1.0);
    }

    #[test]
    fn assess_motifs_covers_all_inputs() {
        let mg = Dataset::Passenger.generate_multigraph(0.1, 5);
        let motifs: Vec<_> =
            ["M(3,2)", "M(3,3)"].iter().map(|n| catalog::by_name(n, 900, 2.0).unwrap()).collect();
        let cfg = SignificanceConfig { num_replicas: 3, seed: 1, threads: 2 };
        let out = assess_motifs(&mg, &motifs, cfg);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].motif, "M(3,2)");
        assert_eq!(out[0].random_counts.len(), 3);
    }

    #[test]
    fn parallel_replicas_match_serial() {
        let mg = Dataset::Passenger.generate_multigraph(0.1, 13);
        let motif = catalog::by_name("M(3,2)", 900, 3.0).unwrap();
        let serial =
            assess_motif(&mg, &motif, SignificanceConfig { num_replicas: 7, seed: 21, threads: 1 });
        for threads in [2, 3, 0] {
            let par = assess_motif(
                &mg,
                &motif,
                SignificanceConfig { num_replicas: 7, seed: 21, threads },
            );
            assert_eq!(par.random_counts, serial.random_counts, "threads={threads}");
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let mg = Dataset::Passenger.generate_multigraph(0.08, 2);
        let motif = catalog::by_name("M(3,2)", 900, 2.0).unwrap();
        let cfg = SignificanceConfig { num_replicas: 4, seed: 3, threads: 0 };
        let a = assess_motif(&mg, &motif, cfg);
        let b = assess_motif(&mg, &motif, cfg);
        assert_eq!(a, b);
    }
}
