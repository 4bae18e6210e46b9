//! Real-valued genetic algorithm used to learn weighted-average weights and
//! decision thresholds.
//!
//! "When learning weights we utilize a genetic algorithm that attempts to
//! maximize the matching performance on the learning set" (Section 3.2).
//! The optimiser is a small, generic real-valued GA: tournament selection,
//! blend (BLX-α) crossover, Gaussian mutation and elitism. Fitness is
//! supplied by the caller as a closure over the genome.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;
/// Per-gene mutation probability.
const MUTATION_RATE: f64 = 0.25;
/// Standard deviation of Gaussian mutation (relative to the gene range).
const MUTATION_SIGMA: f64 = 0.15;
/// Number of elite individuals copied unchanged into the next generation.
const ELITISM: usize = 2;
/// BLX-α crossover expansion factor.
const BLEND_ALPHA: f64 = 0.3;

/// Configuration of the genetic optimiser.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneticConfig {
    /// Number of individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        Self { population: 40, generations: 35, seed: 101 }
    }
}

/// A real-valued genetic optimiser over genomes of fixed length, where every
/// gene lives in a caller-provided `[lo, hi]` range.
#[derive(Debug, Clone)]
pub struct GeneticOptimizer {
    config: GeneticConfig,
    bounds: Vec<(f64, f64)>,
}

impl GeneticOptimizer {
    /// Create an optimiser for genomes with the given per-gene bounds.
    pub fn new(bounds: Vec<(f64, f64)>, config: GeneticConfig) -> Self {
        assert!(!bounds.is_empty(), "genome must have at least one gene");
        for (lo, hi) in &bounds {
            assert!(lo <= hi, "gene bound lo must not exceed hi");
        }
        Self { config, bounds }
    }

    /// Run the optimiser, maximising `fitness`. Returns the best genome and
    /// its fitness.
    ///
    /// Fitness is evaluated in parallel over the population (the dominant
    /// cost for dataset-backed fitness functions), which is why `fitness`
    /// must be `Fn + Sync`. Selection, crossover and mutation stay on the
    /// calling thread with a seeded RNG, so the optimisation trajectory is
    /// identical at every thread count.
    pub fn optimize<F>(&self, fitness: F) -> (Vec<f64>, f64)
    where
        F: Fn(&[f64]) -> f64 + Sync,
    {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let genome_len = self.bounds.len();
        let pop_size = self.config.population.max(2);

        // Initial population: uniform random genomes.
        let mut population: Vec<Vec<f64>> = (0..pop_size)
            .map(|_| {
                (0..genome_len)
                    .map(|g| {
                        let (lo, hi) = self.bounds[g];
                        if (hi - lo).abs() < f64::EPSILON {
                            lo
                        } else {
                            rng.gen_range(lo..=hi)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut scores: Vec<f64> = population.par_iter().map(|g| fitness(g)).collect();

        for _gen in 0..self.config.generations {
            // Rank indices by fitness, best first.
            let mut order: Vec<usize> = (0..pop_size).collect();
            order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal));

            let mut next: Vec<Vec<f64>> = Vec::with_capacity(pop_size);
            for &elite in order.iter().take(ELITISM.min(pop_size)) {
                next.push(population[elite].clone());
            }
            while next.len() < pop_size {
                let p1 = self.tournament_select(&scores, &mut rng);
                let p2 = self.tournament_select(&scores, &mut rng);
                let mut child = self.crossover(&population[p1], &population[p2], &mut rng);
                self.mutate(&mut child, &mut rng);
                next.push(child);
            }
            population = next;
            scores = population.par_iter().map(|g| fitness(g)).collect();
        }

        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        (population[best].clone(), scores[best])
    }

    fn tournament_select(&self, scores: &[f64], rng: &mut ChaCha8Rng) -> usize {
        let mut best = rng.gen_range(0..scores.len());
        for _ in 1..TOURNAMENT {
            let challenger = rng.gen_range(0..scores.len());
            if scores[challenger] > scores[best] {
                best = challenger;
            }
        }
        best
    }

    fn crossover(&self, a: &[f64], b: &[f64], rng: &mut ChaCha8Rng) -> Vec<f64> {
        a.iter()
            .zip(b.iter())
            .enumerate()
            .map(|(g, (&x, &y))| {
                let (lo, hi) = self.bounds[g];
                let (min, max) = if x <= y { (x, y) } else { (y, x) };
                let range = (max - min).max(1e-12);
                let low = (min - BLEND_ALPHA * range).max(lo);
                let high = (max + BLEND_ALPHA * range).min(hi);
                if (high - low).abs() < f64::EPSILON {
                    low
                } else {
                    rng.gen_range(low..=high)
                }
            })
            .collect()
    }

    fn mutate(&self, genome: &mut [f64], rng: &mut ChaCha8Rng) {
        for (g, value) in genome.iter_mut().enumerate() {
            if rng.gen::<f64>() < MUTATION_RATE {
                let (lo, hi) = self.bounds[g];
                let range = (hi - lo).max(1e-12);
                // Box-Muller Gaussian from two uniforms.
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                *value = (*value + normal * MUTATION_SIGMA * range).clamp(lo, hi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(seed: u64) -> GeneticConfig {
        GeneticConfig { population: 30, generations: 25, seed }
    }

    #[test]
    fn maximises_a_simple_quadratic() {
        // Maximum of -(x-0.7)^2 is at x = 0.7.
        let opt = GeneticOptimizer::new(vec![(0.0, 1.0)], quick_config(1));
        let (best, score) = opt.optimize(|g| -(g[0] - 0.7).powi(2));
        assert!((best[0] - 0.7).abs() < 0.05, "found {}", best[0]);
        assert!(score > -0.01);
    }

    #[test]
    fn handles_multidimensional_genomes() {
        // Maximise the negative distance to the point (0.2, 0.8, 0.5).
        let target = [0.2, 0.8, 0.5];
        let opt = GeneticOptimizer::new(vec![(0.0, 1.0); 3], quick_config(2));
        let (best, _) = opt.optimize(|g| {
            -g.iter().zip(target.iter()).map(|(a, b)| (a - b).powi(2)).sum::<f64>()
        });
        for (b, t) in best.iter().zip(target.iter()) {
            assert!((b - t).abs() < 0.12, "gene {b} vs target {t}");
        }
    }

    #[test]
    fn respects_bounds() {
        let opt = GeneticOptimizer::new(vec![(0.0, 1.0), (2.0, 3.0)], quick_config(3));
        let (best, _) = opt.optimize(|g| g.iter().sum());
        assert!((0.0..=1.0).contains(&best[0]));
        assert!((2.0..=3.0).contains(&best[1]));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let opt = GeneticOptimizer::new(vec![(0.0, 1.0); 2], quick_config(4));
        let a = opt.optimize(|g| g[0] - g[1]);
        let b = opt.optimize(|g| g[0] - g[1]);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn degenerate_bounds_are_fixed_genes() {
        let opt = GeneticOptimizer::new(vec![(0.5, 0.5), (0.0, 1.0)], quick_config(5));
        let (best, _) = opt.optimize(|g| g[1]);
        assert_eq!(best[0], 0.5);
        assert!(best[1] > 0.8);
    }

    #[test]
    #[should_panic(expected = "at least one gene")]
    fn empty_genome_rejected() {
        GeneticOptimizer::new(vec![], GeneticConfig::default());
    }

    #[test]
    fn stall_convergence_disabled_runs_full_budget() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let config = GeneticConfig { population: 10, generations: 5, seed: 6 };
        let evaluations = AtomicUsize::new(0);
        let opt = GeneticOptimizer::new(vec![(0.0, 1.0)], config);
        opt.optimize(|_| {
            evaluations.fetch_add(1, Ordering::Relaxed);
            0.5
        });
        assert_eq!(evaluations.load(Ordering::Relaxed), 10 * 6);
    }
}
