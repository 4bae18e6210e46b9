//! Corpus profiling: the characteristics reported in paper Table 3.

use crate::corpus::Corpus;

/// Summary statistics of one dimension (rows or columns) of a corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimensionStats {
    /// Mean value.
    pub average: f64,
    /// Median value.
    pub median: f64,
    /// Minimum value.
    pub min: usize,
    /// Maximum value.
    pub max: usize,
}

impl DimensionStats {
    fn from_counts(mut counts: Vec<usize>) -> Self {
        if counts.is_empty() {
            return Self { average: 0.0, median: 0.0, min: 0, max: 0 };
        }
        counts.sort_unstable();
        let n = counts.len();
        let average = counts.iter().sum::<usize>() as f64 / n as f64;
        let median = if n % 2 == 1 {
            counts[n / 2] as f64
        } else {
            (counts[n / 2 - 1] + counts[n / 2]) as f64 / 2.0
        };
        Self { average, median, min: counts[0], max: counts[n - 1] }
    }
}

/// The web table corpus characteristics of paper Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusProfile {
    /// Number of tables in the corpus.
    pub tables: usize,
    /// Row-count statistics.
    pub rows: DimensionStats,
    /// Column-count statistics.
    pub columns: DimensionStats,
}

impl CorpusProfile {
    /// Compute the profile of a corpus.
    pub fn compute(corpus: &Corpus) -> Self {
        let rows: Vec<usize> = corpus.tables().iter().map(|t| t.num_rows()).collect();
        let columns: Vec<usize> = corpus.tables().iter().map(|t| t.num_columns()).collect();
        Self {
            tables: corpus.len(),
            rows: DimensionStats::from_counts(rows),
            columns: DimensionStats::from_counts(columns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_corpus, CorpusConfig};
    use ltee_kb::{generate_world, GeneratorConfig, Scale};

    #[test]
    fn dimension_stats_basic() {
        let s = DimensionStats::from_counts(vec![2, 4, 10]);
        assert!((s.average - 16.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 10);
    }

    #[test]
    fn dimension_stats_even_count_median() {
        let s = DimensionStats::from_counts(vec![1, 3, 5, 7]);
        assert_eq!(s.median, 4.0);
    }

    #[test]
    fn dimension_stats_empty() {
        let s = DimensionStats::from_counts(vec![]);
        assert_eq!(s.average, 0.0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn corpus_profile_has_paper_like_shape() {
        // Tables are short (a handful of rows) and narrow (a few columns),
        // like the WDC corpus profiled in Table 3.
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 1));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let profile = CorpusProfile::compute(&corpus);
        assert_eq!(profile.tables, corpus.len());
        assert!(profile.rows.average >= 2.0 && profile.rows.average <= 20.0);
        assert!(profile.columns.average >= 2.0 && profile.columns.average <= 8.0);
        assert!(profile.rows.min >= 1);
        assert!(profile.columns.min >= 2);
    }
}
