//! Ranked evaluation (MAP@k, P@k) used for the set-expansion comparison in
//! paper Section 6.

/// Summary of a ranked evaluation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedEvaluation {
    /// Mean average precision with the given cut-off.
    pub map: f64,
    /// Precision at 5.
    pub p_at_5: f64,
    /// Precision at 20.
    pub p_at_20: f64,
    /// The cut-off used for MAP.
    pub cutoff: usize,
}

impl RankedEvaluation {
    /// Evaluate a ranked list of correctness flags (best-ranked first) with
    /// the paper's cut-off of 256.
    pub fn from_ranked(ranked_correct: &[bool]) -> Self {
        let cutoff = 256;
        Self {
            map: average_precision(ranked_correct, cutoff),
            p_at_5: precision_at_k(ranked_correct, 5),
            p_at_20: precision_at_k(ranked_correct, 20),
            cutoff,
        }
    }
}

/// Average precision of a ranked list of correctness flags, with a cut-off.
///
/// `AP = (1 / R) * Σ_k P(k) * rel(k)` where `R` is the number of relevant
/// items within the cut-off and `P(k)` is the precision at rank `k`.
pub fn average_precision(ranked_correct: &[bool], cutoff: usize) -> f64 {
    let considered = &ranked_correct[..ranked_correct.len().min(cutoff)];
    let relevant = considered.iter().filter(|&&c| c).count();
    if relevant == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut sum = 0.0;
    for (i, &correct) in considered.iter().enumerate() {
        if correct {
            hits += 1;
            sum += hits as f64 / (i + 1) as f64;
        }
    }
    sum / relevant as f64
}

/// Precision within the top `k` of a ranked list of correctness flags.
pub fn precision_at_k(ranked_correct: &[bool], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let considered = &ranked_correct[..ranked_correct.len().min(k)];
    if considered.is_empty() {
        return 0.0;
    }
    considered.iter().filter(|&&c| c).count() as f64 / considered.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_correct_is_perfect() {
        let ranked = vec![true; 30];
        assert_eq!(average_precision(&ranked, 256), 1.0);
        assert_eq!(precision_at_k(&ranked, 5), 1.0);
        assert_eq!(precision_at_k(&ranked, 20), 1.0);
    }

    #[test]
    fn all_wrong_is_zero() {
        let ranked = vec![false; 30];
        assert_eq!(average_precision(&ranked, 256), 0.0);
        assert_eq!(precision_at_k(&ranked, 5), 0.0);
    }

    #[test]
    fn early_correct_results_boost_average_precision() {
        let early = vec![true, true, false, false, false, false];
        let late = vec![false, false, false, false, true, true];
        assert!(average_precision(&early, 256) > average_precision(&late, 256));
    }

    #[test]
    fn precision_at_k_truncates() {
        let ranked = vec![true, false, true, false];
        assert_eq!(precision_at_k(&ranked, 2), 0.5);
        assert_eq!(precision_at_k(&ranked, 100), 0.5);
        assert_eq!(precision_at_k(&[], 5), 0.0);
        assert_eq!(precision_at_k(&ranked, 0), 0.0);
    }

    #[test]
    fn cutoff_limits_map_computation() {
        let mut ranked = vec![false; 300];
        ranked[299] = true; // beyond the 256 cut-off
        assert_eq!(average_precision(&ranked, 256), 0.0);
    }

    #[test]
    fn from_ranked_fills_all_fields() {
        let ranked = vec![true, false, true, true, false, true];
        let eval = RankedEvaluation::from_ranked(&ranked);
        assert!(eval.map > 0.0 && eval.map <= 1.0);
        assert_eq!(eval.p_at_5, 0.6);
        assert_eq!(eval.cutoff, 256);
    }

    #[test]
    fn classic_example_value() {
        // AP of [1, 0, 1]: (1/1 + 2/3) / 2 = 0.8333…
        let ranked = vec![true, false, true];
        assert!((average_precision(&ranked, 256) - 5.0 / 6.0).abs() < 1e-12);
    }
}
