//! Order statistics and the two-sided comparison rule the benchmark's
//! `compare` subcommand applies.

/// Nearest-rank percentile of `sorted` (ascending): the smallest value with
/// at least `p`% of the samples at or below it. `None` for no samples.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the nearest-rank `p`th percentile: the guide for
/// reporting a percentile at all is that at least ten lie beyond it.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    nearest_rank(sorted, p).map_or(0, |v| sorted.iter().filter(|&&x| x > v).count())
}

/// Median and quartiles `(q1, median, q3)`, with the same interpolation as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method), so
/// spreads printed here match the ones an external script computes. A single
/// sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = (n + 1) as f64;
    let q = |j: f64| {
        let pos = j * m / 4.0;
        let i = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - i as f64;
        v[i - 1] + (v[i] - v[i - 1]) * frac
    };
    (q(1.0), median(&v), q(3.0))
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing one (metric, workload) pair across two run sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A claim of improvement needs at least this many pairs.
pub const MIN_PAIRS_FOR_GAIN: usize = 10;
/// ... and the change must win at least this share of them.
pub const WIN_SHARE_FOR_GAIN: f64 = 0.9;

/// Pairwise wins of `change` over `parent` (run `i` against run `i`); ties
/// count for neither side. Returns `(wins, pairs)`.
pub fn pair_wins(parent: &[f64], change: &[f64], better: Better) -> (usize, usize) {
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| match better {
            Better::Lower => c < p,
            Better::Higher => c > p,
        })
        .count();
    (wins, pairs)
}

/// The comparison rule:
///
/// * **improved** — at least [`MIN_PAIRS_FOR_GAIN`] pairs, the change wins
///   at least [`WIN_SHARE_FOR_GAIN`] of them, and the medians differ in the
///   better direction by more than the parent's own quartile distance;
/// * **unresolved** — the run-to-run spread (either side's quartile
///   distance as a share of the parent median) is wider than `bound`, unless
///   every change run reads better than every parent run;
/// * **regressed** — the change median is worse than the parent median by
///   more than `bound` times the parent median;
/// * **unchanged** — otherwise.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (pq1, pmed, pq3) = quartiles(parent);
    let (cq1, cmed, cq3) = quartiles(change);
    let (wins, pairs) = pair_wins(parent, change, better);
    // Positive when the change is better.
    let gain = match better {
        Better::Lower => pmed - cmed,
        Better::Higher => cmed - pmed,
    };
    if pairs >= MIN_PAIRS_FOR_GAIN
        && wins as f64 >= WIN_SHARE_FOR_GAIN * pairs as f64
        && gain > pq3 - pq1
    {
        return Verdict::Improved;
    }
    let scale = pmed.abs().max(f64::MIN_POSITIVE);
    let spread = (pq3 - pq1).max(cq3 - cq1) / scale;
    if spread > bound {
        let all_better = match better {
            Better::Lower => change.iter().all(|c| parent.iter().all(|p| c < p)),
            Better::Higher => change.iter().all(|c| parent.iter().all(|p| c > p)),
        };
        return if all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    if -gain > bound * scale {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // p50 of 20: rank ceil(10) = 10 -> value 10.
        assert_eq!(nearest_rank(&v, 50.0), Some(10.0));
        // p90 of 20: rank 18 -> 18; two samples (19, 20) lie beyond it.
        assert_eq!(nearest_rank(&v, 90.0), Some(18.0));
        assert_eq!(beyond(&v, 90.0), 2);
        // p90 of 5: rank ceil(4.5) = 5 -> the maximum.
        let s = [1.0, 1.5, 3.0, 4.0, 9.0];
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // 110 samples: p90 has rank 99, so exactly 11 lie beyond it.
        let big: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(nearest_rank(&big, 90.0), Some(99.0));
        assert_eq!(beyond(&big, 90.0), 11);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([7, 1, 3, 5], n=4) == [1.5, 4.0, 6.5]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 5.0]), (1.5, 4.0, 6.5));
        // statistics.quantiles([2, 4, 9], n=4) == [2.0, 4.0, 9.0]
        assert_eq!(quartiles(&[2.0, 4.0, 9.0]), (2.0, 4.0, 9.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn pair_wins_ignore_ties() {
        assert_eq!(
            pair_wins(&[10.0, 10.0, 10.0], &[9.0, 10.0, 11.0], Better::Lower),
            (1, 3)
        );
        assert_eq!(
            pair_wins(&[10.0, 10.0, 10.0], &[9.0, 10.0, 11.0], Better::Higher),
            (1, 3)
        );
    }

    #[test]
    fn identical_runs_are_unchanged() {
        let v = [100.0, 101.0, 99.0, 100.5, 100.2];
        assert_eq!(verdict(&v, &v, Better::Lower, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn gain_needs_ten_pairs_and_nine_tenths_wins() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        // Five pairs are not enough to claim a gain, however clear.
        assert_eq!(
            verdict(&parent[..5], &faster[..5], Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // Eight of ten wins is not enough either.
        let mut mixed = faster.clone();
        mixed[0] = parent[0] * 1.01;
        mixed[1] = parent[1] * 1.01;
        assert_eq!(
            verdict(&parent, &mixed, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_median_beyond_bound_regresses() {
        let parent = [100.0, 100.5, 99.5, 100.2, 99.8];
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        // Higher-is-better metrics regress downwards.
        let lower: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(
            verdict(&parent, &lower, Better::Higher, 0.1),
            Verdict::Regressed
        );
        // Within the bound: unchanged.
        let slightly: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(
            verdict(&parent, &slightly, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        let parent = [50.0, 100.0, 150.0, 80.0, 120.0];
        let change = [60.0, 110.0, 140.0, 90.0, 100.0];
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let all_better = [10.0, 12.0, 11.0, 13.0, 12.5];
        assert_eq!(
            verdict(&parent, &all_better, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }
}
