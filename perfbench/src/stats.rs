//! The benchmark's own arithmetic: percentiles, self time and ratios.

/// Nearest-rank percentile of `xs` (`p` in 0..=100): the smallest sample
/// with at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Nearest-rank median, or 0 for an empty sample (a layer that never ran
/// on a workload spent no time there).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0).unwrap_or(0.0)
}

/// Samples lying strictly above the `p`th percentile: the tail a
/// percentile rests on.
pub fn beyond(xs: &[f64], p: f64) -> usize {
    percentile(xs, p).map_or(0, |q| xs.iter().filter(|&&x| x > q).count())
}

/// `num / den`, or 0 when the base is 0 (nothing to divide over).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// covered by the union of its children's intervals (children clipped to
/// the parent; overlapping children count once).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(10.0));
        assert_eq!(percentile(&xs, 95.0), Some(19.0));
        assert_eq!(percentile(&xs, 100.0), Some(20.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 95.0), Some(19.0));
    }

    #[test]
    fn median_of_odd_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_beyond_p95_needs_200_samples_for_ten() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(beyond(&xs, 95.0), 10);
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(&short, 95.0), 5);
    }

    #[test]
    fn ratio_guards_a_zero_base() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 30)]), 3);
        // A child outside the parent covers nothing.
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
    }
}
