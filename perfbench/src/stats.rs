//! Order statistics shared by every workload.

/// Sorts a sample ascending (total order, so a NaN cannot poison the sort).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least a fraction `q` of the sample at or below it. An even-length
/// sample's median is therefore its lower middle value, never an average.
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Nearest-rank median (see [`percentile`]).
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 0.5)
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    #[allow(clippy::cast_precision_loss)]
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Whether the backlog of jobs in flight grew over one ladder step.
///
/// `in_flight` holds the number of unanswered jobs at each send, in send
/// order. A system that keeps up holds this level steady, however high;
/// one that falls behind adds a roughly constant number of jobs per send.
/// The step counts as growing when the mean over its last quarter exceeds
/// the mean over its first quarter by more than half again plus `slack`
/// jobs. Steps with fewer than eight sends carry too little evidence and
/// never count as growing.
pub fn backlog_grows(in_flight: &[usize], slack: f64) -> bool {
    let quarter = in_flight.len() / 4;
    if quarter < 2 {
        return false;
    }
    #[allow(clippy::cast_precision_loss)]
    let level = |part: &[usize]| part.iter().sum::<usize>() as f64 / part.len() as f64;
    let first = level(&in_flight[..quarter]);
    let last = level(&in_flight[in_flight.len() - quarter..]);
    last > 1.5 * first + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_sample_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn nearest_rank_on_odd_and_even_lengths() {
        let odd = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&odd), Some(3.0));
        assert_eq!(percentile(&odd, 0.99), Some(5.0));
        assert_eq!(percentile(&odd, 0.0), Some(1.0));
        // Even length: nearest rank takes the lower middle, no averaging.
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&even), Some(2.0));
        assert_eq!(percentile(&even, 0.75), Some(3.0));
        assert_eq!(percentile(&even, 0.76), Some(4.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn p99_of_a_hundred_is_the_ninety_ninth() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.99), Some(99.0));
        assert_eq!(percentile(&sample, 0.50), Some(50.0));
    }

    #[test]
    fn sorted_orders_ascending() {
        assert_eq!(sorted(vec![3.0, -1.0, 2.0]), vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn steady_backlog_does_not_grow() {
        let steady: Vec<usize> = (0..200).map(|i| 10 + i % 3).collect();
        assert!(!backlog_grows(&steady, 2.0));
        // A high but level backlog is still steady.
        let high = vec![40; 100];
        assert!(!backlog_grows(&high, 2.0));
    }

    #[test]
    fn linear_backlog_grows() {
        let rising: Vec<usize> = (0..200).map(|i| 2 + i / 4).collect();
        assert!(backlog_grows(&rising, 2.0));
    }

    #[test]
    fn short_steps_never_grow() {
        assert!(!backlog_grows(&[0, 1, 2, 3, 4, 5, 6], 0.0));
        assert!(!backlog_grows(&[], 0.0));
    }

    #[test]
    fn noise_within_slack_is_not_growth() {
        let mut wobble = vec![1usize; 40];
        wobble.extend([4usize; 10]);
        assert!(!backlog_grows(&wobble, 3.0));
        assert!(backlog_grows(&wobble, 1.0));
    }
}
