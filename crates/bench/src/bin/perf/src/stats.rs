//! Sample statistics.
//!
//! On a shared machine, co-tenants slow a process by up to 1.5× for
//! stretches of a fraction of a second to tens of seconds. On the
//! reference machine (a shared 2-vCPU Intel Xeon VM at 2.1 GHz) a fixed
//! std-only kernel timed in 5-second windows ran at a median of 1.5 ms in
//! some windows and 2.0 ms in others, while its p25 stayed within ±5 %.
//! A statistic over the whole phase moves with how much of that run
//! happened to be contended. Every bounded timing is therefore taken per
//! block — a short run of consecutive operations with the same mix of
//! work in every block (one round of decks, one round of sessions, one
//! plate, two rounds of requests) — and reported as the block value at
//! the decile on the better side: the speed the system sustains in the
//! least contended tenth of the run. Over six `catalog_cold` runs of one
//! build, the median of the round medians ranged over 30 % and their p10
//! over 6 %.
//!
//! A metric's spread is the IQR, as a share of the median, of the same
//! estimate taken on each of [`PARTS`] equal consecutive parts of the
//! phase: how far the reported number moves within one run.

use crate::schema::Better;

/// A phase with fewer samples than this reports no p99: below it the
/// 99th percentile has fewer than ten samples beyond it.
const P99_MIN_SAMPLES: usize = 1000;

/// Consecutive parts a phase is cut into for a metric's spread.
const PARTS: usize = 5;

/// One reported number: the value, the samples behind it, and the
/// spread (0 when it cannot be estimated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The measured value.
    pub value: f64,
    /// How many samples it summarises.
    pub n: usize,
    /// Run-internal spread as a share of the value.
    pub spread: f64,
}

impl Value {
    /// A single measurement.
    pub fn single(value: f64) -> Value {
        Value {
            value,
            n: 1,
            spread: 0.0,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

/// Nearest-rank percentile (`q` in `0..=1`); `NaN` for no data.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let data = sorted(values);
    let at = (q * data.len() as f64).ceil().max(1.0) as usize;
    data[at.min(data.len()) - 1]
}

/// The nearest-rank p99, or `None` below [`P99_MIN_SAMPLES`].
fn p99(values: &[f64]) -> Option<f64> {
    (values.len() >= P99_MIN_SAMPLES).then(|| percentile(values, 0.99))
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) computes them; `None` for fewer than two values.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let data = sorted(values);
    let ld = data.len() as i64;
    let m = ld + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..=3i64).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Inter-quartile range as a share of the median (0 for fewer than two
/// values or a zero median).
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// `values` cut into [`PARTS`] consecutive, (nearly) equal parts in time
/// order — fewer parts when there are fewer values.
fn parts<T>(values: &[T]) -> impl Iterator<Item = &[T]> {
    let n = values.len();
    let count = PARTS.min(n);
    (0..count).map(move |p| &values[p * n / count..(p + 1) * n / count])
}

/// The nearest-rank decile on the `better` side: the 10th percentile
/// of lower-is-better values, the 90th of higher-is-better ones (`NaN`
/// for none).
pub fn better_decile(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => percentile(values, 0.1),
        Better::Higher => percentile(values, 0.9),
    }
}

/// `stat` of every whole block of `block` consecutive samples (a trailing
/// partial block has another mix of work and is left out, unless it is
/// the only one), reported at the better decile of the blocks.
fn per_block(samples: &[f64], block: usize, stat: impl Fn(&[f64]) -> f64, better: Better) -> Value {
    let block = block.max(1);
    let whole = match samples.len() / block {
        0 => samples.len(),
        blocks => blocks * block,
    };
    let values: Vec<f64> = samples[..whole].chunks(block).map(stat).collect();
    let estimates: Vec<f64> = parts(&values)
        .map(|part| better_decile(part, better))
        .collect();
    Value {
        value: better_decile(&values, better),
        n: samples.len(),
        spread: iqr_share(&estimates),
    }
}

/// The median latency of a phase, per block of `block` ops.
pub fn median_value(samples: &[f64], block: usize) -> Value {
    per_block(samples, block, |b| percentile(b, 0.5), Better::Lower)
}

/// The p90 latency of a phase, per block of `block` ops.
pub fn p90_value(samples: &[f64], block: usize) -> Value {
    per_block(samples, block, |b| percentile(b, 0.9), Better::Lower)
}

/// Completions per second of back-to-back operations with these
/// durations (seconds), per block of `block` ops.
pub fn rate_value(durations_s: &[f64], block: usize) -> Value {
    per_block(
        durations_s,
        block,
        |b| b.len() as f64 / b.iter().sum::<f64>(),
        Better::Higher,
    )
}

/// The whole-phase p99 (printed, never bounded) with the spread of the
/// per-part p99s; `None` below [`P99_MIN_SAMPLES`].
pub fn p99_value(samples: &[f64]) -> Option<Value> {
    let value = p99(samples)?;
    let per_part: Vec<f64> = parts(samples).map(|p| percentile(p, 0.99)).collect();
    Some(Value {
        value,
        n: samples.len(),
        spread: iqr_share(&per_part),
    })
}

/// The mean of per-op samples over the whole phase — layer times add up
/// to the op's time only as means — with the spread of the part means.
pub fn mean_value(samples: &[f64]) -> Value {
    let mean = |b: &[f64]| {
        if b.is_empty() {
            0.0
        } else {
            b.iter().sum::<f64>() / b.len() as f64
        }
    };
    let per_part: Vec<f64> = parts(samples).map(mean).collect();
    Value {
        value: mean(samples),
        n: samples.len(),
        spread: iqr_share(&per_part),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_p99_below_a_thousand_samples() {
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&short), None);
        assert_eq!(p99_value(&short), None);
        let long: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&long), Some(990.0));
        let value = p99_value(&long).expect("1000 samples");
        assert_eq!((value.value, value.n), (990.0, 1000));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[7.0]), None);
        assert_eq!(iqr_share(&[5.0, 1.0, 4.0, 2.0, 3.0]), 1.0);
        assert_eq!(better_decile(&ten, Better::Lower), 1.0);
        assert_eq!(better_decile(&ten, Better::Higher), 9.0);
        assert!(better_decile(&[], Better::Lower).is_nan());
    }

    #[test]
    fn phases_are_cut_into_equal_parts_in_time_order() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let cuts: Vec<&[f64]> = parts(&samples).collect();
        assert_eq!(
            cuts,
            [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [9.0, 10.0]]
        );
        // Fewer samples than parts: one part per sample.
        assert_eq!(parts(&[1.0, 2.0]).count(), 2);
        assert_eq!(parts::<f64>(&[]).count(), 0);
    }

    /// Rounds of three ops: a run whose middle rounds are contended (every
    /// op 1.5× slower) reports the uncontended median.
    #[test]
    fn block_medians_report_the_better_decile() {
        let round = |scale: f64| [1.0 * scale, 3.0 * scale, 2.0 * scale];
        let mut samples = Vec::new();
        for r in 0..40 {
            let contended = (8..32).contains(&r);
            samples.extend(round(if contended { 1.5 } else { 1.0 }));
        }
        let value = median_value(&samples, 3);
        assert_eq!((value.value, value.n), (2.0, 120));
        // The first and last parts are uncontended, the middle three are
        // not: estimates 2, 3, 3, 3, 2 → quartiles 2, 3, 3.
        assert!((value.spread - 1.0 / 3.0).abs() < 1e-12, "{value:?}");
        // A steady run has no spread; a trailing partial block is left out.
        let mut steady: Vec<f64> = (0..40).flat_map(|_| round(1.0)).collect();
        steady.push(100.0);
        assert_eq!(median_value(&steady, 3).spread, 0.0);
        assert_eq!(median_value(&steady, 3).value, 2.0);
        // Fewer samples than a block: the samples are the block.
        assert_eq!(median_value(&[4.0, 6.0], 3).value, 4.0);
    }

    #[test]
    fn tails_rates_and_means_use_per_block_values() {
        // Each block of 10 holds 1..=10: p90 is 9 in every block.
        let samples: Vec<f64> = (0..200).map(|i| f64::from(i % 10 + 1)).collect();
        assert_eq!(p90_value(&samples, 10).value, 9.0);
        // Throughput takes the faster decile: half the blocks at 2 ops/s,
        // half at 4 ops/s.
        let mut durations = vec![0.5; 100];
        durations.extend(vec![0.25; 100]);
        assert_eq!(rate_value(&durations, 10).value, 4.0);
        let mean = mean_value(&[1.0, 3.0]);
        assert_eq!((mean.value, mean.n), (2.0, 2));
    }
}
