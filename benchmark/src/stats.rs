//! Small-sample summaries. Every workload runs fewer than 20 reps, so a
//! timing is reported as one central value with min, max and n — never as
//! a percentile, which would need at least ten samples beyond it.

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One metric over a run's reps: the reported value with the extremes
/// and the count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub value: f64,
    /// Smallest rep.
    pub min: f64,
    /// Largest rep.
    pub max: f64,
    /// Number of reps.
    pub n: usize,
}

impl Summary {
    fn of(value: f64, values: &[f64]) -> Summary {
        Summary {
            value,
            min: values.iter().copied().fold(value, f64::min),
            max: values.iter().copied().fold(value, f64::max),
            n: values.len(),
        }
    }

    /// The mean of `values`. With the two to six calibrated reps a run
    /// of an in-process workload has, the mean repeats better from run to
    /// run than the median (README.md has the measurement); outliers are
    /// left to whoever compares several runs.
    pub fn mean_of(values: &[f64]) -> Summary {
        Summary::of(mean(values), values)
    }

    /// The median of `values`, for samples with known outliers (the
    /// first set-up of a process is cold; a server rep now and then runs
    /// beside another tenant's burst).
    pub fn median_of(values: &[f64]) -> Summary {
        Summary::of(median(values), values)
    }

    /// A value known exactly (one deterministic observation).
    pub fn exact(value: f64) -> Summary {
        Summary::of(value, &[value])
    }
}
