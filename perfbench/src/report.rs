//! Summary statistics and the result line the benchmark prints.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// The tail of a latency sample: the highest percentile on the ladder
/// p50, p90, p99, p99.9, … that still has at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.9`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Samples required beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Applies the tail rule to an ascending slice; `None` when even the
/// median has fewer than [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    let mut best = None;
    // Rung 0 is the median; rung k >= 1 is 1 - 10^-k, which leaves
    // n / 10^k samples beyond its nearest rank.
    for rung in 0u32.. {
        let (percentile, beyond) = match rung {
            0 => (50.0, n / 2),
            k => (
                100.0 - 100.0 / 10f64.powi(k as i32),
                n / 10usize.checked_pow(k)?,
            ),
        };
        if beyond < TAIL_MIN_BEYOND {
            break;
        }
        best = Some(Tail {
            percentile,
            value: sorted[n - beyond - 1],
            beyond,
            samples: n,
        });
    }
    best
}

/// True for a name the result line may carry: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metric values in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    ///
    /// # Errors
    ///
    /// Rejects an invalid or repeated metric name, or a value JSON cannot
    /// carry.
    pub fn result_line(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut fields = Vec::new();
        for (index, (name, value, unit)) in self.entries.iter().enumerate() {
            if !valid_metric_name(name) {
                return Err(format!("invalid metric name `{name}`"));
            }
            if self.entries[..index].iter().any(|(n, _, _)| n == name) {
                return Err(format!("metric `{name}` reported twice"));
            }
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert!((t.percentile - 99.0).abs() < 1e-9);
        assert_eq!((t.value, t.beyond, t.samples), (990.0, 10, 1000));

        // 999 samples: p99 leaves 9 beyond, so p90 is the tail.
        let t = tail(&ramp(999)).unwrap();
        assert!((t.percentile - 90.0).abs() < 1e-9);
        assert_eq!((t.value, t.beyond), (900.0, 99));

        // 100 000 samples reach p99.99 (10 beyond).
        let t = tail(&ramp(100_000)).unwrap();
        assert!((t.percentile - 99.99).abs() < 1e-9);
        assert_eq!(t.beyond, 10);

        // 25 samples: the median has 12 beyond, p90 only 2.
        let t = tail(&ramp(25)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 13.0, 12));

        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn percentile_and_median_use_nearest_rank() {
        assert_eq!(percentile(&ramp(10), 0.5), Some(5.0));
        assert_eq!(percentile(&ramp(10), 0.0), Some(1.0));
        assert_eq!(percentile(&ramp(10), 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "setup_s",
            "sched.list_ns_per_op",
            "a-b.c_9",
            "9lives",
            &"x".repeat(64),
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "has space",
            "ü",
            "a/b",
            "a:b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_json_and_rejects_bad_entries() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.9, "s");
        m.set("items_per_s", 12.5, "1/s");
        let line = m.result_line(true, 3, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.9, \"unit\": \"s\"}, \
             \"items_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        assert!(mdes_telemetry::json::Json::parse(&line).is_ok());

        m.set("setup_s", 1.0, "s");
        assert!(m.result_line(true, 1, 0).is_err());
        let mut m = Metrics::default();
        m.set("bad name", 1.0, "s");
        assert!(m.result_line(true, 1, 0).is_err());
        let mut m = Metrics::default();
        m.set("nan", f64::NAN, "s");
        assert!(m.result_line(true, 1, 0).is_err());
    }
}
