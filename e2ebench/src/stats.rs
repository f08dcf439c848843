//! Small numeric and output helpers: nearest-rank percentiles with the
//! "at least ten samples beyond" support rule, the name/unit charset the
//! result line must respect, and the result line itself.

use std::collections::BTreeMap;

/// Samples that must lie beyond a reported percentile for it to count as
/// supported by the run.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (1-based) of the `q`-quantile among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `q`-quantile of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the `q`-quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// True when `n` samples support reporting the `q`-quantile.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// `v` sorted ascending (NaN-free inputs only).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a small set of repeated measurements.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Interquartile mean: the mean of the middle half of `v` (all of `v`
/// when it has fewer than four values). Robust to bursts like a median,
/// but keeps the resolution of a mean.
pub fn iq_mean(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let q = s.len() / 4;
    let mid = if s.len() >= 4 {
        &s[q..s.len() - q]
    } else {
        &s[..]
    };
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// Groups `vals` into `bins` equal time bins over `[0, span_s)` by their
/// timestamps `at` (parallel to `vals`); values timed at or after
/// `span_s` are dropped.
pub fn bin_by_time(at: &[f64], vals: &[f64], bins: usize, span_s: f64) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); bins.max(1)];
    let width = span_s / out.len() as f64;
    for (&t, &v) in at.iter().zip(vals) {
        if (0.0..span_s).contains(&t) {
            let i = ((t / width) as usize).min(out.len() - 1);
            out[i].push(v);
        }
    }
    out
}

/// Metric and workload names: a letter or digit first, then at most 63
/// more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    s.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One declared metric: name and unit.
pub type Spec = (&'static str, &'static str);

/// Formats a finite number with every digit Rust's shortest round-trip
/// printing keeps (non-finite values are a bug upstream and print as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every declared metric with its unit.
/// Fails when a declared metric was not measured or its name or unit
/// breaks the charset.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[Spec],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!(
                "metric {name} ({unit}) breaks the name or unit charset"
            ));
        }
        let v = values
            .get(*name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        parts.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use lcdd_server::json::{parse, Json};

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iq_mean(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(iq_mean(&[1.0, 2.0]), 1.5);
        assert_eq!(iq_mean(&[]), 0.0);
    }

    #[test]
    fn time_bins_split_the_window_and_drop_the_overrun() {
        let at = [0.0, 0.4, 0.5, 0.99, 1.5, 2.0, 7.0];
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let bins = bin_by_time(&at, &vals, 2, 2.0);
        assert_eq!(bins, vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0]]);
        assert_eq!(bin_by_time(&at, &vals, 0, 2.0).len(), 1);
    }

    #[test]
    fn support_rule_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.99), 1);
        assert!(!supports(100, 0.99));
        assert!(!supports(999, 0.99));
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn name_and_unit_charsets() {
        for ok in [
            "hot-96",
            "cold-100k",
            "search_p50_ms",
            "store.wal_append_us.p99",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "a%", long.as_str(), "é"] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "B"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-of-wallclock", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn declared_metrics_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        for w in crate::Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
        }
    }

    /// Every metric the result line declares parses back with its unit,
    /// and a missing one is refused rather than silently dropped.
    #[test]
    fn result_line_parses_with_every_metric() {
        for declared in [END_TO_END, PER_LAYER] {
            let values: BTreeMap<String, f64> = declared
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (n.to_string(), 0.125 + i as f64))
                .collect();
            let line = result_line(true, 10, 0, declared, &values).expect("all measured");
            let doc = parse(&line).expect("result line is JSON");
            let Json::Obj(fields) = &doc else {
                panic!("result is an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
            let metrics = doc.get("metrics").expect("metrics");
            for (i, (name, unit)) in declared.iter().enumerate() {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                assert_eq!(
                    m.get("value").and_then(Json::as_f64),
                    Some(0.125 + i as f64)
                );
            }
            let mut short = values.clone();
            short.remove(declared[0].0);
            assert!(result_line(true, 10, 0, declared, &short).is_err());
        }
    }

    /// The metric lists in code and in `BENCHMARK.json` are the same, in
    /// the same order, with the same units.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = parse(&text).expect("BENCHMARK.json is JSON");
        for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let code: Vec<(String, String)> = declared
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                listed, code,
                "{key} differs between code and BENCHMARK.json"
            );
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let code: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, code);
    }
}
