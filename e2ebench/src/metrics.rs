//! The declared metric lists (kept identical to `BENCHMARK.json`, which a
//! test checks) and the per-run report every workload fills in.

use std::collections::BTreeMap;

use crate::stats::{self, Spec};

/// End-to-end metrics, reported by every workload with tracing off.
/// `search_p99_ms` is measured too but only reported in the envelope: on
/// a shared 2-core host its run-to-run spread is wider than any bound the
/// benchmark may set.
pub const END_TO_END: &[Spec] = &[
    ("search_p50_ms", "ms"),
    ("ok_per_s", "1/s"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload from the traced run. A
/// layer a workload bypasses reads 0 there.
pub const PER_LAYER: &[Spec] = &[
    ("server.self_us.p50", "us"),
    ("server.self_us.p99", "us"),
    ("server.queue_wait_us.p50", "us"),
    ("server.batch_mean", "count"),
    ("server.dedup_share", "ratio"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.total_us.p50", "us"),
    ("engine.slots_paged_in_per_search", "count"),
    ("engine.bytes_paged_in_per_search", "B"),
    ("engine.resident_bytes", "B"),
    ("engine.epochs_published", "count"),
    ("vision.extract_us.p50", "us"),
    ("core.encode_us.p50", "us"),
    ("core.score_us.p50", "us"),
    ("core.quant_scanned_per_search", "count"),
    ("core.reranked_per_search", "count"),
    ("core.rerank_keep_ratio", "ratio"),
    ("index.prune_us.p50", "us"),
    ("store.open_s", "s"),
    ("store.wal_append_us.p50", "us"),
    ("store.wal_append_us.p99", "us"),
    ("store.wal_fsync_us.p50", "us"),
    ("store.wal_fsync_us.p99", "us"),
    ("store.checkpoints", "count"),
    ("store.checkpoint_ms.max", "ms"),
    ("store.wal_bytes_per_write", "B"),
    ("store.recover_s", "s"),
    ("obs.tracing_overhead_pct", "%"),
    ("obs.stage_sum_ratio", "ratio"),
];

/// One measured value with its provenance.
#[derive(Clone, Debug)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
    /// Samples the value was computed from.
    pub samples: u64,
    /// False when a percentile has fewer than ten samples beyond it.
    pub supported: bool,
}

/// Everything one run measured, by metric name, plus its correctness
/// checks.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Measured>,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Gateways started, and those whose drain lost an admitted search.
    pub servers: u64,
    pub undrained: u64,
}

impl Report {
    /// Records a plain value.
    pub fn put(&mut self, name: &str, unit: &str, value: f64, samples: u64) {
        self.metrics.insert(
            name.to_string(),
            Measured {
                value,
                unit: unit.to_string(),
                samples,
                supported: true,
            },
        );
    }

    /// Records a `q`-quantile computed over `samples` values, marking it
    /// unsupported when too few of them lie beyond it.
    pub fn put_quantile(&mut self, name: &str, unit: &str, value: f64, samples: u64, q: f64) {
        self.metrics.insert(
            name.to_string(),
            Measured {
                value,
                unit: unit.to_string(),
                samples,
                supported: stats::supports(samples as usize, q),
            },
        );
    }

    /// Records the `q`-quantile of ascending `sorted`, scaled by `scale`.
    pub fn put_pct(&mut self, name: &str, unit: &str, sorted: &[f64], q: f64, scale: f64) {
        let value = stats::percentile(sorted, q) * scale;
        self.put_quantile(name, unit, value, sorted.len() as u64, q);
    }

    /// Records one correctness check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        let detail = detail.into();
        if !passed {
            eprintln!("[e2ebench] CHECK FAILED {name}: {detail}");
        }
        self.checks.push((name.to_string(), passed, detail));
    }

    pub fn all_passed(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Metrics and checks as tab-separated lines, for the server process
    /// to hand its measurements to the load process.
    pub fn to_lines(&self) -> Vec<String> {
        let metrics = self.metrics.iter().map(|(name, m)| {
            format!(
                "metric\t{name}\t{}\t{}\t{}\t{}",
                m.unit, m.value, m.samples, m.supported
            )
        });
        let checks = self
            .checks
            .iter()
            .map(|(name, ok, detail)| format!("check\t{name}\t{ok}\t{detail}"));
        metrics.chain(checks).collect()
    }

    /// Merges one line of [`Report::to_lines`]; false when `line` is not
    /// one.
    pub fn merge_line(&mut self, line: &str) -> bool {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["metric", name, unit, value, samples, supported] => {
                let (Ok(value), Ok(samples), Ok(supported)) =
                    (value.parse(), samples.parse(), supported.parse())
                else {
                    return false;
                };
                self.metrics.insert(
                    name.to_string(),
                    Measured {
                        value,
                        unit: unit.to_string(),
                        samples,
                        supported,
                    },
                );
                true
            }
            ["check", name, ok, detail] => {
                let Ok(ok) = ok.parse() else { return false };
                self.checks.push((name.to_string(), ok, detail.to_string()));
                true
            }
            _ => false,
        }
    }

    /// Values by name, for the result line.
    pub fn values(&self) -> BTreeMap<String, f64> {
        self.metrics
            .iter()
            .map(|(k, m)| (k.clone(), m.value))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_round_trip() {
        let mut a = Report::default();
        a.put("setup_s", "s", 0.012_345_678_9, 7);
        a.put_quantile("store.wal_fsync_us.p99", "us", 933.887, 120, 0.99);
        a.check(
            "drain_answered_every_search",
            true,
            "0 of 3 gateways lost searches",
        );
        a.check("warmup_answered", false, "3 of 4 warm-up searches answered");
        let mut b = Report::default();
        for line in a.to_lines() {
            assert!(b.merge_line(&line), "{line}");
        }
        assert!(!b.merge_line("ready 127.0.0.1:80"));
        assert!(!b.merge_line("metric\tx\tms\tnot-a-number\t1\ttrue"));
        assert_eq!(b.checks, a.checks);
        for (name, m) in &a.metrics {
            let got = &b.metrics[name];
            assert_eq!(got.value.to_bits(), m.value.to_bits(), "{name}");
            assert_eq!(
                (&got.unit, got.samples, got.supported),
                (&m.unit, m.samples, m.supported)
            );
        }
        assert!(!b.metrics["store.wal_fsync_us.p99"].supported);
        assert!(!b.all_passed());
    }
}
