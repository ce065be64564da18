//! The metric catalogue and the result line.
//!
//! Every workload prints every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`), so one schema covers all three
//! workloads. A per-layer metric of a layer the workload never calls
//! reads 0 — which is how the traced run shows the workloads' isolation.

use crate::stats::{highest_percentile, mean, percentile};
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verdict_s", "s"),
    ("query_ms_mean", "ms"),
    ("samples_per_s", "samples/s"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("cmf.compile_ms", "ms"),
    ("datamgr.load_ms", "ms"),
    ("cmrts.run_ms_p50", "ms"),
    ("cmrts.runs", "count"),
    ("cmrts.steps", "count"),
    ("mcache.hit_ratio", "ratio"),
    ("sas.activations_per_run", "count"),
    ("sas.mapping_share", "ratio"),
    ("sas.ns_per_activation", "ns"),
    ("metrics.request_us", "us"),
    ("datamgr.refine_us", "us"),
    ("consultant.experiments", "count"),
    ("consultant.busy_ratio", "ratio"),
    ("consultant.render_ms", "ms"),
    ("wire.encode_ns_per_sample", "ns"),
    ("wire.bytes_per_sample", "bytes"),
    ("transport.frames", "count"),
    ("transport.send_ms", "ms"),
    ("transport.max_queue_depth", "frames"),
    ("daemonset.clock_sync_ms", "ms"),
    ("daemonset.drain_ns_per_sample", "ns"),
    ("daemonset.empty_pump_ratio", "ratio"),
    ("datamgr.lock_wait_ms", "ms"),
    ("datamgr.shard_skew", "ratio"),
    ("daemonset.merge_ms", "ms"),
    ("daemonset.streams_ms", "ms"),
    ("daemonset.coverage_ms", "ms"),
    ("relay.samples_per_batch", "samples"),
    ("relay.forwarded", "samples"),
    ("obs.overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.layer_coverage", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: sessions and queries, or samples sent.
    pub attempted: u64,
    /// Operations that failed a check or never completed.
    pub failed: u64,
    /// One line per failed check, with its cause.
    pub failures: Vec<String>,
    /// Frames the program rejected, with the cause: recorded, and failed
    /// only through the samples they carried.
    pub rejected: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Host and input facts printed beside the result.
    pub facts: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fact(&mut self, name: &'static str, value: f64) {
        self.facts.insert(name, value);
    }

    /// The query figures from per-query latencies: `query_ms_mean`, the
    /// end-to-end one, the per-layer `query_ms_p50` and `query_ms_p90`, and
    /// the highest percentile their count supports, as facts. The mean is
    /// the end-to-end figure because a shared host runs in phases of a few
    /// seconds that slow every operation by up to half: each millisecond
    /// query falls wholly in one phase, so the latencies are bimodal and a
    /// percentile jumps between the modes whenever the run's share of slow
    /// phases crosses it, while the mean moves only in proportion to that
    /// share.
    pub fn set_queries(&mut self, ms: &[f64]) {
        self.set("query_ms_mean", mean(ms));
        self.set("query_ms_p50", percentile(ms, 50.0));
        self.set("query_ms_p90", percentile(ms, 90.0));
        let tail = highest_percentile(ms.len());
        self.check(tail.is_some_and(|p| p >= 90.0), 0, || {
            format!("{} queries leave fewer than ten beyond p90", ms.len())
        });
        if let Some(p) = tail {
            self.fact("query_tail_percentile", p);
            self.fact("query_ms_tail", percentile(ms, p));
        }
        self.fact("queries", ms.len() as f64);
    }

    /// Records a failed check: `ops` operations lost to `cause`.
    pub fn fail(&mut self, ops: u64, cause: String) {
        self.failed += ops;
        self.failures.push(cause);
    }

    /// Records a frame the program rejected.
    pub fn reject(&mut self, cause: String) {
        self.rejected.push(cause);
        self.fact("rejected_frames", self.rejected.len() as f64);
    }

    /// Checks `ok`, recording `cause()` against `ops` operations if not.
    pub fn check(&mut self, ok: bool, ops: u64, cause: impl FnOnce() -> String) {
        if !ok {
            self.fail(ops, cause());
        }
    }

    /// The result line: every metric of the mode's catalogue, by name,
    /// with its unit. A missing end-to-end metric is a bug in the
    /// workload, so it panics rather than print a partial result.
    pub fn result_line(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("workload did not measure {name}"),
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The facts as one JSON object.
    pub fn facts_line(&self) -> String {
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
            .collect();
        format!("{{{}}}", facts.join(", "))
    }
}

/// A finite number in full precision (non-finite values, which JSON
/// cannot carry, print as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `VmHWM` of this process in MB, from `/proc/self/status`. Workloads read
/// it right after their first session: the allocator keeps per-thread
/// arenas' freed memory, so the peak keeps creeping up with every repeated
/// session and would measure how many sessions fit in the run rather than
/// what one session needs.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies across all CPUs so far, from `/proc/stat`: the
/// share of time a virtual machine's host ran something else instead.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Σ completed spans of every transport send site and of the machine's
/// step site, read from the program's own obs registry: the traced run's
/// proof that `consult` moves no frames and the fleet workloads run no
/// machine.
pub fn isolation_counts() -> (u64, u64) {
    let snap = pdmap_obs::snapshot();
    let count = |component: &str, verb: &str| {
        snap.sites
            .iter()
            .filter(|s| s.component.starts_with(component) && s.verb == verb)
            .map(|s| s.count)
            .sum::<u64>()
    };
    (count("transport/", "send"), count("cmrts", "step"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names every metric of the catalogue with the same
    /// unit, and nothing else.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let body = &json[start..json[start..].find(']').map(|e| start + e).expect(key)];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect(f) + 1;
                        let close = open + rest[open..].find('"').expect(f);
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut r = Report::default();
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.attempted = 3;
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"samples_per_s\": {\"value\": 1.5, \"unit\": \"samples/s\"}"));
        r.fail(2, "lost".into());
        assert!(r
            .result_line(true)
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2"));
        assert!(r
            .result_line(true)
            .contains("\"relay.forwarded\": {\"value\": 0, \"unit\": \"samples\"}"));
    }
}
