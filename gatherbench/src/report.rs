//! The metric registry, the run stamp and the result line.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// Metric values by name; units come from the registries below.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one of them; see README.md for each workload's
/// definition of a pass.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("gather_s", "s"), ("activations_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`): name and unit. A layer the workload
/// does not pass through reports 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("workloads.gen_ns_per_robot", "ns"),
    ("swarm.build_ns_per_robot", "ns"),
    ("tile.count", "count"),
    ("view.new_ns", "ns"),
    ("engine.compute_ns_per_act", "ns"),
    ("engine.targets_ns_per_act", "ns"),
    ("engine.merge_detect_ns_per_act", "ns"),
    ("engine.rebuild_ns_per_act", "ns"),
    ("engine.compact_ns_per_act", "ns"),
    ("engine.activate_ns_per_act", "ns"),
    ("engine.active_list_ns_per_act", "ns"),
    ("engine.shard_gap_ns_per_round", "ns"),
    ("engine.compact_gap_ns_per_round", "ns"),
    ("engine.invariants_ns_per_round", "ns"),
    ("engine.round_ms.p50", "ms"),
    ("engine.start_round_ms", "ms"),
    ("engine.activations", "count"),
    ("engine.merges", "count"),
    ("engine.moves", "count"),
    ("parallel.compute_speedup", "ratio"),
    ("connectivity.ns_per_robot", "ns"),
    ("core.decide_ns", "ns"),
    ("core.decide_ns.start_round", "ns"),
    ("core.merge_check_ns", "ns"),
    ("core.merge_hit_ratio", "ratio"),
    ("core.plan_path_ns", "ns"),
    ("core.run_holders_frac", "ratio"),
    ("center.decide_ns", "ns"),
    ("spec.expand_ms", "ms"),
    ("executor.busy_frac", "ratio"),
    ("scenario_ms.p50", "ms"),
    ("scenario_ms.p95", "ms"),
    ("sink.write_us", "us"),
    ("service.busy_frac", "ratio"),
    ("service.scenarios_per_lease", "ratio"),
    ("cache.store_us", "us"),
    ("cache.lookup_us", "us"),
    ("service.resubmit_ms", "ms"),
    ("work.rounds_to_gather", "rounds"),
    ("work.gathered_frac", "ratio"),
    ("overhead.setup_s", "ratio"),
    ("overhead.gather_s", "ratio"),
    ("overhead.activations_per_s", "ratio"),
    ("overhead.peak_rss_mb", "ratio"),
];

/// What ran a result: enough to tell two results apart after the fact.
#[derive(Clone, Debug)]
pub struct Stamp {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    /// `std::thread::available_parallelism` as seen by this process.
    pub cores: usize,
    /// Compute threads the workload used (never more than `cores`).
    pub threads: usize,
    pub rustc: &'static str,
    pub commit: String,
}

impl Stamp {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"tiny\":{},\
             \"cores\":{},\"threads\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.tiny,
            self.cores,
            self.threads,
            self.rustc,
            self.commit,
        )
    }
}

/// Cores this process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Commit of the checkout the benchmark runs in, or `unknown` outside a
/// git work tree (the benchmark may run from an exported tree).
pub fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The contract's last stdout line: verdict, operation counts and every
/// metric of `registry` with its unit. A metric missing from `values`
/// or not finite is reported as 0 and counted as a failed operation.
pub fn result_line(
    attempted: u64,
    failed: u64,
    registry: &[(&'static str, &'static str)],
    values: &Metrics,
) -> (String, u64) {
    let mut failed = failed;
    let mut fields = Vec::with_capacity(registry.len());
    for &(name, unit) in registry {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                failed += 1;
                0.0
            }
        };
        fields.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted.max(1),
        fields.join(","),
    );
    (line, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json must declare exactly the metrics this registry
    /// emits, with the same units.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field present");
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("string value") + 1;
                        let close = open + rest[open..].find('"').expect("closing quote");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |r: &[(&str, &str)]| -> Vec<(String, String)> {
            r.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_reports_every_metric_and_counts_gaps() {
        let mut values = Metrics::new();
        values.insert("setup_s", 0.5);
        values.insert("gather_s", 2.25);
        values.insert("activations_per_s", f64::NAN);
        let (line, failed) = result_line(4, 0, &END_TO_END, &values);
        // NaN and the missing peak_rss_mb are both failures.
        assert_eq!(failed, 2);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":4,\"failed\":2,"), "{line}");
        assert!(line.contains("\"gather_s\":{\"value\":2.25,\"unit\":\"s\"}"), "{line}");
        assert!(line.contains("\"peak_rss_mb\":{\"value\":0,\"unit\":\"MB\"}"), "{line}");
        let parsed_keys = line.matches("\"unit\"").count();
        assert_eq!(parsed_keys, END_TO_END.len());
    }
}
