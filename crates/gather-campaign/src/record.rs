//! The per-scenario result record and its JSONL wire format.

use gather_analysis::{parse_flat_json, JsonObjWriter};
use gather_bench::Measurement;
use grid_engine::{Phase, ProfileTotals, PHASE_COUNT};

use crate::spec::Scenario;

/// Aggregated phase profile of one scenario run, attached to its record
/// by `campaign run --perf`. All durations in seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfSummary {
    /// Wall time spent inside the engine's `step()` calls.
    pub wall_s: f64,
    /// Rounds the profile covers.
    pub rounds: u64,
    /// Robots the engine computed over those rounds (activated robots
    /// that were not quiet); 0 in records written before the field.
    pub computed: u64,
    /// Per-phase attributed time, indexed by `Phase as usize`.
    pub phase_s: [f64; PHASE_COUNT],
}

impl PerfSummary {
    /// Convert the engine's accumulated totals (nanoseconds) into the
    /// record's second-denominated summary.
    pub fn from_totals(t: &ProfileTotals) -> Self {
        let mut phase_s = [0.0; PHASE_COUNT];
        for phase in Phase::ALL {
            phase_s[phase as usize] = t.phase_ns[phase as usize] as f64 / 1e9;
        }
        PerfSummary {
            wall_s: t.wall_ns as f64 / 1e9,
            rounds: t.rounds,
            computed: t.computed,
            phase_s,
        }
    }

    /// Fraction of engine wall time attributed to named phases.
    pub fn coverage(&self) -> f64 {
        if self.wall_s == 0.0 {
            1.0
        } else {
            self.phase_s.iter().sum::<f64>() / self.wall_s
        }
    }
}

/// Outcome of one scenario, as streamed to the result file. The default
/// fields are a pure function of the scenario, so default records are
/// byte-identical across runs and thread counts. The timing fields
/// (`secs`, `perf`) are strictly opt-in — they serialize only when set,
/// so plain runs keep byte-reproducible result files and `--perf`
/// explicitly trades that for wall-clock data.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioRecord {
    /// Stable scenario ID (`family/n<size>/s<seed>/<controller>` for
    /// FSYNC, with a fifth `/<scheduler>` segment otherwise).
    pub id: String,
    pub family: String,
    pub controller: String,
    /// Activation policy name (`fsync`, `ssync-p50`, `rr4`). Absent in
    /// pre-scheduler result files, which parse as `fsync`.
    pub scheduler: String,
    /// Requested swarm size (the generator's target).
    pub n_requested: usize,
    pub seed: u64,
    /// Actual swarm size.
    pub n: usize,
    /// Rounds until gathered, or until the run stopped.
    pub rounds: u64,
    pub merges: usize,
    /// Total robot activations (the scheduler-honest work measure).
    /// Absent in pre-scheduler result files, which parse as 0.
    pub activations: u64,
    pub gathered: bool,
    /// Whether the swarm was still connected when the run ended.
    pub connected: bool,
    /// True when the job panicked (isolated by the executor); all
    /// numeric result fields are zero in that case (`secs` still
    /// carries the real elapsed time under `--perf`).
    pub panicked: bool,
    /// Executor-measured wall time of the job, seconds. `0.0` means
    /// "not measured" and is omitted from the JSON line, keeping
    /// default records byte-identical with pre-perf result files.
    pub secs: f64,
    /// Engine phase breakdown, present only under `--perf` (and only
    /// when the run had engine rounds — the greedy baseline has none).
    pub perf: Option<PerfSummary>,
}

impl ScenarioRecord {
    pub fn from_measurement(sc: &Scenario, m: &Measurement) -> Self {
        ScenarioRecord {
            id: sc.id(),
            family: sc.family.name().to_string(),
            controller: sc.controller.name().to_string(),
            scheduler: sc.scheduler.name(),
            n_requested: sc.n,
            seed: sc.seed,
            n: m.n,
            rounds: m.rounds,
            merges: m.merges,
            activations: m.activations,
            gathered: m.gathered,
            connected: m.connected,
            panicked: false,
            secs: 0.0,
            perf: None,
        }
    }

    /// Record for a job whose controller panicked.
    pub fn for_panic(sc: &Scenario) -> Self {
        ScenarioRecord {
            id: sc.id(),
            family: sc.family.name().to_string(),
            controller: sc.controller.name().to_string(),
            scheduler: sc.scheduler.name(),
            n_requested: sc.n,
            seed: sc.seed,
            n: 0,
            rounds: 0,
            merges: 0,
            activations: 0,
            gathered: false,
            connected: false,
            panicked: true,
            secs: 0.0,
            perf: None,
        }
    }

    /// One line of the campaign JSONL stream (no trailing newline).
    /// The timing fields serialize only when set, so a record produced
    /// without `--perf` emits exactly the pre-perf byte layout.
    pub fn to_json_line(&self) -> String {
        let mut w = JsonObjWriter::new()
            .field_str("id", &self.id)
            .field_str("family", &self.family)
            .field_str("controller", &self.controller)
            .field_str("scheduler", &self.scheduler)
            .field_usize("n_requested", self.n_requested)
            .field_u64("seed", self.seed)
            .field_usize("n", self.n)
            .field_u64("rounds", self.rounds)
            .field_usize("merges", self.merges)
            .field_u64("activations", self.activations)
            .field_bool("gathered", self.gathered)
            .field_bool("connected", self.connected)
            .field_bool("panicked", self.panicked);
        if self.secs != 0.0 {
            w = w.field_f64("secs", self.secs);
        }
        if let Some(perf) = &self.perf {
            w = w
                .field_f64("perf_wall_s", perf.wall_s)
                .field_u64("perf_rounds", perf.rounds)
                .field_u64("perf_computed", perf.computed);
            for phase in Phase::ALL {
                w = w.field_f64(&format!("perf_{}_s", phase.name()), perf.phase_s[phase as usize]);
            }
        }
        w.finish()
    }

    /// Parse one line; `Err` covers malformed and truncated lines.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let map = parse_flat_json(line)?;
        let str_field = |key: &str| -> Result<String, String> {
            map.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            map.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("missing integer field {key:?}"))
        };
        let bool_field = |key: &str| -> Result<bool, String> {
            map.get(key)
                .and_then(|v| v.as_bool())
                .ok_or_else(|| format!("missing bool field {key:?}"))
        };
        let f64_field = |key: &str| map.get(key).and_then(|v| v.as_f64());
        // A record carries a perf block iff its anchor field is present
        // (phase fields default to 0.0 so the format can grow phases).
        let perf = f64_field("perf_wall_s").map(|wall_s| {
            let mut phase_s = [0.0; PHASE_COUNT];
            for phase in Phase::ALL {
                phase_s[phase as usize] =
                    f64_field(&format!("perf_{}_s", phase.name())).unwrap_or(0.0);
            }
            PerfSummary {
                wall_s,
                rounds: map.get("perf_rounds").and_then(|v| v.as_u64()).unwrap_or(0),
                computed: map.get("perf_computed").and_then(|v| v.as_u64()).unwrap_or(0),
                phase_s,
            }
        });
        Ok(ScenarioRecord {
            id: str_field("id")?,
            family: str_field("family")?,
            controller: str_field("controller")?,
            // Written before the scheduler axis existed? FSYNC, 0 work
            // recorded — old result files must keep resuming.
            scheduler: str_field("scheduler").unwrap_or_else(|_| "fsync".to_string()),
            n_requested: u64_field("n_requested")? as usize,
            seed: u64_field("seed")?,
            n: u64_field("n")? as usize,
            rounds: u64_field("rounds")?,
            merges: u64_field("merges")? as usize,
            activations: u64_field("activations").unwrap_or(0),
            gathered: bool_field("gathered")?,
            connected: bool_field("connected")?,
            panicked: bool_field("panicked")?,
            secs: f64_field("secs").unwrap_or(0.0),
            perf,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_bench::ControllerKind;
    use gather_workloads::Family;

    fn sample() -> ScenarioRecord {
        let sc = Scenario {
            family: Family::RandomBlob,
            n: 96,
            seed: 7,
            controller: ControllerKind::Center,
            scheduler: gather_bench::SchedulerKind::Ssync { p: 50 },
        };
        let m = Measurement {
            n: 96,
            rounds: 412,
            merges: 95,
            gathered: true,
            connected: true,
            activations: 19_776,
        };
        ScenarioRecord::from_measurement(&sc, &m)
    }

    #[test]
    fn json_round_trip() {
        let rec = sample();
        let line = rec.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(ScenarioRecord::from_json_line(&line).unwrap(), rec);
    }

    #[test]
    fn truncated_lines_fail_to_parse() {
        let line = sample().to_json_line();
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(ScenarioRecord::from_json_line(&line[..cut]).is_err());
        }
    }

    #[test]
    fn panic_record_is_marked() {
        let sc = Scenario {
            family: Family::Line,
            n: 10,
            seed: 0,
            controller: ControllerKind::Paper,
            scheduler: gather_bench::SchedulerKind::Fsync,
        };
        let rec = ScenarioRecord::for_panic(&sc);
        assert!(rec.panicked && !rec.gathered);
        let back = ScenarioRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn missing_fields_rejected() {
        assert!(ScenarioRecord::from_json_line(r#"{"id":"x"}"#).is_err());
    }

    #[test]
    fn default_records_keep_the_pre_perf_byte_layout() {
        // The opt-in contract: a record without timing must serialize
        // with no `secs`/`perf_*` fields at all — byte-for-byte the
        // pre-perf format, so byte-comparing result files stays valid.
        let line = sample().to_json_line();
        assert!(!line.contains("secs"), "{line}");
        assert!(!line.contains("perf"), "{line}");
        assert!(line.ends_with(r#""panicked":false}"#), "{line}");
    }

    #[test]
    fn perf_fields_round_trip() {
        let mut rec = sample();
        rec.secs = 1.25;
        let mut perf =
            PerfSummary { wall_s: 1.2, rounds: 412, computed: 9_000, phase_s: [0.0; PHASE_COUNT] };
        for (i, slot) in perf.phase_s.iter_mut().enumerate() {
            *slot = 0.125 * (i as f64 + 1.0);
        }
        rec.perf = Some(perf);
        let line = rec.to_json_line();
        assert!(line.contains(r#""secs":1.25"#), "{line}");
        assert!(line.contains(r#""perf_compute_s":0.25"#), "{line}");
        assert!(line.contains(r#""perf_computed":9000"#), "{line}");
        assert_eq!(ScenarioRecord::from_json_line(&line).unwrap(), rec);
    }

    #[test]
    fn perf_summary_from_totals_converts_ns_to_seconds() {
        let mut totals = ProfileTotals {
            rounds: 10,
            wall_ns: 2_000_000_000,
            computed: 321,
            ..Default::default()
        };
        totals.phase_ns[Phase::Compute as usize] = 1_500_000_000;
        let perf = PerfSummary::from_totals(&totals);
        assert_eq!(perf.rounds, 10);
        assert_eq!(perf.computed, 321);
        assert!((perf.wall_s - 2.0).abs() < 1e-9);
        assert!((perf.phase_s[Phase::Compute as usize] - 1.5).abs() < 1e-9);
        assert!((perf.coverage() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn legacy_pre_scheduler_lines_parse_as_fsync() {
        // A verbatim line from a result file written before the
        // scheduler axis existed: no `scheduler`, no `activations`.
        let line = r#"{"id":"line/n16/s1/paper","family":"line","controller":"paper","n_requested":16,"seed":1,"n":16,"rounds":7,"merges":14,"gathered":true,"connected":true,"panicked":false}"#;
        let rec = ScenarioRecord::from_json_line(line).unwrap();
        assert_eq!(rec.scheduler, "fsync");
        assert_eq!(rec.activations, 0);
        assert_eq!(rec.id, "line/n16/s1/paper");
        assert_eq!(rec.rounds, 7);
        // And the legacy ID is exactly what the FSYNC scenario produces
        // today, so resume skips it.
        let sc = Scenario {
            family: Family::Line,
            n: 16,
            seed: 1,
            controller: ControllerKind::Paper,
            scheduler: gather_bench::SchedulerKind::Fsync,
        };
        assert_eq!(sc.id(), rec.id);
    }
}
