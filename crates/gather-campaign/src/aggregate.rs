//! Fold a campaign result set into the summary tables the analysis
//! crate renders: per-(controller, scheduler) scaling tables with one
//! row per family, plus a reliability table for runs that stalled,
//! panicked, or broke connectivity.
//!
//! [`summarize`] is input-agnostic: a merged shard set (the output of
//! `campaign merge`, see [`crate::merge`]) summarizes exactly like the
//! equivalent unsharded run, because records are pure functions of
//! their scenario and the tables never depend on record order. Merges
//! additionally render their per-shard provenance via
//! [`provenance_table`].

use std::collections::BTreeMap;

use gather_analysis::{linear_fit, loglog_slope, Table};
use grid_engine::{Phase, PHASE_COUNT};

use crate::merge::MergeReport;
use crate::record::ScenarioRecord;

/// Every run lands in exactly one outcome class, so the reliability
/// columns are disjoint and `gathered + stalled + disconnected +
/// panicked == runs` always holds (an earlier version counted a run
/// that was both unconnected and ungathered twice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Gathered,
    Stalled,
    Disconnected,
    Panicked,
}

fn classify(r: &ScenarioRecord) -> Outcome {
    if r.panicked {
        Outcome::Panicked
    } else if r.gathered {
        Outcome::Gathered
    } else if !r.connected {
        Outcome::Disconnected
    } else {
        Outcome::Stalled
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct FailureCell {
    runs: usize,
    gathered: usize,
    stalled: usize,
    disconnected: usize,
    panicked: usize,
}

impl FailureCell {
    fn add(&mut self, outcome: Outcome) {
        self.runs += 1;
        match outcome {
            Outcome::Gathered => self.gathered += 1,
            Outcome::Stalled => self.stalled += 1,
            Outcome::Disconnected => self.disconnected += 1,
            Outcome::Panicked => self.panicked += 1,
        }
    }

    fn failures(&self) -> usize {
        self.stalled + self.disconnected + self.panicked
    }
}

/// Per-family scaling tables (one per (controller, scheduler) pair, in
/// alphabetical order) followed by a reliability table when any run
/// failed. The `mean act/round` column is the scheduler-honest work
/// rate: ≈ n under FSYNC, ≈ p·n/100 under SSYNC, ≤ k under round-robin.
pub fn summarize(records: &[ScenarioRecord]) -> Vec<Table> {
    // (controller, scheduler) -> family -> n -> (rounds, activations)
    // of gathered runs.
    type Series = BTreeMap<usize, Vec<(u64, u64)>>;
    let mut groups: BTreeMap<(&str, &str), BTreeMap<&str, Series>> = BTreeMap::new();
    let mut failures: BTreeMap<(&str, &str, &str), FailureCell> = BTreeMap::new();

    for r in records {
        let outcome = classify(r);
        failures
            .entry((r.controller.as_str(), r.scheduler.as_str(), r.family.as_str()))
            .or_default()
            .add(outcome);
        if outcome != Outcome::Gathered {
            continue;
        }
        groups
            .entry((r.controller.as_str(), r.scheduler.as_str()))
            .or_default()
            .entry(r.family.as_str())
            .or_default()
            .entry(r.n)
            .or_default()
            .push((r.rounds, r.activations));
    }

    let mut tables = Vec::new();
    for (&(controller, scheduler), families) in &groups {
        let mut t = Table::new(
            format!(
                "Campaign scaling — controller `{controller}`, scheduler `{scheduler}` \
                 (gathered runs)"
            ),
            &[
                "family",
                "series (n -> mean rounds)",
                "rounds/n slope",
                "log-log exp",
                "mean act/round",
                "runs",
            ],
        );
        for (family, by_n) in families {
            let mut pts: Vec<(f64, f64)> = Vec::new();
            let mut series = String::new();
            let mut runs = 0usize;
            let mut total_rounds = 0u64;
            let mut total_acts = 0u64;
            for (&n, outcomes) in by_n {
                runs += outcomes.len();
                let mean =
                    outcomes.iter().map(|&(r, _)| r).sum::<u64>() as f64 / outcomes.len() as f64;
                // Records written before the scheduler axis existed
                // carry activations = 0; folding them into the work
                // rate would silently drag it below the true value, so
                // the rate is computed over measured records only.
                for &(r, a) in outcomes.iter().filter(|&&(_, a)| a > 0) {
                    total_rounds += r;
                    total_acts += a;
                }
                pts.push((n as f64, mean));
                series.push_str(&format!("{n}→{mean:.0} "));
            }
            let (slope, exp) = if pts.len() >= 2 {
                (
                    format!("{:.3}", linear_fit(&pts).coefficient),
                    format!("{:.2}", loglog_slope(&pts)),
                )
            } else {
                ("n/a".into(), "n/a".into())
            };
            let act_rate = if total_rounds > 0 {
                format!("{:.1}", total_acts as f64 / total_rounds as f64)
            } else {
                "n/a".into()
            };
            t.push(vec![
                family.to_string(),
                series.trim().to_string(),
                slope,
                exp,
                act_rate,
                runs.to_string(),
            ]);
        }
        tables.push(t);
    }

    if failures.values().any(|cell| cell.failures() > 0) {
        let mut t = Table::new(
            "Campaign reliability — non-gathering outcomes (columns are disjoint)",
            &[
                "controller",
                "scheduler",
                "family",
                "runs",
                "gathered",
                "stalled",
                "disconnected",
                "panicked",
            ],
        );
        for (&(controller, scheduler, family), cell) in &failures {
            if cell.failures() == 0 {
                continue;
            }
            debug_assert_eq!(
                cell.gathered + cell.failures(),
                cell.runs,
                "outcome classes must partition the runs"
            );
            t.push(vec![
                controller.to_string(),
                scheduler.to_string(),
                family.to_string(),
                cell.runs.to_string(),
                cell.gathered.to_string(),
                cell.stalled.to_string(),
                cell.disconnected.to_string(),
                cell.panicked.to_string(),
            ]);
        }
        tables.push(t);
    }

    tables
}

/// Engine phase-share table from records written by `campaign run
/// --perf`: one row per (family, n, scheduler), columns are each
/// phase's share of engine wall time plus attribution coverage, the
/// share of activations the engine computed rather than skipped as
/// quiet, and scenario throughput in robot activations per second. `Err` when no
/// record carries a perf block — summarizing a plain result file with
/// `--perf` is a pipeline mistake that should be loud, not an empty
/// table.
pub fn summarize_perf(records: &[ScenarioRecord]) -> Result<Vec<Table>, String> {
    struct PerfCell {
        runs: usize,
        wall_s: f64,
        secs: f64,
        activations: u64,
        computed: u64,
        phase_s: [f64; PHASE_COUNT],
    }

    // (family, n, scheduler) -> accumulated phase times.
    let mut groups: BTreeMap<(&str, usize, &str), PerfCell> = BTreeMap::new();
    for r in records {
        let Some(perf) = &r.perf else { continue };
        let cell =
            groups.entry((r.family.as_str(), r.n, r.scheduler.as_str())).or_insert(PerfCell {
                runs: 0,
                wall_s: 0.0,
                secs: 0.0,
                activations: 0,
                computed: 0,
                phase_s: [0.0; PHASE_COUNT],
            });
        cell.runs += 1;
        cell.wall_s += perf.wall_s;
        cell.secs += r.secs;
        cell.activations += r.activations;
        cell.computed += perf.computed;
        for (sum, s) in cell.phase_s.iter_mut().zip(&perf.phase_s) {
            *sum += s;
        }
    }
    if groups.is_empty() {
        return Err("no perf data in the result file (records carry phase profiles only when the \
             campaign ran with --perf)"
            .into());
    }

    let mut headers: Vec<&str> = vec!["family", "n", "scheduler", "runs", "wall s"];
    headers.extend(Phase::ALL.iter().map(|p| p.name()));
    headers.extend(["coverage", "computed/act", "activations/s"]);
    let mut t = Table::new(
        "Engine phase shares — fraction of engine wall time per phase (run --perf)",
        &headers,
    );
    for (&(family, n, scheduler), cell) in &groups {
        let share = |s: f64| {
            if cell.wall_s > 0.0 {
                format!("{:.1}%", s / cell.wall_s * 100.0)
            } else {
                "n/a".into()
            }
        };
        let mut row = vec![
            family.to_string(),
            n.to_string(),
            scheduler.to_string(),
            cell.runs.to_string(),
            format!("{:.3}", cell.wall_s),
        ];
        row.extend(Phase::ALL.iter().map(|&p| share(cell.phase_s[p as usize])));
        row.push(share(cell.phase_s.iter().sum()));
        // Every profiled run computes its first round, so 0 means the
        // records predate the count.
        row.push(if cell.computed > 0 && cell.activations > 0 {
            format!("{:.3}", cell.computed as f64 / cell.activations as f64)
        } else {
            "n/a".into()
        });
        row.push(if cell.secs > 0.0 {
            format!("{:.0}", cell.activations as f64 / cell.secs)
        } else {
            "n/a".into()
        });
        t.push(row);
    }
    Ok(vec![t])
}

/// Per-shard provenance of a verified merge: what each shard file
/// contributed, how many resumed duplicates were dropped, and how many
/// torn lines were skipped — the audit trail `campaign merge` prints
/// next to its coverage confirmation.
pub fn provenance_table(report: &MergeReport) -> Table {
    let mut t = Table::new(
        format!(
            "Merge provenance — campaign `{}`, {} shard(s), {} scenario(s), coverage verified",
            report.name, report.shard_count, report.total,
        ),
        &["shard", "file", "records", "duplicates dropped", "torn lines skipped"],
    );
    for shard in &report.shards {
        t.push(vec![
            format!("{}/{}", shard.shard_index, report.shard_count),
            shard.path.display().to_string(),
            shard.records.to_string(),
            shard.duplicates.to_string(),
            shard.skipped_lines.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;
    use gather_bench::{ControllerKind, Measurement, SchedulerKind};
    use gather_workloads::Family;

    fn rec_sched(
        family: Family,
        n: usize,
        seed: u64,
        rounds: u64,
        gathered: bool,
        connected: bool,
        scheduler: SchedulerKind,
    ) -> ScenarioRecord {
        let sc = Scenario { family, n, seed, controller: ControllerKind::Paper, scheduler };
        let m = Measurement {
            n,
            rounds,
            merges: n / 2,
            gathered,
            connected,
            activations: rounds * n as u64,
        };
        ScenarioRecord::from_measurement(&sc, &m)
    }

    fn rec(family: Family, n: usize, seed: u64, rounds: u64, gathered: bool) -> ScenarioRecord {
        rec_sched(family, n, seed, rounds, gathered, true, SchedulerKind::Fsync)
    }

    /// Parse one table cell, naming the table, row, and column (header
    /// included) on failure instead of unwinding through a bare
    /// `unwrap` chain with no context.
    fn cell<T: std::str::FromStr>(table: &Table, row: usize, col: usize) -> T
    where
        T::Err: std::fmt::Debug,
    {
        let at = |what: &str| -> String {
            let header = table.headers.get(col).map(String::as_str).unwrap_or("?");
            format!("table {:?}, row {row}, column {col} ({header}): {what}", table.title)
        };
        let cells = table.rows.get(row).unwrap_or_else(|| panic!("{}", at("row out of range")));
        let text = cells.get(col).unwrap_or_else(|| panic!("{}", at("column out of range")));
        text.parse().unwrap_or_else(|e| panic!("{}", at(&format!("{text:?} did not parse: {e:?}"))))
    }

    #[test]
    fn linear_series_summarised_with_unit_exponent() {
        let mut records = Vec::new();
        for n in [32usize, 64, 128, 256] {
            for seed in 0..3u64 {
                records.push(rec(Family::Line, n, seed, (2 * n) as u64 + seed, true));
            }
        }
        let tables = summarize(&records);
        assert_eq!(tables.len(), 1, "no reliability table for all-gathered");
        assert_eq!(tables[0].rows[0][0], "line");
        let slope: f64 = cell(&tables[0], 0, 2);
        assert!((slope - 2.0).abs() < 0.05, "slope {slope}");
        let exp: f64 = cell(&tables[0], 0, 3);
        assert!((exp - 1.0).abs() < 0.05, "exponent {exp}");
        let act_rate: f64 = cell(&tables[0], 0, 4);
        assert!(act_rate > 32.0, "FSYNC activation rate tracks n, got {act_rate}");
        assert_eq!(cell::<usize>(&tables[0], 0, 5), 12);
    }

    #[test]
    fn schedulers_get_their_own_tables() {
        let records = vec![
            rec(Family::Line, 32, 0, 64, true),
            rec(Family::Line, 64, 0, 128, true),
            rec_sched(Family::Line, 32, 0, 130, true, true, SchedulerKind::Ssync { p: 50 }),
            rec_sched(Family::Line, 64, 0, 260, true, true, SchedulerKind::Ssync { p: 50 }),
        ];
        let tables = summarize(&records);
        assert_eq!(tables.len(), 2, "one scaling table per (controller, scheduler)");
        assert!(tables[0].title.contains("`fsync`"));
        assert!(tables[1].title.contains("`ssync-p50`"));
    }

    #[test]
    fn failures_fold_into_reliability_table() {
        let records = vec![
            rec(Family::Line, 32, 0, 64, true),
            rec(Family::Line, 64, 0, 99999, false),
            ScenarioRecord::for_panic(&Scenario {
                family: Family::Square,
                n: 16,
                seed: 1,
                controller: ControllerKind::Center,
                scheduler: SchedulerKind::Fsync,
            }),
        ];
        let tables = summarize(&records);
        let reliability = tables.last().unwrap();
        assert!(reliability.title.contains("reliability"));
        assert_eq!(reliability.rows.len(), 2);
        assert_eq!(reliability.rows[0], vec!["center", "fsync", "square", "1", "0", "0", "0", "1"]);
        assert_eq!(reliability.rows[1], vec!["paper", "fsync", "line", "2", "1", "1", "0", "0"]);
    }

    #[test]
    fn outcome_columns_are_disjoint_and_sum_to_runs() {
        // A run that is both unconnected and ungathered used to be
        // counted in two columns at once; it must land in exactly one.
        let records = vec![
            rec_sched(Family::Line, 32, 0, 64, true, true, SchedulerKind::Fsync),
            // disconnected AND not gathered -> `disconnected` only.
            rec_sched(Family::Line, 32, 1, 500, false, false, SchedulerKind::Fsync),
            // not gathered but still connected -> `stalled` only.
            rec_sched(Family::Line, 32, 2, 500, false, true, SchedulerKind::Fsync),
            // gathered (diagonal pair can read as unconnected) -> success.
            rec_sched(Family::Line, 32, 3, 64, true, false, SchedulerKind::Fsync),
        ];
        let tables = summarize(&records);
        let reliability = tables.last().unwrap();
        assert_eq!(reliability.rows.len(), 1);
        let [runs, gathered, stalled, disconnected, panicked] =
            [3, 4, 5, 6, 7].map(|col| cell::<usize>(reliability, 0, col));
        assert_eq!((runs, gathered, stalled, disconnected, panicked), (4, 2, 1, 1, 0));
        assert_eq!(
            gathered + stalled + disconnected + panicked,
            runs,
            "outcome columns must partition the runs"
        );
    }

    #[test]
    fn legacy_records_without_activations_do_not_skew_the_work_rate() {
        // Pre-scheduler JSONL lines parse with activations = 0; the
        // mean act/round column must be computed from measured records
        // only, not diluted toward zero.
        let mut legacy = rec(Family::Line, 32, 0, 64, true);
        legacy.activations = 0;
        let measured_a = rec(Family::Line, 32, 1, 64, true); // 64·32 activations
        let measured_b = rec(Family::Line, 64, 0, 128, true); // 128·64 activations
        let tables = summarize(&[legacy.clone(), measured_a, measured_b]);
        let act_rate: f64 = cell(&tables[0], 0, 4);
        let expected = (64.0 * 32.0 + 128.0 * 64.0) / (64.0 + 128.0);
        assert!(
            (act_rate - expected).abs() < 0.05,
            "act/round {act_rate} diluted by the legacy record (expected {expected:.1})"
        );
        // An all-legacy series has no measured work at all.
        let tables = summarize(&[legacy]);
        assert_eq!(tables[0].rows[0][4], "n/a");
    }

    #[test]
    fn single_size_series_has_no_fit() {
        let records = vec![rec(Family::Line, 32, 0, 64, true)];
        let tables = summarize(&records);
        assert_eq!(tables[0].rows[0][2], "n/a");
    }

    #[test]
    fn perf_summary_renders_phase_shares() {
        use crate::record::PerfSummary;

        let mut with_perf = rec(Family::Line, 32, 0, 64, true);
        with_perf.secs = 2.0;
        // Fewer activations than 32 robots × 64 rounds: merges shrink
        // the swarm, and partial schedulers activate a subset.
        with_perf.activations = 1000;
        let mut perf =
            PerfSummary { wall_s: 1.0, rounds: 64, computed: 250, phase_s: [0.0; PHASE_COUNT] };
        perf.phase_s[Phase::Compute as usize] = 0.6;
        perf.phase_s[Phase::MergeDetect as usize] = 0.3;
        with_perf.perf = Some(perf);
        let plain = rec(Family::Line, 64, 0, 128, true);

        let tables = summarize_perf(&[with_perf, plain]).unwrap();
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 1, "records without perf are skipped");
        assert_eq!(&t.rows[0][..3], ["line", "32", "fsync"]);
        let compute_col = t.headers.iter().position(|h| h == "compute").unwrap();
        assert_eq!(t.rows[0][compute_col], "60.0%");
        let coverage_col = t.headers.iter().position(|h| h == "coverage").unwrap();
        assert_eq!(t.rows[0][coverage_col], "90.0%");
        let computed_col = t.headers.iter().position(|h| h == "computed/act").unwrap();
        assert_eq!(t.rows[0][computed_col], "0.250", "250 computed of 1000 activations");
        let tput_col = t.headers.iter().position(|h| h == "activations/s").unwrap();
        assert_eq!(t.rows[0][tput_col], "500", "1000 activations / 2 s");
    }

    #[test]
    fn perf_summary_without_perf_data_is_an_error() {
        let err = summarize_perf(&[rec(Family::Line, 32, 0, 64, true)]).unwrap_err();
        assert!(err.contains("--perf"), "{err}");
        let err = summarize_perf(&[]).unwrap_err();
        assert!(err.contains("no perf data"), "{err}");
    }

    #[test]
    fn provenance_table_lists_shards_in_index_order() {
        use crate::merge::{MergeReport, ShardContribution};
        use std::path::PathBuf;

        let report = MergeReport {
            name: "weak-sync".into(),
            shard_count: 2,
            total: 10,
            duplicates: 1,
            shards: vec![
                ShardContribution {
                    path: PathBuf::from("a.shard0of2.jsonl"),
                    shard_index: 0,
                    records: 6,
                    duplicates: 1,
                    skipped_lines: 0,
                },
                ShardContribution {
                    path: PathBuf::from("a.shard1of2.jsonl"),
                    shard_index: 1,
                    records: 4,
                    duplicates: 0,
                    skipped_lines: 1,
                },
            ],
        };
        let t = provenance_table(&report);
        assert!(t.title.contains("weak-sync") && t.title.contains("coverage verified"));
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0], vec!["0/2", "a.shard0of2.jsonl", "6", "1", "0"]);
        assert_eq!(t.rows[1], vec!["1/2", "a.shard1of2.jsonl", "4", "0", "1"]);
    }
}
