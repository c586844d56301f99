//! Campaign-level trace operations: the trace file a recorded scenario
//! streams into ([`Scenario::execute`] with a trace directory), replay
//! of a trace against a live re-execution, and trace-set diffing.
//!
//! One trace file per scenario (`<id with '/' → '__'>.gtrc`) keeps the
//! writers contention-free under the work-stealing executor and makes a
//! trace set a plain directory that can be copied, archived next to a
//! result JSONL, or diffed against a set recorded by a different build.

use std::cell::RefCell;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use gather_bench::RunSpec;
use gather_trace::{
    divergence_between, RoundDivergence, TraceError, TraceHeader, TraceReader, TraceWriter,
};
use grid_engine::{BoxedRoundObserver, Point, RoundRecord};

use crate::spec::Scenario;

/// File name a scenario's trace is stored under: the scenario ID with
/// path separators flattened (`line/n16/s1/paper` → `line__n16__s1__paper.gtrc`).
pub fn trace_file_name(id: &str) -> String {
    format!("{}.gtrc", id.replace('/', "__"))
}

/// `.gtrc` files directly inside `dir`, sorted by file name so replay
/// and diff reports are stable.
pub fn list_trace_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().is_some_and(|e| e == "gtrc") && path.is_file()).then_some(path)
        })
        .collect();
    out.sort();
    Ok(out)
}

/// Where a trace directory's shard manifest lives: *inside* the
/// directory (unlike the result file's `.manifest.json` sibling), so
/// copying or archiving the directory keeps the coverage proof with the
/// traces it describes. The name has no `.gtrc` extension, so
/// [`list_trace_files`] and [`clean_trace_dir`] never confuse it for a
/// trace.
pub fn trace_manifest_path(dir: &Path) -> PathBuf {
    dir.join("shard.manifest.json")
}

/// Write (or overwrite) the trace-set manifest for `dir`. Same protocol
/// as the result-file sidecar: once with `complete: false` when the
/// recording starts, again with `complete: true` after the last trace
/// is renamed into place.
pub fn write_trace_manifest(dir: &Path, manifest: &crate::shard::ShardManifest) -> io::Result<()> {
    let mut text = manifest.to_json();
    text.push('\n');
    fs::write(trace_manifest_path(dir), text)
}

/// Read the trace-set manifest of `dir`; `Ok(None)` when there is none
/// (trace sets recorded before the sharded-trace subsystem).
pub fn read_trace_manifest(dir: &Path) -> Result<Option<crate::shard::ShardManifest>, String> {
    let path = trace_manifest_path(dir);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    crate::shard::ShardManifest::from_json(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// A `.gtrc` being written by a running engine: rounds stream from the
/// engine's observer into a `.gtrc.tmp` name, and [`TraceFile::finish`]
/// renames the file into place only after a clean finish. A panicking
/// controller unwinds straight past `finish`, and the torn file it
/// abandons must not read as a (corrupt) trace by `replay`/`diff`,
/// which match on the `.gtrc` extension. Used by
/// [`Scenario::execute`] and the [`crate::smoke`] recorder — one copy
/// of this protocol, not two.
pub(crate) struct TraceFile {
    sink: Rc<RefCell<TraceSink>>,
    tmp: PathBuf,
    path: PathBuf,
}

/// The observer's half of a [`TraceFile`]. The first write error
/// latches: the writer is dropped and the error surfaces from
/// [`TraceFile::finish`] (observers cannot return errors mid-round).
struct TraceSink {
    writer: Option<TraceWriter<BufWriter<File>>>,
    error: Option<io::Error>,
}

impl TraceFile {
    /// Start `sc`'s trace in `dir`; `points` is its generated swarm.
    pub(crate) fn create(sc: &Scenario, points: &[Point], dir: &Path) -> io::Result<TraceFile> {
        let header = TraceHeader {
            scenario_id: sc.id(),
            seed: sc.seed,
            config_digest: sc.config_digest_with(points.len()),
            initial: points.to_vec(),
        };
        Self::with_header(dir.join(trace_file_name(&header.scenario_id)), &header)
    }

    /// Start a trace with `header` that lands at `path`.
    pub(crate) fn with_header(path: PathBuf, header: &TraceHeader) -> io::Result<TraceFile> {
        let tmp = path.with_extension("gtrc.tmp");
        match File::create(&tmp).and_then(|f| TraceWriter::new(BufWriter::new(f), header)) {
            Ok(writer) => {
                let sink = TraceSink { writer: Some(writer), error: None };
                Ok(TraceFile { sink: Rc::new(RefCell::new(sink)), tmp, path })
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// The engine observer that streams each round into the file.
    pub(crate) fn observer(&self) -> BoxedRoundObserver {
        let sink = self.sink.clone();
        Box::new(move |rec: &RoundRecord| {
            let sink = &mut *sink.borrow_mut();
            if let Some(writer) = sink.writer.as_mut() {
                if let Err(e) = writer.write_round(rec) {
                    sink.error = Some(e);
                    sink.writer = None;
                }
            }
        })
    }

    /// Close the trace and rename it into place, returning its path.
    /// On any write error the partial file is removed instead.
    pub(crate) fn finish(self) -> io::Result<PathBuf> {
        let error = {
            let sink = &mut *self.sink.borrow_mut();
            sink.error.take().or_else(|| sink.writer.take().and_then(|w| w.finish().err()))
        }
        .or_else(|| fs::rename(&self.tmp, &self.path).err());
        match error {
            None => Ok(self.path),
            Some(e) => {
                let _ = fs::remove_file(&self.tmp);
                Err(e)
            }
        }
    }
}

/// How a replayed trace compared against its live re-execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayStatus {
    /// Every round was bit-identical.
    Match { rounds: u64 },
    /// First divergence between the recording and the re-execution.
    Diverged(RoundDivergence),
    /// The trace could not be checked at all (unreadable, version
    /// mismatch, unparseable scenario ID, config-digest drift).
    Error(String),
}

/// Result of replaying one trace file.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    pub path: PathBuf,
    /// Scenario ID from the header (empty when the header is unreadable).
    pub id: String,
    pub status: ReplayStatus,
}

struct ReplayState {
    reader: TraceReader<BufReader<File>>,
    divergence: Option<RoundDivergence>,
    error: Option<String>,
    rounds: u64,
}

impl ReplayState {
    fn compare(&mut self, live: &RoundRecord) {
        if self.divergence.is_some() || self.error.is_some() {
            return;
        }
        self.rounds += 1;
        match self.reader.next_round() {
            Err(e) => self.error = Some(e.to_string()),
            Ok(None) => {
                self.divergence = Some(RoundDivergence {
                    round: live.round,
                    robot: None,
                    detail: "live re-execution ran more rounds than the trace".into(),
                });
            }
            Ok(Some(recorded)) => self.divergence = divergence_between(&recorded, live),
        }
    }
}

/// Re-execute the scenario a trace was recorded from and verify every
/// round is bit-identical, streaming (the recorded rounds are never
/// held in memory at once).
pub fn replay_trace(path: &Path) -> ReplayReport {
    let report = |id: &str, status: ReplayStatus| ReplayReport {
        path: path.to_path_buf(),
        id: id.to_string(),
        status,
    };
    let reader = match File::open(path)
        .map_err(TraceError::Io)
        .and_then(|f| TraceReader::new(BufReader::new(f)))
    {
        Ok(r) => r,
        Err(e) => return report("", ReplayStatus::Error(e.to_string())),
    };
    let id = reader.header().scenario_id.clone();
    let Some(sc) = Scenario::parse_id(&id) else {
        return report(&id, ReplayStatus::Error(format!("unparseable scenario ID {id:?}")));
    };
    if reader.header().seed != sc.seed {
        return report(&id, ReplayStatus::Error("header seed contradicts the scenario ID".into()));
    }
    let points = sc.points();
    if reader.header().config_digest != sc.config_digest_with(points.len()) {
        return report(
            &id,
            ReplayStatus::Error(
                "config digest mismatch: the scenario definition (generator, budget or ID \
                 scheme) changed since this trace was recorded"
                    .into(),
            ),
        );
    }
    if let Some(robot) = first_position_difference(&reader.header().initial, &points) {
        return report(
            &id,
            ReplayStatus::Diverged(RoundDivergence {
                round: 0,
                robot: Some(robot),
                detail: "initial positions differ from the scenario generator".into(),
            }),
        );
    }
    let budget = sc.budget(points.len());
    let state =
        Rc::new(RefCell::new(ReplayState { reader, divergence: None, error: None, rounds: 0 }));
    let observer = {
        let state = state.clone();
        Box::new(move |rec: &RoundRecord| state.borrow_mut().compare(rec))
    };
    RunSpec::new(sc.controller, &points)
        .scheduler(sc.scheduler)
        .seed(sc.seed)
        .budget(budget)
        .observer(observer)
        .run();
    let mut state =
        Rc::try_unwrap(state).ok().expect("engine dropped its observer clone").into_inner();
    if let Some(e) = state.error {
        return report(&id, ReplayStatus::Error(e));
    }
    if let Some(d) = state.divergence {
        return report(&id, ReplayStatus::Diverged(d));
    }
    // The live run is done; any recorded rounds left over are drift too.
    match state.reader.next_round() {
        Err(e) => report(&id, ReplayStatus::Error(e.to_string())),
        Ok(Some(extra)) => report(
            &id,
            ReplayStatus::Diverged(RoundDivergence {
                round: extra.round,
                robot: None,
                detail: "trace has more rounds than the live re-execution".into(),
            }),
        ),
        Ok(None) => report(&id, ReplayStatus::Match { rounds: state.rounds }),
    }
}

fn first_position_difference(a: &[Point], b: &[Point]) -> Option<u32> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()) as u32);
    }
    a.iter().zip(b).position(|(x, y)| x != y).map(|i| i as u32)
}

/// Per-scenario outcome of diffing two trace sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffStatus {
    /// Bit-identical headers and round streams.
    Identical { rounds: u64 },
    /// Same scenario, divergent evolution.
    Diverged(RoundDivergence),
    /// The headers already disagree (different seed/config/initials).
    HeaderMismatch(String),
    /// Present only in the first set.
    OnlyInFirst,
    /// Present only in the second set.
    OnlyInSecond,
    /// One of the files could not be read.
    Error(String),
}

/// One entry of a trace-set diff.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Trace file name the entry refers to.
    pub name: String,
    pub status: DiffStatus,
}

/// Stream-compare two trace files round by round.
pub fn diff_trace_files(a: &Path, b: &Path) -> DiffStatus {
    let open = |p: &Path| {
        File::open(p).map_err(TraceError::Io).and_then(|f| TraceReader::new(BufReader::new(f)))
    };
    let (mut ra, mut rb) = match (open(a), open(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) => return DiffStatus::Error(format!("{}: {e}", a.display())),
        (_, Err(e)) => return DiffStatus::Error(format!("{}: {e}", b.display())),
    };
    let (ha, hb) = (ra.header(), rb.header());
    if ha != hb {
        let what = if ha.scenario_id != hb.scenario_id {
            format!("scenario IDs differ ({:?} vs {:?})", ha.scenario_id, hb.scenario_id)
        } else if ha.seed != hb.seed {
            "seeds differ".into()
        } else if ha.config_digest != hb.config_digest {
            "config digests differ".into()
        } else {
            "initial positions differ".into()
        };
        return DiffStatus::HeaderMismatch(what);
    }
    let mut rounds = 0u64;
    loop {
        let next = (ra.next_round(), rb.next_round());
        match next {
            (Err(e), _) => return DiffStatus::Error(format!("{}: {e}", a.display())),
            (_, Err(e)) => return DiffStatus::Error(format!("{}: {e}", b.display())),
            (Ok(None), Ok(None)) => return DiffStatus::Identical { rounds },
            (Ok(Some(ea)), Ok(None)) => {
                return DiffStatus::Diverged(RoundDivergence {
                    round: ea.round,
                    robot: None,
                    detail: "second trace ends early".into(),
                })
            }
            (Ok(None), Ok(Some(eb))) => {
                return DiffStatus::Diverged(RoundDivergence {
                    round: eb.round,
                    robot: None,
                    detail: "first trace ends early".into(),
                })
            }
            (Ok(Some(ea)), Ok(Some(eb))) => {
                if let Some(d) = divergence_between(&ea, &eb) {
                    return DiffStatus::Diverged(d);
                }
                rounds += 1;
            }
        }
    }
}

/// Diff two trace directories, pairing files by name; entries are
/// sorted by file name.
pub fn diff_trace_dirs(a: &Path, b: &Path) -> io::Result<Vec<DiffReport>> {
    let names = |dir: &Path| -> io::Result<std::collections::BTreeSet<String>> {
        Ok(list_trace_files(dir)?
            .into_iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect())
    };
    let in_a = names(a)?;
    let in_b = names(b)?;
    Ok(in_a
        .union(&in_b)
        .map(|name| {
            let status = match (in_a.contains(name), in_b.contains(name)) {
                (true, true) => diff_trace_files(&a.join(name), &b.join(name)),
                (true, false) => DiffStatus::OnlyInFirst,
                (false, true) => DiffStatus::OnlyInSecond,
                (false, false) => unreachable!("name came from one of the sets"),
            };
            DiffReport { name: name.clone(), status }
        })
        .collect())
}

/// Remove every `.gtrc` trace and `.gtrc.tmp` leftover from `dir`.
/// `campaign record` starts from a clean directory, mirroring how it
/// truncates `--out`: without this, traces from an earlier recording
/// with different axes would survive next to a result file that no
/// longer mentions them, and `replay`/`diff` would treat the stale
/// files as part of the set. (`.gtrc.tmp` files are the torn leftovers
/// of a panicking controller — the executor's panic isolation unwinds
/// straight past [`TraceFile::finish`]'s rename.) Returns how many
/// files were removed.
pub fn clean_trace_dir(dir: &Path) -> io::Result<usize> {
    let mut removed = 0usize;
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        if path.is_file() && (name.ends_with(".gtrc") || name.ends_with(".gtrc.tmp")) {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}
