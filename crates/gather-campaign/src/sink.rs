//! Streaming JSONL result sink and the resume checkpoint built on it.
//!
//! The result file *is* the checkpoint: one self-contained JSON object
//! per line, flushed as soon as the scenario finishes. Killing a
//! campaign loses at most the line being written; on resume, every line
//! that parses is treated as completed and a truncated trailing line is
//! discarded.

use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::record::ScenarioRecord;
use crate::shard::ShardManifest;

/// Append-only, line-buffered writer of scenario records.
pub struct JsonlSink {
    out: BufWriter<File>,
    written: usize,
}

impl JsonlSink {
    /// Start a fresh result file (truncates any existing one).
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink { out: BufWriter::new(File::create(path)?), written: 0 })
    }

    /// Open an existing result file for appending (creates if absent).
    ///
    /// A file left by a killed writer can end mid-line; that torn line
    /// is terminated first ([`gather_obs::open_append`]) so it cannot
    /// swallow the next record.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = gather_obs::open_append(path.as_ref())?;
        Ok(JsonlSink { out: BufWriter::new(file), written: 0 })
    }

    /// Write one record and flush it to the OS, so the line survives a
    /// subsequent kill of this process.
    pub fn write(&mut self, record: &ScenarioRecord) -> io::Result<()> {
        self.out.write_all(record.to_json_line().as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        self.written += 1;
        Ok(())
    }

    /// Records written through this sink (excludes pre-existing lines).
    pub fn written(&self) -> usize {
        self.written
    }
}

/// Read every well-formed record from a result file. Malformed lines —
/// including a trailing line truncated by a killed writer — are counted,
/// not fatal. A missing file reads as empty.
pub fn load_records(path: impl AsRef<Path>) -> io::Result<(Vec<ScenarioRecord>, usize)> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match ScenarioRecord::from_json_line(&line) {
            Ok(rec) => records.push(rec),
            Err(_) => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// The resume checkpoint: IDs of scenarios already completed in `path`.
pub fn load_completed(path: impl AsRef<Path>) -> io::Result<HashSet<String>> {
    let (records, _skipped) = load_records(path)?;
    Ok(records.into_iter().map(|r| r.id).collect())
}

/// Where the shard manifest for the result file `out` lives: the suffix
/// is appended to the full file name (`c.jsonl` → `c.jsonl.manifest.json`)
/// so the pairing survives any result-file naming scheme.
pub fn manifest_path(out: &Path) -> PathBuf {
    let mut name = out.as_os_str().to_os_string();
    name.push(".manifest.json");
    PathBuf::from(name)
}

/// Write (or overwrite) the manifest next to `out`. Called once with
/// `complete: false` when a shard run starts and again with
/// `complete: true` after its last record is flushed, so a manifest
/// claiming completion always describes a fully-written result file.
pub fn write_manifest(out: &Path, manifest: &ShardManifest) -> io::Result<()> {
    let mut text = manifest.to_json();
    text.push('\n');
    std::fs::write(manifest_path(out), text)
}

/// Read the manifest next to `out`; `Ok(None)` when there is none
/// (result files predating the shard subsystem have no sidecar).
pub fn read_manifest(out: &Path) -> Result<Option<ShardManifest>, String> {
    let path = manifest_path(out);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    ShardManifest::from_json(&text).map(Some).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;
    use gather_bench::{ControllerKind, Measurement};
    use gather_workloads::Family;

    fn rec(n: usize) -> ScenarioRecord {
        let sc = Scenario {
            family: Family::Line,
            n,
            seed: 1,
            controller: ControllerKind::Paper,
            scheduler: gather_bench::SchedulerKind::Fsync,
        };
        let m = Measurement {
            n,
            rounds: n as u64,
            merges: n - 1,
            gathered: true,
            connected: true,
            activations: (n * n) as u64,
        };
        ScenarioRecord::from_measurement(&sc, &m)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gather-campaign-sink-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn write_read_round_trip() {
        let path = tmp("roundtrip");
        let mut sink = JsonlSink::create(&path).unwrap();
        for n in [8, 16, 24] {
            sink.write(&rec(n)).unwrap();
        }
        assert_eq!(sink.written(), 3);
        drop(sink);
        let (records, skipped) = load_records(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(records, vec![rec(8), rec(16), rec(24)]);
        let done = load_completed(&path).unwrap();
        assert!(done.contains("line/n16/s1/paper"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_trailing_line_is_skipped() {
        let path = tmp("truncated");
        let mut content = String::new();
        content.push_str(&rec(8).to_json_line());
        content.push('\n');
        let partial = rec(16).to_json_line();
        content.push_str(&partial[..partial.len() / 2]); // killed mid-write
        std::fs::write(&path, content).unwrap();
        let (records, skipped) = load_records(&path).unwrap();
        assert_eq!(records, vec![rec(8)]);
        assert_eq!(skipped, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_extends_existing_file() {
        let path = tmp("append");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.write(&rec(8)).unwrap();
        drop(sink);
        let mut sink = JsonlSink::append(&path).unwrap();
        sink.write(&rec(16)).unwrap();
        assert_eq!(sink.written(), 1);
        drop(sink);
        assert_eq!(load_completed(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reads_empty() {
        let path = tmp("missing-never-created");
        assert!(load_completed(&path).unwrap().is_empty());
        assert_eq!(load_records(&path).unwrap().0.len(), 0);
    }

    #[test]
    fn manifest_round_trips_next_to_the_result_file() {
        use crate::shard::ShardSpec;
        use crate::spec::CampaignSpec;

        let out = tmp("manifest.jsonl");
        assert_eq!(
            manifest_path(&out).file_name().unwrap().to_string_lossy(),
            format!("{}.manifest.json", out.file_name().unwrap().to_string_lossy()),
        );
        assert_eq!(read_manifest(&out).unwrap(), None, "absent sidecar reads as None");

        let spec = CampaignSpec::standard();
        let mut m = ShardManifest::for_shard(&spec, ShardSpec { index: 1, count: 4 });
        write_manifest(&out, &m).unwrap();
        assert_eq!(read_manifest(&out).unwrap(), Some(m.clone()));
        // The completion flip overwrites in place.
        m.complete = true;
        write_manifest(&out, &m).unwrap();
        assert_eq!(read_manifest(&out).unwrap(), Some(m));

        std::fs::write(manifest_path(&out), "not json").unwrap();
        assert!(read_manifest(&out).is_err(), "corrupt manifest must be loud");
        std::fs::remove_file(manifest_path(&out)).unwrap();
    }
}
