//! Verified merge of shard result files into one campaign result set.
//!
//! `campaign merge` ingests N shard outputs (each a JSONL result file
//! with a [`ShardManifest`] sidecar) and refuses to emit anything until
//! it has *proved* the set covers the spec exactly once:
//!
//! 1. every input has a manifest, all manifests describe the same
//!    partitioned spec (digest, length, coverage, shard count), and
//!    every one carries the completion marker;
//! 2. the shard indexes are exactly `0..count` — a duplicated index is
//!    an overlapping shard, a gap is a missing one;
//! 3. the per-shard coverage digests XOR-fold to the spec coverage and
//!    the per-shard lengths sum to the spec length;
//! 4. each shard's *records* (deduplicated by scenario ID, keeping the
//!    last occurrence — a resumed shard legitimately re-emits lines)
//!    match its manifest's length and coverage digest exactly, so a
//!    torn line, a lost record, or a foreign record is caught;
//! 5. no scenario ID appears in two different shard files.
//!
//! Only then is the merged JSONL written — records sorted by scenario
//! ID, each the *last* occurrence from its shard, re-serialized by the
//! current writer (older files with extra or reordered fields come out
//! normalized, not byte-copied) — plus a manifest marking the merged
//! file as a complete `0/1` shard, so a merged file passes the same
//! verification an unsharded run would.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::record::ScenarioRecord;
use crate::shard::{ShardManifest, ShardSpec};
use crate::sink::{self, JsonlSink};
use crate::spec::coverage_xor;

/// What one shard contributed to a merge, for the provenance report.
#[derive(Clone, Debug)]
pub struct ShardContribution {
    pub path: PathBuf,
    pub shard_index: u32,
    /// Distinct scenarios after dedup.
    pub records: usize,
    /// Resumed-duplicate lines dropped (last occurrence kept).
    pub duplicates: usize,
    /// Malformed / torn lines skipped by the reader.
    pub skipped_lines: usize,
}

/// The verified outcome of a merge.
#[derive(Clone, Debug)]
pub struct MergeReport {
    /// Campaign name from the manifests.
    pub name: String,
    pub shard_count: u32,
    /// Scenarios in the merged output (== the spec length).
    pub total: usize,
    /// Resumed duplicates dropped across all shards.
    pub duplicates: usize,
    pub shards: Vec<ShardContribution>,
}

/// Steps 1.–3. of the merge proof, shared by the result-file and
/// trace-directory merges: manifests consistent and complete, shard
/// indexes exactly `0..count`, and the per-shard digests folding to the
/// spec's. (Step 4. — matching what is actually *on disk* against each
/// manifest — is artifact-specific and stays with the callers.)
fn verify_shard_set(inputs: &[PathBuf], manifests: &[ShardManifest]) -> Result<(), String> {
    let reference = &manifests[0];
    for (path, manifest) in inputs.iter().zip(manifests).skip(1) {
        if let Some(field) = reference.mismatch_against(manifest) {
            return Err(format!(
                "mixed-spec shards: {} disagrees with {} on {field} — these outputs were not \
                 cut from the same partitioned spec",
                path.display(),
                inputs[0].display(),
            ));
        }
    }
    for (path, manifest) in inputs.iter().zip(manifests) {
        if !manifest.complete {
            return Err(format!(
                "shard {} ({}) has no completion marker — still running, or its run died",
                manifest.shard(),
                path.display(),
            ));
        }
    }

    // 2. Indexes are exactly 0..count: no overlap, no gap.
    let count = reference.shard_count;
    let mut owner_of_index: Vec<Option<&Path>> = vec![None; count as usize];
    for (path, manifest) in inputs.iter().zip(manifests) {
        let slot = &mut owner_of_index[manifest.shard_index as usize];
        if let Some(first) = slot {
            return Err(format!(
                "overlapping shards: {} and {} both claim shard {}",
                first.display(),
                path.display(),
                manifest.shard(),
            ));
        }
        *slot = Some(path);
    }
    let missing: Vec<String> = owner_of_index
        .iter()
        .enumerate()
        .filter(|(_, owner)| owner.is_none())
        .map(|(index, _)| ShardSpec { index: index as u32, count }.to_string())
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "missing shard(s) {}: only {} of {count} shard outputs present",
            missing.join(", "),
            inputs.len(),
        ));
    }

    // 3. Digest arithmetic: the manifests must cover the spec exactly.
    let folded = manifests.iter().fold(0u64, |acc, m| acc ^ m.shard_coverage);
    let summed: usize = manifests.iter().map(|m| m.shard_len).sum();
    if folded != reference.spec_coverage || summed != reference.spec_len {
        return Err(format!(
            "shard manifests do not cover the spec exactly once ({summed} scenarios claimed, \
             spec has {}; coverage digests fold to {folded:#018x}, spec is {:#018x})",
            reference.spec_len, reference.spec_coverage,
        ));
    }
    Ok(())
}

/// Merge `inputs` into `out` after full verification; any hole in the
/// proof is an `Err` and nothing is written. See the module docs for
/// the exact checks.
pub fn merge_shards(inputs: &[PathBuf], out: &Path) -> Result<MergeReport, String> {
    if inputs.is_empty() {
        return Err("merge needs at least one shard result file".into());
    }

    // 1. Manifests: present, consistent, complete.
    let mut manifests = Vec::with_capacity(inputs.len());
    for path in inputs {
        let manifest = sink::read_manifest(path)?.ok_or_else(|| {
            format!(
                "{} has no shard manifest (expected {}) — was it written by `campaign run`?",
                path.display(),
                sink::manifest_path(path).display(),
            )
        })?;
        manifests.push(manifest);
    }
    verify_shard_set(inputs, &manifests)?;
    let reference = &manifests[0];
    let count = reference.shard_count;

    // 4.–5. Records: dedup per shard, verify against the manifest,
    // reject cross-shard duplicates.
    let mut merged: BTreeMap<String, ScenarioRecord> = BTreeMap::new();
    let mut contributions = Vec::with_capacity(inputs.len());
    let mut duplicates_total = 0usize;
    for (path, manifest) in inputs.iter().zip(&manifests) {
        let (records, skipped_lines) =
            sink::load_records(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let lines = records.len();
        let mut distinct: BTreeMap<String, ScenarioRecord> = BTreeMap::new();
        for rec in records {
            distinct.insert(rec.id.clone(), rec); // last occurrence wins
        }
        let duplicates = lines - distinct.len();
        let observed = coverage_xor(distinct.keys().map(String::as_str));
        if distinct.len() != manifest.shard_len || observed != manifest.shard_coverage {
            return Err(format!(
                "shard {} ({}) does not match its manifest: {} distinct record(s) on disk, \
                 manifest claims {}{} — the file is torn, incomplete, or holds foreign records",
                manifest.shard(),
                path.display(),
                distinct.len(),
                manifest.shard_len,
                if skipped_lines > 0 {
                    format!(" ({skipped_lines} malformed line(s) skipped)")
                } else {
                    String::new()
                },
            ));
        }
        for (id, rec) in distinct {
            if merged.insert(id.clone(), rec).is_some() {
                return Err(format!(
                    "scenario {id:?} appears in more than one shard file (second copy in {})",
                    path.display(),
                ));
            }
        }
        duplicates_total += duplicates;
        contributions.push(ShardContribution {
            path: path.clone(),
            shard_index: manifest.shard_index,
            records: manifest.shard_len,
            duplicates,
            skipped_lines,
        });
    }
    contributions.sort_by_key(|c| c.shard_index);

    // Emit: sorted by scenario ID (deterministic regardless of shard
    // arrival order), then the merged manifest — a complete 0/1 shard,
    // so the output verifies exactly like an unsharded run's would.
    let mut sink_out =
        JsonlSink::create(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    for rec in merged.values() {
        sink_out.write(rec).map_err(|e| format!("writing {}: {e}", out.display()))?;
    }
    sink::write_manifest(out, &reference.full_cover())
        .map_err(|e| format!("writing manifest for {}: {e}", out.display()))?;

    Ok(MergeReport {
        name: reference.name.clone(),
        shard_count: count,
        total: merged.len(),
        duplicates: duplicates_total,
        shards: contributions,
    })
}

/// Merge sharded *trace directories* (`campaign record --shard`) into
/// one trace set, under the same proof obligations as the result merge:
/// every input directory must carry a complete trace manifest, the
/// manifests must describe the same partitioned spec with indexes
/// exactly `0..count`, and each directory's `.gtrc` files must match
/// its manifest's traced-scenario count and coverage digest (file names
/// are cross-checked against the scenario IDs in the trace headers, so
/// a renamed or foreign file is caught). Only then are the traces
/// byte-copied into `out` — recording is deterministic, so the merged
/// set is bit-identical to what an unsharded `campaign record` writes —
/// and `out` gains a complete `0/1` manifest of its own.
pub fn merge_trace_dirs(inputs: &[PathBuf], out: &Path) -> Result<MergeReport, String> {
    use gather_trace::{TraceError, TraceReader};
    use std::fs::File;
    use std::io::BufReader;

    use crate::trace_ops::{self, trace_file_name};

    if inputs.is_empty() {
        return Err("merge needs at least one shard trace directory".into());
    }

    // 1. Manifests: present, consistent, complete; indexes and digest
    // arithmetic verified exactly like the result merge.
    let mut manifests = Vec::with_capacity(inputs.len());
    for dir in inputs {
        let manifest = trace_ops::read_trace_manifest(dir)?.ok_or_else(|| {
            format!(
                "{} has no trace manifest (expected {}) — was it written by `campaign record`?",
                dir.display(),
                trace_ops::trace_manifest_path(dir).display(),
            )
        })?;
        manifests.push(manifest);
    }
    verify_shard_set(inputs, &manifests)?;
    let reference = &manifests[0];

    // 4.–5. Traces on disk: each directory's files must match its
    // manifest exactly, and no scenario may be traced by two shards.
    let mut merged: BTreeMap<String, PathBuf> = BTreeMap::new();
    let mut contributions = Vec::with_capacity(inputs.len());
    for (dir, manifest) in inputs.iter().zip(&manifests) {
        let files = trace_ops::list_trace_files(dir)
            .map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let mut coverage = 0u64;
        for path in &files {
            let reader = File::open(path)
                .map_err(TraceError::Io)
                .and_then(|f| TraceReader::new(BufReader::new(f)))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let id = reader.header().scenario_id.clone();
            let expected = trace_file_name(&id);
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            if name.as_deref() != Some(expected.as_str()) {
                return Err(format!(
                    "{} holds scenario {id:?} but is not named {expected:?} — the file was \
                     renamed or substituted since it was recorded",
                    path.display(),
                ));
            }
            coverage ^= gather_trace::digest_bytes(id.as_bytes());
            if let Some(first) = merged.insert(expected, path.clone()) {
                return Err(format!(
                    "scenario {id:?} is traced by more than one shard ({} and {})",
                    first.display(),
                    path.display(),
                ));
            }
        }
        if files.len() != manifest.shard_len || coverage != manifest.shard_coverage {
            return Err(format!(
                "shard {} ({}) does not match its manifest: {} trace(s) on disk, manifest \
                 claims {} — the set is torn, incomplete, or holds foreign traces",
                manifest.shard(),
                dir.display(),
                files.len(),
                manifest.shard_len,
            ));
        }
        contributions.push(ShardContribution {
            path: dir.clone(),
            shard_index: manifest.shard_index,
            records: manifest.shard_len,
            duplicates: 0,
            skipped_lines: 0,
        });
    }
    contributions.sort_by_key(|c| c.shard_index);

    // Emit: a clean output directory (stale traces from an earlier
    // merge removed, like `record` does), every verified trace
    // byte-copied, then the full-cover manifest.
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    trace_ops::clean_trace_dir(out).map_err(|e| format!("cleaning {}: {e}", out.display()))?;
    for (name, src) in &merged {
        std::fs::copy(src, out.join(name))
            .map_err(|e| format!("copying {} into {}: {e}", src.display(), out.display()))?;
    }
    trace_ops::write_trace_manifest(out, &reference.full_cover())
        .map_err(|e| format!("writing manifest for {}: {e}", out.display()))?;

    Ok(MergeReport {
        name: reference.name.clone(),
        shard_count: reference.shard_count,
        total: merged.len(),
        duplicates: 0,
        shards: contributions,
    })
}

#[cfg(test)]
mod tests {
    //! Unit coverage for the report shape; the edge-case matrix
    //! (missing/overlapping/torn/duplicated shards and the
    //! sharded-equals-unsharded acceptance property) lives in
    //! `tests/shard_merge.rs` where real shard runs are cheap.

    use super::*;

    #[test]
    fn empty_input_list_is_rejected() {
        let err = merge_shards(&[], Path::new("/tmp/never-written.jsonl")).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
    }

    #[test]
    fn missing_manifest_is_rejected_by_name() {
        let path = std::env::temp_dir()
            .join(format!("gather-merge-nomanifest-{}.jsonl", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let err = merge_shards(std::slice::from_ref(&path), Path::new("/tmp/never-written.jsonl"))
            .unwrap_err();
        assert!(err.contains("manifest"), "{err}");
        assert!(err.contains(&path.display().to_string()), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
