//! Deterministic sharding of a campaign across machines.
//!
//! A shard is `I/M`: one of `M` disjoint slices of a spec's expansion.
//! Each scenario is assigned by an FNV-1a hash of its stable ID, so
//! *any* machine partitions *any* spec identically — no coordination,
//! no shared state, just the spec file and a shard argument.
//!
//! Every shard run writes a [`ShardManifest`] next to its result JSONL:
//! the spec digest, the shard coordinates, an order-free coverage digest
//! of the scenario IDs the shard owns, and a completion marker. The
//! `campaign merge` subcommand ([`crate::merge`]) uses the manifests to
//! *prove* a set of shard outputs covers the full spec exactly once
//! before emitting a merged result file.

use std::fmt;
use std::path::{Path, PathBuf};

use gather_analysis::{parse_flat_json, JsonObjWriter};

use crate::spec::CampaignSpec;

/// FNV-1a, 64-bit. The point is *stability*, not quality: the value for
/// a given scenario ID must never change across builds, platforms, or
/// refactors, because independently-launched shard runs rely on hashing
/// identically. (`gather_trace::digest_bytes` mixes better but is our
/// own construction; FNV-1a is a published constant-for-life algorithm,
/// so a reimplementation anywhere — even a shell script — agrees.)
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One slice of a spec: shard `index` of `count`. The full (unsharded)
/// campaign is the degenerate `0/1` shard, so every run — sharded or
/// not — goes through the same partition and manifest path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    pub index: u32,
    pub count: u32,
}

impl ShardSpec {
    /// The whole spec as a single shard.
    pub const FULL: ShardSpec = ShardSpec { index: 0, count: 1 };

    pub fn is_full(self) -> bool {
        self.count == 1
    }

    /// Parse the CLI shape `I/M` (e.g. `2/4`); requires `I < M`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, m) = s.split_once('/').ok_or_else(|| format!("shard {s:?} is not I/M"))?;
        let index: u32 = i.trim().parse().map_err(|e| format!("shard index {i:?}: {e}"))?;
        let count: u32 = m.trim().parse().map_err(|e| format!("shard count {m:?}: {e}"))?;
        if count == 0 {
            return Err("shard count must be >= 1".into());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for {count} shard(s)"));
        }
        Ok(ShardSpec { index, count })
    }

    /// Does this shard own the scenario whose stable ID is `id`?
    /// Exactly one shard of any `count`-way split answers yes: the
    /// FNV-1a hash of the ID, mod the shard count.
    pub fn owns(self, id: &str) -> bool {
        fnv1a_64(id.as_bytes()) % u64::from(self.count) == u64::from(self.index)
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The sidecar proof written next to each shard's result JSONL
/// ([`crate::sink::write_manifest`] puts it at `<out>.manifest.json`).
/// The `name` field is recorded for humans only; merge compatibility is
/// decided by the digests (see [`ShardManifest::mismatch_against`]).
///
/// `spec_digest` pins the exact spec the shard was cut from (an
/// order-sensitive digest of the full expanded ID list), `shard_coverage`
/// is the order-free XOR fold of the ID digests this shard owns, and
/// `spec_coverage` is the same fold over the whole spec — so a merge can
/// verify that N shards cover the spec exactly once by pure digest
/// arithmetic, without re-expanding (or even having) the spec file.
/// `complete` flips to true only after the shard's last scenario is on
/// disk; a manifest without it is a shard that is still running or died.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// Campaign name, recorded for humans only (never compared).
    pub name: String,
    pub shard_index: u32,
    pub shard_count: u32,
    /// Order-sensitive digest of the full expanded scenario-ID list.
    pub spec_digest: u64,
    /// Scenario count of the full spec.
    pub spec_len: usize,
    /// Order-free coverage digest (XOR of ID digests) of the full spec.
    pub spec_coverage: u64,
    /// Scenario count this shard owns.
    pub shard_len: usize,
    /// Order-free coverage digest of the IDs this shard owns.
    pub shard_coverage: u64,
    /// True once every owned scenario's record is on disk.
    pub complete: bool,
}

impl ShardManifest {
    /// The manifest a fresh (not yet complete) run of `shard` should
    /// write for `spec`. All five digest/length fields come from a
    /// single expansion pass (every ID built and digested once),
    /// matching [`CampaignSpec::spec_digest`] /
    /// [`CampaignSpec::coverage_digest`] bit for bit — a 2000-scenario
    /// spec is expanded once here, not once per field.
    pub fn for_shard(spec: &CampaignSpec, shard: ShardSpec) -> Self {
        Self::build(spec, shard, |_| true)
    }

    /// The manifest for a shard's *trace set* (`campaign record --shard`):
    /// identical construction, but counted over the traced scenarios only
    /// — the greedy strawman drives itself and leaves no `.gtrc`, so a
    /// trace-dir coverage proof must not expect one. Note the spec digest
    /// therefore differs from [`ShardManifest::for_shard`]'s, which is
    /// exactly right: a result merge and a trace merge verify different
    /// artifact sets and must not accept each other's manifests.
    pub fn for_traced_shard(spec: &CampaignSpec, shard: ShardSpec) -> Self {
        Self::build(spec, shard, |sc| sc.controller != gather_bench::ControllerKind::Greedy)
    }

    fn build(
        spec: &CampaignSpec,
        shard: ShardSpec,
        counted: impl Fn(&crate::spec::Scenario) -> bool,
    ) -> Self {
        let mut joined = String::new();
        let mut spec_len = 0usize;
        let mut spec_coverage = 0u64;
        let mut shard_len = 0usize;
        let mut shard_coverage = 0u64;
        for sc in &spec.expand() {
            if !counted(sc) {
                continue;
            }
            let id = sc.id();
            joined.push_str(&id);
            joined.push('\n');
            let digest = gather_trace::digest_bytes(id.as_bytes());
            spec_len += 1;
            spec_coverage ^= digest;
            if shard.owns(&id) {
                shard_len += 1;
                shard_coverage ^= digest;
            }
        }
        ShardManifest {
            name: spec.name.clone(),
            shard_index: shard.index,
            shard_count: shard.count,
            spec_digest: gather_trace::digest_bytes(joined.as_bytes()),
            spec_len,
            spec_coverage,
            shard_len,
            shard_coverage,
            complete: false,
        }
    }

    /// The shard coordinates as a [`ShardSpec`].
    pub fn shard(&self) -> ShardSpec {
        ShardSpec { index: self.shard_index, count: self.shard_count }
    }

    /// The manifest of a verified merge of this manifest's siblings: a
    /// complete `0/1` shard of the same spec, so the merged output
    /// verifies exactly like an unsharded run's would.
    pub fn full_cover(&self) -> ShardManifest {
        ShardManifest {
            shard_index: 0,
            shard_count: 1,
            shard_len: self.spec_len,
            shard_coverage: self.spec_coverage,
            complete: true,
            ..self.clone()
        }
    }

    /// One-line JSON (the manifest file's entire content, newline
    /// terminated by the writer). Digests are exact u64s — the flat-JSON
    /// parser keeps integers out of f64, so they round trip bit-exactly.
    pub fn to_json(&self) -> String {
        JsonObjWriter::new()
            .field_str("kind", "shard-manifest")
            .field_str("name", &self.name)
            .field_u64("shard_index", u64::from(self.shard_index))
            .field_u64("shard_count", u64::from(self.shard_count))
            .field_u64("spec_digest", self.spec_digest)
            .field_usize("spec_len", self.spec_len)
            .field_u64("spec_coverage", self.spec_coverage)
            .field_usize("shard_len", self.shard_len)
            .field_u64("shard_coverage", self.shard_coverage)
            .field_bool("complete", self.complete)
            .finish()
    }

    /// Parse a manifest. Older manifests also carry a `"strategy"`
    /// field (always `hash` in practice), which is ignored.
    pub fn from_json(text: &str) -> Result<ShardManifest, String> {
        let map = parse_flat_json(text.trim())?;
        let str_field = |key: &str| -> Result<&str, String> {
            map.get(key)
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("manifest is missing string field {key:?}"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            map.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("manifest is missing integer field {key:?}"))
        };
        if str_field("kind")? != "shard-manifest" {
            return Err("not a shard manifest (kind mismatch)".into());
        }
        let shard_index = u32::try_from(u64_field("shard_index")?)
            .map_err(|_| "shard_index out of range".to_string())?;
        let shard_count = u32::try_from(u64_field("shard_count")?)
            .map_err(|_| "shard_count out of range".to_string())?;
        if shard_count == 0 || shard_index >= shard_count {
            return Err(format!("shard {shard_index}/{shard_count} is not a valid slice"));
        }
        let complete = map
            .get("complete")
            .and_then(|v| v.as_bool())
            .ok_or("manifest is missing bool field \"complete\"")?;
        Ok(ShardManifest {
            name: str_field("name")?.to_string(),
            shard_index,
            shard_count,
            spec_digest: u64_field("spec_digest")?,
            spec_len: u64_field("spec_len")? as usize,
            spec_coverage: u64_field("spec_coverage")?,
            shard_len: u64_field("shard_len")? as usize,
            shard_coverage: u64_field("shard_coverage")?,
            complete,
        })
    }

    /// Do two manifests describe shards of the same partitioned spec?
    /// Returns the first disagreeing field name, or `None` when they
    /// are mergeable siblings. The campaign name is deliberately *not*
    /// compared — it is cosmetic and excluded from `spec_digest` for
    /// the same reason: renaming a spec file (or planning shards under
    /// a default name) must not strand completed shard outputs.
    pub fn mismatch_against(&self, other: &ShardManifest) -> Option<&'static str> {
        if self.spec_digest != other.spec_digest {
            Some("spec_digest")
        } else if self.spec_len != other.spec_len {
            Some("spec_len")
        } else if self.spec_coverage != other.spec_coverage {
            Some("spec_coverage")
        } else if self.shard_count != other.shard_count {
            Some("shard_count")
        } else {
            None
        }
    }
}

/// Default per-shard result path: `c.jsonl` + shard `2/4` →
/// `c.shard2of4.jsonl` (suffix appended before the extension so a glob
/// like `c.shard*.jsonl` collects exactly one campaign's shards). A
/// stem that already carries a shard tag is stripped first, so feeding
/// a shard's own output path back in (replanning, resubmitting) yields
/// `c.shard1of2.jsonl` → `c.shard2of4.jsonl`, never a stacked
/// `c.shard1of2.shard2of4.jsonl`.
pub fn shard_out_path(out: &Path, shard: ShardSpec) -> PathBuf {
    let tag = format!("shard{}of{}", shard.index, shard.count);
    // Strip a trailing tag first: an extensionless shard output like
    // `bare.shard3of8` would otherwise read its old tag as the
    // extension and keep it.
    let name = strip_shard_tag(&out.file_name().unwrap_or_default().to_string_lossy());
    match name.rsplit_once('.') {
        Some((stem, ext)) => out.with_file_name(format!("{}.{tag}.{ext}", strip_shard_tag(stem))),
        None => out.with_file_name(format!("{name}.{tag}")),
    }
}

/// Drop a trailing `.shardIofM` tag from a file stem, if present. Only
/// a well-formed tag (both coordinates pure digits) is stripped — a
/// stem like `data.shardXofY` or `offshard3of4` passes through intact.
fn strip_shard_tag(stem: &str) -> String {
    if let Some((prefix, tail)) = stem.rsplit_once('.') {
        if let Some(rest) = tail.strip_prefix("shard") {
            if let Some((i, m)) = rest.split_once("of") {
                let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
                if digits(i) && digits(m) {
                    return prefix.to_string();
                }
            }
        }
    }
    stem.to_string()
}

/// Quote one word for copy-paste into a POSIX shell: passed through
/// untouched when it word-splits cleanly, single-quoted (with embedded
/// quotes escaped) otherwise — an `--out 'my results/w.jsonl'` must not
/// shatter into two arguments when the printed plan is pasted.
fn sh_word(s: &str) -> String {
    let clean = !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'/' | b',' | b'-'));
    if clean {
        s.to_string()
    } else {
        format!("'{}'", s.replace('\'', r"'\''"))
    }
}

/// The exact command lines that execute `spec` as `count` shards and
/// merge the results — what `campaign plan --shards M` prints. Axis
/// flags are emitted explicitly (never a `--spec` reference), so each
/// line is self-contained and runs on a machine that has only the
/// binary. The final line is the merge.
pub fn plan_lines(spec: &CampaignSpec, count: u32, out: &Path, threads: usize) -> Vec<String> {
    let join = |items: Vec<String>| items.join(",");
    let mut axes = format!(
        "--families {} --sizes {} --seeds {} --controllers {} --schedulers {}",
        join(spec.families.iter().map(|f| f.name().to_string()).collect()),
        join(spec.sizes.iter().map(|n| n.to_string()).collect()),
        join(spec.seeds.iter().map(|s| s.to_string()).collect()),
        join(spec.controllers.iter().map(|c| c.name().to_string()).collect()),
        join(spec.schedulers.iter().map(|s| s.name()).collect()),
    );
    // The name is cosmetic but user-controlled: quote it like the
    // paths so a hostile or merely awkward spec name cannot inject
    // into the copy-paste lines.
    if !spec.name.is_empty() {
        axes.push_str(&format!(" --name {}", sh_word(&spec.name)));
    }
    if threads != 0 {
        axes.push_str(&format!(" --threads {threads}"));
    }
    let mut lines = Vec::with_capacity(count as usize + 1);
    let mut shard_outs = Vec::with_capacity(count as usize);
    for index in 0..count {
        let shard = ShardSpec { index, count };
        let shard_out = sh_word(&shard_out_path(out, shard).display().to_string());
        lines.push(format!("campaign run --shard {shard} --out {shard_out} {axes}"));
        shard_outs.push(shard_out);
    }
    lines.push(format!(
        "campaign merge --out {} {}",
        sh_word(&out.display().to_string()),
        shard_outs.join(" ")
    ));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        // The FNV-1a 64-bit reference values; if these ever change, every
        // previously-cut shard partition silently reshuffles.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shard_parse_accepts_slices_and_rejects_junk() {
        assert_eq!(ShardSpec::parse("0/1").unwrap(), ShardSpec::FULL);
        assert_eq!(ShardSpec::parse("2/4").unwrap(), ShardSpec { index: 2, count: 4 });
        assert_eq!(ShardSpec::parse("2/4").unwrap().to_string(), "2/4");
        for bad in ["", "3", "4/4", "5/4", "x/4", "1/x", "1/0", "-1/4"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn every_job_is_owned_by_exactly_one_shard() {
        let ids = ["line/n64/s3/paper", "square/n16/s1/center/rr4", "clusters/n2048/s0/paper"];
        for count in 1..=8u32 {
            for id in ids {
                let owners =
                    (0..count).filter(|&index| ShardSpec { index, count }.owns(id)).count();
                assert_eq!(owners, 1, "{count} shards, job {id}");
            }
        }
    }

    #[test]
    fn the_full_shard_owns_everything() {
        assert!(ShardSpec::FULL.owns("line/n64/s3/paper"));
    }

    #[test]
    fn manifest_json_round_trips() {
        let spec = CampaignSpec::standard();
        let shard = ShardSpec { index: 1, count: 4 };
        let mut m = ShardManifest::for_shard(&spec, shard);
        m.complete = true;
        let back = ShardManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.shard(), shard);
        // Manifests written while a partition strategy was selectable
        // name it; the field is ignored, so those shards still merge.
        let legacy = m.to_json().replace(r#""shard_index""#, r#""strategy":"hash","shard_index""#);
        assert!(legacy.contains(r#""strategy":"hash""#), "{legacy}");
        assert_eq!(ShardManifest::from_json(&legacy).unwrap(), m);
        assert!(ShardManifest::from_json("{").is_err());
        assert!(ShardManifest::from_json(r#"{"kind":"something-else"}"#).is_err());
        assert!(
            ShardManifest::from_json(
                &m.to_json().replace("\"shard_index\":1", "\"shard_index\":9")
            )
            .is_err(),
            "out-of-range shard index must be rejected"
        );
    }

    #[test]
    fn sibling_manifests_agree_and_strangers_do_not() {
        let spec = CampaignSpec::standard();
        let a = ShardManifest::for_shard(&spec, ShardSpec { index: 0, count: 2 });
        let b = ShardManifest::for_shard(&spec, ShardSpec { index: 1, count: 2 });
        assert_eq!(a.mismatch_against(&b), None);
        let mut other = CampaignSpec::standard();
        other.sizes.push(256);
        let c = ShardManifest::for_shard(&other, ShardSpec { index: 1, count: 2 });
        assert_eq!(a.mismatch_against(&c), Some("spec_digest"));
        let d = ShardManifest::for_shard(&spec, ShardSpec { index: 1, count: 3 });
        assert_eq!(a.mismatch_against(&d), Some("shard_count"));
        // The name is cosmetic: a renamed spec file (or shards planned
        // under a default name) must still merge.
        let renamed = ShardManifest { name: "renamed".into(), ..b.clone() };
        assert_eq!(a.mismatch_against(&renamed), None);
    }

    #[test]
    fn shard_out_paths_keep_the_extension() {
        let shard = ShardSpec { index: 2, count: 4 };
        assert_eq!(shard_out_path(Path::new("c.jsonl"), shard), PathBuf::from("c.shard2of4.jsonl"));
        assert_eq!(
            shard_out_path(Path::new("/tmp/results/weak.jsonl"), shard),
            PathBuf::from("/tmp/results/weak.shard2of4.jsonl")
        );
        assert_eq!(shard_out_path(Path::new("bare"), shard), PathBuf::from("bare.shard2of4"));
    }

    #[test]
    fn shard_out_paths_do_not_stack_suffixes() {
        // Regression: resubmitting a path that is already a shard output
        // used to produce `c.shard1of2.shard2of4.jsonl`.
        let shard = ShardSpec { index: 2, count: 4 };
        assert_eq!(
            shard_out_path(Path::new("c.shard1of2.jsonl"), shard),
            PathBuf::from("c.shard2of4.jsonl")
        );
        assert_eq!(
            shard_out_path(Path::new("/tmp/r/weak.shard0of4.jsonl"), shard),
            PathBuf::from("/tmp/r/weak.shard2of4.jsonl")
        );
        assert_eq!(
            shard_out_path(Path::new("bare.shard3of8"), shard),
            PathBuf::from("bare.shard2of4"),
            "extensionless shard outputs are re-tagged, not stacked"
        );
        // Near-miss tags are data, not shard suffixes: leave them alone.
        assert_eq!(
            shard_out_path(Path::new("c.shardXofY.jsonl"), shard),
            PathBuf::from("c.shardXofY.shard2of4.jsonl")
        );
        assert_eq!(
            shard_out_path(Path::new("offshard3of4.jsonl"), shard),
            PathBuf::from("offshard3of4.shard2of4.jsonl")
        );
    }

    #[test]
    fn manifest_digests_match_the_spec_methods() {
        // for_shard computes all five digest/length fields in one
        // expansion pass; they must agree bit for bit with the (multi-
        // expansion) CampaignSpec methods merge verification leans on.
        let spec = CampaignSpec::standard();
        let shard = ShardSpec { index: 1, count: 3 };
        let m = ShardManifest::for_shard(&spec, shard);
        assert_eq!(m.spec_digest, spec.spec_digest());
        assert_eq!(m.spec_len, spec.len());
        assert_eq!(m.spec_coverage, spec.coverage_digest());
        let ids: Vec<String> = spec.expand_shard(shard).iter().map(|sc| sc.id()).collect();
        assert_eq!(m.shard_len, ids.len());
        assert_eq!(m.shard_coverage, crate::spec::coverage_xor(ids.iter().map(String::as_str)));
    }

    #[test]
    fn plan_quotes_paths_that_would_word_split() {
        assert_eq!(sh_word("out.shard0of4.jsonl"), "out.shard0of4.jsonl");
        assert_eq!(sh_word("/tmp/r/c.jsonl"), "/tmp/r/c.jsonl");
        assert_eq!(sh_word("my results/w.jsonl"), "'my results/w.jsonl'");
        assert_eq!(sh_word("it's.jsonl"), r"'it'\''s.jsonl'");
        assert_eq!(sh_word(""), "''");

        let lines = plan_lines(&CampaignSpec::standard(), 2, Path::new("my results/w.jsonl"), 0);
        assert!(
            lines[0].contains("--out 'my results/w.shard0of2.jsonl'"),
            "spaced paths must survive copy-paste: {}",
            lines[0]
        );
        assert!(lines[2].contains("--out 'my results/w.jsonl'"), "{}", lines[2]);
    }

    #[test]
    fn plan_covers_every_shard_and_ends_with_the_merge() {
        let mut spec = CampaignSpec::standard();
        spec.name = "mini".into();
        let lines = plan_lines(&spec, 4, Path::new("out.jsonl"), 0);
        assert_eq!(lines.len(), 5);
        for (i, line) in lines[..4].iter().enumerate() {
            assert!(line.contains(&format!("--shard {i}/4")), "{line}");
            assert!(line.contains(&format!("out.shard{i}of4.jsonl")), "{line}");
            assert!(line.contains("--families"), "self-contained axes: {line}");
            assert!(!line.contains("--spec"), "plan lines must not need the spec file: {line}");
        }
        assert!(lines[4].starts_with("campaign merge --out out.jsonl "));
        assert!(lines[4].contains("out.shard3of4.jsonl"));
    }
}
