//! Content-addressed result cache.
//!
//! A scenario's result record is pure data: the engine is deterministic
//! (statically guarded by the workspace's clippy lints), so a record is
//! fully determined by *which* scenario ran (`scenario ID`), *how* it was
//! configured (`config digest`: seed, actual swarm size, round budget),
//! and *what code* ran it (`engine version`). Those three form the
//! [`CacheKey`]; the cache maps its 64-bit digest to the exact record
//! line a batch run would have written.
//!
//! Layout: one file per key under the cache directory, fanned out by
//! the first two hex digits of the key digest so a large cache never
//! puts millions of entries in one directory:
//!
//! ```text
//! <dir>/ab/abcdef0123456789.json   # one JSONL record line + '\n'
//! ```
//!
//! Eviction is deliberately manual (`rm -r <dir>` or per-fanout): every
//! entry is a few hundred bytes, keys never collide with live entries
//! (same key ⇒ same bytes), and a stale engine version simply stops
//! being looked up — so the only reason to evict is disk pressure,
//! which the operator sees before the service does.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use gather_trace::digest_bytes;

/// What a result is addressed by. Any change to the scenario identity,
/// its engine configuration, or the engine build must change the key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Canonical scenario ID, e.g. `line/n64/s3/paper` — itself encoding
    /// family, size, seed, controller, and scheduler.
    pub scenario_id: String,
    /// The campaign config digest: seed, realized swarm size, and round
    /// budget folded to 64 bits.
    pub config_digest: u64,
    /// The engine build tag (crate version), so results never survive an
    /// engine change they might disagree with.
    pub engine_version: String,
}

impl CacheKey {
    /// The 64-bit address of this key, as 16 lowercase hex digits.
    pub fn digest_hex(&self) -> String {
        let canonical = format!(
            "{}|cfg={:016x}|engine={}",
            self.scenario_id, self.config_digest, self.engine_version
        );
        format!("{:016x}", digest_bytes(canonical.as_bytes()))
    }
}

/// An open cache directory.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        let hex = key.digest_hex();
        self.dir.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// The cached record line for `key`, without its trailing newline.
    pub fn lookup(&self, key: &CacheKey) -> Option<String> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        let line = text.strip_suffix('\n').unwrap_or(&text);
        // An empty or torn entry (no terminator) is treated as absent:
        // the scenario just reruns and the entry is rewritten whole.
        (!line.is_empty() && text.ends_with('\n')).then(|| line.to_string())
    }

    /// Store the record line for `key`. Written to a temporary file and
    /// renamed into place, so a crash can never leave a half-written
    /// entry under the final name; concurrent stores of the same key are
    /// benign because both write identical bytes.
    pub fn store(&self, key: &CacheKey, record_line: &str) -> io::Result<()> {
        let path = self.entry_path(key);
        let parent = path.parent().expect("cache entries always live under a fanout dir");
        fs::create_dir_all(parent)?;
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(record_line.as_bytes())?;
            file.write_all(b"\n")?;
            file.flush()?;
        }
        fs::rename(&tmp, &path)
    }

    /// Number of entries currently on disk (walks the fanout dirs; for
    /// stats and tests, not the hot path).
    pub fn len(&self) -> usize {
        let Ok(fanouts) = fs::read_dir(&self.dir) else { return 0 };
        fanouts
            .flatten()
            .filter(|e| e.path().is_dir())
            .filter_map(|e| fs::read_dir(e.path()).ok())
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: &str) -> CacheKey {
        CacheKey {
            scenario_id: id.to_string(),
            config_digest: 0x1234_5678_9abc_def0,
            engine_version: "grid-engine/0.1.0".to_string(),
        }
    }

    fn tmp_cache(name: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("gather-serve-cache-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    #[test]
    fn store_then_lookup_round_trips_exact_bytes() {
        let cache = tmp_cache("roundtrip");
        let k = key("line/n16/s1/paper");
        assert_eq!(cache.lookup(&k), None);
        let record = r#"{"id":"line/n16/s1/paper","rounds":9,"gathered":true}"#;
        cache.store(&k, record).unwrap();
        assert_eq!(cache.lookup(&k).as_deref(), Some(record));
        assert_eq!(cache.len(), 1);
        // Overwrite is idempotent.
        cache.store(&k, record).unwrap();
        assert_eq!(cache.len(), 1);
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn distinct_key_components_address_distinct_entries() {
        let base = key("line/n16/s1/paper");
        let mut other_id = base.clone();
        other_id.scenario_id = "line/n16/s2/paper".into();
        let mut other_cfg = base.clone();
        other_cfg.config_digest ^= 1;
        let mut other_engine = base.clone();
        other_engine.engine_version = "grid-engine/0.2.0".into();
        let hexes = [&base, &other_id, &other_cfg, &other_engine]
            .iter()
            .map(|k| k.digest_hex())
            .collect::<std::collections::BTreeSet<_>>();
        assert_eq!(hexes.len(), 4, "every component must feed the address");
        let cache = tmp_cache("distinct");
        cache.store(&base, "base").unwrap();
        assert_eq!(cache.lookup(&other_id), None);
        assert_eq!(cache.lookup(&other_cfg), None);
        assert_eq!(cache.lookup(&other_engine), None);
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn torn_entries_read_as_absent() {
        let cache = tmp_cache("torn");
        let k = key("square/n32/s2/center");
        cache.store(&k, "whole line").unwrap();
        let path = cache.dir().join(&k.digest_hex()[..2]).join(format!("{}.json", k.digest_hex()));
        fs::write(&path, "torn line without newline").unwrap();
        assert_eq!(cache.lookup(&k), None, "an unterminated entry must not be served");
        fs::remove_dir_all(cache.dir()).unwrap();
    }
}
