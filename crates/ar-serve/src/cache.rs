//! The persistent, content-addressed report cache.
//!
//! One sweep cell = one file. The cell's canonical key document
//! ([`ar_system::CellKey::cache_key`]) is FNV-hashed into a 64-bit cache
//! address; the entry lives at `<root>/v<SCHEMA>/<hash:016x>.json` and stores
//! *both* the key document and the report:
//!
//! ```text
//! cache/
//!   v1/
//!     8d3f2a91c0b47e55.json   { "key": {..canonical key..}, "report": {..} }
//! ```
//!
//! Storing the key alongside the report buys two properties: a 64-bit hash
//! collision degrades to a cache *miss* (the stored key is compared with the
//! requested one on load), and `cat`-ing an entry tells you exactly which
//! cell it belongs to. Bumping [`ar_system::CACHE_SCHEMA_VERSION`] moves the
//! directory name, orphaning every stale entry at once.
//!
//! Writes are atomic — render to a uniquely named temp file in the same
//! directory, then [`std::fs::rename`] over the final path — so a concurrent
//! reader sees either the complete entry or nothing, and racing writers of
//! the same (deterministic) report both succeed. Any unreadable, truncated
//! or mismatched entry is treated as a miss, never an error.

use ar_system::{SimReport, CACHE_SCHEMA_VERSION};
use ar_types::hash::fnv1a_64;
use ar_types::json::Json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp files of racing writers within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// How old a leftover `.tmp-*` file must be before the open-time sweep
/// deletes it. A store's write→rename window is milliseconds, so anything
/// this old belongs to a writer that died mid-store.
const STALE_TMP_AGE: std::time::Duration = std::time::Duration::from_secs(60);

/// An on-disk report cache rooted at a directory. Cheap to clone/share; all
/// state lives in the filesystem.
#[derive(Debug, Clone)]
pub struct ReportCache {
    root: PathBuf,
}

impl ReportCache {
    /// Opens a cache rooted at `root`, sweeping stale temp files that a
    /// crashed writer left behind — a process dying between the temp write
    /// and the rename leaks its `.tmp-*` file forever. Only files older
    /// than `STALE_TMP_AGE` (a minute) are removed, so an in-flight write of a live
    /// writer sharing the directory is never yanked out from under its
    /// rename. Otherwise lazy — no further I/O until the first store.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let cache = ReportCache { root: root.into() };
        cache.sweep_stale_tmp();
        cache
    }

    /// Removes `.tmp-*` files older than [`STALE_TMP_AGE`] from the current
    /// schema directory. Failures are ignored: debris never affects
    /// correctness (loads only read `.json` entries, [`ReportCache::
    /// entry_count`] skips non-`.json` files), sweeping is pure hygiene.
    fn sweep_stale_tmp(&self) {
        let dir = self.root.join(format!("v{CACHE_SCHEMA_VERSION}"));
        let Ok(entries) = fs::read_dir(dir) else { return };
        for entry in entries.filter_map(Result::ok) {
            if !entry.file_name().to_string_lossy().starts_with(".tmp-") {
                continue;
            }
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age >= STALE_TMP_AGE);
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry path of a cache address under the current schema version.
    pub fn entry_path(&self, hash: u64) -> PathBuf {
        self.root.join(format!("v{CACHE_SCHEMA_VERSION}")).join(format!("{hash:016x}.json"))
    }

    /// Looks up the report stored under `key` (a canonical
    /// [`ar_system::CellKey::cache_key`] document). Returns `None` — a miss —
    /// for absent, unreadable, truncated, corrupt, or hash-colliding entries.
    pub fn load(&self, key: &Json) -> Option<SimReport> {
        let canonical = key.canonical_render();
        self.load_canonical(fnv1a_64(canonical.as_bytes()), &canonical)
    }

    /// [`ReportCache::load`] for a key the caller has already rendered with
    /// [`Json::canonical_render`] and hashed with [`fnv1a_64`], the two steps
    /// of [`Json::content_hash`], so a hot path renders each key once. A `hash`
    /// that does not belong to `canonical` reads some other entry, whose
    /// stored key then fails the comparison: a miss, never a wrong report.
    pub(crate) fn load_canonical(&self, hash: u64, canonical: &str) -> Option<SimReport> {
        let text = fs::read_to_string(self.entry_path(hash)).ok()?;
        let doc = Json::parse(&text).ok()?;
        // A 64-bit hash can collide; the stored canonical key disambiguates.
        if doc.get("key")?.canonical_render() != canonical {
            return None;
        }
        SimReport::from_json(doc.get("report")?).ok()
    }

    /// Stores `report` under `key`, atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable root, disk full, ...).
    pub fn store(&self, key: &Json, report: &SimReport) -> io::Result<()> {
        let path = self.entry_path(key.content_hash());
        let dir = path.parent().expect("entry paths always have a parent");
        fs::create_dir_all(dir)?;
        let entry = Json::obj([("key", key.clone()), ("report", report.to_json())]);
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, entry.render())?;
        let renamed = fs::rename(&tmp, &path);
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        renamed
    }

    /// Number of entries stored under the current schema version (for stats
    /// and tests; counts files, ignoring stray temp files).
    pub fn entry_count(&self) -> usize {
        let dir = self.root.join(format!("v{CACHE_SCHEMA_VERSION}"));
        fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_system::CellKey;
    use ar_types::config::{NamedConfig, SystemConfig};
    use ar_workloads::SizeClass;

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "ar-serve-cache-{tag}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&root);
        root
    }

    fn sample_key(workload: &str) -> Json {
        CellKey::new(workload, NamedConfig::ArfTid, SizeClass::Tiny)
            .cache_key(&SystemConfig::small())
    }

    fn sample_report(workload: &str) -> SimReport {
        SimReport {
            workload: workload.to_string(),
            network_cycles: 12_345,
            completed: true,
            ..SimReport::default()
        }
    }

    #[test]
    fn stores_and_reloads_reports_byte_identically() {
        let cache = ReportCache::new(temp_root("roundtrip"));
        let key = sample_key("pagerank");
        assert!(cache.load(&key).is_none(), "empty cache misses");
        assert_eq!(cache.entry_count(), 0);
        let report = sample_report("pagerank");
        cache.store(&key, &report).expect("store succeeds");
        let loaded = cache.load(&key).expect("stored entry hits");
        assert_eq!(loaded, report);
        assert_eq!(loaded.to_json().render(), report.to_json().render(), "byte-identical");
        assert_eq!(cache.entry_count(), 1);
        // A different key misses without disturbing the stored entry.
        assert!(cache.load(&sample_key("spmv")).is_none());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_truncated_and_mismatched_entries_are_misses() {
        let cache = ReportCache::new(temp_root("corrupt"));
        let key = sample_key("mac");
        cache.store(&key, &sample_report("mac")).expect("store succeeds");
        let path = cache.entry_path(key.content_hash());

        // Truncated file: valid prefix, invalid JSON.
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load(&key).is_none(), "truncated entry is a miss");

        // Garbage file.
        fs::write(&path, "not json at all").unwrap();
        assert!(cache.load(&key).is_none(), "garbage entry is a miss");

        // Well-formed JSON with the wrong shape.
        fs::write(&path, "{\"zzz\":1}").unwrap();
        assert!(cache.load(&key).is_none(), "shapeless entry is a miss");

        // A colliding entry (same path, different stored key) is a miss: the
        // stored canonical key no longer matches the requested one.
        let other = sample_key("spmv");
        let entry = Json::obj([("key", other), ("report", sample_report("spmv").to_json())]);
        fs::write(&path, entry.render()).unwrap();
        assert!(cache.load(&key).is_none(), "hash collision degrades to a miss");
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn concurrent_writers_of_the_same_entry_both_succeed() {
        let cache = ReportCache::new(temp_root("racing"));
        let key = sample_key("reduce");
        let report = sample_report("reduce");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..16 {
                        cache.store(&key, &report).expect("racing stores succeed");
                        assert_eq!(cache.load(&key).expect("entry readable mid-race"), report);
                    }
                });
            }
        });
        assert_eq!(cache.entry_count(), 1, "no temp-file debris counted");
        // No leftover temp files on disk either.
        let dir = cache.entry_path(key.content_hash());
        let debris: Vec<_> = fs::read_dir(dir.parent().unwrap())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(debris.is_empty(), "temp files all renamed away: {debris:?}");
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn opening_sweeps_stale_tmp_debris_but_spares_entries_and_fresh_tmps() {
        let root = temp_root("debris");
        // A first cache instance stores one valid entry...
        let cache = ReportCache::new(&root);
        let key = sample_key("backprop");
        let report = sample_report("backprop");
        cache.store(&key, &report).expect("store succeeds");
        let dir = cache.entry_path(key.content_hash()).parent().unwrap().to_path_buf();

        // ...then a "crashed writer" leaves two temp files behind: one aged
        // past the stale threshold, one fresh (a live writer mid-rename).
        let stale = dir.join(".tmp-999999-0");
        fs::write(&stale, "half-written entry").unwrap();
        let backdated = std::time::SystemTime::now() - STALE_TMP_AGE * 2;
        fs::File::options().write(true).open(&stale).unwrap().set_modified(backdated).unwrap();
        let fresh = dir.join(".tmp-999999-1");
        fs::write(&fresh, "in-flight entry").unwrap();

        // Debris never leaks into walks even before the sweep.
        assert_eq!(cache.entry_count(), 1, "temp files are excluded from entry walks");

        // Re-opening the cache sweeps the stale temp file, keeps the fresh
        // one, and leaves the valid entry untouched.
        let reopened = ReportCache::new(&root);
        assert!(!stale.exists(), "stale debris must be swept on open");
        assert!(fresh.exists(), "a fresh temp file may belong to a live writer");
        assert_eq!(reopened.load(&key).expect("entry survives the sweep"), report);
        assert_eq!(reopened.entry_count(), 1);
        let _ = fs::remove_dir_all(reopened.root());
    }

    #[test]
    fn schema_version_partitions_the_cache_directory() {
        let cache = ReportCache::new(temp_root("schema"));
        let key = sample_key("fir");
        let path = cache.entry_path(key.content_hash());
        assert!(path.to_string_lossy().contains(&format!("v{CACHE_SCHEMA_VERSION}")));
        assert_eq!(
            key.get("schema").and_then(Json::as_u64),
            Some(u64::from(CACHE_SCHEMA_VERSION)),
            "key documents embed the schema version too"
        );
    }
}
