//! Checkpoint/restore of a running simulation.
//!
//! A [`Checkpoint`] is the complete dynamic state of a [`crate::System`] at
//! a settled run boundary ([`crate::System::run_prefix`]), together with the
//! identity of the run it belongs to: a content hash of the effective
//! configuration, the workload name, size class and variant. Configuration
//! and workload streams never travel — they are regenerated from code on
//! restore, and the identity fields exist purely so a restore onto the
//! *wrong* configuration or workload is rejected instead of silently
//! producing garbage ([`crate::SimulationBuilder::from_checkpoint`]).
//!
//! On disk a checkpoint is one JSON document stamped with
//! [`CHECKPOINT_SCHEMA_VERSION`]. Writes are atomic — render to a uniquely
//! named temp file in the destination directory, then [`std::fs::rename`]
//! over the final path — so a concurrent reader (or a crash) sees either the
//! complete checkpoint or nothing. The schema version is checked on decode;
//! documents from a different schema, truncated files and hostile input all
//! fail with an error rather than restoring a half-baked system.

use ar_types::json::{Json, JsonError};
use ar_types::Cycle;
use ar_workloads::{SizeClass, Variant};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Version stamp of the checkpoint document schema.
///
/// Bump it whenever any component's `state_to_json` layout changes shape or
/// meaning: a restored run must be byte-identical to an uninterrupted one,
/// so decoding a stale layout into a newer simulator (or vice versa) must
/// fail loudly instead of resuming from subtly wrong state.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 3;

/// Distinguishes temp files of racing writers within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A snapshot of one simulation at a settled cycle boundary, restorable via
/// [`crate::SimulationBuilder::from_checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Content hash ([`Json::content_hash`]) of the effective
    /// [`ar_types::config::SystemConfig`] document the snapshot was taken
    /// under. Restores onto a differently configured system are rejected.
    pub config_hash: u64,
    /// Generated-workload name ([`ar_workloads::Workload::name`]'s
    /// generation output), matched against the regenerated workload.
    pub workload: String,
    /// Problem-size class of the run.
    pub size: SizeClass,
    /// Workload variant of the run.
    pub variant: Variant,
    /// First network cycle the snapshot has not processed — where a restored
    /// run resumes.
    pub cycle: Cycle,
    /// Whether the run had already quiesced when the snapshot was taken.
    pub completed: bool,
    /// The system's dynamic state ([`crate::System::state_to_json`]).
    pub state: Json,
}

/// Parses a [`Variant`] display name (the inverse of its `Display`).
fn variant_parse(name: &str) -> Option<Variant> {
    [Variant::Baseline, Variant::Active, Variant::Adaptive]
        .into_iter()
        .find(|v| v.to_string() == name)
}

impl Checkpoint {
    /// Encodes the checkpoint as a single schema-stamped JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(CHECKPOINT_SCHEMA_VERSION)),
            ("config_hash", Json::hex_u64(self.config_hash)),
            ("workload", Json::from(self.workload.clone())),
            ("size", Json::from(self.size.to_string())),
            ("variant", Json::from(self.variant.to_string())),
            ("cycle", Json::from(self.cycle)),
            ("completed", Json::from(self.completed)),
            ("state", self.state.clone()),
        ])
    }

    /// Decodes a [`Checkpoint::to_json`] document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the schema version differs from
    /// [`CHECKPOINT_SCHEMA_VERSION`] or any field is missing, mistyped, or
    /// names an unknown size class or variant.
    pub fn from_json(doc: &Json) -> Result<Checkpoint, JsonError> {
        let schema = doc.req_u32("schema")?;
        if schema != CHECKPOINT_SCHEMA_VERSION {
            return Err(JsonError::state(format!(
                "checkpoint schema v{schema} is not the supported v{CHECKPOINT_SCHEMA_VERSION}"
            )));
        }
        let size_name = doc.req_str("size")?;
        let size = SizeClass::parse(size_name)
            .ok_or_else(|| JsonError::state(format!("unknown size class {size_name:?}")))?;
        let variant_name = doc.req_str("variant")?;
        let variant = variant_parse(variant_name).ok_or_else(|| {
            JsonError::state(format!("unknown workload variant {variant_name:?}"))
        })?;
        Ok(Checkpoint {
            config_hash: doc.req_hex_u64("config_hash")?,
            workload: doc.req_str("workload")?.to_string(),
            size,
            variant,
            cycle: doc.req_u64("cycle")?,
            completed: doc.req_bool("completed")?,
            state: doc.req("state")?.clone(),
        })
    }

    /// Writes the checkpoint to `path` atomically: the document is rendered
    /// to a uniquely named temp file in the destination directory and then
    /// renamed over the final path, so a crash or concurrent reader sees
    /// either the complete checkpoint or nothing.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable directory, disk full, ...).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => {
                fs::create_dir_all(dir)?;
                dir
            }
            _ => Path::new("."),
        };
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, self.to_json().render())?;
        let renamed = fs::rename(&tmp, path);
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        renamed
    }

    /// Reads and decodes a checkpoint written by [`Checkpoint::save`].
    ///
    /// # Errors
    ///
    /// Returns the filesystem error for unreadable paths, or an
    /// `InvalidData` error wrapping the decode failure for truncated,
    /// corrupt or schema-mismatched documents.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
        let text = fs::read_to_string(path)?;
        let doc = Json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.message))?;
        Checkpoint::from_json(&doc)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            config_hash: 0xdead_beef_cafe_f00d,
            workload: "reduce".to_string(),
            size: SizeClass::Tiny,
            variant: Variant::Active,
            cycle: 12_345,
            completed: false,
            state: Json::obj([("cores", Json::arr([Json::from(1u64)]))]),
        }
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let ck = sample();
        let doc = Json::parse(&ck.to_json().render()).expect("renders to valid JSON");
        assert_eq!(Checkpoint::from_json(&doc).expect("decodes"), ck);
    }

    /// The sample document with one top-level field replaced.
    fn sample_with(key: &str, value: &Json) -> Json {
        let mut doc = sample().to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if *k == key {
                    *v = value.clone();
                }
            }
        }
        doc
    }

    #[test]
    fn schema_mismatch_and_hostile_fields_are_rejected() {
        // A future schema and the stale v1 and v2 system-state layouts must
        // not decode.
        for schema in [CHECKPOINT_SCHEMA_VERSION + 1, 2, 1] {
            let doc = sample_with("schema", &Json::from(schema));
            assert!(Checkpoint::from_json(&doc).is_err(), "schema v{schema} must not decode");
        }

        for (key, bad) in [
            ("size", Json::from("galactic")),
            ("variant", Json::from("quantum")),
            ("cycle", Json::from("soon")),
            ("config_hash", Json::from(3u64)),
        ] {
            let doc = sample_with(key, &bad);
            assert!(Checkpoint::from_json(&doc).is_err(), "hostile {key} must not decode");
        }
    }

    #[test]
    fn save_load_round_trips_and_truncation_fails() {
        let dir = std::env::temp_dir().join(format!(
            "ar-checkpoint-test-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let path = dir.join("snap.json");
        let ck = sample();
        ck.save(&path).expect("save succeeds");
        assert_eq!(Checkpoint::load(&path).expect("loads"), ck);

        // No temp-file debris next to the checkpoint.
        let debris: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(debris.is_empty(), "temp files all renamed away: {debris:?}");

        // Truncated bytes must fail to decode, not restore half a system.
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = Checkpoint::load(&path).expect_err("truncated checkpoint must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }
}
