//! The durable tenant manifest: `manifest.uaem`, a versioned, checksummed,
//! atomically-rewritten snapshot of the registry's serving state — one
//! entry per tenant carrying the current model version, its checkpoint
//! file, and the fleet routing policy.
//!
//! The manifest answers the cold-start question "what was live?"; the
//! write-ahead promotion journal ([`uae_core::Journal`]) answers "what was
//! *in flight*?". Recovery replays the journal against the manifest and
//! republishes the last provably-good version per tenant.
//!
//! The format (`UAEM`, version 1) reuses the sealed-blob envelope of the
//! `UAEW`/`UAEC` family: magic + version + payload + trailing FNV-1a
//! checksum, rejected with typed [`LoadError`]s on any truncation or bit
//! flip. Each entry keeps a one-byte numeric-mode tag from when serving
//! had an int8 forward: the writer always writes `0`, and the reader
//! accepts `0` or `1` and ignores it, so older manifests still recover
//! (served in f32). Every rewrite goes through [`uae_core::persist_bytes`]
//! — temp file, fsync, rename, parent-directory fsync — so a crash
//! mid-rewrite leaves the previous manifest intact.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use uae_core::serialize::{open_blob, seal_blob, Reader};
use uae_core::{persist_bytes, BackendChoice, DiskFaults, LoadError, PersistError, RoutePolicy};

/// File name of the tenant manifest inside a state directory.
pub const MANIFEST_FILE: &str = "manifest.uaem";

const MAGIC: &[u8; 4] = b"UAEM";
const VERSION: u32 = 1;

/// One tenant's durable serving state.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Published model version (0 = the seed model).
    pub version: u64,
    /// Checkpoint file of that version, relative to the state directory
    /// (`None` for a seed model that was never checkpointed).
    pub checkpoint: Option<String>,
    /// The fleet routing policy, if a router is installed. Only the
    /// policy is serializable — backends are rebuilt by the host at
    /// recovery time.
    pub router: Option<RoutePolicy>,
}

/// The whole manifest: a monotone sequence number (bumped on every
/// rewrite) plus the per-tenant entries in deterministic (`BTreeMap`)
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Rewrite counter — strictly increasing across the manifest's life.
    pub seq: u64,
    /// Tenant name → durable state.
    pub entries: BTreeMap<String, ManifestEntry>,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_choice(out: &mut Vec<u8>, c: BackendChoice) {
    let tag: u32 = match c {
        BackendChoice::Primary => 0,
        BackendChoice::Backend(i) => 1 + i as u32,
    };
    out.extend_from_slice(&tag.to_le_bytes());
}

fn read_choice(r: &mut Reader<'_>) -> Result<BackendChoice, LoadError> {
    Ok(match r.u32()? {
        0 => BackendChoice::Primary,
        n => BackendChoice::Backend((n - 1) as usize),
    })
}

impl Manifest {
    /// Serialize into the sealed `UAEM` blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(64 + self.entries.len() * 64);
        p.extend_from_slice(&self.seq.to_le_bytes());
        p.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (tenant, e) in &self.entries {
            put_str(&mut p, tenant);
            p.extend_from_slice(&e.version.to_le_bytes());
            match &e.checkpoint {
                Some(ck) => {
                    p.push(1);
                    put_str(&mut p, ck);
                }
                None => p.push(0),
            }
            p.push(0); // numeric-mode tag: always f32
            match &e.router {
                None => p.push(0),
                Some(RoutePolicy::Threshold { independent_backend }) => {
                    p.push(1);
                    p.extend_from_slice(&(*independent_backend as u32).to_le_bytes());
                }
                Some(RoutePolicy::Calibrated { default, by_class }) => {
                    p.push(2);
                    put_choice(&mut p, *default);
                    p.extend_from_slice(&(by_class.len() as u32).to_le_bytes());
                    for (class, choice) in by_class {
                        p.extend_from_slice(&u32::from(*class).to_le_bytes());
                        put_choice(&mut p, *choice);
                    }
                }
            }
        }
        seal_blob(MAGIC, VERSION, &p)
    }

    /// Parse a sealed `UAEM` blob. The checksum is verified before any
    /// field is trusted, so truncation and bit flips surface as typed
    /// errors — never a panic, never a partial manifest.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, LoadError> {
        let payload = open_blob(bytes, MAGIC, VERSION)?;
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let count = r.u32()? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let tenant = r.str_field()?.to_owned();
            let version = r.u64()?;
            let checkpoint = match r.u8()? {
                0 => None,
                1 => Some(r.str_field()?.to_owned()),
                _ => return Err(LoadError::Corrupt("bad checkpoint tag")),
            };
            // Numeric-mode tag: `1` (int8) was written by older versions
            // and is served in f32 like `0`.
            if r.u8()? > 1 {
                return Err(LoadError::Corrupt("bad quant tag"));
            }
            let router = match r.u8()? {
                0 => None,
                1 => Some(RoutePolicy::Threshold { independent_backend: r.u32()? as usize }),
                2 => {
                    let default = read_choice(&mut r)?;
                    let n = r.u32()? as usize;
                    let mut by_class = BTreeMap::new();
                    for _ in 0..n {
                        let class = u16::try_from(r.u32()?)
                            .map_err(|_| LoadError::Corrupt("shape class out of range"))?;
                        by_class.insert(class, read_choice(&mut r)?);
                    }
                    Some(RoutePolicy::Calibrated { default, by_class })
                }
                _ => return Err(LoadError::Corrupt("bad router tag")),
            };
            entries.insert(tenant, ManifestEntry { version, checkpoint, router });
        }
        if !r.done() {
            return Err(LoadError::Corrupt("trailing bytes"));
        }
        Ok(Manifest { seq, entries })
    }

    /// The manifest path inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Load the manifest from `dir`. `Ok(None)` when no manifest exists;
    /// a corrupt file is a typed [`PersistError::Load`] (the caller —
    /// recovery — quarantines it and falls back to the journal).
    pub fn load(dir: &Path) -> Result<Option<Manifest>, PersistError> {
        let path = Self::path_in(dir);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(PersistError::Io { op: "read", path, source: e }),
        };
        Ok(Some(Manifest::decode(&bytes)?))
    }

    /// Atomically rewrite the manifest in `dir`, bumping `seq` first.
    /// One durable write index against `faults`.
    pub fn save(&mut self, dir: &Path, faults: Option<&DiskFaults>) -> Result<(), PersistError> {
        self.seq += 1;
        let bytes = self.encode();
        persist_bytes(Self::path_in(dir), &bytes, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Manifest {
        let mut entries = BTreeMap::new();
        entries.insert(
            "census".to_owned(),
            ManifestEntry {
                version: 3,
                checkpoint: Some("census_v3.uaec".to_owned()),
                router: Some(RoutePolicy::Threshold { independent_backend: 1 }),
            },
        );
        entries.insert(
            "dmv".to_owned(),
            ManifestEntry {
                version: 0,
                checkpoint: None,
                router: Some(RoutePolicy::Calibrated {
                    default: BackendChoice::Primary,
                    by_class: BTreeMap::from([
                        (4u16, BackendChoice::Backend(0)),
                        (9u16, BackendChoice::Primary),
                    ]),
                }),
            },
        );
        Manifest { seq: 7, entries }
    }

    #[test]
    fn manifest_round_trip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).expect("decode"), m);
        let empty = Manifest::default();
        assert_eq!(Manifest::decode(&empty.encode()).expect("decode"), empty);
    }

    /// A one-tenant `UAEM` v1 payload, built field by field, with the given
    /// numeric-mode tag.
    fn hand_built_payload(quant_tag: u8) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&4u64.to_le_bytes()); // seq
        p.extend_from_slice(&1u32.to_le_bytes()); // entry count
        p.extend_from_slice(&3u32.to_le_bytes());
        p.extend_from_slice(b"dmv");
        p.extend_from_slice(&2u64.to_le_bytes()); // version
        p.push(1); // checkpoint present
        p.extend_from_slice(&11u32.to_le_bytes());
        p.extend_from_slice(b"dmv_v2.uaec");
        p.extend_from_slice(&[quant_tag, 0]); // numeric mode, no router
        p
    }

    #[test]
    fn manifest_with_int8_tag_decodes_and_rewrites_as_f32() {
        let blob = seal_blob(MAGIC, VERSION, &hand_built_payload(1));
        let m = Manifest::decode(&blob).expect("tag 1 decodes");
        let entry =
            ManifestEntry { version: 2, checkpoint: Some("dmv_v2.uaec".to_owned()), router: None };
        assert_eq!(m, Manifest { seq: 4, entries: BTreeMap::from([("dmv".to_owned(), entry)]) });
        assert_eq!(m.encode(), seal_blob(MAGIC, VERSION, &hand_built_payload(0)));
        assert_eq!(
            Manifest::decode(&seal_blob(MAGIC, VERSION, &hand_built_payload(2))),
            Err(LoadError::Corrupt("bad quant tag"))
        );
    }

    #[test]
    fn manifest_rejects_every_truncation_and_bit_flip() {
        let blob = sample().encode();
        for cut in 0..blob.len() {
            assert!(
                Manifest::decode(&blob[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x10;
            assert!(Manifest::decode(&bad).is_err(), "bit flip at {i} must be rejected");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Mutation fuzz of the parser behind the checksum: overwrite,
        /// truncate or extend a valid payload, then re-seal it so the
        /// mutation reaches the field parser. Decoding must return a typed
        /// result (a panic fails the test), and whatever it accepts must
        /// survive a re-encode unchanged.
        #[test]
        fn manifest_decode_survives_mutated_payloads(
            edits in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..=6),
        ) {
            let sealed = sample().encode();
            let mut payload = open_blob(&sealed, MAGIC, VERSION).expect("valid blob").to_vec();
            for (kind, pos, byte) in edits {
                let at = pos as usize % (payload.len() + 1);
                match kind {
                    0 if at < payload.len() => payload[at] = byte,
                    1 => payload.truncate(at),
                    _ => payload.insert(at, byte),
                }
            }
            if let Ok(m) = Manifest::decode(&seal_blob(MAGIC, VERSION, &payload)) {
                prop_assert_eq!(Manifest::decode(&m.encode()).expect("re-encode decodes"), m);
            }
        }
    }

    #[test]
    fn manifest_save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("uae_manifest_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = sample();
        m.save(&dir, None).expect("save");
        assert_eq!(m.seq, 8, "save bumps seq");
        let loaded = Manifest::load(&dir).expect("load").expect("present");
        assert_eq!(loaded, m);
        assert_eq!(Manifest::load(&dir.join("missing")).expect("load"), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
