//! Crash-safe persistence primitives shared by every on-disk writer in the
//! stack: checkpoints, the tenant manifest, and the write-ahead promotion
//! journal.
//!
//! Three disciplines live here:
//!
//! 1. **Hardened atomic replace** — [`persist_bytes`] writes a sibling temp
//!    file, fsyncs it, renames it over the destination, then fsyncs the
//!    parent directory so the rename itself is durable. A crash at any
//!    point leaves either the old file or the new one, never a prefix.
//! 2. **Durable append** — [`append_bytes`] is the journal discipline:
//!    append + fsync, with per-record checksums (see [`Journal`]) so a torn
//!    tail is detectable and the valid prefix replayable.
//! 3. **Deterministic disk faults** — [`DiskFaultPlan`] extends the serving
//!    [`crate::FaultPlan`] family to the filesystem: io-error, torn-write
//!    and bit-flip faults keyed by a monotone *write index* shared across
//!    all writers (checkpoint, manifest, journal) so a chaos drill can kill
//!    the pipeline at every durable write it would ever issue.
//!
//! Everything returns a typed [`PersistError`]; no raw `io::Result`
//! bubbles out of the persistence layer. Corrupt artifacts are never
//! deleted — [`quarantine`] renames them aside for post-mortem.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::serialize::{fnv1a, LoadError};

/// File name of the write-ahead promotion journal inside a state directory.
pub const JOURNAL_FILE: &str = "journal.uaej";

const JOURNAL_MAGIC: &[u8; 4] = b"UAEJ";
const JOURNAL_VERSION: u32 = 1;

/// Which disk fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// The write failed cleanly before touching the destination.
    IoError,
    /// The writer died mid-write: the destination holds a truncated prefix.
    TornWrite,
    /// A byte was flipped in flight; the write itself "succeeded".
    BitFlip,
}

impl std::fmt::Display for DiskFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskFaultKind::IoError => write!(f, "io-error"),
            DiskFaultKind::TornWrite => write!(f, "torn-write"),
            DiskFaultKind::BitFlip => write!(f, "bit-flip"),
        }
    }
}

/// Typed error from the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    /// A real filesystem failure, with the operation and path that failed.
    Io {
        /// Which step failed (`create`, `write`, `fsync`, `rename`, ...).
        op: &'static str,
        /// The path being persisted.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A deterministic fault from a [`DiskFaultPlan`] fired.
    Injected {
        /// The fault kind.
        kind: DiskFaultKind,
        /// The path being persisted when the fault fired.
        path: PathBuf,
        /// The global write index the fault was keyed on.
        write_index: u64,
    },
    /// Persisted bytes were read back but rejected by format validation.
    Load(LoadError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { op, path, source } => {
                write!(f, "persist {op} failed for {}: {source}", path.display())
            }
            PersistError::Injected { kind, path, write_index } => {
                write!(f, "injected {kind} fault at write #{write_index} for {}", path.display())
            }
            PersistError::Load(e) => write!(f, "persisted blob rejected: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<LoadError> for PersistError {
    fn from(e: LoadError) -> Self {
        PersistError::Load(e)
    }
}

/// Deterministic disk-fault schedule, keyed by the monotone write index of
/// a shared [`DiskFaults`] counter. Every durable write in the pipeline —
/// checkpoint, manifest rewrite, journal append — claims the next index,
/// so index `k` always names the same write for the same driver program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// Fail these writes cleanly (nothing reaches the destination).
    pub io_error: Vec<u64>,
    /// Tear these writes: leave a truncated prefix at the destination and
    /// report failure, as if the process died mid-write.
    pub torn_write: Vec<u64>,
    /// Flip one byte of these writes `(write_index, byte_offset, xor_mask)`
    /// and let them "succeed" — silent corruption at rest, caught only by
    /// checksum validation at read time. The offset is taken modulo the
    /// payload length.
    pub bit_flip: Vec<(u64, usize, u8)>,
}

impl DiskFaultPlan {
    /// True when no fault is scheduled.
    pub fn is_inert(&self) -> bool {
        self.io_error.is_empty() && self.torn_write.is_empty() && self.bit_flip.is_empty()
    }

    fn fault_at(&self, idx: u64) -> Option<Fault> {
        if self.io_error.contains(&idx) {
            return Some(Fault::IoError);
        }
        if self.torn_write.contains(&idx) {
            return Some(Fault::TornWrite);
        }
        self.bit_flip
            .iter()
            .find(|(i, _, _)| *i == idx)
            .map(|&(_, offset, mask)| Fault::BitFlip { offset, mask })
    }
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    IoError,
    TornWrite,
    BitFlip { offset: usize, mask: u8 },
}

/// Shared, stateful fault injector: a [`DiskFaultPlan`] plus the monotone
/// write counter. One instance is threaded (as `Arc<DiskFaults>`) through
/// every writer of a pipeline so the write index is global.
#[derive(Debug, Default)]
pub struct DiskFaults {
    plan: DiskFaultPlan,
    counter: AtomicU64,
}

impl DiskFaults {
    /// A fault injector for `plan` with the write counter at zero.
    pub fn new(plan: DiskFaultPlan) -> Self {
        DiskFaults { plan, counter: AtomicU64::new(0) }
    }

    /// An inert injector that only counts writes (useful for enumerating
    /// the fault points of a reference run).
    pub fn counting() -> Self {
        DiskFaults::new(DiskFaultPlan::default())
    }

    /// Number of durable writes claimed so far.
    pub fn writes(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// Claim the next write index and the fault scheduled for it, if any.
    fn claim(&self) -> (u64, Option<Fault>) {
        let idx = self.counter.fetch_add(1, Ordering::SeqCst);
        (idx, self.plan.fault_at(idx))
    }
}

fn io_err(op: &'static str, path: &Path, source: std::io::Error) -> PersistError {
    PersistError::Io { op, path: path.to_path_buf(), source }
}

/// Fsync the directory containing `path` so a just-completed rename or
/// append is durable across power loss. On platforms where directories
/// cannot be opened this is a no-op.
fn fsync_parent(path: &Path) -> Result<(), PersistError> {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    #[cfg(unix)]
    {
        let dir = std::fs::File::open(parent).map_err(|e| io_err("open-dir", parent, e))?;
        dir.sync_all().map_err(|e| io_err("fsync-dir", parent, e))?;
    }
    #[cfg(not(unix))]
    let _ = parent;
    Ok(())
}

fn claim(faults: Option<&DiskFaults>) -> (u64, Option<Fault>) {
    faults.map(|f| f.claim()).unwrap_or((0, None))
}

/// Write `bytes` to `path` with the full atomic-replace discipline: temp
/// file in the target directory, fsync the file, rename over the
/// destination, fsync the parent directory. Consults `faults` for
/// deterministic fault injection (one write index per call).
pub fn persist_bytes(
    path: impl AsRef<Path>,
    bytes: &[u8],
    faults: Option<&DiskFaults>,
) -> Result<(), PersistError> {
    use std::io::Write as _;
    let path = path.as_ref();
    let (write_index, fault) = claim(faults);
    let mut flipped;
    let bytes = match fault {
        Some(Fault::IoError) => {
            return Err(PersistError::Injected {
                kind: DiskFaultKind::IoError,
                path: path.to_path_buf(),
                write_index,
            });
        }
        Some(Fault::TornWrite) => {
            // Simulate a non-atomic writer dying mid-write: the destination
            // itself is left holding a truncated prefix.
            let cut = bytes.len() / 2;
            if let Ok(mut f) = std::fs::File::create(path) {
                let _ = f.write_all(&bytes[..cut]);
                let _ = f.sync_all();
            }
            return Err(PersistError::Injected {
                kind: DiskFaultKind::TornWrite,
                path: path.to_path_buf(),
                write_index,
            });
        }
        Some(Fault::BitFlip { offset, mask }) => {
            // Silent corruption: the write completes "successfully" and the
            // damage is only discoverable by checksum at read time.
            flipped = bytes.to_vec();
            if !flipped.is_empty() {
                let o = offset % flipped.len();
                flipped[o] ^= mask;
            }
            &flipped[..]
        }
        None => bytes,
    };

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        f.write_all(bytes).map_err(|e| io_err("write", &tmp, e))?;
        f.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename", path, e))?;
    fsync_parent(path)
}

/// Append `record` to `path` durably: open in append mode (creating the
/// file if needed), write, fsync the file and the parent directory.
/// Consults `faults` (one write index per call). A torn append leaves a
/// truncated record at the tail — exactly the failure [`Journal::replay`]
/// is built to detect.
pub fn append_bytes(
    path: impl AsRef<Path>,
    record: &[u8],
    faults: Option<&DiskFaults>,
) -> Result<(), PersistError> {
    use std::io::Write as _;
    let path = path.as_ref();
    let (write_index, fault) = claim(faults);
    let mut flipped;
    let record = match fault {
        Some(Fault::IoError) => {
            return Err(PersistError::Injected {
                kind: DiskFaultKind::IoError,
                path: path.to_path_buf(),
                write_index,
            });
        }
        Some(Fault::TornWrite) => {
            let cut = record.len() / 2;
            if let Ok(mut f) = std::fs::OpenOptions::new().append(true).create(true).open(path) {
                let _ = f.write_all(&record[..cut]);
                let _ = f.sync_all();
            }
            return Err(PersistError::Injected {
                kind: DiskFaultKind::TornWrite,
                path: path.to_path_buf(),
                write_index,
            });
        }
        Some(Fault::BitFlip { offset, mask }) => {
            flipped = record.to_vec();
            if !flipped.is_empty() {
                let o = offset % flipped.len();
                flipped[o] ^= mask;
            }
            &flipped[..]
        }
        None => record,
    };

    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| io_err("open-append", path, e))?;
    f.write_all(record).map_err(|e| io_err("append", path, e))?;
    f.sync_all().map_err(|e| io_err("fsync", path, e))?;
    drop(f);
    fsync_parent(path)
}

/// Move a corrupt artifact aside — never delete it. The file is renamed to
/// `<name>.quarantine` (or `.quarantine.N` if that exists) in place, and
/// the new path is returned.
pub fn quarantine(path: impl AsRef<Path>) -> Result<PathBuf, PersistError> {
    let path = path.as_ref();
    let base = {
        let mut s = path.as_os_str().to_owned();
        s.push(".quarantine");
        PathBuf::from(s)
    };
    let mut dest = base.clone();
    let mut n = 0u32;
    while dest.exists() {
        n += 1;
        let mut s = base.as_os_str().to_owned();
        s.push(format!(".{n}"));
        dest = PathBuf::from(s);
    }
    std::fs::rename(path, &dest).map_err(|e| io_err("quarantine", path, e))?;
    fsync_parent(path)?;
    Ok(dest)
}

/// One record of the write-ahead promotion journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// Appended (and fsynced) *before* the promotion checkpoint is written:
    /// "I am about to publish `version` for `tenant` at `checkpoint`".
    Intent {
        /// Tenant (model lineage) the promotion belongs to.
        tenant: String,
        /// The version being promoted.
        version: u64,
        /// Checkpoint file name, relative to the state directory.
        checkpoint: String,
    },
    /// Appended (and fsynced) *after* the checkpoint rename completed:
    /// the promotion is durable and recoverable.
    Commit {
        /// Tenant the promotion belongs to.
        tenant: String,
        /// The version now fully persisted.
        version: u64,
    },
}

impl JournalRecord {
    /// The tenant this record belongs to.
    pub fn tenant(&self) -> &str {
        match self {
            JournalRecord::Intent { tenant, .. } | JournalRecord::Commit { tenant, .. } => tenant,
        }
    }

    /// The version this record names.
    pub fn version(&self) -> u64 {
        match self {
            JournalRecord::Intent { version, .. } | JournalRecord::Commit { version, .. } => {
                *version
            }
        }
    }
}

fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let (kind, tenant, version, checkpoint) = match rec {
        JournalRecord::Intent { tenant, version, checkpoint } => {
            (1u8, tenant.as_str(), *version, checkpoint.as_str())
        }
        JournalRecord::Commit { tenant, version } => (2u8, tenant.as_str(), *version, ""),
    };
    let mut payload = Vec::with_capacity(32 + tenant.len() + checkpoint.len());
    payload.push(kind);
    payload.extend_from_slice(&(tenant.len() as u32).to_le_bytes());
    payload.extend_from_slice(tenant.as_bytes());
    payload.extend_from_slice(&version.to_le_bytes());
    payload.extend_from_slice(&(checkpoint.len() as u32).to_le_bytes());
    payload.extend_from_slice(checkpoint.as_bytes());

    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out
}

fn decode_payload(payload: &[u8]) -> Option<JournalRecord> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        if *pos + n > payload.len() {
            return None;
        }
        let s = &payload[*pos..*pos + n];
        *pos += n;
        Some(s)
    };
    let kind = *take(&mut pos, 1)?.first()?;
    let tlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    let tenant = std::str::from_utf8(take(&mut pos, tlen)?).ok()?.to_owned();
    let version = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
    let clen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    let checkpoint = std::str::from_utf8(take(&mut pos, clen)?).ok()?.to_owned();
    if pos != payload.len() {
        return None;
    }
    match kind {
        1 => Some(JournalRecord::Intent { tenant, version, checkpoint }),
        2 if checkpoint.is_empty() => Some(JournalRecord::Commit { tenant, version }),
        _ => None,
    }
}

/// Result of replaying a journal file: the valid record prefix plus
/// whether the tail was torn. Replay is deliberately lenient — a torn or
/// bit-flipped tail is an *expected* crash artifact, not an error; only
/// real filesystem failures are.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalReplay {
    /// Records of the valid prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// True if the file ended in a torn, corrupt, or undecodable record
    /// (everything from the first bad byte on is ignored).
    pub torn: bool,
    /// True if the journal file existed at all.
    pub existed: bool,
}

/// Append-only write-ahead promotion journal (`UAEJ` format): an 8-byte
/// header (`magic + version`) followed by length-prefixed, per-record
/// FNV-1a-checksummed records. Appends are fsynced; a crash mid-append
/// tears at most the final record, which [`Journal::replay`] detects and
/// discards while keeping the committed prefix.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    faults: Option<Arc<DiskFaults>>,
}

impl Journal {
    /// Open (creating with a fresh header if absent) the journal at `path`.
    /// Creating the header counts as one durable write against `faults`.
    pub fn open(
        path: impl Into<PathBuf>,
        faults: Option<Arc<DiskFaults>>,
    ) -> Result<Journal, PersistError> {
        let path = path.into();
        let exists = match std::fs::metadata(&path) {
            Ok(m) => m.len() > 0,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(io_err("stat", &path, e)),
        };
        if !exists {
            let mut header = Vec::with_capacity(8);
            header.extend_from_slice(JOURNAL_MAGIC);
            header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
            append_bytes(&path, &header, faults.as_deref())?;
        }
        Ok(Journal { path, faults })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably append one record (encode, append, fsync). One write index.
    pub fn append(&self, rec: &JournalRecord) -> Result<(), PersistError> {
        append_bytes(&self.path, &encode_record(rec), self.faults.as_deref())
    }

    /// Replay the journal at `path`. Missing file → empty replay. A torn
    /// or corrupt tail truncates the replay at the last valid record and
    /// sets [`JournalReplay::torn`]; it never panics and never errors.
    pub fn replay(path: impl AsRef<Path>) -> Result<JournalReplay, PersistError> {
        let path = path.as_ref();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(JournalReplay::default());
            }
            Err(e) => return Err(io_err("read", path, e)),
        };
        let mut replay = JournalReplay { existed: true, ..JournalReplay::default() };
        if bytes.len() < 8
            || &bytes[..4] != JOURNAL_MAGIC
            || u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) != JOURNAL_VERSION
        {
            replay.torn = true;
            return Ok(replay);
        }
        let mut pos = 8usize;
        while pos < bytes.len() {
            if pos + 4 > bytes.len() {
                replay.torn = true;
                break;
            }
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
                    as usize;
            let Some(end) = pos.checked_add(4 + len + 8).filter(|&e| e <= bytes.len()) else {
                replay.torn = true;
                break;
            };
            let payload = &bytes[pos + 4..pos + 4 + len];
            let stored = u64::from_le_bytes(bytes[pos + 4 + len..end].try_into().unwrap());
            if fnv1a(payload) != stored {
                replay.torn = true;
                break;
            }
            match decode_payload(payload) {
                Some(rec) => replay.records.push(rec),
                None => {
                    replay.torn = true;
                    break;
                }
            }
            pos = end;
        }
        Ok(replay)
    }

    /// Rewrite the journal as an empty (header-only) file via the atomic
    /// discipline — used by recovery to compact after folding committed
    /// promotions into the manifest. One write index.
    pub fn reset(path: impl AsRef<Path>, faults: Option<&DiskFaults>) -> Result<(), PersistError> {
        let mut header = Vec::with_capacity(8);
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        persist_bytes(path, &header, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uae_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn persist_bytes_atomic_and_parent_synced() {
        let dir = tmp_dir("atomic");
        let path = dir.join("state.bin");
        persist_bytes(&path, b"one", None).unwrap();
        persist_bytes(&path, b"two", None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!dir.join("state.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_faults_fire_by_write_index() {
        let dir = tmp_dir("faults");
        let path = dir.join("f.bin");
        let faults = DiskFaults::new(DiskFaultPlan {
            io_error: vec![1],
            torn_write: vec![2],
            bit_flip: vec![(3, 0, 0xff)],
        });
        // Write 0: clean.
        persist_bytes(&path, b"hello", Some(&faults)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        // Write 1: io-error — destination untouched.
        let e = persist_bytes(&path, b"world", Some(&faults)).unwrap_err();
        assert!(matches!(
            e,
            PersistError::Injected { kind: DiskFaultKind::IoError, write_index: 1, .. }
        ));
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        // Write 2: torn — destination truncated to a prefix.
        let e = persist_bytes(&path, b"abcdef", Some(&faults)).unwrap_err();
        assert!(matches!(
            e,
            PersistError::Injected { kind: DiskFaultKind::TornWrite, write_index: 2, .. }
        ));
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        // Write 3: bit flip — "succeeds" but the first byte is damaged.
        persist_bytes(&path, b"check", Some(&faults)).unwrap();
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got[0], b'c' ^ 0xff);
        assert_eq!(&got[1..], b"heck");
        assert_eq!(faults.writes(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_round_trip_and_torn_tail() {
        let dir = tmp_dir("journal");
        let path = dir.join(JOURNAL_FILE);
        let j = Journal::open(&path, None).unwrap();
        let recs = vec![
            JournalRecord::Intent {
                tenant: "census".into(),
                version: 1,
                checkpoint: "census_v1.uaec".into(),
            },
            JournalRecord::Commit { tenant: "census".into(), version: 1 },
            JournalRecord::Intent {
                tenant: "census".into(),
                version: 2,
                checkpoint: "census_v2.uaec".into(),
            },
        ];
        for r in &recs {
            j.append(r).unwrap();
        }
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.records, recs);
        assert!(!replay.torn);
        assert!(replay.existed);

        // Tear the tail at every byte boundary: the valid prefix must
        // survive and replay must flag the tear without ever panicking.
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let r = Journal::replay(&path).unwrap();
            assert!(r.records.len() <= recs.len());
            if cut < full.len() {
                assert!(r.torn || r.records.len() < recs.len() || cut >= full.len() - 1);
            }
            for (got, want) in r.records.iter().zip(&recs) {
                assert_eq!(got, want);
            }
        }
        // Bit-flip every byte: replay keeps the records before the damage.
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            let r = Journal::replay(&path).unwrap();
            for (got, want) in r.records.iter().zip(&recs) {
                assert_eq!(got, want);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_missing_and_reset() {
        let dir = tmp_dir("jreset");
        let path = dir.join(JOURNAL_FILE);
        let r = Journal::replay(&path).unwrap();
        assert!(!r.existed && r.records.is_empty() && !r.torn);
        let j = Journal::open(&path, None).unwrap();
        j.append(&JournalRecord::Commit { tenant: "t".into(), version: 3 }).unwrap();
        Journal::reset(&path, None).unwrap();
        let r = Journal::replay(&path).unwrap();
        assert!(r.existed && r.records.is_empty() && !r.torn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_renames_never_deletes() {
        let dir = tmp_dir("quarantine");
        let path = dir.join("bad.uaec");
        std::fs::write(&path, b"junk").unwrap();
        let q1 = quarantine(&path).unwrap();
        assert!(!path.exists());
        assert_eq!(std::fs::read(&q1).unwrap(), b"junk");
        // A second quarantine of the same name must not clobber the first.
        std::fs::write(&path, b"junk2").unwrap();
        let q2 = quarantine(&path).unwrap();
        assert_ne!(q1, q2);
        assert_eq!(std::fs::read(&q1).unwrap(), b"junk");
        assert_eq!(std::fs::read(&q2).unwrap(), b"junk2");
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Mutation fuzz of the `UAEJ` record decoder through
        /// [`Journal::replay`]. The middle of three records gets a mutated
        /// payload, re-framed with a fresh length and checksum so it gets
        /// past the integrity check. Replay never panics. When the payload
        /// decodes, it re-encodes to the same bytes and the third record is
        /// replayed after it; when it does not, replay stops after the first
        /// record and flags the tear.
        #[test]
        fn journal_decode_survives_mutated_payloads(
            edits in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..=6),
        ) {
            let first = JournalRecord::Commit { tenant: "dmv".into(), version: 3 };
            let last = JournalRecord::Commit { tenant: "census".into(), version: 7 };
            let framed = encode_record(&JournalRecord::Intent {
                tenant: "census".into(),
                version: 7,
                checkpoint: "census_v7.uaec".into(),
            });
            let mut payload = framed[4..framed.len() - 8].to_vec();
            crate::serialize::mutate(&mut payload, &edits);
            let mut record = (payload.len() as u32).to_le_bytes().to_vec();
            record.extend_from_slice(&payload);
            record.extend_from_slice(&fnv1a(&payload).to_le_bytes());

            let mut file = JOURNAL_MAGIC.to_vec();
            file.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
            file.extend(encode_record(&first));
            file.extend_from_slice(&record);
            file.extend(encode_record(&last));
            let dir = tmp_dir("jfuzz");
            let path = dir.join(JOURNAL_FILE);
            std::fs::write(&path, &file).unwrap();
            let replay = Journal::replay(&path).unwrap();
            std::fs::remove_dir_all(&dir).ok();

            match decode_payload(&payload) {
                Some(rec) => {
                    prop_assert_eq!(encode_record(&rec), record);
                    prop_assert_eq!(replay.records, vec![first, rec, last]);
                    prop_assert!(!replay.torn);
                }
                None => {
                    prop_assert_eq!(replay.records, vec![first]);
                    prop_assert!(replay.torn);
                }
            }
        }
    }
}
