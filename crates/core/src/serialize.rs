//! Model serialization: two small, versioned, self-describing binary
//! formats. `UAEW` carries weights only — the paper's deployment story is
//! "only model weights need to be stored" (§4.2). `UAEC` is the *trainer*
//! checkpoint: weights plus Adam moments and step count, the training and
//! estimation RNG streams, and the epoch/step cursor — everything needed
//! for a resumed hybrid run (Alg. 3) to be bit-identical to an
//! uninterrupted one.
//!
//! Both formats (version 2) end in an 8-byte FNV-1a checksum of everything
//! before it, so a bit flip anywhere in the body is caught as a typed
//! [`LoadError::ChecksumMismatch`] even when the flipped bytes still parse
//! structurally. Loading is two-phase everywhere: validate the whole blob
//! (structure, shapes, checksum), then commit — a rejected blob never
//! leaves partially loaded state behind.

use std::path::Path;

use uae_tensor::{ParamStore, Tensor};

use crate::telemetry::TrainStats;

const MAGIC: &[u8; 4] = b"UAEW";
const VERSION: u32 = 2;

const CHECKPOINT_MAGIC: &[u8; 4] = b"UAEC";
const CHECKPOINT_VERSION: u32 = 2;

/// Errors from loading a weight blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Not a UAEW blob.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Truncated or structurally invalid payload.
    Corrupt(&'static str),
    /// The payload parsed but its trailing checksum does not match —
    /// bytes were corrupted in flight or at rest.
    ChecksumMismatch,
    /// Parameter count or shapes do not match the target store.
    ShapeMismatch(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadMagic => write!(f, "not a UAEW/UAEC blob"),
            LoadError::BadVersion(v) => write!(f, "unsupported UAEW/UAEC version {v}"),
            LoadError::Corrupt(what) => write!(f, "corrupt blob: {what}"),
            LoadError::ChecksumMismatch => write!(f, "blob checksum mismatch (corrupted bytes)"),
            LoadError::ShapeMismatch(what) => write!(f, "weight shape mismatch: {what}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Errors from file-level checkpoint operations: either the filesystem
/// failed or the bytes did not parse.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file's contents were rejected.
    Load(LoadError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Load(e) => write!(f, "checkpoint rejected: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<LoadError> for CheckpointError {
    fn from(e: LoadError) -> Self {
        CheckpointError::Load(e)
    }
}

/// FNV-1a over a byte slice — the blob integrity hash. Not cryptographic;
/// it exists to catch accidental corruption (bit rot, torn copies), not
/// adversaries.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Append the trailing FNV-1a checksum of everything written so far.
fn seal(out: &mut Vec<u8>) {
    let sum = fnv1a(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Validate the common blob envelope (magic, version, minimum length) and
/// return the payload — everything except the trailing 8-byte checksum.
/// The checksum itself is verified by [`verify_checksum`] *after* the
/// structural parse, so truncation and framing errors keep their more
/// specific `Corrupt` diagnoses.
fn open_envelope<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u32,
) -> Result<&'a [u8], LoadError> {
    if bytes.len() < 4 {
        return Err(LoadError::Corrupt("unexpected end of blob"));
    }
    if &bytes[..4] != magic {
        return Err(LoadError::BadMagic);
    }
    // Smallest well-formed blob: magic + version + trailing checksum.
    if bytes.len() < 16 {
        return Err(LoadError::Corrupt("unexpected end of blob"));
    }
    let v = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if v != version {
        return Err(LoadError::BadVersion(v));
    }
    Ok(&bytes[..bytes.len() - 8])
}

/// Frame `payload` in the standard sealed-blob envelope: `magic + version
/// + payload + trailing FNV-1a checksum`. The write-side twin of
/// [`open_blob`], shared by every small on-disk format (the tenant
/// manifest uses it; `UAEW`/`UAEC` predate it but follow the same layout).
pub fn seal_blob(magic: &[u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(payload);
    seal(&mut out);
    out
}

/// Validate a sealed blob (magic, version, checksum) and return the inner
/// payload. Unlike the two-phase `UAEW`/`UAEC` loaders, the checksum is
/// verified *before* the caller parses, so any truncation or bit flip in
/// the body surfaces as a typed error here.
pub fn open_blob<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u32,
) -> Result<&'a [u8], LoadError> {
    let payload = open_envelope(bytes, magic, version)?;
    verify_checksum(bytes, payload)?;
    Ok(&payload[8..])
}

/// Compare the trailing checksum of `bytes` against a fresh hash of
/// `payload` (as returned by [`open_envelope`]).
fn verify_checksum(bytes: &[u8], payload: &[u8]) -> Result<(), LoadError> {
    let tail = &bytes[payload.len()..];
    let stored = u64::from_le_bytes([
        tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
    ]);
    if fnv1a(payload) != stored {
        return Err(LoadError::ChecksumMismatch);
    }
    Ok(())
}

/// Serialize every parameter of a store.
pub fn save_params(store: &ParamStore) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + store.size_bytes());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(store.len() as u32).to_le_bytes());
    for id in store.ids() {
        let name = store.name(id).as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        let t = store.get(id);
        out.extend_from_slice(&(t.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(t.cols() as u32).to_le_bytes());
        for &v in t.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    seal(&mut out);
    out
}

/// Load a blob into an existing store (shapes and order must match — the
/// store comes from constructing the same model architecture).
pub fn load_params(store: &mut ParamStore, bytes: &[u8]) -> Result<(), LoadError> {
    let payload = open_envelope(bytes, MAGIC, VERSION)?;
    let mut r = Reader { bytes: payload, pos: 8 };
    let count = r.u32()? as usize;
    if count != store.len() {
        return Err(LoadError::ShapeMismatch(format!(
            "blob has {count} parameters, model has {}",
            store.len()
        )));
    }
    // Two-phase: validate everything, then commit.
    let mut tensors = Vec::with_capacity(count);
    for id in store.ids() {
        let name_len = r.u32()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| LoadError::Corrupt("non-utf8 parameter name"))?;
        if name != store.name(id) {
            return Err(LoadError::ShapeMismatch(format!(
                "parameter `{}` expected, blob has `{name}`",
                store.name(id)
            )));
        }
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        let expect = store.get(id).shape();
        if (rows, cols) != expect {
            return Err(LoadError::ShapeMismatch(format!(
                "parameter `{name}`: blob {rows}x{cols}, model {}x{}",
                expect.0, expect.1
            )));
        }
        let raw = r.take(rows * cols * 4)?;
        let data: Vec<f32> =
            raw.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
        tensors.push(Tensor::from_vec(rows, cols, data));
    }
    if r.pos != payload.len() {
        return Err(LoadError::Corrupt("trailing bytes"));
    }
    verify_checksum(bytes, payload)?;
    for (id, t) in store.ids().zip(tensors) {
        *store.get_mut(id) = t;
    }
    Ok(())
}

/// The full trainer state carried by a `UAEC` checkpoint. Everything a
/// resumed run needs beyond the architecture itself (which is rebuilt from
/// the table + [`crate::UaeConfig`]): weights, optimizer moments, RNG
/// streams, learning rate and the epoch/step cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Nested `UAEW` weight blob (see [`save_params`]).
    pub weights: Vec<u8>,
    /// Adam bias-correction step count.
    pub adam_t: u64,
    /// Adam first moments (empty if the optimizer never stepped).
    pub adam_m: Vec<Tensor>,
    /// Adam second moments (same length/shapes as `adam_m`).
    pub adam_v: Vec<Tensor>,
    /// Learning rate at checkpoint time (backoff may have lowered it from
    /// the configured value).
    pub lr: f32,
    /// Training RNG state (batch shuffles, wildcard dropout, Gumbel noise).
    pub rng: [u64; 4],
    /// Estimation RNG state (progressive-sampling streams).
    pub est_rng: [u64; 4],
    /// Cumulative train counters, including the epoch/step cursor.
    pub stats: TrainStats,
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.extend_from_slice(&(t.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(t.cols() as u32).to_le_bytes());
    for &v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serialize a trainer checkpoint (format `UAEC`, version 2).
pub fn save_checkpoint(ck: &CheckpointState) -> Vec<u8> {
    assert_eq!(ck.adam_m.len(), ck.adam_v.len(), "mismatched Adam moment vectors");
    let mut out = Vec::with_capacity(64 + ck.weights.len() * 3);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(ck.weights.len() as u32).to_le_bytes());
    out.extend_from_slice(&ck.weights);
    out.extend_from_slice(&ck.adam_t.to_le_bytes());
    out.extend_from_slice(&(ck.adam_m.len() as u32).to_le_bytes());
    for (m, v) in ck.adam_m.iter().zip(&ck.adam_v) {
        assert_eq!(m.shape(), v.shape(), "mismatched Adam moment shapes");
        put_tensor(&mut out, m);
        put_tensor(&mut out, v);
    }
    out.extend_from_slice(&ck.lr.to_le_bytes());
    for &s in ck.rng.iter().chain(&ck.est_rng) {
        out.extend_from_slice(&s.to_le_bytes());
    }
    let TrainStats { epochs, steps, executed_steps, clipped_steps, skipped_steps, rollbacks } =
        ck.stats;
    for c in [epochs, steps, executed_steps, clipped_steps, skipped_steps, rollbacks] {
        out.extend_from_slice(&c.to_le_bytes());
    }
    seal(&mut out);
    out
}

/// Parse a `UAEC` checkpoint. Structural validation only — weight and
/// moment shapes are checked against the model by the caller
/// ([`crate::Uae::load_checkpoint`]).
pub fn load_checkpoint(bytes: &[u8]) -> Result<CheckpointState, LoadError> {
    let payload = open_envelope(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    let mut r = Reader { bytes: payload, pos: 8 };
    let weights_len = r.u32()? as usize;
    let weights = r.take(weights_len)?.to_vec();
    let adam_t = r.u64()?;
    let moments = r.u32()? as usize;
    // Unverified until the checksum: a count the payload cannot hold (a pair
    // takes two 8-byte tensor headers at least) must not size an allocation.
    if moments > (payload.len() - r.pos) / 16 {
        return Err(LoadError::Corrupt("moment count overflows blob"));
    }
    let mut adam_m = Vec::with_capacity(moments);
    let mut adam_v = Vec::with_capacity(moments);
    for _ in 0..moments {
        adam_m.push(r.tensor()?);
        adam_v.push(r.tensor()?);
    }
    let lr = r.f32()?;
    let mut rng = [0u64; 4];
    for s in &mut rng {
        *s = r.u64()?;
    }
    let mut est_rng = [0u64; 4];
    for s in &mut est_rng {
        *s = r.u64()?;
    }
    let stats = TrainStats {
        epochs: r.u64()?,
        steps: r.u64()?,
        executed_steps: r.u64()?,
        clipped_steps: r.u64()?,
        skipped_steps: r.u64()?,
        rollbacks: r.u64()?,
    };
    if r.pos != payload.len() {
        return Err(LoadError::Corrupt("trailing bytes"));
    }
    verify_checksum(bytes, payload)?;
    for (m, v) in adam_m.iter().zip(&adam_v) {
        if m.shape() != v.shape() {
            return Err(LoadError::Corrupt("mismatched Adam moment shapes"));
        }
    }
    Ok(CheckpointState { weights, adam_t, adam_m, adam_v, lr, rng, est_rng, stats })
}

/// Write `bytes` to `path` atomically: write + fsync a sibling temp file,
/// rename over the destination, fsync the parent directory. A crash
/// mid-write leaves either the old checkpoint or none — never a truncated
/// one. Thin `io::Result` wrapper over [`crate::persist::persist_bytes`];
/// new code should call that directly for the typed error and fault
/// injection.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    crate::persist::persist_bytes(path, bytes, None).map_err(|e| match e {
        crate::persist::PersistError::Io { source, .. } => source,
        other => unreachable!("no faults injected: {other}"),
    })
}

/// Sequential little-endian reader over a sealed-blob payload. Public so
/// sibling crates parsing their own sealed formats (the `uae-server`
/// tenant manifest) reuse the same bounds-checked primitives.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, starting at offset zero.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        if self.pos + n > self.bytes.len() {
            return Err(LoadError::Corrupt("unexpected end of blob"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take one byte.
    pub fn u8(&mut self) -> Result<u8, LoadError> {
        Ok(self.take(1)?[0])
    }

    /// Take a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, LoadError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Take a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, LoadError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Take a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, LoadError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Take a `u32`-length-prefixed UTF-8 string.
    pub fn str_field(&mut self) -> Result<&'a str, LoadError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| LoadError::Corrupt("non-utf8 string"))
    }

    fn tensor(&mut self) -> Result<Tensor, LoadError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| n <= self.bytes.len() / 4 + 1)
            .ok_or(LoadError::Corrupt("tensor shape overflows blob"))?;
        let raw = self.take(n * 4)?;
        let data: Vec<f32> =
            raw.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
        Ok(Tensor::from_vec(rows, cols, data))
    }
}

/// Apply mutation-fuzz edits to a decoder payload: each `(kind, pos, byte)`
/// overwrites (`0`), truncates at (`1`) or inserts `byte` at (`2`) position
/// `pos` modulo the current length plus one.
#[cfg(test)]
pub(crate) fn mutate(payload: &mut Vec<u8>, edits: &[(u8, u32, u8)]) {
    for &(kind, pos, byte) in edits {
        let at = pos as usize % (payload.len() + 1);
        match kind {
            0 if at < payload.len() => payload[at] = byte,
            1 => payload.truncate(at),
            _ => payload.insert(at, byte),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn store() -> ParamStore {
        let mut s = ParamStore::new();
        s.add("w", Tensor::from_vec(2, 3, vec![1.0, -2.5, 3.25, 0.0, 1e-7, -1e7]));
        s.add("b", Tensor::from_vec(1, 3, vec![0.5, 0.25, -0.125]));
        s
    }

    #[test]
    fn round_trip_preserves_weights() {
        let original = store();
        let blob = save_params(&original);
        let mut target = store();
        // Scramble, then load.
        for id in target.ids().collect::<Vec<_>>() {
            target.get_mut(id).fill_zero();
        }
        load_params(&mut target, &blob).expect("load");
        for id in original.ids() {
            assert_eq!(original.get(id), target.get(id));
        }
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        let mut s = store();
        assert_eq!(load_params(&mut s, b"nope"), Err(LoadError::BadMagic));
        let blob = save_params(&store());
        assert!(matches!(load_params(&mut s, &blob[..blob.len() - 3]), Err(LoadError::Corrupt(_))));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let blob = save_params(&store());
        let mut other = ParamStore::new();
        other.add("w", Tensor::zeros(2, 3));
        assert!(matches!(load_params(&mut other, &blob), Err(LoadError::ShapeMismatch(_))));
        let mut renamed = ParamStore::new();
        renamed.add("w", Tensor::zeros(2, 3));
        renamed.add("c", Tensor::zeros(1, 3));
        assert!(matches!(load_params(&mut renamed, &blob), Err(LoadError::ShapeMismatch(_))));
    }

    #[test]
    fn rejects_bit_flips_via_checksum() {
        let mut s = store();
        let clean = save_params(&store());
        // Flip a bit inside the last weight value: every structural field
        // still parses, so only the checksum can catch it.
        let mut flipped = clean.clone();
        let idx = flipped.len() - 10;
        flipped[idx] ^= 0x40;
        assert_eq!(load_params(&mut s, &flipped), Err(LoadError::ChecksumMismatch));
        // A damaged checksum itself is also a mismatch.
        let mut bad_sum = clean.clone();
        let last = bad_sum.len() - 1;
        bad_sum[last] ^= 0x01;
        assert_eq!(load_params(&mut s, &bad_sum), Err(LoadError::ChecksumMismatch));
        // The pristine blob still loads.
        load_params(&mut s, &clean).expect("clean blob loads");
    }

    #[test]
    fn versioning_is_checked() {
        let mut blob = save_params(&store());
        blob[4] = 9; // bump version byte
        let mut s = store();
        assert!(matches!(load_params(&mut s, &blob), Err(LoadError::BadVersion(_))));
    }

    fn checkpoint() -> CheckpointState {
        CheckpointState {
            weights: save_params(&store()),
            adam_t: 17,
            adam_m: vec![
                Tensor::from_vec(2, 3, vec![0.1; 6]),
                Tensor::from_vec(1, 3, vec![0.2; 3]),
            ],
            adam_v: vec![
                Tensor::from_vec(2, 3, vec![0.3; 6]),
                Tensor::from_vec(1, 3, vec![0.4; 3]),
            ],
            lr: 1.5e-3,
            rng: [1, 2, 3, 4],
            est_rng: [5, 6, 7, 8],
            stats: TrainStats {
                epochs: 3,
                steps: 40,
                executed_steps: 38,
                clipped_steps: 5,
                skipped_steps: 2,
                rollbacks: 1,
            },
        }
    }

    #[test]
    fn checkpoint_round_trip() {
        let ck = checkpoint();
        let blob = save_checkpoint(&ck);
        assert_eq!(load_checkpoint(&blob).expect("load"), ck);
        // Lazy-init (empty moments) round-trips too.
        let empty = CheckpointState { adam_m: vec![], adam_v: vec![], adam_t: 0, ..checkpoint() };
        assert_eq!(load_checkpoint(&save_checkpoint(&empty)).expect("load"), empty);
    }

    #[test]
    fn checkpoint_rejects_garbage_truncation_and_versions() {
        assert_eq!(load_checkpoint(b"UAEW\x01\x00\x00\x00"), Err(LoadError::BadMagic));
        assert_eq!(load_checkpoint(b"xy"), Err(LoadError::Corrupt("unexpected end of blob")));
        let blob = save_checkpoint(&checkpoint());
        for cut in [5, blob.len() / 2, blob.len() - 1] {
            assert!(
                matches!(load_checkpoint(&blob[..cut]), Err(LoadError::Corrupt(_))),
                "truncation at {cut} must be rejected"
            );
        }
        let mut extended = blob.clone();
        extended.push(0);
        assert_eq!(load_checkpoint(&extended), Err(LoadError::Corrupt("trailing bytes")));
        let mut versioned = blob;
        versioned[4] = 9;
        assert_eq!(load_checkpoint(&versioned), Err(LoadError::BadVersion(9)));
    }

    #[test]
    fn checkpoint_rejects_bit_flips_via_checksum() {
        let clean = save_checkpoint(&checkpoint());
        // Flip a bit inside the trailing stats counters: structurally valid,
        // semantically corrupt.
        let mut flipped = clean.clone();
        let idx = flipped.len() - 12;
        flipped[idx] ^= 0x80;
        assert_eq!(load_checkpoint(&flipped), Err(LoadError::ChecksumMismatch));
        let mut bad_sum = clean.clone();
        let last = bad_sum.len() - 1;
        bad_sum[last] ^= 0x01;
        assert_eq!(load_checkpoint(&bad_sum), Err(LoadError::ChecksumMismatch));
        load_checkpoint(&clean).expect("clean blob loads");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Mutation fuzz of the checkpoint parser: overwrite, truncate or
        /// extend a valid payload, then re-seal it so the mutation gets
        /// past the checksum into the field parser. Loading must return a
        /// typed result (a panic or an abort fails the test), and whatever
        /// it accepts must re-save to the very same bytes.
        #[test]
        fn checkpoint_decode_survives_mutated_payloads(
            edits in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..=6),
        ) {
            let sealed = save_checkpoint(&checkpoint());
            let mut payload = open_blob(&sealed, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
                .expect("valid blob")
                .to_vec();
            mutate(&mut payload, &edits);
            let blob = seal_blob(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &payload);
            if let Ok(ck) = load_checkpoint(&blob) {
                prop_assert_eq!(save_checkpoint(&ck), blob);
            }
        }

        /// The `UAEW` weights decoder under the same mutations: it never
        /// panics, a rejected blob leaves the store untouched (two-phase
        /// load), and an accepted one re-saves to the same bytes.
        #[test]
        fn weights_decode_survives_mutated_payloads(
            edits in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..=6),
        ) {
            let sealed = save_params(&store());
            let mut payload = open_blob(&sealed, MAGIC, VERSION).expect("valid blob").to_vec();
            mutate(&mut payload, &edits);
            let blob = seal_blob(MAGIC, VERSION, &payload);
            let mut target = store();
            match load_params(&mut target, &blob) {
                Ok(()) => prop_assert_eq!(save_params(&target), blob),
                Err(_) => prop_assert_eq!(save_params(&target), sealed),
            }
        }
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("uae_ck_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.uaec");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file must not survive the rename");
        std::fs::remove_dir_all(&dir).ok();
    }
}
