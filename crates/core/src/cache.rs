//! Crash-safe persistent artifact cache.
//!
//! Stage artifacts (today: schedule and encode, the two expensive tail
//! stages) are serialized under their existing FNV-1a content
//! fingerprints into a cache directory. The write path is atomic —
//! entries are staged to a temp file and renamed into place — and every
//! entry carries a versioned header with a checksum of the payload, so
//! torn writes, bit-rot, truncation and format drift are all *detected*
//! on load rather than served. A detected-bad entry is quarantined into
//! a `corrupt/` subdirectory next to a `.reason` file and the stage is
//! recomputed: a corrupt cache can cost time but can never corrupt
//! output.
//!
//! All filesystem access goes through the [`CacheBackend`] trait so the
//! chaos harness ([`ChaosBackend`], driven by `dspcc::fault_io`) can
//! inject seeded I/O faults — torn write at byte *k*, flipped byte,
//! ENOSPC, delayed read, vanished file, transient read error — under
//! the real recovery machinery.
//!
//! ## On-disk entry format (version 1)
//!
//! | bytes | field       | value                                   |
//! |-------|-------------|-----------------------------------------|
//! | 4     | magic       | `"DSPC"`                                |
//! | 4     | version     | `1` (u32 LE)                            |
//! | 4+n   | stage       | length-prefixed UTF-8 stage name        |
//! | 8     | key         | the stage fingerprint (u64 LE)          |
//! | 8     | payload_len | payload byte count (u64 LE)             |
//! | 8     | checksum    | FNV-1a over the payload bytes (u64 LE)  |
//! | n     | payload     | stage-specific codec output             |
//!
//! Any header-field mismatch (wrong magic / version / stage / key /
//! length) or checksum failure quarantines the entry. The payload codec
//! itself ([`encode_schedule_artifact`] & friends) is length-prefixed
//! throughout, so a checksum-passing-but-undecodable payload (format
//! drift inside one version) is also caught and quarantined.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dspcc_arch::{Fnv64, SplitMix64};
use dspcc_encode::{Microcode, Word};
use dspcc_ir::RtId;
use dspcc_num::WordFormat;
use dspcc_sched::{Degradation, DegradeAction, Schedule};

use crate::pipeline::Core;
use crate::stages::{EncodeArtifact, ScheduleArtifact};

/// Entry-format magic bytes.
pub const ENTRY_MAGIC: [u8; 4] = *b"DSPC";
/// Entry-format version. Bump when a payload codec changes shape; old
/// entries are then detected as `version mismatch` and recomputed.
pub const ENTRY_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Backend trait
// ---------------------------------------------------------------------------

/// The filesystem primitives [`DiskCache`] uses, factored behind a
/// trait so fault injection can wrap them. Implementations must be
/// thread-safe; the cache is shared across compile workers.
pub trait CacheBackend: Send + Sync {
    /// Reads the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Writes `bytes` to `path`, creating or truncating it.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Creates `path` and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

impl CacheBackend for StdFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

// ---------------------------------------------------------------------------
// Chaos backend
// ---------------------------------------------------------------------------

/// The I/O fault vocabulary the chaos harness drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoFaultKind {
    /// A write persists only its first *k* bytes (crash mid-write).
    TornWrite,
    /// One byte of a written file is flipped (bit-rot).
    FlipByte,
    /// Writes fail with `StorageFull` (disk out of space).
    WriteNoSpace,
    /// Reads succeed but are delayed (slow disk).
    ReadDelay,
    /// The file disappears right after it is renamed into place.
    Vanish,
    /// Reads fail with a transient I/O error.
    ReadError,
}

impl IoFaultKind {
    /// Every fault kind, in audit-sweep order.
    pub const ALL: [IoFaultKind; 6] = [
        IoFaultKind::TornWrite,
        IoFaultKind::FlipByte,
        IoFaultKind::WriteNoSpace,
        IoFaultKind::ReadDelay,
        IoFaultKind::Vanish,
        IoFaultKind::ReadError,
    ];

    /// Stable tag (names the substream and shows up in reports).
    pub fn name(self) -> &'static str {
        match self {
            IoFaultKind::TornWrite => "torn-write",
            IoFaultKind::FlipByte => "flip-byte",
            IoFaultKind::WriteNoSpace => "enospc",
            IoFaultKind::ReadDelay => "read-delay",
            IoFaultKind::Vanish => "vanish",
            IoFaultKind::ReadError => "read-error",
        }
    }
}

impl fmt::Display for IoFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A [`CacheBackend`] decorator that injects one seeded fault kind.
///
/// Determinism: fault sites and parameters (tear position, flipped
/// byte) are drawn from a [`SplitMix64`] substream of the seed, so a
/// cell replays identically. The *first* eligible operation always
/// faults (a chaos cell that injected nothing proves nothing); later
/// eligible operations fault with 70% probability so different seeds
/// exercise different interleavings of good and bad I/O.
pub struct ChaosBackend {
    inner: Arc<dyn CacheBackend>,
    kind: IoFaultKind,
    rng: Mutex<SplitMix64>,
    injected: AtomicU64,
    eligible: AtomicU64,
    /// For [`IoFaultKind::ReadError`]: remaining reads that will fail.
    /// `u64::MAX` means every read fails.
    read_error_budget: AtomicU64,
}

impl ChaosBackend {
    /// A chaos decorator over `inner` injecting `kind` faults drawn
    /// from `seed`.
    pub fn new(inner: Arc<dyn CacheBackend>, kind: IoFaultKind, seed: u64) -> Self {
        ChaosBackend {
            inner,
            kind,
            rng: Mutex::new(SplitMix64::substream(
                seed,
                Fnv64::of_parts(|h| {
                    h.write_text("chaos-io");
                    h.write_text(kind.name());
                }),
            )),
            injected: AtomicU64::new(0),
            eligible: AtomicU64::new(0),
            read_error_budget: AtomicU64::new(u64::MAX),
        }
    }

    /// Limits [`IoFaultKind::ReadError`] to the first `budget` reads;
    /// later reads succeed. Models a disk that recovers — the service
    /// retry path needs exactly this shape.
    pub fn with_read_error_budget(self, budget: u64) -> Self {
        self.read_error_budget.store(budget, Ordering::SeqCst);
        self
    }

    /// How many faults have been injected so far. The audit uses this
    /// as the existence proof that the cell actually saw chaos.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// True when this operation should fault: always the first
    /// eligible one, 70% of the rest.
    fn fire(&self) -> bool {
        let n = self.eligible.fetch_add(1, Ordering::SeqCst);
        let hit = n == 0 || self.rng.lock().expect("chaos rng lock").chance(70);
        if hit {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        hit
    }
}

impl CacheBackend for ChaosBackend {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.kind {
            IoFaultKind::ReadDelay => {
                if self.fire() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                self.inner.read(path)
            }
            IoFaultKind::ReadError => {
                let budget = self.read_error_budget.load(Ordering::SeqCst);
                if budget > 0 && self.fire() {
                    if budget != u64::MAX {
                        self.read_error_budget.fetch_sub(1, Ordering::SeqCst);
                    }
                    return Err(io::Error::other("injected transient read error"));
                }
                self.inner.read(path)
            }
            _ => self.inner.read(path),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.kind {
            IoFaultKind::TornWrite if self.fire() => {
                let keep = if bytes.is_empty() {
                    0
                } else {
                    // 0 ..= len-1: never persists the full file.
                    self.rng
                        .lock()
                        .expect("chaos rng lock")
                        .range(0, bytes.len() as u32 - 1) as usize
                };
                self.inner.write(path, &bytes[..keep])
            }
            IoFaultKind::FlipByte if !bytes.is_empty() && self.fire() => {
                let mut flipped = bytes.to_vec();
                let (at, bit) = {
                    let mut rng = self.rng.lock().expect("chaos rng lock");
                    (
                        rng.range(0, flipped.len() as u32 - 1) as usize,
                        rng.range(0, 7) as u8,
                    )
                };
                flipped[at] ^= 1 << bit;
                self.inner.write(path, &flipped)
            }
            IoFaultKind::WriteNoSpace if self.fire() => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            )),
            _ => self.inner.write(path, bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)?;
        if self.kind == IoFaultKind::Vanish && self.fire() {
            let _ = self.inner.remove(to);
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
}

// ---------------------------------------------------------------------------
// Byte codec primitives
// ---------------------------------------------------------------------------

/// Little-endian append-only buffer the payload codecs write into.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty buffer.
    pub fn new() -> Self {
        ByteWriter::default()
    }
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a u32 (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a u64 (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an i64 (LE, two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a length-prefixed UTF-8 string.
    pub fn text(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over codec bytes; every accessor is bounds-checked and
/// returns a reason string on underrun or malformed data, which the
/// cache turns into a quarantine.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("payload underrun: need {n} bytes at offset {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    /// Reads a u32 (LE).
    pub fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    /// Reads a u64 (LE).
    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }
    /// Reads an i64 (LE).
    pub fn i64(&mut self) -> Result<i64, String> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }
    /// Reads a length-prefixed UTF-8 string.
    pub fn text(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 in text: {e}"))
    }
    /// Fails unless the whole buffer was consumed (trailing garbage is
    /// as suspicious as truncation).
    pub fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Disk cache
// ---------------------------------------------------------------------------

/// What to do when the backend reports a *transient* I/O error (not
/// corruption) on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransientPolicy {
    /// Treat it as a miss and recompute the stage — the standalone
    /// fail-open posture.
    #[default]
    Recompute,
    /// Surface it as `CompileError::CacheIo` so the caller (the
    /// compile service) can retry with backoff instead of stampeding
    /// recomputes onto a sick disk.
    Fail,
}

/// Load outcome, one variant per recovery path.
#[derive(Debug)]
pub enum Load {
    /// Valid entry; the checksum-verified payload bytes.
    Hit(Vec<u8>),
    /// No entry on disk.
    Miss,
    /// Entry failed validation, was quarantined; recompute.
    Corrupt,
    /// Backend I/O error that is not corruption (disk trouble);
    /// handled per [`TransientPolicy`].
    Transient(String),
}

/// Monotonic counters describing cache traffic; every recovery path
/// increments exactly one, so tests can use the snapshot as a witness
/// that a fault was detected and recovered rather than served.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries written (temp + rename completed).
    pub stores: u64,
    /// Store attempts that failed on backend I/O (best-effort: the
    /// compile proceeds, the entry just is not persisted).
    pub store_errors: u64,
    /// Loads that returned a validated payload.
    pub hits: u64,
    /// Loads with no entry on disk.
    pub misses: u64,
    /// Entries that failed validation and were moved to `corrupt/`.
    pub quarantined: u64,
    /// Loads that failed on transient backend I/O.
    pub read_errors: u64,
}

#[derive(Debug, Default)]
struct StatsCells {
    stores: AtomicU64,
    store_errors: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    read_errors: AtomicU64,
}

/// The persistent artifact cache. One instance per cache directory;
/// cheap to clone behind the [`Arc`] the session holds.
pub struct DiskCache {
    root: PathBuf,
    backend: Arc<dyn CacheBackend>,
    policy: TransientPolicy,
    nonce: AtomicU64,
    stats: StatsCells,
}

impl fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskCache")
            .field("root", &self.root)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl DiskCache {
    /// A cache rooted at `root` on the real filesystem.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DiskCache::with_backend(root, Arc::new(StdFs))
    }

    /// A cache rooted at `root` over an explicit backend (tests and
    /// chaos injection).
    pub fn with_backend(root: impl Into<PathBuf>, backend: Arc<dyn CacheBackend>) -> Self {
        DiskCache {
            root: root.into(),
            backend,
            policy: TransientPolicy::default(),
            nonce: AtomicU64::new(0),
            stats: StatsCells::default(),
        }
    }

    /// Sets the transient-error policy (builder style).
    pub fn transient_policy(mut self, policy: TransientPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The configured transient-error policy.
    pub fn policy(&self) -> TransientPolicy {
        self.policy
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            stores: self.stats.stores.load(Ordering::SeqCst),
            store_errors: self.stats.store_errors.load(Ordering::SeqCst),
            hits: self.stats.hits.load(Ordering::SeqCst),
            misses: self.stats.misses.load(Ordering::SeqCst),
            quarantined: self.stats.quarantined.load(Ordering::SeqCst),
            read_errors: self.stats.read_errors.load(Ordering::SeqCst),
        }
    }

    fn entry_path(&self, stage: &str, key: u64) -> PathBuf {
        self.root.join(stage).join(format!("{key:016x}.bin"))
    }

    fn next_nonce(&self) -> u64 {
        self.nonce.fetch_add(1, Ordering::SeqCst)
    }

    /// Serializes `payload` under (`stage`, `key`) atomically:
    /// header+payload staged to a temp file, then renamed into place.
    /// Best-effort — a failed store is counted, the temp file cleaned
    /// up, and the compile proceeds unpersisted.
    pub fn store(&self, stage: &str, key: u64, payload: &[u8]) {
        let mut w = ByteWriter::new();
        w.raw(&ENTRY_MAGIC);
        w.u32(ENTRY_VERSION);
        w.text(stage);
        w.u64(key);
        w.u64(payload.len() as u64);
        w.u64(Fnv64::of_parts(|h| h.write_bytes(payload)));
        w.raw(payload);
        let bytes = w.into_bytes();

        let dir = self.root.join(stage);
        let tmp_dir = self.root.join("tmp");
        let tmp = tmp_dir.join(format!(
            "{stage}-{key:016x}-{}-{}.tmp",
            std::process::id(),
            self.next_nonce()
        ));
        let result = self
            .backend
            .create_dir_all(&dir)
            .and_then(|()| self.backend.create_dir_all(&tmp_dir))
            .and_then(|()| self.backend.write(&tmp, &bytes))
            .and_then(|()| self.backend.rename(&tmp, &self.entry_path(stage, key)));
        match result {
            Ok(()) => {
                self.stats.stores.fetch_add(1, Ordering::SeqCst);
            }
            Err(_) => {
                self.stats.store_errors.fetch_add(1, Ordering::SeqCst);
                let _ = self.backend.remove(&tmp);
            }
        }
    }

    /// Loads and validates the entry under (`stage`, `key`).
    pub fn load(&self, stage: &str, key: u64) -> Load {
        let path = self.entry_path(stage, key);
        let bytes = match self.backend.read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.stats.misses.fetch_add(1, Ordering::SeqCst);
                return Load::Miss;
            }
            Err(e) => {
                self.stats.read_errors.fetch_add(1, Ordering::SeqCst);
                return Load::Transient(format!("read {}: {e}", path.display()));
            }
        };
        match validate_entry(&bytes, stage, key) {
            Ok(payload) => {
                self.stats.hits.fetch_add(1, Ordering::SeqCst);
                Load::Hit(payload.to_vec())
            }
            Err(reason) => {
                self.quarantine(stage, key, &bytes, &reason);
                Load::Corrupt
            }
        }
    }

    /// Moves a bad entry aside into `corrupt/` with a `.reason` file
    /// and removes the live entry so the recompute's store can take
    /// its place. Also the hook the session uses when a
    /// checksum-passing payload fails its codec.
    pub fn quarantine(&self, stage: &str, key: u64, bytes: &[u8], reason: &str) {
        self.stats.quarantined.fetch_add(1, Ordering::SeqCst);
        let dir = self.root.join("corrupt");
        let base = format!("{stage}-{key:016x}-{}", self.next_nonce());
        // Preservation is best-effort: quarantine exists for forensics,
        // and the one non-negotiable step is dropping the live entry.
        let _ = self.backend.create_dir_all(&dir);
        let _ = self.backend.write(&dir.join(format!("{base}.bin")), bytes);
        let _ = self
            .backend
            .write(&dir.join(format!("{base}.reason")), reason.as_bytes());
        let _ = self.backend.remove(&self.entry_path(stage, key));
    }
}

/// Checks every header field and the payload checksum; returns the
/// payload slice or the first failure's reason.
fn validate_entry<'a>(bytes: &'a [u8], stage: &str, key: u64) -> Result<&'a [u8], String> {
    let mut r = ByteReader::new(bytes);
    let magic = match bytes.get(..4) {
        Some(m) => m,
        None => return Err(format!("entry too short: {} bytes", bytes.len())),
    };
    if magic != ENTRY_MAGIC {
        return Err(format!("bad magic {magic:02x?}"));
    }
    r.pos = 4;
    let version = r.u32().map_err(|e| format!("header: {e}"))?;
    if version != ENTRY_VERSION {
        return Err(format!(
            "version mismatch: entry v{version}, expected v{ENTRY_VERSION}"
        ));
    }
    let entry_stage = r.text().map_err(|e| format!("header: {e}"))?;
    if entry_stage != stage {
        return Err(format!(
            "stage mismatch: entry is '{entry_stage}', expected '{stage}'"
        ));
    }
    let entry_key = r.u64().map_err(|e| format!("header: {e}"))?;
    if entry_key != key {
        return Err(format!(
            "key mismatch: entry {entry_key:016x}, expected {key:016x}"
        ));
    }
    let payload_len = r.u64().map_err(|e| format!("header: {e}"))? as usize;
    let checksum = r.u64().map_err(|e| format!("header: {e}"))?;
    let payload = &bytes[r.pos..];
    if payload.len() != payload_len {
        return Err(format!(
            "length mismatch: header says {payload_len} payload bytes, file has {}",
            payload.len()
        ));
    }
    let actual = Fnv64::of_parts(|h| h.write_bytes(payload));
    if actual != checksum {
        return Err(format!(
            "checksum mismatch: header {checksum:016x}, payload hashes to {actual:016x}"
        ));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Stage-artifact codecs
// ---------------------------------------------------------------------------

// Degradation's `stage` is a &'static str; persisted entries map it
// through a tag so decode can recover the interned name.
const DEGRADE_STAGE_SCHEDULE: u8 = 0;

/// Serializes a [`ScheduleArtifact`] payload. Round-trips the *raw*
/// cycle rows (including trailing empties) so the decoded schedule is
/// `==` to the stored one.
pub fn encode_schedule_artifact(artifact: &ScheduleArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let cycles = artifact.schedule.cycles();
    w.u64(cycles.len() as u64);
    for row in cycles {
        w.u32(row.len() as u32);
        for rt in row {
            w.u32(rt.0);
        }
    }
    w.u32(artifact.bound);
    match artifact.degradation {
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            w.u8(match d.stage {
                "schedule" => DEGRADE_STAGE_SCHEDULE,
                // Unknown stage names cannot round-trip through the
                // tag; persist the entry as undegraded-marker-less is
                // wrong, so fall back to the schedule tag — today
                // "schedule" is the only producer (see fuel.rs).
                _ => DEGRADE_STAGE_SCHEDULE,
            });
            w.u64(d.spent);
            match d.action {
                DegradeAction::ExactToHeuristic { nodes_explored } => {
                    w.u8(0);
                    w.u64(nodes_explored);
                }
                DegradeAction::SearchTruncated { skipped } => {
                    w.u8(1);
                    w.u64(skipped);
                }
            }
        }
    }
    w.into_bytes()
}

/// Deserializes a [`ScheduleArtifact`] payload. The stage time is
/// reported as zero — disk hits are charged like memo hits.
pub fn decode_schedule_artifact(bytes: &[u8]) -> Result<ScheduleArtifact, String> {
    let mut r = ByteReader::new(bytes);
    let cycle_count = r.u64()? as usize;
    if cycle_count > bytes.len() {
        return Err(format!("implausible cycle count {cycle_count}"));
    }
    let mut cycles = Vec::with_capacity(cycle_count);
    for _ in 0..cycle_count {
        let len = r.u32()? as usize;
        let mut row = Vec::with_capacity(len.min(bytes.len()));
        for _ in 0..len {
            row.push(RtId(r.u32()?));
        }
        cycles.push(row);
    }
    let bound = r.u32()?;
    let degradation = match r.u8()? {
        0 => None,
        1 => {
            let stage = match r.u8()? {
                DEGRADE_STAGE_SCHEDULE => "schedule",
                tag => return Err(format!("unknown degradation stage tag {tag}")),
            };
            let spent = r.u64()?;
            let action = match r.u8()? {
                0 => DegradeAction::ExactToHeuristic {
                    nodes_explored: r.u64()?,
                },
                1 => DegradeAction::SearchTruncated { skipped: r.u64()? },
                tag => return Err(format!("unknown degrade action tag {tag}")),
            };
            Some(Degradation {
                stage,
                spent,
                action,
            })
        }
        tag => return Err(format!("bad degradation option tag {tag}")),
    };
    r.finish()?;
    Ok(ScheduleArtifact {
        schedule: Arc::new(Schedule::from_cycles(cycles)),
        bound,
        degradation,
        time: Duration::ZERO,
    })
}

/// Serializes an [`EncodeArtifact`] payload: microcode words (as raw
/// bit chunks), ROM image, region size, I/O orders and word format.
/// The field layout is *not* stored — the decoder takes the core's (and
/// the encode key already pins the core).
pub fn encode_encode_artifact(artifact: &EncodeArtifact) -> Vec<u8> {
    let mc = &artifact.microcode;
    let mut w = ByteWriter::new();
    w.u64(mc.words.len() as u64);
    for word in &mc.words {
        w.u32(word.width());
        for chunk in word_chunks(word) {
            w.u64(chunk);
        }
    }
    w.u64(mc.rom_image.len() as u64);
    for &v in &mc.rom_image {
        w.i64(v);
    }
    w.u32(mc.region_size);
    for order in [&mc.output_order, &mc.input_order] {
        w.u64(order.len() as u64);
        for (opu, port) in order {
            w.text(opu);
            w.u64(*port as u64);
        }
    }
    w.u32(mc.word_format.width());
    w.into_bytes()
}

/// Deserializes an [`EncodeArtifact`] payload against `core`, whose
/// shared field layout the microcode takes.
pub fn decode_encode_artifact(bytes: &[u8], core: &Core) -> Result<EncodeArtifact, String> {
    let mut r = ByteReader::new(bytes);
    let layout = core.layout();
    let word_count = r.u64()? as usize;
    if word_count > bytes.len() {
        return Err(format!("implausible word count {word_count}"));
    }
    let mut words = Vec::with_capacity(word_count);
    for _ in 0..word_count {
        let width = r.u32()?;
        if width != layout.width() {
            return Err(format!(
                "word width {width} does not match core's layout width {}",
                layout.width()
            ));
        }
        let mut word = Word::new(width);
        let mut offset = 0u32;
        while offset < width {
            let step = (width - offset).min(64);
            word.set_bits(offset, step, r.u64()?);
            offset += step;
        }
        words.push(word);
    }
    let rom_count = r.u64()? as usize;
    if rom_count > bytes.len() {
        return Err(format!("implausible ROM length {rom_count}"));
    }
    let mut rom_image = Vec::with_capacity(rom_count);
    for _ in 0..rom_count {
        rom_image.push(r.i64()?);
    }
    let region_size = r.u32()?;
    let mut orders: [Vec<(String, usize)>; 2] = [Vec::new(), Vec::new()];
    for order in &mut orders {
        let len = r.u64()? as usize;
        if len > bytes.len() {
            return Err(format!("implausible I/O order length {len}"));
        }
        for _ in 0..len {
            let opu = r.text()?;
            let port = r.u64()? as usize;
            order.push((opu, port));
        }
    }
    let format_width = r.u32()?;
    r.finish()?;
    if format_width != core.format.width() {
        return Err(format!(
            "word format width {format_width} does not match core's {}",
            core.format.width()
        ));
    }
    let word_format = WordFormat::new(format_width).map_err(|e| format!("bad word format: {e}"))?;
    let [output_order, input_order] = orders;
    Ok(EncodeArtifact {
        microcode: Arc::new(Microcode {
            words,
            layout: Arc::clone(layout),
            rom_image,
            region_size,
            output_order,
            input_order,
            word_format,
        }),
        time: Duration::ZERO,
    })
}

/// A word's bits as little-endian 64-bit chunks (the inverse of the
/// `set_bits` loop in [`decode_encode_artifact`]).
fn word_chunks(word: &Word) -> Vec<u64> {
    let width = word.width();
    let mut chunks = Vec::with_capacity(width.div_ceil(64) as usize);
    let mut offset = 0u32;
    while offset < width {
        let step = (width - offset).min(64);
        chunks.push(word.bits(offset, step));
        offset += step;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dspcc-cache-test-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn byte_codec_round_trips() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.text("schedule");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.text().unwrap(), "schedule");
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_underrun_and_trailing_garbage() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.u32().is_err());
        let mut r = ByteReader::new(&[1, 2, 3, 4, 5]);
        r.u32().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn store_then_load_round_trips() {
        let root = temp_root("roundtrip");
        let cache = DiskCache::new(&root);
        cache.store("schedule", 0xABCD, b"payload bytes");
        match cache.load("schedule", 0xABCD) {
            Load::Hit(p) => assert_eq!(p, b"payload bytes"),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.stores, stats.hits, stats.quarantined), (1, 1, 0));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let root = temp_root("miss");
        let cache = DiskCache::new(&root);
        assert!(matches!(cache.load("schedule", 1), Load::Miss));
        assert_eq!(cache.stats().misses, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wrong_key_and_wrong_stage_quarantine() {
        let root = temp_root("mismatch");
        let cache = DiskCache::new(&root);
        cache.store("schedule", 5, b"x");
        // Copy the valid entry under a different key: key field now
        // disagrees with the file name it is served under.
        let src = root.join("schedule").join(format!("{:016x}.bin", 5u64));
        let dst = root.join("schedule").join(format!("{:016x}.bin", 6u64));
        std::fs::copy(&src, &dst).unwrap();
        assert!(matches!(cache.load("schedule", 6), Load::Corrupt));
        let dst2 = root.join("encode");
        std::fs::create_dir_all(&dst2).unwrap();
        std::fs::copy(&src, dst2.join(format!("{:016x}.bin", 5u64))).unwrap();
        assert!(matches!(cache.load("encode", 5), Load::Corrupt));
        assert_eq!(cache.stats().quarantined, 2);
        // Quarantine wrote reason files.
        let reasons: Vec<_> = std::fs::read_dir(root.join("corrupt"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "reason"))
            .collect();
        assert_eq!(reasons.len(), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let root = temp_root("flip");
        let cache = DiskCache::new(&root);
        cache.store("schedule", 0x42, b"sensitive payload");
        let path = root.join("schedule").join(format!("{:016x}.bin", 0x42u64));
        let clean = std::fs::read(&path).unwrap();
        for at in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[at] ^= 1u8 << bit;
                assert!(
                    validate_entry(&bytes, "schedule", 0x42).is_err(),
                    "flip at byte {at} bit {bit} went undetected"
                );
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let root = temp_root("trunc");
        let cache = DiskCache::new(&root);
        cache.store("encode", 9, b"0123456789");
        let path = root.join("encode").join(format!("{:016x}.bin", 9u64));
        let clean = std::fs::read(&path).unwrap();
        for len in 0..clean.len() {
            assert!(
                validate_entry(&clean[..len], "encode", 9).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn chaos_torn_write_quarantines_and_recovers() {
        let root = temp_root("chaos-torn");
        let chaos = Arc::new(ChaosBackend::new(
            Arc::new(StdFs),
            IoFaultKind::TornWrite,
            11,
        ));
        let cache = DiskCache::with_backend(&root, chaos.clone());
        cache.store("schedule", 1, b"payload that will be torn mid-write");
        // First write always faults: the stored entry is torn.
        assert!(chaos.injected() >= 1);
        match cache.load("schedule", 1) {
            Load::Corrupt | Load::Miss => {}
            other => panic!("torn entry served as {other:?}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn chaos_enospc_is_counted_not_fatal() {
        let root = temp_root("chaos-enospc");
        let chaos = Arc::new(ChaosBackend::new(
            Arc::new(StdFs),
            IoFaultKind::WriteNoSpace,
            3,
        ));
        let cache = DiskCache::with_backend(&root, chaos);
        cache.store("schedule", 1, b"never lands");
        assert_eq!(cache.stats().store_errors, 1);
        assert!(matches!(cache.load("schedule", 1), Load::Miss));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn chaos_read_error_budget_recovers() {
        let root = temp_root("chaos-readerr");
        let chaos = Arc::new(
            ChaosBackend::new(Arc::new(StdFs), IoFaultKind::ReadError, 7).with_read_error_budget(1),
        );
        let cache = DiskCache::with_backend(&root, chaos);
        cache.store("schedule", 1, b"eventually readable");
        assert!(matches!(cache.load("schedule", 1), Load::Transient(_)));
        match cache.load("schedule", 1) {
            Load::Hit(p) => assert_eq!(p, b"eventually readable"),
            other => panic!("expected recovery, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn schedule_artifact_codec_round_trips() {
        let mut schedule = Schedule::from_cycles(vec![
            vec![RtId(3), RtId(1)],
            vec![],
            vec![RtId(7)],
            vec![], // trailing empty row must survive the round trip
        ]);
        schedule.place(RtId(9), 2);
        let artifact = ScheduleArtifact {
            schedule: Arc::new(schedule),
            bound: 2,
            degradation: Some(Degradation {
                stage: "schedule",
                spent: 1234,
                action: DegradeAction::ExactToHeuristic { nodes_explored: 88 },
            }),
            time: Duration::from_millis(5),
        };
        let bytes = encode_schedule_artifact(&artifact);
        let back = decode_schedule_artifact(&bytes).unwrap();
        assert_eq!(*back.schedule, *artifact.schedule);
        assert_eq!(back.bound, artifact.bound);
        assert_eq!(back.degradation, artifact.degradation);
        assert_eq!(back.time, Duration::ZERO);
    }

    #[test]
    fn schedule_codec_rejects_corrupt_tags() {
        let artifact = ScheduleArtifact {
            schedule: Arc::new(Schedule::from_cycles(vec![vec![RtId(1)]])),
            bound: 1,
            degradation: None,
            time: Duration::ZERO,
        };
        let mut bytes = encode_schedule_artifact(&artifact);
        // The final byte is the degradation option tag; make it junk.
        *bytes.last_mut().unwrap() = 9;
        assert!(decode_schedule_artifact(&bytes).is_err());
        // Truncation is also rejected.
        assert!(decode_schedule_artifact(&bytes[..bytes.len() - 1]).is_err());
    }
}
