//! Persistent artifact cache: corruption negative paths and the
//! warm-from-disk bit-identity pin.
//!
//! Each test compiles cold through a private on-disk cache, damages the
//! persisted entries in a specific way (truncation, flipped checksum
//! byte, version skew, racing writers), then compiles warm through a
//! *fresh* session and asserts two things:
//!
//! 1. the damage is **detected** — the bad entry lands in `corrupt/`
//!    with a `.reason` file and the quarantine counter ticks;
//! 2. the warm compile is **bit-identical** to the cold one anyway —
//!    microcode words, schedule, and register assignment — because a
//!    corrupt entry degrades to a recompute, never to a wrong serve.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dspcc::{apps, cores, CompileOptions, CompileSession, Compiled, DiskCache};

/// A unique, self-cleaning cache directory per test.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dspcc-cache-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TestDir(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn compile_with(cache: &Arc<DiskCache>, source: &str) -> Compiled {
    let session = CompileSession::with_disk_cache(Arc::clone(cache));
    session
        .compile(&Arc::new(cores::audio_core()), source, &options())
        .expect("corpus app compiles on the audio core")
}

fn options() -> CompileOptions {
    CompileOptions {
        restarts: 2,
        ..CompileOptions::default()
    }
}

/// The persisted stage directories that must exist after a cold compile.
const PERSISTED_STAGES: [&str; 2] = ["schedule", "encode"];

fn entry_files(root: &Path, stage: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(root.join(stage))
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "bin"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn assert_bit_identical(cold: &Compiled, warm: &Compiled) {
    assert_eq!(
        cold.microcode.words, warm.microcode.words,
        "microcode words diverged"
    );
    assert_eq!(
        cold.microcode.rom_image, warm.microcode.rom_image,
        "coefficient ROM diverged"
    );
    assert_eq!(*cold.schedule, *warm.schedule, "schedule diverged");
    assert_eq!(
        cold.assignment.mapping, warm.assignment.mapping,
        "register assignment diverged"
    );
}

fn quarantine_reasons(root: &Path) -> Vec<String> {
    fs::read_dir(root.join("corrupt"))
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "reason"))
                .map(|p| fs::read_to_string(p).unwrap_or_default())
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn warm_from_disk_is_bit_identical_and_counts_disk_hits() {
    let dir = TestDir::new("warm");
    let cache = Arc::new(DiskCache::new(&dir.0));
    let source = apps::fir(8);
    let cold = compile_with(&cache, &source);
    for stage in PERSISTED_STAGES {
        assert_eq!(
            entry_files(&dir.0, stage).len(),
            1,
            "cold compile persists one {stage} entry"
        );
    }
    let warm = compile_with(&cache, &source);
    assert_bit_identical(&cold, &warm);
    assert!(
        warm.stats.disk_hits >= 2,
        "schedule and encode should both come off disk, got {}",
        warm.stats.disk_hits
    );
    assert_eq!(cache.stats().quarantined, 0);
}

#[test]
fn truncated_entry_is_quarantined_and_recomputed() {
    let dir = TestDir::new("truncate");
    let cache = Arc::new(DiskCache::new(&dir.0));
    let source = apps::fir(8);
    let cold = compile_with(&cache, &source);
    // Truncate every persisted entry to half length — a torn write that
    // survived a crash.
    for stage in PERSISTED_STAGES {
        for path in entry_files(&dir.0, stage) {
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        }
    }
    let warm = compile_with(&cache, &source);
    assert_bit_identical(&cold, &warm);
    assert_eq!(warm.stats.disk_hits, 0, "no truncated entry may serve");
    let stats = cache.stats();
    assert!(
        stats.quarantined >= 2,
        "both damaged entries quarantine, got {}",
        stats.quarantined
    );
    let reasons = quarantine_reasons(&dir.0);
    assert!(!reasons.is_empty(), "quarantine leaves .reason forensics");
    // The recompute re-stored valid entries; a third compile is a pure
    // disk-hit replay and still bit-identical.
    let rewarmed = compile_with(&cache, &source);
    assert_bit_identical(&cold, &rewarmed);
    assert!(rewarmed.stats.disk_hits >= 2);
}

#[test]
fn flipped_checksum_byte_is_quarantined_with_reason() {
    let dir = TestDir::new("flip");
    let cache = Arc::new(DiskCache::new(&dir.0));
    let source = apps::sum_of_products(6);
    let cold = compile_with(&cache, &source);
    // Flip one bit in the last payload byte of each entry: header parses
    // clean, checksum must catch it.
    for stage in PERSISTED_STAGES {
        for path in entry_files(&dir.0, stage) {
            let mut bytes = fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            fs::write(&path, &bytes).unwrap();
        }
    }
    let warm = compile_with(&cache, &source);
    assert_bit_identical(&cold, &warm);
    assert_eq!(warm.stats.disk_hits, 0);
    let reasons = quarantine_reasons(&dir.0);
    assert!(
        reasons.iter().any(|r| r.contains("checksum mismatch")),
        "reason files should name the checksum failure: {reasons:?}"
    );
}

#[test]
fn version_mismatch_is_quarantined_not_served() {
    let dir = TestDir::new("version");
    let cache = Arc::new(DiskCache::new(&dir.0));
    let source = apps::fir(8);
    let cold = compile_with(&cache, &source);
    // Bump the format version field (bytes 4..8, little-endian u32) as a
    // future — or corrupted — writer would leave it.
    for stage in PERSISTED_STAGES {
        for path in entry_files(&dir.0, stage) {
            let mut bytes = fs::read(&path).unwrap();
            let v = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            bytes[4..8].copy_from_slice(&(v + 1).to_le_bytes());
            fs::write(&path, &bytes).unwrap();
        }
    }
    let warm = compile_with(&cache, &source);
    assert_bit_identical(&cold, &warm);
    assert_eq!(warm.stats.disk_hits, 0);
    let reasons = quarantine_reasons(&dir.0);
    assert!(
        reasons.iter().any(|r| r.contains("version mismatch")),
        "reason files should name the version skew: {reasons:?}"
    );
}

#[test]
fn concurrent_writers_race_to_one_valid_entry() {
    let dir = TestDir::new("race");
    let source = apps::fir(8);
    // Eight threads, each with a private session *and* a private
    // DiskCache value on the same root — nothing shared in memory, so
    // every collision avoidance must come from the atomic
    // write-to-temp-then-rename protocol alone.
    let compiles: Vec<Compiled> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let root = dir.0.clone();
                let src = source.clone();
                scope.spawn(move || {
                    let cache = Arc::new(DiskCache::new(root));
                    compile_with(&cache, &src)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // All racers produced the same artifact…
    for other in &compiles[1..] {
        assert_bit_identical(&compiles[0], other);
    }
    // …and the dust settles into exactly one valid entry per stage.
    let cache = Arc::new(DiskCache::new(&dir.0));
    for stage in PERSISTED_STAGES {
        assert_eq!(
            entry_files(&dir.0, stage).len(),
            1,
            "racing writers must collapse to one {stage} entry"
        );
    }
    let warm = compile_with(&cache, &source);
    assert_bit_identical(&compiles[0], &warm);
    assert!(warm.stats.disk_hits >= 2, "the surviving entries are valid");
    assert_eq!(cache.stats().quarantined, 0);
    // No temp-file litter left behind.
    let leftovers = fs::read_dir(dir.0.join("tmp"))
        .map(|rd| rd.filter_map(Result::ok).count())
        .unwrap_or(0);
    assert_eq!(leftovers, 0, "rename cleans up every staged temp file");
}
