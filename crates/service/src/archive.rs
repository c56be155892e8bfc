//! Disk-backed snapshot archive: the durability layer of the session host.
//!
//! The paper's applications survive processor failures through
//! checkpoint/restart; this module applies the same idea to the host
//! itself. Every session's snapshot document (the versioned, bit-exact
//! JSON encoding from [`spec`](crate::spec)) can be checkpointed to a
//! per-session file, and on startup the server scans the archive and
//! registers every valid snapshot under its original id, restoring each
//! on first touch.
//!
//! **Framing.** Each file is one frame:
//!
//! ```text
//! magic  "RSNA"            4 bytes
//! version u32 LE           4 bytes   (archive framing version, currently 1)
//! length  u64 LE           8 bytes   (payload length in bytes)
//! crc32   u32 LE           4 bytes   (IEEE CRC-32 of the payload)
//! payload                  length bytes (snapshot JSON document)
//! ```
//!
//! **Atomicity.** Writes go to a `.tmp` sibling, are `fsync`ed, and then
//! renamed over the target (plus a best-effort directory fsync), so a
//! crash mid-checkpoint can tear at most the in-flight temp file — the
//! previous checkpoint of that session, if any, survives intact.
//!
//! **Quarantine, never panic.** Torn, truncated, or corrupt files found
//! by [`SnapshotArchive::scan`] are renamed into a `quarantine/`
//! subdirectory for post-mortem inspection; recovery continues with the
//! remaining sessions.
//!
//! **Manifest.** The archive keeps a `manifest` file — itself a CRC
//! frame whose payload is one text line per live snapshot:
//! `<id> <generation> <frame_len> <crc_hex>`. It is maintained
//! write-behind from an in-memory cache (every checkpoint, removal, and
//! quarantine updates the cache; the file is rewritten atomically once
//! enough operations accumulate, or on [`SnapshotArchive::flush_manifest`]).
//! A [`SnapshotArchive::scan`] that finds a valid manifest only *stats*
//! the named files — a snapshot whose size matches its manifest entry is
//! trusted without reading it, which turns restart recovery over a large
//! archive from O(bytes) into O(files). Content corruption that
//! preserves the size is still caught, at [`SnapshotArchive::load`]
//! time, by the frame CRC. A missing or torn manifest degrades to the
//! full directory walk — byte-for-byte the pre-manifest recovery path.
//!
//! **Compaction.** [`SnapshotArchive::compact`] (sweeper-scheduled on
//! the server, or `POST /v1/admin/compact`) deletes `.snap` files the
//! manifest does not know (superseded or foreign generations — only
//! once a scan has made the manifest authoritative, and only after a
//! debris age so an in-flight checkpoint is never raced), quarantines
//! aged `.tmp` debris, and ages evidence out of `quarantine/`.
//!
//! File operations consult an optional [`FaultPlan`] so the chaos suite
//! can deterministically tear writes at exact framing boundaries. The
//! manifest is pure write-behind metadata and **never** consults the
//! plan — fault schedules stay identical with or without it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use crate::faultio::{FaultPlan, FaultWriter};
use crate::sync::{rank, OrderedMutex};

/// Magic bytes opening every archive frame.
pub const ARCHIVE_MAGIC: [u8; 4] = *b"RSNA";
/// Version tag of the archive framing (independent of the snapshot
/// document's own `version` field).
pub const ARCHIVE_VERSION: u32 = 1;
/// Bytes of framing before the payload: magic + version + length + crc32.
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// IEEE CRC-32 (the zlib/PNG polynomial), table-driven, `std`-only.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Builds the full frame (header + payload) for a payload.
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&ARCHIVE_MAGIC);
    out.extend_from_slice(&ARCHIVE_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a frame and returns its payload, or a description of the
/// first problem found (used both for loads and for the recovery scan).
pub fn unframe(bytes: &[u8]) -> Result<&[u8], String> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(format!("truncated header ({} of {FRAME_HEADER_LEN} bytes)", bytes.len()));
    }
    if bytes[..4] != ARCHIVE_MAGIC {
        return Err("bad magic".into());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != ARCHIVE_VERSION {
        return Err(format!("unsupported archive version {version}"));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let expect_crc = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    let body = &bytes[FRAME_HEADER_LEN..];
    if (body.len() as u64) != len {
        return Err(format!(
            "payload length mismatch (header says {len}, have {})",
            body.len()
        ));
    }
    let got_crc = crc32(body);
    if got_crc != expect_crc {
        return Err(format!(
            "crc mismatch (header {expect_crc:#010x}, payload {got_crc:#010x})"
        ));
    }
    Ok(body)
}

/// What a recovery scan found.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Ids with a live, valid snapshot, ascending. Payloads are loaded
    /// (and CRC-verified) individually via [`SnapshotArchive::load`] —
    /// a manifest-trusting scan does not read snapshot contents at all.
    pub restored: Vec<u64>,
    /// Files moved to quarantine, with the reason each was rejected.
    pub quarantined: Vec<(PathBuf, String)>,
}

/// What a compaction pass did.
#[derive(Debug, Default)]
pub struct CompactReport {
    /// Files deleted: unmanifested `.snap` generations plus aged-out
    /// quarantine evidence.
    pub removed: usize,
    /// Aged `.tmp` debris newly moved into `quarantine/`.
    pub quarantined: usize,
}

/// Name of the manifest file inside the archive directory. The scan
/// skips it naturally (not a `.snap` file).
const MANIFEST_FILE: &str = "manifest";
/// Temp sibling the manifest is staged in before the atomic rename.
const MANIFEST_TMP: &str = "manifest.tmp";
/// How old a stray `.tmp` or unmanifested `.snap` file must be before
/// compaction touches it — an in-flight checkpoint is never this old.
const DEBRIS_AGE: Duration = Duration::from_secs(10);

/// One live snapshot as the manifest records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ManifestEntry {
    /// Monotonic per-id checkpoint counter (starts at 1, rebuilt scans
    /// restart it).
    generation: u64,
    /// Full file length: frame header + payload.
    frame_len: u64,
    /// CRC-32 of the payload, as the frame header records it.
    crc: u32,
}

/// The in-memory manifest cache behind [`rank::ARCHIVE_MANIFEST`].
#[derive(Debug, Default)]
struct ManifestState {
    entries: BTreeMap<u64, ManifestEntry>,
    /// Updates since the manifest file was last rewritten.
    dirty_ops: usize,
    /// Set by a completed scan: the cache provably covers every live
    /// snapshot, so compaction may delete `.snap` files it lacks.
    authoritative: bool,
}

/// A directory of per-session snapshot frames.
///
/// Cloneable/shareable via `Arc`; all operations are whole-file and the
/// write path is atomic (temp + fsync + rename), so concurrent
/// checkpoints of *different* sessions never interfere. Checkpoints of
/// the same session are serialized by the store's per-session mutex.
#[derive(Debug)]
pub struct SnapshotArchive {
    dir: PathBuf,
    plan: Option<Arc<FaultPlan>>,
    manifest: OrderedMutex<ManifestState>,
}

fn session_file_name(id: u64) -> String {
    format!("session-{id}.snap")
}

/// Parses `session-<id>.snap` back to the id.
fn parse_session_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("session-")?.strip_suffix(".snap")?.parse().ok()
}

impl SnapshotArchive {
    /// Opens (creating if needed) an archive directory.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            plan: None,
            manifest: OrderedMutex::new(rank::ARCHIVE_MANIFEST, ManifestState::default()),
        })
    }

    /// Opens an archive whose file writes consult `plan` — the chaos
    /// suite's entry point for deterministic torn-write injection.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open_with_faults(dir: impl Into<PathBuf>, plan: Arc<FaultPlan>) -> io::Result<Self> {
        let mut archive = Self::open(dir)?;
        archive.plan = Some(plan);
        Ok(archive)
    }

    /// The archive directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a session's snapshot file.
    #[must_use]
    pub fn path_for(&self, id: u64) -> PathBuf {
        self.dir.join(session_file_name(id))
    }

    /// Atomically checkpoints `payload` as session `id`'s snapshot:
    /// write temp, fsync, rename, best-effort directory fsync.
    ///
    /// # Errors
    /// Any I/O failure (including injected faults). On error the previous
    /// snapshot of `id`, if any, is left untouched; a torn temp file may
    /// remain and is quarantined by the next [`SnapshotArchive::scan`].
    pub fn store(&self, id: u64, payload: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{}.tmp", session_file_name(id)));
        let fault = self.plan.as_ref().and_then(|p| p.next_write_fault());
        // On failure the torn temp file stays behind deliberately — the
        // same debris a real mid-write crash leaves — and the next scan
        // quarantines it. The committed name is only ever renamed onto.
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        let mut writer = FaultWriter::new(file, fault);
        let framed = frame(payload);
        writer.write_all(&framed)?;
        writer.flush()?;
        writer.into_inner().sync_all()?;
        fs::rename(&tmp, self.path_for(id))?;
        self.sync_dir();
        // The checkpoint is durable; record it in the manifest cache
        // (write-behind — only updated after a *successful* rename, so
        // a torn store never dirties the index).
        let crc = u32::from_le_bytes(framed[16..20].try_into().unwrap());
        let mut state = self.manifest.lock_recover();
        let generation = state.entries.get(&id).map_or(1, |e| e.generation.saturating_add(1));
        state
            .entries
            .insert(id, ManifestEntry { generation, frame_len: framed.len() as u64, crc });
        self.note_dirty(&mut state);
        Ok(())
    }

    /// Records one manifest mutation and rewrites the manifest file once
    /// enough have accumulated. The threshold scales with the archive
    /// (every op for small fleets, every ~entries/16 ops at scale) so
    /// the hot checkpoint path amortizes the rewrite.
    fn note_dirty(&self, state: &mut ManifestState) {
        state.dirty_ops += 1;
        if state.dirty_ops > state.entries.len() / 16
            && self.write_manifest(&state.entries).is_ok()
        {
            state.dirty_ops = 0;
        }
    }

    /// Forces the manifest file to match the in-memory cache now (the
    /// store calls this after `checkpoint_all`, compaction always starts
    /// with it).
    ///
    /// # Errors
    /// Propagates manifest write failures; the cache stays dirty and the
    /// next scan simply falls back to the full walk.
    pub fn flush_manifest(&self) -> io::Result<()> {
        let mut state = self.manifest.lock_recover();
        self.write_manifest(&state.entries)?;
        state.dirty_ops = 0;
        Ok(())
    }

    /// Atomically rewrites the manifest file. Deliberately plain I/O —
    /// no [`FaultPlan`] — so manifest maintenance never perturbs the
    /// chaos suite's seeded fault schedules.
    fn write_manifest(&self, entries: &BTreeMap<u64, ManifestEntry>) -> io::Result<()> {
        let mut text = String::new();
        for (id, e) in entries {
            text.push_str(&format!("{id} {} {} {:08x}\n", e.generation, e.frame_len, e.crc));
        }
        let tmp = self.dir.join(MANIFEST_TMP);
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        file.write_all(&frame(text.as_bytes()))?;
        file.sync_all()?;
        fs::rename(&tmp, self.dir.join(MANIFEST_FILE))?;
        self.sync_dir();
        Ok(())
    }

    /// Reads and validates the on-disk manifest. `None` for anything
    /// short of a perfectly framed, perfectly parseable file — the
    /// caller then walks the directory instead.
    fn read_manifest(&self) -> Option<BTreeMap<u64, ManifestEntry>> {
        let bytes = fs::read(self.dir.join(MANIFEST_FILE)).ok()?;
        let payload = unframe(&bytes).ok()?;
        let text = std::str::from_utf8(payload).ok()?;
        let mut entries = BTreeMap::new();
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let id: u64 = parts.next()?.parse().ok()?;
            let generation: u64 = parts.next()?.parse().ok()?;
            let frame_len: u64 = parts.next()?.parse().ok()?;
            let crc = u32::from_str_radix(parts.next()?, 16).ok()?;
            if parts.next().is_some() {
                return None;
            }
            entries.insert(id, ManifestEntry { generation, frame_len, crc });
        }
        Some(entries)
    }

    /// Loads and validates session `id`'s snapshot payload. `Ok(None)`
    /// means no snapshot exists.
    ///
    /// # Errors
    /// I/O failures, or [`ErrorKind::InvalidData`] for corrupt frames
    /// (the caller decides whether to quarantine).
    pub fn load(&self, id: u64) -> io::Result<Option<Vec<u8>>> {
        let path = self.path_for(id);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        match unframe(&bytes) {
            Ok(payload) => Ok(Some(payload.to_vec())),
            Err(why) => Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("corrupt snapshot {}: {why}", path.display()),
            )),
        }
    }

    /// Removes session `id`'s snapshot (missing files are fine).
    ///
    /// # Errors
    /// Propagates unexpected I/O failures.
    pub fn remove(&self, id: u64) -> io::Result<()> {
        match fs::remove_file(self.path_for(id)) {
            Ok(()) => {
                let mut state = self.manifest.lock_recover();
                if state.entries.remove(&id).is_some() {
                    self.note_dirty(&mut state);
                }
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Moves session `id`'s snapshot file into quarantine (used when the
    /// frame is valid but the document inside fails to parse or resume).
    pub fn quarantine(&self, id: u64, why: &str) -> Option<PathBuf> {
        let dest = self.quarantine_path(&self.path_for(id), why);
        if dest.is_some() {
            let mut state = self.manifest.lock_recover();
            if state.entries.remove(&id).is_some() {
                self.note_dirty(&mut state);
            }
        }
        dest
    }

    /// Scans the archive for recovery. With a valid manifest this only
    /// *stats* the manifested files (size match ⇒ trusted, no read —
    /// content damage is caught by the CRC at load time) and reads just
    /// the strays; without one it reads and verifies every `*.snap`
    /// frame exactly as before the manifest existed. Either way, torn
    /// temp files, corrupt frames, and unparseable names are renamed
    /// into `quarantine/`, ids come back ascending, and the scan leaves
    /// behind a freshly written, authoritative manifest. Never panics
    /// on file contents.
    ///
    /// # Errors
    /// Propagates directory-read failures only.
    pub fn scan(&self) -> io::Result<ScanReport> {
        let mut report = ScanReport::default();
        let mut live: BTreeMap<u64, ManifestEntry> = BTreeMap::new();
        let trusted = self.read_manifest();
        if let Some(entries) = &trusted {
            // Manifest-indexed pass: stat each named file. A size match
            // is trusted outright; anything else is verified in full.
            for (&id, entry) in entries {
                let path = self.path_for(id);
                match fs::metadata(&path) {
                    Ok(md) if md.len() == entry.frame_len => {
                        live.insert(id, *entry);
                    }
                    Ok(_) => self.verify_file(id, &path, &mut live, &mut report),
                    Err(e) if e.kind() == ErrorKind::NotFound => {
                        // Manifest entry without a file: the write-behind
                        // index outlived a removal. Drop it.
                    }
                    Err(e) => {
                        if let Some(to) = self.quarantine_path(&path, &e.to_string()) {
                            report.quarantined.push((to, e.to_string()));
                        }
                    }
                }
            }
        }
        // Directory sweep: everything the manifest did not vouch for.
        // With no (valid) manifest this is the complete recovery walk.
        for entry in fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if path.is_dir() {
                continue; // quarantine/ itself
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                // A torn checkpoint the crash left behind.
                if let Some(to) = self.quarantine_path(&path, "torn temp file") {
                    report.quarantined.push((to, "torn temp file".into()));
                }
                continue;
            }
            if !name.ends_with(".snap") {
                continue; // foreign file (manifest, port file); leave it alone
            }
            let Some(id) = parse_session_file_name(&name) else {
                if let Some(to) = self.quarantine_path(&path, "unparseable file name") {
                    report.quarantined.push((to, "unparseable file name".into()));
                }
                continue;
            };
            if live.contains_key(&id) || trusted.as_ref().is_some_and(|t| t.contains_key(&id)) {
                continue; // already settled by the manifest pass
            }
            self.verify_file(id, &path, &mut live, &mut report);
        }
        report.restored = live.keys().copied().collect();
        // The scan just enumerated every live snapshot: adopt the result
        // as the in-memory cache, persist it, and unlock compaction.
        let mut state = self.manifest.lock_recover();
        state.entries = live;
        state.dirty_ops = 0;
        state.authoritative = true;
        let _ = self.write_manifest(&state.entries);
        Ok(report)
    }

    /// Full verification of one snapshot file during a scan: read,
    /// unframe, and either admit it to `live` or quarantine it.
    fn verify_file(
        &self,
        id: u64,
        path: &Path,
        live: &mut BTreeMap<u64, ManifestEntry>,
        report: &mut ScanReport,
    ) {
        let mut bytes = Vec::new();
        let read = File::open(path).and_then(|mut f| f.read_to_end(&mut bytes));
        if let Err(e) = read {
            if let Some(to) = self.quarantine_path(path, &e.to_string()) {
                report.quarantined.push((to, e.to_string()));
            }
            return;
        }
        match unframe(&bytes) {
            Ok(payload) => {
                live.insert(
                    id,
                    ManifestEntry {
                        generation: 1,
                        frame_len: bytes.len() as u64,
                        crc: crc32(payload),
                    },
                );
            }
            Err(why) => {
                if let Some(to) = self.quarantine_path(path, &why) {
                    report.quarantined.push((to, why));
                }
            }
        }
    }

    /// Compacts the archive: flushes the manifest, deletes aged `.snap`
    /// files the (authoritative) manifest does not know, quarantines
    /// aged `.tmp` debris, and deletes quarantine evidence older than
    /// `quarantine_age`. Live snapshots keep their `session-<id>.snap`
    /// names — compaction never rewrites or renames a manifested file,
    /// so migration and restart recovery are unaffected by when it runs.
    ///
    /// Without a prior [`SnapshotArchive::scan`] the manifest is not
    /// authoritative and unmanifested `.snap` files are left alone (they
    /// might be live snapshots this process never enumerated).
    ///
    /// # Errors
    /// Propagates directory-read failures only; per-file failures are
    /// skipped (the next pass retries them).
    pub fn compact(&self, quarantine_age: Duration) -> io::Result<CompactReport> {
        let mut out = CompactReport::default();
        let (manifested, authoritative): (BTreeSet<u64>, bool) = {
            let mut state = self.manifest.lock_recover();
            if self.write_manifest(&state.entries).is_ok() {
                state.dirty_ops = 0;
            }
            (state.entries.keys().copied().collect(), state.authoritative)
        };
        let now = SystemTime::now();
        // Evidence quarantined by this very pass (rename keeps the old
        // mtime) must survive until a later compact can age it out.
        let mut captured: BTreeSet<PathBuf> = BTreeSet::new();
        let aged = |path: &Path, age: Duration| {
            fs::metadata(path)
                .and_then(|md| md.modified())
                .ok()
                .and_then(|m| now.duration_since(m).ok())
                .is_some_and(|elapsed| elapsed >= age)
        };
        for entry in fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if path.is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                // An in-flight checkpoint also lives under .tmp for a
                // moment — only crash debris is old enough to touch.
                if aged(&path, DEBRIS_AGE) {
                    if let Some(dest) = self.quarantine_path(&path, "aged temp debris") {
                        out.quarantined += 1;
                        captured.insert(dest);
                    }
                }
                continue;
            }
            if !name.ends_with(".snap") {
                continue;
            }
            let Some(id) = parse_session_file_name(&name) else {
                continue; // the next scan quarantines these
            };
            if authoritative && !manifested.contains(&id) && aged(&path, DEBRIS_AGE) {
                // A superseded or foreign generation: the manifest — made
                // complete by a scan and maintained since — does not know
                // it, and it is too old to be a checkpoint racing us.
                if fs::remove_file(&path).is_ok() {
                    out.removed += 1;
                }
            }
        }
        if let Ok(entries) = fs::read_dir(self.dir.join("quarantine")) {
            for entry in entries.flatten() {
                let path = entry.path();
                if !path.is_dir()
                    && !captured.contains(&path)
                    && aged(&path, quarantine_age)
                    && fs::remove_file(&path).is_ok()
                {
                    out.removed += 1;
                }
            }
        }
        Ok(out)
    }

    /// Best-effort fsync of the archive directory (ensures the rename is
    /// on disk; ignored where directories cannot be opened).
    fn sync_dir(&self) {
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
    }

    /// Renames `path` into `quarantine/`, keeping the original name and
    /// appending `.N` on collisions. Returns the destination, or `None`
    /// if even the rename failed (the file is then left in place; it will
    /// be re-quarantined on the next scan).
    fn quarantine_path(&self, path: &Path, _why: &str) -> Option<PathBuf> {
        let qdir = self.dir.join("quarantine");
        fs::create_dir_all(&qdir).ok()?;
        let name = path.file_name()?.to_string_lossy().into_owned();
        let mut dest = qdir.join(&name);
        let mut n = 0u32;
        while dest.exists() {
            n += 1;
            dest = qdir.join(format!("{name}.{n}"));
        }
        fs::rename(path, &dest).ok()?;
        Some(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "redistrib-archive-test-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 reference values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn frame_roundtrip_and_boundaries() {
        let payload = br#"{"version":1,"x":42}"#;
        let framed = frame(payload);
        assert_eq!(framed.len(), FRAME_HEADER_LEN + payload.len());
        assert_eq!(unframe(&framed).unwrap(), payload);
        // Every truncation is rejected, never a panic.
        for cut in 0..framed.len() {
            assert!(unframe(&framed[..cut]).is_err(), "cut at {cut} must fail");
        }
        // Any single-byte flip is rejected.
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            assert!(unframe(&bad).is_err(), "flip at {i} must fail");
        }
    }

    #[test]
    fn store_load_remove_roundtrip() {
        let dir = temp_dir("roundtrip");
        let archive = SnapshotArchive::open(&dir).unwrap();
        assert_eq!(archive.load(7).unwrap(), None);
        archive.store(7, b"seven").unwrap();
        archive.store(9, b"nine").unwrap();
        assert_eq!(archive.load(7).unwrap().unwrap(), b"seven");
        // Overwrite is atomic and replaces the payload.
        archive.store(7, b"seven-v2").unwrap();
        assert_eq!(archive.load(7).unwrap().unwrap(), b"seven-v2");
        archive.remove(7).unwrap();
        archive.remove(7).unwrap(); // idempotent
        assert_eq!(archive.load(7).unwrap(), None);
        let report = archive.scan().unwrap();
        assert_eq!(report.restored, vec![9]);
        assert!(report.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_leaves_previous_checkpoint_intact() {
        let dir = temp_dir("torn");
        let plan = Arc::new(FaultPlan::new().torn_write(1, FRAME_HEADER_LEN + 2));
        let archive = SnapshotArchive::open_with_faults(&dir, plan).unwrap();
        archive.store(3, b"generation-1").unwrap();
        let err = archive.store(3, b"generation-2").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
        // The committed file still holds generation 1.
        assert_eq!(archive.load(3).unwrap().unwrap(), b"generation-1");
        // And a fresh scan restores it while quarantining the torn temp.
        let clean = SnapshotArchive::open(&dir).unwrap();
        let report = clean.scan().unwrap();
        assert_eq!(report.restored, vec![3]);
        assert_eq!(clean.load(3).unwrap().unwrap(), b"generation-1");
        assert_eq!(report.quarantined.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_quarantines_corrupt_files_and_restores_the_rest() {
        let dir = temp_dir("scan");
        let archive = SnapshotArchive::open(&dir).unwrap();
        archive.store(1, b"one").unwrap();
        archive.store(2, b"two").unwrap();
        archive.store(3, b"three").unwrap();
        // Corrupt session 2 in place: flip a payload byte.
        let path = archive.path_for(2);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        // And drop an unparseable name alongside. Delete the manifest so
        // this exercises the full recovery walk (with a manifest the
        // size-preserving flip is deliberately deferred to load time).
        fs::write(dir.join("session-abc.snap"), b"junk").unwrap();
        fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let report = archive.scan().unwrap();
        assert_eq!(report.restored, vec![1, 3]);
        assert_eq!(report.quarantined.len(), 2);
        // Quarantined files moved out of the way: a second scan is clean.
        let again = archive.scan().unwrap();
        assert_eq!(again.restored, vec![1, 3]);
        assert!(again.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_scan_trusts_sizes_and_load_catches_corruption() {
        let dir = temp_dir("manifest-trust");
        {
            let archive = SnapshotArchive::open(&dir).unwrap();
            archive.store(1, b"payload-one").unwrap();
            archive.store(2, b"payload-two").unwrap();
            archive.store(3, b"payload-three").unwrap();
        }
        // Size-preserving corruption of session 2.
        let path = dir.join(session_file_name(2));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        // A fresh archive trusts the manifest: the stat check passes, so
        // the scan restores all three ids without reading their bytes…
        let fresh = SnapshotArchive::open(&dir).unwrap();
        let report = fresh.scan().unwrap();
        assert_eq!(report.restored, vec![1, 2, 3]);
        assert!(report.quarantined.is_empty());
        // …and the deferred CRC check rejects the damage at load time.
        assert_eq!(fresh.load(1).unwrap().unwrap(), b"payload-one");
        let err = fresh.load(2).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_or_missing_manifest_falls_back_to_the_full_walk() {
        let dir = temp_dir("manifest-torn");
        {
            let archive = SnapshotArchive::open(&dir).unwrap();
            for id in 1..=4 {
                archive.store(id, format!("payload-{id}").as_bytes()).unwrap();
            }
        }
        // Tear the manifest mid-frame: the scan must not trust it.
        let manifest = dir.join(MANIFEST_FILE);
        let bytes = fs::read(&manifest).unwrap();
        fs::write(&manifest, &bytes[..bytes.len() / 2]).unwrap();
        let fresh = SnapshotArchive::open(&dir).unwrap();
        assert!(fresh.read_manifest().is_none(), "torn manifest must not parse");
        let report = fresh.scan().unwrap();
        assert_eq!(report.restored, vec![1, 2, 3, 4]);
        assert!(report.quarantined.is_empty());
        // The scan healed the manifest: the next archive trusts it again.
        let healed = SnapshotArchive::open(&dir).unwrap();
        assert!(healed.read_manifest().is_some());
        assert_eq!(healed.scan().unwrap().restored, vec![1, 2, 3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_drops_unmanifested_debris_and_aged_quarantine_only() {
        let dir = temp_dir("compact");
        let archive = SnapshotArchive::open(&dir).unwrap();
        archive.store(1, b"live-one").unwrap();
        archive.store(2, b"live-two").unwrap();
        let report = archive.scan().unwrap();
        assert_eq!(report.restored, vec![1, 2]);

        let age = |path: &PathBuf| {
            let f = OpenOptions::new().write(true).open(path).unwrap();
            f.set_modified(SystemTime::now() - Duration::from_secs(3600)).unwrap();
        };
        // Debris: an old foreign generation, an old torn temp, and aged
        // quarantine evidence — plus a *fresh* unmanifested snapshot
        // that must survive (it could be a checkpoint racing us).
        fs::write(dir.join("session-77.snap"), frame(b"superseded")).unwrap();
        age(&dir.join("session-77.snap"));
        fs::write(dir.join("session-5.snap.tmp"), b"torn").unwrap();
        age(&dir.join("session-5.snap.tmp"));
        let qdir = dir.join("quarantine");
        fs::create_dir_all(&qdir).unwrap();
        fs::write(qdir.join("session-9.snap"), b"old evidence").unwrap();
        age(&qdir.join("session-9.snap"));
        fs::write(dir.join("session-88.snap"), frame(b"in-flight")).unwrap();

        let out = archive.compact(Duration::from_secs(60)).unwrap();
        // Removed: session-77.snap + the aged quarantine file.
        assert_eq!(out.removed, 2);
        // Quarantined: the aged torn temp.
        assert_eq!(out.quarantined, 1);
        assert!(!dir.join("session-77.snap").exists());
        assert!(!dir.join("session-5.snap.tmp").exists());
        assert!(!qdir.join("session-9.snap").exists());
        assert!(dir.join("session-88.snap").exists(), "fresh strays are left alone");
        // Live snapshots keep their names and contents.
        assert_eq!(archive.load(1).unwrap().unwrap(), b"live-one");
        assert_eq!(archive.load(2).unwrap().unwrap(), b"live-two");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_without_authoritative_manifest_leaves_snapshots_alone() {
        let dir = temp_dir("compact-timid");
        {
            let seeder = SnapshotArchive::open(&dir).unwrap();
            seeder.store(1, b"one").unwrap();
        }
        // A foreign snapshot this fresh archive never enumerated: no
        // scan ran, so compaction must not touch any .snap file.
        fs::write(dir.join("session-42.snap"), frame(b"unknown")).unwrap();
        let f = OpenOptions::new().write(true).open(dir.join("session-42.snap")).unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(3600)).unwrap();
        let archive = SnapshotArchive::open(&dir).unwrap();
        let out = archive.compact(Duration::from_secs(60)).unwrap();
        assert_eq!(out.removed, 0);
        assert!(dir.join("session-42.snap").exists());
        assert!(dir.join("session-1.snap").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_name_collisions_never_clobber_earlier_evidence() {
        let dir = temp_dir("quarantine-collide");
        let archive = SnapshotArchive::open(&dir).unwrap();
        // A quarantine/ directory already exists from an earlier
        // incident, holding evidence under the same name this session's
        // file would take.
        let qdir = dir.join("quarantine");
        fs::create_dir_all(&qdir).unwrap();
        fs::write(qdir.join("session-5.snap"), b"evidence-gen-0").unwrap();

        // Quarantining session 5 twice must produce two NEW files —
        // `.1`, then `.2` — leaving every earlier generation intact.
        archive.store(5, b"gen-1").unwrap();
        let first = archive.quarantine(5, "corrupt gen 1").unwrap();
        assert_eq!(first, qdir.join("session-5.snap.1"));
        archive.store(5, b"gen-2").unwrap();
        let second = archive.quarantine(5, "corrupt gen 2").unwrap();
        assert_eq!(second, qdir.join("session-5.snap.2"));

        assert_eq!(fs::read(qdir.join("session-5.snap")).unwrap(), b"evidence-gen-0");
        assert_eq!(unframe(&fs::read(&first).unwrap()).unwrap(), b"gen-1");
        assert_eq!(unframe(&fs::read(&second).unwrap()).unwrap(), b"gen-2");
        // The live slot is empty again: quarantine moved, not copied.
        assert_eq!(archive.load(5).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_tolerates_preexisting_quarantine_contents() {
        let dir = temp_dir("quarantine-preexist");
        let archive = SnapshotArchive::open(&dir).unwrap();
        // Junk already sitting in quarantine/ — including names that
        // look like snapshots — must be left alone and never restored.
        let qdir = dir.join("quarantine");
        fs::create_dir_all(&qdir).unwrap();
        fs::write(qdir.join("session-1.snap"), b"old corrupt thing").unwrap();
        fs::write(qdir.join("notes.txt"), b"incident writeup").unwrap();

        archive.store(1, b"live-one").unwrap();
        archive.store(2, b"live-two").unwrap();
        let report = archive.scan().unwrap();
        assert_eq!(report.restored, vec![1, 2]);
        assert!(report.quarantined.is_empty());
        // Quarantine contents untouched by the scan.
        assert_eq!(fs::read(qdir.join("session-1.snap")).unwrap(), b"old corrupt thing");
        assert_eq!(fs::read(qdir.join("notes.txt")).unwrap(), b"incident writeup");
        let _ = fs::remove_dir_all(&dir);
    }
}
