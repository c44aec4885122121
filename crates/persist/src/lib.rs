//! Durable persistence primitives for the sharded filter store.
//!
//! The store itself is an in-memory structure: restart means a cold rebuild
//! of every shard, re-hashing the full corpus. "Don't Thrash: How to Cache
//! Your Hash on Flash" (PAPERS.md) makes the case that filter indexes belong
//! on durable storage with a write-optimized log in front; this crate is that
//! layer, kept dependency-free so every byte on disk is owned by the repo:
//!
//! * **Snapshots** — a versioned, checksummed container
//!   ([`SnapshotHeader`], [`write_snapshot`], [`Snapshot`]) whose payload is
//!   plain little-endian pages (filter bit/bucket/fingerprint arrays plus the
//!   store's sorted live-key log), so a snapshot opens by `mmap` and the big
//!   arrays stream straight out of the page cache instead of being
//!   deserialized.
//! * **Write-ahead log** — fixed-width per-record CRC'd segments
//!   ([`WalWriter`], [`read_wal`]) journaling inserts/deletes *before* the
//!   in-memory apply; a torn tail (the normal crash shape) parses cleanly up
//!   to the last complete record.
//! * **Generations** — snapshot `g` plus WAL `g` name a consistent cut;
//!   recovery ([`recover_shard`]) maps the newest snapshot whose CRCs
//!   validate, replays every WAL at or after it, and falls back to the
//!   previous generation when the newest snapshot is torn.
//! * **Fault injection** — [`FaultPoint`] / [`FaultInjector`] kill the
//!   persistence pipeline at each step (mid-WAL-append, post-append-pre-apply,
//!   mid-snapshot-write, pre-rename) so the crash-recovery oracle tests can
//!   visit every window a real crash could land in.
//!
//! The only `unsafe` in the crate is the `mmap(2)` wrapper (registered in
//! `UNSAFE_LEDGER.toml`); all integer/byte shuffling uses safe
//! `from_le_bytes` chunking, which the compiler lowers to `memcpy` on
//! little-endian targets.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

pub mod codec;

/// On-disk format version stamped into every snapshot header and META file.
/// Bump on any layout change; readers refuse versions they do not know.
pub const FORMAT_VERSION: u32 = 1;

/// Magic prefix of a shard snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"POFSNAP1";

/// Magic prefix of a store META file.
pub const META_MAGIC: [u8; 8] = *b"POFMETA1";

/// Size of the fixed snapshot header in bytes.
pub const HEADER_BYTES: usize = 32;

/// Size of one WAL record in bytes: op tag (1) + key (4) + CRC (4).
pub const WAL_RECORD_BYTES: usize = 9;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong opening, writing or recovering durable state.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A file exists but its magic, version, CRC or internal lengths do not
    /// validate. Recovery treats this as "torn write": skip the file and fall
    /// back to an older generation.
    Corrupt {
        /// File that failed validation.
        path: PathBuf,
        /// Human-readable reason.
        detail: String,
    },
    /// An armed [`FaultInjector`] killed the operation. The persistence layer
    /// is dead afterwards; the in-memory apply of the interrupted batch must
    /// not happen (a crashed process would not have applied it either).
    FaultInjected(FaultPoint),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(err) => write!(f, "persistence I/O error: {err}"),
            Self::Corrupt { path, detail } => {
                write!(f, "corrupt persistent file {}: {detail}", path.display())
            }
            Self::FaultInjected(point) => write!(f, "fault injected at {point}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — the checksum behind every header and record
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE polynomial, reflected form — the zlib/`cksum -o 3` variant)
/// over `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// The four windows a crash can land in on the persistence write path. Each
/// is a distinct durability contract the recovery oracle must verify:
/// records before the point are on disk, everything after is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Die part-way through appending a WAL batch: the first record of the
    /// batch is torn (a 4-byte prefix reaches the file). Recovery must drop
    /// the whole batch — it was never applied in memory.
    MidWalAppend,
    /// Die after the WAL batch is fully durable but before the in-memory
    /// apply. Recovery must *replay* the batch — the log is the authority.
    PostAppendPreApply,
    /// Die half-way through writing a snapshot payload, with the rename
    /// already visible (the metadata beat the data to disk). The newest
    /// snapshot fails its CRC; recovery must fall back a generation.
    MidSnapshotWrite,
    /// Die after the temporary snapshot file is complete but before the
    /// atomic rename. The new generation never becomes visible; recovery
    /// uses the previous one plus the (still intact) WAL.
    PreRename,
}

impl FaultPoint {
    /// Every fault point, for matrix-style crash tests.
    pub const ALL: [Self; 4] = [
        Self::MidWalAppend,
        Self::PostAppendPreApply,
        Self::MidSnapshotWrite,
        Self::PreRename,
    ];
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::MidWalAppend => "mid-wal-append",
            Self::PostAppendPreApply => "post-append-pre-apply",
            Self::MidSnapshotWrite => "mid-snapshot-write",
            Self::PreRename => "pre-rename",
        };
        f.write_str(name)
    }
}

/// Arms at most one [`FaultPoint`] and fires it exactly once. Shared
/// (`Arc`) between a test and the store's persistence layer; after the fault
/// fires the layer treats itself as crashed — every later persistence call
/// is a no-op, so the test can drop the store and reopen from disk as if the
/// process had died at the fault.
#[derive(Debug, Default)]
pub struct FaultInjector {
    armed: Mutex<Option<FaultPoint>>,
    fired: AtomicBool,
}

impl FaultInjector {
    /// New injector with nothing armed.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `point`; the next persistence operation that reaches it dies.
    pub fn arm(&self, point: FaultPoint) {
        *self.armed.lock().expect("fault injector lock poisoned") = Some(point);
    }

    /// Disarm without firing.
    pub fn disarm(&self) {
        *self.armed.lock().expect("fault injector lock poisoned") = None;
    }

    /// Called by the persistence layer at each instrumented step: true (once)
    /// if `point` is the armed one, consuming the arming.
    pub fn should_fire(&self, point: FaultPoint) -> bool {
        let mut armed = self.armed.lock().expect("fault injector lock poisoned");
        if *armed == Some(point) {
            *armed = None;
            self.fired.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Has any fault fired yet?
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// fsync policy
// ---------------------------------------------------------------------------

/// When the WAL is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended batch: a batch whose apply was
    /// observed in memory survives any crash. The durable default.
    #[default]
    EveryBatch,
    /// Only sync at checkpoint (snapshot) boundaries: the OS page cache
    /// absorbs the WAL writes, trading the tail of the delta window for
    /// append throughput. A crash can lose ops since the last checkpoint —
    /// never corrupt the store.
    OnCheckpoint,
}

// ---------------------------------------------------------------------------
// Snapshot header
// ---------------------------------------------------------------------------

/// Fixed 32-byte header in front of every snapshot payload.
///
/// ```text
/// offset  0  magic        [u8; 8]  b"POFSNAP1"
/// offset  8  version      u32 LE   FORMAT_VERSION
/// offset 12  reserved     u32 LE   0 (future flags)
/// offset 16  payload_len  u64 LE
/// offset 24  payload_crc  u32 LE   crc32(payload)
/// offset 28  header_crc   u32 LE   crc32(bytes 0..28)
/// ```
///
/// `header_crc` catches a torn header; `payload_crc` catches a torn payload
/// behind an intact header. Either failure makes recovery fall back to the
/// previous generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version the payload was written with.
    pub version: u32,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// CRC32 of the payload bytes.
    pub payload_crc: u32,
}

impl SnapshotHeader {
    /// Header describing `payload`.
    #[must_use]
    pub fn for_payload(payload: &[u8]) -> Self {
        Self {
            version: FORMAT_VERSION,
            payload_len: payload.len() as u64,
            payload_crc: crc32(payload),
        }
    }

    /// Serialize to the fixed 32-byte wire form.
    #[must_use]
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..8].copy_from_slice(&SNAPSHOT_MAGIC);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        // bytes 12..16 reserved, zero
        out[16..24].copy_from_slice(&self.payload_len.to_le_bytes());
        out[24..28].copy_from_slice(&self.payload_crc.to_le_bytes());
        let crc = crc32(&out[0..28]);
        out[28..32].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse and validate the fixed header. `Err` carries the reason the
    /// bytes were rejected (magic, version, CRC).
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < HEADER_BYTES {
            return Err(format!(
                "file shorter than the {HEADER_BYTES}-byte header ({} bytes)",
                bytes.len()
            ));
        }
        if bytes[0..8] != SNAPSHOT_MAGIC {
            return Err("bad magic".to_owned());
        }
        let stored_crc = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes"));
        let actual_crc = crc32(&bytes[0..28]);
        if stored_crc != actual_crc {
            return Err(format!(
                "header CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            ));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported format version {version} (reader supports {FORMAT_VERSION})"
            ));
        }
        Ok(Self {
            version,
            payload_len: u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
            payload_crc: u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes")),
        })
    }
}

// ---------------------------------------------------------------------------
// Snapshot write (atomic) and read (mmap with buffered fallback)
// ---------------------------------------------------------------------------

fn fsync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync makes the rename itself durable (POSIX leaves the
    // directory entry in the page cache otherwise). Some filesystems refuse
    // to open directories for sync; treat that as best-effort.
    match File::open(dir) {
        Ok(d) => match d.sync_all() {
            Ok(()) => Ok(()),
            Err(err) if err.kind() == io::ErrorKind::InvalidInput => Ok(()),
            Err(err) => Err(err),
        },
        Err(err) => Err(err),
    }
}

/// Write `payload` to `path` atomically: temp file in the same directory,
/// `fdatasync`, rename over the target, directory fsync. A reader can never
/// observe a half-written file at `path` — except through an injected
/// [`FaultPoint::MidSnapshotWrite`], which deliberately renames a torn
/// payload into place to model data that lost the race to disk against its
/// own metadata.
pub fn write_snapshot(
    path: &Path,
    payload: &[u8],
    fault: Option<&FaultInjector>,
) -> Result<(), PersistError> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = path.with_extension("tmp");
    let header = SnapshotHeader::for_payload(payload).encode();

    let mut file = File::create(&tmp)?;
    file.write_all(&header)?;

    if fault.is_some_and(|f| f.should_fire(FaultPoint::MidSnapshotWrite)) {
        // Model the worst torn-write shape: half the payload reaches disk yet
        // the rename (pure metadata) becomes visible. The payload CRC is the
        // only line of defence — recovery must reject this file.
        file.write_all(&payload[..payload.len() / 2])?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, path)?;
        let _ = fsync_dir(dir);
        return Err(PersistError::FaultInjected(FaultPoint::MidSnapshotWrite));
    }

    file.write_all(payload)?;
    file.sync_data()?;
    drop(file);

    if fault.is_some_and(|f| f.should_fire(FaultPoint::PreRename)) {
        // Temp file is complete and durable but the new generation never
        // becomes visible; the straggler `.tmp` is pruned on recovery.
        return Err(PersistError::FaultInjected(FaultPoint::PreRename));
    }

    fs::rename(&tmp, path)?;
    fsync_dir(dir)?;
    Ok(())
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod map {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> i32;
    }

    const PROT_READ: i32 = 0x1;
    const MAP_PRIVATE: i32 = 0x2;

    /// A read-only private mapping of a whole file. Pages fault in lazily, so
    /// "opening" a multi-megabyte snapshot costs one syscall, not one copy.
    #[derive(Debug)]
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared memory
    // with no interior mutability; moving or sharing the owner across threads
    // cannot introduce a data race.
    unsafe impl Send for Mmap {}
    // SAFETY: as above — all access is through `&self` yielding `&[u8]` of
    // read-only pages.
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Map `len` bytes of `file` read-only. `len` must be non-zero (a
        /// zero-length mmap is EINVAL); callers route empty files to the
        /// buffered path.
        pub fn map(file: &File, len: usize) -> io::Result<Self> {
            assert!(len > 0, "cannot mmap an empty file");
            // SAFETY: null addr lets the kernel choose placement; `len` is
            // non-zero; the fd is a live borrowed file handle; PROT_READ +
            // MAP_PRIVATE never aliases writable memory. The return value is
            // checked against MAP_FAILED before use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { ptr, len })
        }

        /// The mapped bytes.
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live mapping of exactly `len` readable
            // bytes (established in `map`, released only in `drop`); u8 has
            // no alignment or validity requirements. Note POSIX allows a
            // SIGBUS if another process truncates the file under the map —
            // snapshots are immutable once renamed into place, so no writer
            // exists.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe the exact mapping returned by
            // `mmap` in `map`; unmapping once on drop cannot double-free, and
            // no slice borrowed from `as_slice` can outlive `self`.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[derive(Debug)]
enum SnapshotBytes {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(map::Mmap),
    Owned(Vec<u8>),
}

impl SnapshotBytes {
    fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Self::Mapped(m) => m.as_slice(),
            Self::Owned(v) => v.as_slice(),
        }
    }
}

/// A validated, opened snapshot: header parsed, both CRCs checked, payload
/// borrowed straight out of the mapping (or an owned buffer on platforms
/// without the mmap fast path).
#[derive(Debug)]
pub struct Snapshot {
    bytes: SnapshotBytes,
    payload_len: usize,
    mapped: bool,
}

impl Snapshot {
    /// Open and validate `path`, preferring `mmap`.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            if len as usize >= HEADER_BYTES {
                if let Ok(mapping) = map::Mmap::map(&file, len as usize) {
                    return Self::validate(SnapshotBytes::Mapped(mapping), true, path);
                }
            }
            drop(file);
        }
        Self::open_buffered(path)
    }

    /// Open and validate `path` through an ordinary buffered read — the
    /// portable fallback, also used by the recovery bench as the
    /// "no-mmap" comparison point.
    pub fn open_buffered(path: &Path) -> Result<Self, PersistError> {
        let bytes = fs::read(path)?;
        Self::validate(SnapshotBytes::Owned(bytes), false, path)
    }

    fn validate(bytes: SnapshotBytes, mapped: bool, path: &Path) -> Result<Self, PersistError> {
        let slice = bytes.as_slice();
        let header = SnapshotHeader::decode(slice).map_err(|detail| PersistError::Corrupt {
            path: path.to_path_buf(),
            detail,
        })?;
        let have = (slice.len() - HEADER_BYTES) as u64;
        if have < header.payload_len {
            return Err(PersistError::Corrupt {
                path: path.to_path_buf(),
                detail: format!(
                    "payload truncated: header promises {} bytes, file holds {have}",
                    header.payload_len
                ),
            });
        }
        let payload_len = header.payload_len as usize;
        let actual_crc = crc32(&slice[HEADER_BYTES..HEADER_BYTES + payload_len]);
        if actual_crc != header.payload_crc {
            return Err(PersistError::Corrupt {
                path: path.to_path_buf(),
                detail: format!(
                    "payload CRC mismatch (stored {:#010x}, computed {actual_crc:#010x})",
                    header.payload_crc
                ),
            });
        }
        Ok(Self {
            bytes,
            payload_len,
            mapped,
        })
    }

    /// The validated payload bytes.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.bytes.as_slice()[HEADER_BYTES..HEADER_BYTES + self.payload_len]
    }

    /// Did this snapshot open through the mmap fast path?
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }
}

// ---------------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------------

/// The two operations a WAL record can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// Key inserted into the shard.
    Insert,
    /// Key deleted from the shard (including tiered shadow deletes — replay
    /// applies them as ordinary deletes, which reaches the same membership).
    Delete,
}

impl WalOp {
    fn code(self) -> u8 {
        match self {
            Self::Insert => 1,
            Self::Delete => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::Insert),
            2 => Some(Self::Delete),
            _ => None,
        }
    }
}

fn wal_record(op: WalOp, key: u32) -> [u8; WAL_RECORD_BYTES] {
    let mut rec = [0u8; WAL_RECORD_BYTES];
    rec[0] = op.code();
    rec[1..5].copy_from_slice(&key.to_le_bytes());
    let crc = crc32(&rec[0..5]);
    rec[5..9].copy_from_slice(&crc.to_le_bytes());
    rec
}

/// Appender for one shard's write-ahead segment. Records are fixed-width and
/// individually CRC'd; a crash mid-append tears at most the final record,
/// which the reader drops.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    records: u64,
}

impl WalWriter {
    /// Create (or truncate) a fresh segment at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        file.sync_data()?;
        if let Some(dir) = path.parent() {
            let _ = fsync_dir(dir);
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            records: 0,
        })
    }

    /// Reopen an existing segment for appending, first truncating it to
    /// `valid_len` (as reported by [`read_wal`]) so a torn tail from the
    /// previous run cannot corrupt records appended after it.
    pub fn open_append(path: &Path, valid_len: u64) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            records: valid_len / WAL_RECORD_BYTES as u64,
        })
    }

    /// Append one record per key, as a single buffered write. With
    /// `sync`, `fdatasync` before returning — the batch is durable once this
    /// returns `Ok`.
    pub fn append(&mut self, op: WalOp, keys: &[u32], sync: bool) -> io::Result<()> {
        let mut buf = Vec::with_capacity(keys.len() * WAL_RECORD_BYTES);
        for &key in keys {
            buf.extend_from_slice(&wal_record(op, key));
        }
        self.file.write_all(&buf)?;
        if sync {
            self.file.sync_data()?;
        }
        self.records += keys.len() as u64;
        Ok(())
    }

    /// Simulate [`FaultPoint::MidWalAppend`]: write a 4-byte prefix of the
    /// first record of the batch and sync, as a crash in the middle of the
    /// kernel copying the append buffer would leave it.
    pub fn append_torn(&mut self, op: WalOp, key: u32) -> io::Result<()> {
        let rec = wal_record(op, key);
        self.file.write_all(&rec[..4])?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Flush to stable storage (used by [`FsyncPolicy::OnCheckpoint`] at
    /// checkpoint boundaries).
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Complete records written through this writer (including pre-existing
    /// ones when opened for append).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Path of the segment file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Result of scanning one WAL segment.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Complete, CRC-valid records in file order.
    pub ops: Vec<(WalOp, u32)>,
    /// Byte length of the valid prefix — pass to [`WalWriter::open_append`]
    /// to chop a torn tail before appending again.
    pub valid_len: u64,
    /// True when the file ended in a torn or CRC-invalid record.
    pub torn: bool,
}

/// Scan a WAL segment, tolerating the torn tail a crash leaves: parsing
/// stops at the first incomplete or CRC-failed record and everything before
/// it is returned.
pub fn read_wal(path: &Path) -> Result<WalReplay, PersistError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut replay = WalReplay::default();
    let mut off = 0usize;
    while off + WAL_RECORD_BYTES <= bytes.len() {
        let rec = &bytes[off..off + WAL_RECORD_BYTES];
        let stored_crc = u32::from_le_bytes(rec[5..9].try_into().expect("4 bytes"));
        if crc32(&rec[0..5]) != stored_crc {
            replay.torn = true;
            break;
        }
        let Some(op) = WalOp::from_code(rec[0]) else {
            replay.torn = true;
            break;
        };
        let key = u32::from_le_bytes(rec[1..5].try_into().expect("4 bytes"));
        replay.ops.push((op, key));
        off += WAL_RECORD_BYTES;
    }
    if off < bytes.len() {
        replay.torn = true;
    }
    replay.valid_len = off as u64;
    Ok(replay)
}

// ---------------------------------------------------------------------------
// Directory layout: generation-numbered per-shard files + a META sanity file
// ---------------------------------------------------------------------------

/// File name of shard `shard`'s snapshot at `generation`.
#[must_use]
pub fn snapshot_file(shard: usize, generation: u64) -> String {
    format!("shard-{shard:04}.gen-{generation:08}.snap")
}

/// File name of shard `shard`'s WAL segment at `generation`.
#[must_use]
pub fn wal_file(shard: usize, generation: u64) -> String {
    format!("shard-{shard:04}.gen-{generation:08}.wal")
}

/// Kind of per-shard file a directory entry names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `*.snap` — a checkpointed snapshot.
    Snapshot,
    /// `*.wal` — a write-ahead segment.
    Wal,
}

/// Parse a `shard-SSSS.gen-GGGGGGGG.{snap,wal}` file name.
#[must_use]
pub fn parse_shard_file(name: &str) -> Option<(usize, u64, FileKind)> {
    let rest = name.strip_prefix("shard-")?;
    let (shard_digits, rest) = rest.split_once(".gen-")?;
    let (gen_digits, ext) = rest.split_once('.')?;
    let kind = match ext {
        "snap" => FileKind::Snapshot,
        "wal" => FileKind::Wal,
        _ => return None,
    };
    let shard = shard_digits.parse::<usize>().ok()?;
    let generation = gen_digits.parse::<u64>().ok()?;
    Some((shard, generation, kind))
}

/// Per-shard view of what a store directory holds.
#[derive(Debug, Default, Clone)]
pub struct ShardFiles {
    /// Snapshot generations present, ascending.
    pub snapshots: Vec<u64>,
    /// WAL generations present, ascending.
    pub wals: Vec<u64>,
}

/// Scan `dir` for per-shard files. Entries for shards at or beyond
/// `shard_count` are an error (the directory was written with a different
/// shard layout); unrelated files are ignored.
pub fn scan_dir(dir: &Path, shard_count: usize) -> Result<Vec<ShardFiles>, PersistError> {
    let mut shards = vec![ShardFiles::default(); shard_count];
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((shard, generation, kind)) = parse_shard_file(name) else {
            continue;
        };
        if shard >= shard_count {
            return Err(PersistError::Corrupt {
                path: entry.path(),
                detail: format!("file names shard {shard} but the store has {shard_count} shards"),
            });
        }
        match kind {
            FileKind::Snapshot => shards[shard].snapshots.push(generation),
            FileKind::Wal => shards[shard].wals.push(generation),
        }
    }
    for files in &mut shards {
        files.snapshots.sort_unstable();
        files.wals.sort_unstable();
    }
    Ok(shards)
}

/// Remove snapshot generations below `keep_snapshots_from` and WAL
/// generations below `keep_wals_from` for `shard`, plus any `.tmp`
/// stragglers from interrupted snapshot writes. Best-effort: removal errors
/// are swallowed (a leftover file only costs disk, never correctness).
pub fn prune_generations(
    dir: &Path,
    shard: usize,
    keep_snapshots_from: u64,
    keep_wals_from: u64,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(&format!("shard-{shard:04}.")) && name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
            continue;
        }
        let Some((file_shard, generation, kind)) = parse_shard_file(name) else {
            continue;
        };
        if file_shard != shard {
            continue;
        }
        let stale = match kind {
            FileKind::Snapshot => generation < keep_snapshots_from,
            FileKind::Wal => generation < keep_wals_from,
        };
        if stale {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// Identity card of a persistent store directory, written once at creation
/// and validated on every open — catches pointing a differently-sharded
/// store (or a tiered level list of the wrong depth) at the wrong directory
/// before any snapshot is trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMeta {
    /// 1 = flat sharded store directory, 2 = tiered root directory.
    pub kind: u32,
    /// Shard count (flat) or level count (tiered root).
    pub count: u32,
}

impl StoreMeta {
    /// META `kind` tag of a flat sharded store directory.
    pub const KIND_FLAT: u32 = 1;
    /// META `kind` tag of a tiered store root directory.
    pub const KIND_TIERED: u32 = 2;
}

const META_FILE: &str = "STORE.meta";

/// Write (atomically) the META file for `dir`.
pub fn write_meta(dir: &Path, meta: StoreMeta) -> Result<(), PersistError> {
    let mut bytes = Vec::with_capacity(24);
    bytes.extend_from_slice(&META_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&meta.kind.to_le_bytes());
    bytes.extend_from_slice(&meta.count.to_le_bytes());
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());

    let path = dir.join(META_FILE);
    let tmp = path.with_extension("meta.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_data()?;
    drop(file);
    fs::rename(&tmp, &path)?;
    fsync_dir(dir)?;
    Ok(())
}

/// Read `dir`'s META file; `Ok(None)` when the directory has none yet
/// (fresh store).
pub fn read_meta(dir: &Path) -> Result<Option<StoreMeta>, PersistError> {
    let path = dir.join(META_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(err.into()),
    };
    let corrupt = |detail: &str| PersistError::Corrupt {
        path: path.clone(),
        detail: detail.to_owned(),
    };
    if bytes.len() != 24 {
        return Err(corrupt("META file is not 24 bytes"));
    }
    if bytes[0..8] != META_MAGIC {
        return Err(corrupt("bad META magic"));
    }
    let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    if crc32(&bytes[0..20]) != stored_crc {
        return Err(corrupt("META CRC mismatch"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(corrupt("unsupported META format version"));
    }
    Ok(Some(StoreMeta {
        kind: u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")),
        count: u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")),
    }))
}

// ---------------------------------------------------------------------------
// Shard recovery: newest valid snapshot + WAL tail, with generation fallback
// ---------------------------------------------------------------------------

/// Everything recovery learned about one shard's durable state.
#[derive(Debug)]
pub struct RecoveredShard {
    /// Newest snapshot whose header *and* payload CRCs validate; `None` for
    /// a shard that has never been checkpointed (replay starts from empty).
    pub snapshot: Option<Snapshot>,
    /// Generation of `snapshot` (0 when `None`).
    pub snapshot_generation: u64,
    /// WAL records to replay on top of the snapshot, oldest first, spanning
    /// every segment at or after `snapshot_generation`.
    pub replay: Vec<(WalOp, u32)>,
    /// Generation whose WAL segment new appends continue on.
    pub wal_generation: u64,
    /// Valid byte length of that segment (torn tail excluded); pass to
    /// [`WalWriter::open_append`].
    pub wal_valid_len: u64,
    /// True when the newest snapshot on disk was torn and an older
    /// generation was used instead.
    pub fell_back: bool,
}

/// Recover shard `shard` from `files` (as returned by [`scan_dir`]): open
/// the newest snapshot that validates, falling back generation by
/// generation past torn ones, then collect the WAL tail to replay. Torn
/// snapshots that were skipped are deleted so retention bookkeeping stays
/// honest.
pub fn recover_shard(
    dir: &Path,
    shard: usize,
    files: &ShardFiles,
) -> Result<RecoveredShard, PersistError> {
    let mut snapshot = None;
    let mut snapshot_generation = 0u64;
    let mut fell_back = false;
    let mut torn: Vec<u64> = Vec::new();
    for &generation in files.snapshots.iter().rev() {
        match Snapshot::open(&dir.join(snapshot_file(shard, generation))) {
            Ok(snap) => {
                snapshot = Some(snap);
                snapshot_generation = generation;
                break;
            }
            Err(PersistError::Corrupt { .. }) => {
                fell_back = true;
                torn.push(generation);
            }
            Err(err) => return Err(err),
        }
    }
    for generation in torn {
        let _ = fs::remove_file(dir.join(snapshot_file(shard, generation)));
    }

    let mut replay = Vec::new();
    let mut wal_generation = snapshot_generation;
    let mut wal_valid_len = 0u64;
    for &generation in files.wals.iter().filter(|&&g| g >= snapshot_generation) {
        let scanned = read_wal(&dir.join(wal_file(shard, generation)))?;
        replay.extend_from_slice(&scanned.ops);
        if generation >= wal_generation {
            wal_generation = generation;
            wal_valid_len = scanned.valid_len;
        }
    }
    Ok(RecoveredShard {
        snapshot,
        snapshot_generation,
        replay,
        wal_generation,
        wal_valid_len,
        fell_back,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pof-persist-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, AtomicOrdering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let payload = b"some payload bytes";
        let header = SnapshotHeader::for_payload(payload);
        let bytes = header.encode();
        assert_eq!(SnapshotHeader::decode(&bytes).unwrap(), header);

        let mut bad_magic = bytes;
        bad_magic[0] ^= 0xFF;
        assert!(SnapshotHeader::decode(&bad_magic).is_err());

        let mut bad_crc = bytes;
        bad_crc[20] ^= 0x01; // flip a payload_len byte; header_crc catches it
        assert!(SnapshotHeader::decode(&bad_crc).is_err());

        assert!(SnapshotHeader::decode(&bytes[..HEADER_BYTES - 1]).is_err());
    }

    #[test]
    fn snapshot_write_open_roundtrip() {
        let dir = temp_dir("snap");
        let path = dir.join(snapshot_file(0, 1));
        let payload: Vec<u8> = (0..100_000u32).flat_map(u32::to_le_bytes).collect();
        write_snapshot(&path, &payload, None).unwrap();

        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.payload(), payload.as_slice());
        let buffered = Snapshot::open_buffered(&path).unwrap();
        assert_eq!(buffered.payload(), payload.as_slice());
        assert!(!buffered.is_mapped());

        // Truncating mid-payload must fail validation, not return bad data.
        let full = fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full / 2).unwrap();
        drop(file);
        assert!(matches!(
            Snapshot::open(&path),
            Err(PersistError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_roundtrip_and_torn_tail() {
        let dir = temp_dir("wal");
        let path = dir.join(wal_file(3, 7));
        let mut writer = WalWriter::create(&path).unwrap();
        writer.append(WalOp::Insert, &[1, 2, 3], true).unwrap();
        writer.append(WalOp::Delete, &[2], true).unwrap();
        writer.append_torn(WalOp::Insert, 99).unwrap();
        drop(writer);

        let replay = read_wal(&path).unwrap();
        assert!(replay.torn);
        assert_eq!(
            replay.ops,
            vec![
                (WalOp::Insert, 1),
                (WalOp::Insert, 2),
                (WalOp::Insert, 3),
                (WalOp::Delete, 2),
            ]
        );
        assert_eq!(replay.valid_len, 4 * WAL_RECORD_BYTES as u64);

        // Reopening for append truncates the torn tail; new records parse.
        let mut writer = WalWriter::open_append(&path, replay.valid_len).unwrap();
        assert_eq!(writer.records(), 4);
        writer.append(WalOp::Insert, &[10], true).unwrap();
        drop(writer);
        let replay = read_wal(&path).unwrap();
        assert!(!replay.torn);
        assert_eq!(replay.ops.len(), 5);
        assert_eq!(replay.ops[4], (WalOp::Insert, 10));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_injector_fires_exactly_once() {
        let injector = FaultInjector::new();
        injector.arm(FaultPoint::PreRename);
        assert!(!injector.should_fire(FaultPoint::MidWalAppend));
        assert!(!injector.fired());
        assert!(injector.should_fire(FaultPoint::PreRename));
        assert!(injector.fired());
        assert!(!injector.should_fire(FaultPoint::PreRename));
    }

    #[test]
    fn filename_parse_roundtrip() {
        for shard in [0usize, 7, 4095] {
            for generation in [0u64, 1, 123_456] {
                assert_eq!(
                    parse_shard_file(&snapshot_file(shard, generation)),
                    Some((shard, generation, FileKind::Snapshot))
                );
                assert_eq!(
                    parse_shard_file(&wal_file(shard, generation)),
                    Some((shard, generation, FileKind::Wal))
                );
            }
        }
        assert_eq!(parse_shard_file("STORE.meta"), None);
        assert_eq!(parse_shard_file("shard-0001.gen-00000002.tmp"), None);
    }

    #[test]
    fn meta_roundtrip() {
        let dir = temp_dir("meta");
        assert!(read_meta(&dir).unwrap().is_none());
        let meta = StoreMeta {
            kind: StoreMeta::KIND_FLAT,
            count: 8,
        };
        write_meta(&dir, meta).unwrap();
        assert_eq!(read_meta(&dir).unwrap(), Some(meta));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_falls_back_past_torn_snapshot() {
        let dir = temp_dir("recover");
        // Generation 1: valid snapshot + fully applied WAL.
        write_snapshot(&dir.join(snapshot_file(0, 1)), b"gen-1 state", None).unwrap();
        let mut wal1 = WalWriter::create(&dir.join(wal_file(0, 1))).unwrap();
        wal1.append(WalOp::Insert, &[41, 42], true).unwrap();
        drop(wal1);
        // Generation 2: torn snapshot (truncated payload), intact WAL.
        let snap2 = dir.join(snapshot_file(0, 2));
        write_snapshot(&snap2, b"gen-2 state", None).unwrap();
        let full = fs::metadata(&snap2).unwrap().len();
        let file = OpenOptions::new().write(true).open(&snap2).unwrap();
        file.set_len(full - 3).unwrap();
        drop(file);
        let mut wal2 = WalWriter::create(&dir.join(wal_file(0, 2))).unwrap();
        wal2.append(WalOp::Delete, &[41], true).unwrap();
        drop(wal2);

        let files = &scan_dir(&dir, 1).unwrap()[0];
        let recovered = recover_shard(&dir, 0, files).unwrap();
        assert!(recovered.fell_back);
        assert_eq!(recovered.snapshot_generation, 1);
        assert_eq!(
            recovered.snapshot.as_ref().unwrap().payload(),
            b"gen-1 state"
        );
        // Replay spans both generations' WALs, oldest first.
        assert_eq!(
            recovered.replay,
            vec![
                (WalOp::Insert, 41),
                (WalOp::Insert, 42),
                (WalOp::Delete, 41),
            ]
        );
        assert_eq!(recovered.wal_generation, 2);
        // The torn snapshot was deleted during recovery.
        assert!(!snap2.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_snapshot_faults_leave_recoverable_state() {
        let dir = temp_dir("snapfault");
        let path = dir.join(snapshot_file(0, 5));

        let injector = FaultInjector::new();
        injector.arm(FaultPoint::MidSnapshotWrite);
        let err = write_snapshot(&path, b"torn payload", Some(&injector)).unwrap_err();
        assert!(matches!(
            err,
            PersistError::FaultInjected(FaultPoint::MidSnapshotWrite)
        ));
        // File is visible but fails CRC — exactly what fallback handles.
        assert!(path.exists());
        assert!(matches!(
            Snapshot::open(&path),
            Err(PersistError::Corrupt { .. })
        ));
        fs::remove_file(&path).unwrap();

        injector.arm(FaultPoint::PreRename);
        let err = write_snapshot(&path, b"never renamed", Some(&injector)).unwrap_err();
        assert!(matches!(
            err,
            PersistError::FaultInjected(FaultPoint::PreRename)
        ));
        assert!(!path.exists());
        assert!(path.with_extension("tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }
}
