//! Append-only on-disk snapshot of a [`PointCache`].
//!
//! The `chain-nn serve` daemon (and anything else that wants sweeps to
//! be incremental *across* processes) persists every fresh evaluation
//! as one self-checking record in a cache file and replays the file at
//! startup. Design constraints, in order:
//!
//! * **Append-only.** A flush never rewrites history — it copies the
//!   cache's journal, appends it and syncs, and only then marks it
//!   flushed ([`CacheFile::flush_dirty`]), so a failed append leaves
//!   the journal for the next flush. A crash can only lose the
//!   unflushed tail, never corrupt old records.
//! * **Self-checking.** Each record carries its payload length and an
//!   FNV-1a checksum; the payload carries the point's content hash,
//!   which the loader recomputes from the decoded point. A flipped bit
//!   fails the checksum; a decoder mismatch fails the hash cross-check.
//! * **Checked like a fresh evaluation.** A decoded record is kept only
//!   if its point passes the checks [`crate::evaluate`] runs before any
//!   model (a zoo network, 8- or 16-bit words, a batch of at least one,
//!   chain parameters `ChainConfig` accepts) and a feasible outcome
//!   passes the ones it runs on a result (every field finite and none
//!   negative). A failing record is rejected on its own: its framing is
//!   intact, so the records after it stay. A record speaks only for its
//!   own point: loading measures nothing and memoizes nothing.
//! * **Corruption-tolerant load.** The loader keeps every record up to
//!   the first framing/checksum failure and truncates the rest away
//!   (the framing has no resync marker, so bytes after a bad record
//!   cannot be trusted, and leaving them would strand later appends
//!   behind an unreadable tail). A truncated tail — the expected
//!   result of a crash mid-append — therefore costs only the torn
//!   record.
//! * **Compactable.** Append-only means superseded records accrete —
//!   a bounded cache ([`PointCache::bounded`]) that evicts a flushed
//!   point and later re-evaluates it appends a second record for the
//!   same point. [`CacheFile::compact`] rewrites the snapshot keeping
//!   only each point's first record (the one load semantics honor);
//!   [`CacheFile::load_into`] runs it automatically when more than
//!   half the records on disk are dead.
//! * **Boundable.** A bounded cache keeps only its newest points, so
//!   its older records are dead weight too, and a daemon with a cache
//!   capacity drops them: [`CacheFile::keep_from`] rewrites the snapshot
//!   to hold only its bytes from a record boundary on, copied without
//!   decoding. The daemon calls it once the file holds more than twice
//!   its capacity, keeping its newest whole flush batches that hold at
//!   least the capacity.
//!
//! The format is deliberately dependency-free binary, little-endian
//! throughout, versioned by the magic line:
//!
//! ```text
//! file   := magic record*
//! magic  := b"chain-nn dse cache v2\n"
//! record := len:u32 checksum:u64 payload[len]   (checksum = FNV-1a of payload)
//! payload:= hash:u64 point outcome
//! point  := pes:u64 freq_bits:u64 kmem:u64 imem:u64 omem:u64
//!           word_bits:u32 batch:u64 net_len:u32 net[net_len]
//! outcome:= 0:u8 reason_len:u32 reason[reason_len]              (infeasible)
//!         | 1:u8 fps achieved peak chip dram gates sram sqnr    (feasible, f64 bits each)
//! ```
//!
//! A file that does not begin with this magic line is someone else's —
//! or a snapshot in the retired v1 format, whose feasible records had no
//! `sqnr`. Loading, compacting and appending all refuse it and leave its
//! bytes as they were.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::eval::{check_point, check_result, PointOutcome, PointResult};
use crate::spec::DesignPoint;
use crate::PointCache;

/// Version-bearing first bytes of every cache file.
pub const MAGIC: &[u8] = b"chain-nn dse cache v2\n";

/// Hard upper bound on one record's payload (a point plus an error
/// string); anything larger is framing corruption, not data.
const MAX_PAYLOAD: u32 = 1 << 16;

/// What a [`CacheFile::load_into`] or a [`CacheFile::compact`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Records decoded, verified and inserted (by `compact`: written
    /// back).
    pub loaded: usize,
    /// Valid records that repeated an earlier point (first wins; the
    /// repeat is dead weight on disk).
    pub duplicates: usize,
    /// Records whose checksum passed but that did not decode, did not
    /// match their content hash, or failed the checks of a fresh
    /// evaluation (skipped individually).
    pub rejected: usize,
    /// Bytes abandoned after the first framing/checksum failure (0 for
    /// a clean file).
    pub corrupt_tail_bytes: u64,
    /// Whether the file was rewritten: by `load_into` when dead records
    /// (duplicates + rejected) exceeded half of it, by `compact` always
    /// unless the file was missing or empty.
    pub compacted: bool,
}

impl LoadReport {
    /// Records that occupy disk without contributing cache state.
    pub fn dead(&self) -> usize {
        self.duplicates + self.rejected
    }
}

/// Handle to one on-disk cache snapshot (the file may not exist yet).
///
/// # Example
///
/// ```
/// use chain_nn_dse::{CacheFile, DesignPoint, PointCache, PointOutcome};
///
/// let path = std::env::temp_dir().join(format!("dse_doc_{}.cache", std::process::id()));
/// # let _ = std::fs::remove_file(&path);
/// let file = CacheFile::new(&path);
/// let cache = PointCache::new();
/// cache.insert(
///     &DesignPoint::paper_alexnet(),
///     PointOutcome::Infeasible("demo".into()),
/// );
/// assert_eq!(file.flush_dirty(&cache).unwrap(), 1);
/// // A fresh process (here: a fresh cache) replays the snapshot.
/// let reloaded = PointCache::new();
/// assert_eq!(file.load_into(&reloaded).unwrap().loaded, 1);
/// assert!(reloaded.get(&DesignPoint::paper_alexnet()).is_some());
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct CacheFile {
    path: PathBuf,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_payload(point: &DesignPoint, outcome: &PointOutcome) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(&point.content_hash().to_le_bytes());
    out.extend_from_slice(&(point.pes as u64).to_le_bytes());
    out.extend_from_slice(&point.freq_mhz.to_bits().to_le_bytes());
    out.extend_from_slice(&(point.kmem_depth as u64).to_le_bytes());
    out.extend_from_slice(&(point.imem_kb as u64).to_le_bytes());
    out.extend_from_slice(&(point.omem_kb as u64).to_le_bytes());
    out.extend_from_slice(&point.word_bits.to_le_bytes());
    out.extend_from_slice(&(point.batch as u64).to_le_bytes());
    out.extend_from_slice(&(point.net.len() as u32).to_le_bytes());
    out.extend_from_slice(point.net.as_bytes());
    match outcome {
        PointOutcome::Infeasible(reason) => {
            out.push(0);
            out.extend_from_slice(&(reason.len() as u32).to_le_bytes());
            out.extend_from_slice(reason.as_bytes());
        }
        PointOutcome::Feasible(r) => {
            out.push(1);
            for v in [
                r.fps,
                r.achieved_gops,
                r.peak_gops,
                r.chip_mw,
                r.dram_mw,
                r.gates_k,
                r.sram_kb,
                r.sqnr_db,
            ] {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    out
}

/// Cursor-style reader over one payload; every method fails `None` on
/// underrun, which the loader treats as a rejected record.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let slice = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(slice)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

/// Decodes one payload and checks it like a fresh evaluation
/// ([`check_point`], and [`check_result`] on a feasible outcome). `None`
/// rejects the record.
fn decode_payload(payload: &[u8]) -> Option<(DesignPoint, PointOutcome)> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    let stored_hash = c.u64()?;
    let point = DesignPoint {
        pes: c.u64()? as usize,
        freq_mhz: f64::from_bits(c.u64()?),
        kmem_depth: c.u64()? as usize,
        imem_kb: c.u64()? as usize,
        omem_kb: c.u64()? as usize,
        word_bits: c.u32()?,
        batch: c.u64()? as usize,
        net: c.string()?,
    };
    let outcome = match c.take(1)?[0] {
        0 => PointOutcome::Infeasible(c.string()?),
        1 => PointOutcome::Feasible(PointResult {
            fps: c.f64()?,
            achieved_gops: c.f64()?,
            peak_gops: c.f64()?,
            chip_mw: c.f64()?,
            dram_mw: c.f64()?,
            gates_k: c.f64()?,
            sram_kb: c.f64()?,
            sqnr_db: c.f64()?,
        }),
        _ => return None,
    };
    if !c.done() || point.content_hash() != stored_hash {
        return None;
    }
    check_point(&point).ok()?;
    outcome.result().map_or(Ok(()), check_result).ok()?;
    Some((point, outcome))
}

impl CacheFile {
    /// A handle to `path`. Nothing is touched until the first
    /// [`CacheFile::load_into`] / [`CacheFile::append`].
    pub fn new(path: impl AsRef<Path>) -> Self {
        CacheFile {
            path: path.as_ref().to_path_buf(),
        }
    }

    /// The file this handle points at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Replays the snapshot into `cache` via
    /// [`PointCache::insert_loaded`] (loaded entries are not
    /// re-journaled, so a later flush appends only genuinely new work).
    ///
    /// A missing file is an empty snapshot, not an error. Damage is
    /// tolerated per the module contract and reported in the
    /// [`LoadReport`].
    ///
    /// # Errors
    ///
    /// I/O failures other than "not found", and a present file whose
    /// magic line does not match [`MAGIC`] (that is *someone else's
    /// file*; refusing protects it from our appends).
    pub fn load_into(&self, cache: &PointCache) -> io::Result<LoadReport> {
        let (mut report, readable) =
            self.walk(|point, outcome| cache.insert_loaded(&point, outcome))?;
        if report.corrupt_tail_bytes > 0 {
            // WAL-style recovery: drop the unreadable tail so the next
            // append extends the valid prefix instead of writing records
            // beyond bytes no loader will ever cross.
            OpenOptions::new()
                .write(true)
                .open(&self.path)?
                .set_len(readable)?;
        }
        // Append-only files accrete dead weight (duplicates from
        // evict-then-reevaluate cycles, rejected records). Once the
        // majority of the file is dead, rewrite it in place — the
        // loader already owns the file at this point in a daemon's
        // life, and the cache contents are unaffected.
        let total = report.loaded + report.dead();
        if total > 0 && report.dead() * 2 > total {
            self.compact()?;
            report.compacted = true;
        }
        Ok(report)
    }

    /// Rewrites the snapshot keeping only the **first** record of each
    /// distinct point (matching load semantics, where the first record
    /// wins) and dropping rejected records and any unreadable tail.
    /// The rewrite goes through a sibling temp file and an atomic
    /// rename, so a crash mid-compaction leaves the original intact.
    ///
    /// Callers must own the file: compacting a snapshot a live daemon
    /// is appending to would lose the daemon's writes.
    ///
    /// # Errors
    ///
    /// I/O failures, and a present file whose magic line is foreign.
    /// A missing file is an empty snapshot: nothing to do.
    pub fn compact(&self) -> io::Result<LoadReport> {
        let mut seen = HashSet::new();
        let mut live = Vec::new();
        let (mut report, readable) = self.walk(|point, outcome| {
            let new = seen.insert(point.canonical_bytes());
            if new {
                live.push((point, outcome));
            }
            new
        })?;
        if readable == 0 {
            return Ok(report);
        }
        let tmp_path = self.tmp_path();
        write_records(&mut File::create(&tmp_path)?, true, &live)?;
        std::fs::rename(&tmp_path, &self.path)?;
        report.compacted = true;
        Ok(report)
    }

    /// Rewrites the snapshot to hold only its bytes from offset `from`
    /// on, after the magic line: how a bounded daemon drops its oldest
    /// flush batches. `from` must be where a record starts (an offset
    /// inside the magic line keeps every record). The bytes
    /// are copied as they are (file to file, nothing decoded or held in
    /// memory) into a sibling temp file, which is synced and renamed
    /// over the snapshot, so a failure leaves the old file intact.
    ///
    /// Callers must own the file, as for [`CacheFile::compact`].
    ///
    /// # Errors
    ///
    /// I/O failures (a missing file included), and a file whose magic
    /// line is foreign.
    pub fn keep_from(&self, from: u64) -> io::Result<()> {
        let mut old = File::open(&self.path)?;
        let mut head = Vec::with_capacity(MAGIC.len());
        (&mut old).take(MAGIC.len() as u64).read_to_end(&mut head)?;
        self.check_magic(&head)?;
        old.seek(SeekFrom::Start(from.max(MAGIC.len() as u64)))?;
        let tmp_path = self.tmp_path();
        let copied = File::create(&tmp_path).and_then(|mut new| {
            new.write_all(MAGIC)?;
            io::copy(&mut old, &mut new)?;
            new.sync_data()?;
            std::fs::rename(&tmp_path, &self.path)
        });
        if copied.is_err() {
            let _ = std::fs::remove_file(&tmp_path);
        }
        copied
    }

    /// The sibling a rewrite goes through before its rename.
    fn tmp_path(&self) -> PathBuf {
        let mut tmp_path = self.path.clone().into_os_string();
        tmp_path.push(".compact-tmp");
        tmp_path.into()
    }

    /// Appends `entries` as one batch of records, creating the file
    /// (with its magic line) on first use, then syncs file data to
    /// disk. Appending nothing is a no-op that touches nothing. A file
    /// with a foreign magic line is refused.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (open, write, sync) and refuses foreign
    /// files.
    pub fn append(&self, entries: &[(DesignPoint, PointOutcome)]) -> io::Result<usize> {
        if entries.is_empty() {
            return Ok(0);
        }
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&self.path)?;
        let mut head = Vec::with_capacity(MAGIC.len());
        (&mut file)
            .take(MAGIC.len() as u64)
            .read_to_end(&mut head)?;
        if !head.is_empty() {
            self.check_magic(&head)?;
        }
        write_records(&mut file, head.is_empty(), entries)?;
        Ok(entries.len())
    }

    /// Appends a copy of `cache`'s dirty journal to the file and only
    /// then marks it flushed: the daemon's write-batch/shutdown flush.
    /// Flushes of one cache run one at a time, so racing callers append
    /// each entry once between them. Returns how many records were
    /// appended; an empty journal touches no file.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheFile::append`] failures. The journal is then
    /// left as it was, so a retried flush appends each entry once.
    pub fn flush_dirty(&self, cache: &PointCache) -> io::Result<usize> {
        let started = std::time::Instant::now();
        let n = cache.flush_dirty_with(|dirty| self.append(&dirty))?;
        let obs = chain_nn_obs::global();
        obs.histogram("dse_persist_flush_ns")
            .record_duration(started.elapsed());
        obs.counter("dse_persist_flushed_points_total")
            .add(n as u64);
        Ok(n)
    }

    /// Reads the snapshot and hands every record that decodes and
    /// passes the checks to `keep`, in file order; `keep` says whether
    /// the record's point was new (`false` counts it as a duplicate).
    /// Returns what the walk found and the length of the readable
    /// prefix, which is 0 for a missing or empty file.
    fn walk(
        &self,
        mut keep: impl FnMut(DesignPoint, PointOutcome) -> bool,
    ) -> io::Result<(LoadReport, u64)> {
        let bytes = match std::fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut report = LoadReport::default();
        if bytes.is_empty() {
            return Ok((report, 0));
        }
        self.check_magic(&bytes)?;
        let mut at = MAGIC.len();
        while at < bytes.len() {
            let Some((payload, next)) = read_frame(&bytes, at) else {
                report.corrupt_tail_bytes = (bytes.len() - at) as u64;
                break;
            };
            match decode_payload(payload).map(|(point, outcome)| keep(point, outcome)) {
                Some(true) => report.loaded += 1,
                Some(false) => report.duplicates += 1,
                None => report.rejected += 1,
            }
            at = next;
        }
        Ok((report, at as u64))
    }

    /// Refuses a file that does not begin with [`MAGIC`]: someone
    /// else's, or a retired v1 snapshot.
    fn check_magic(&self, head: &[u8]) -> io::Result<()> {
        if head.starts_with(MAGIC) {
            return Ok(());
        }
        Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("{} is not a chain-nn dse cache file", self.path.display()),
        ))
    }
}

/// Writes `entries` as framed records to `file`, after the magic line
/// when `magic` is set, then syncs the file's data to disk.
fn write_records(
    file: &mut File,
    magic: bool,
    entries: &[(DesignPoint, PointOutcome)],
) -> io::Result<()> {
    let mut w = BufWriter::new(&mut *file);
    if magic {
        w.write_all(MAGIC)?;
    }
    for (point, outcome) in entries {
        write_frame(&mut w, &encode_payload(point, outcome))?;
    }
    w.into_inner()?.sync_data()
}

/// Writes one frame: the payload's length, its checksum, the payload.
fn write_frame(out: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&fnv1a(payload).to_le_bytes())?;
    out.write_all(payload)
}

/// One frame at `at`: returns `(payload, next_offset)` when the length,
/// bounds and checksum all validate.
fn read_frame(bytes: &[u8], at: usize) -> Option<(&[u8], usize)> {
    let len_end = at.checked_add(4)?;
    let len = u32::from_le_bytes(bytes.get(at..len_end)?.try_into().ok()?);
    if len == 0 || len > MAX_PAYLOAD {
        return None;
    }
    let sum_end = len_end.checked_add(8)?;
    let sum = u64::from_le_bytes(bytes.get(len_end..sum_end)?.try_into().ok()?);
    let payload_end = sum_end.checked_add(len as usize)?;
    let payload = bytes.get(sum_end..payload_end)?;
    if fnv1a(payload) != sum {
        return None;
    }
    Some((payload, payload_end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("chain_nn_persist_{tag}_{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn feasible(fps: f64) -> PointOutcome {
        PointOutcome::Feasible(PointResult {
            fps,
            achieved_gops: 2.0 * fps,
            peak_gops: 3.0 * fps,
            chip_mw: 500.0,
            dram_mw: 50.0,
            gates_k: 1000.0,
            sram_kb: 300.5,
            sqnr_db: 74.25,
        })
    }

    fn points(n: usize) -> Vec<DesignPoint> {
        (0..n)
            .map(|i| DesignPoint {
                pes: 121 + i,
                ..DesignPoint::paper_alexnet()
            })
            .collect()
    }

    #[test]
    fn round_trips_feasible_and_infeasible() {
        let path = temp_path("roundtrip");
        let file = CacheFile::new(&path);
        let pts = points(3);
        let entries = vec![
            (pts[0].clone(), feasible(123.456)),
            (pts[1].clone(), PointOutcome::Infeasible("too small".into())),
            (pts[2].clone(), feasible(0.25)),
        ];
        assert_eq!(file.append(&entries).unwrap(), 3);

        let cache = PointCache::new();
        let report = file.load_into(&cache).unwrap();
        assert_eq!(
            report,
            LoadReport {
                loaded: 3,
                ..LoadReport::default()
            }
        );
        for (p, o) in &entries {
            assert_eq!(cache.get(p), Some(o.clone()));
        }
        // Loaded entries are not dirty: nothing to flush back out.
        assert_eq!(file.flush_dirty(&cache).unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty_snapshot() {
        let file = CacheFile::new(temp_path("missing"));
        let cache = PointCache::new();
        assert_eq!(file.load_into(&cache).unwrap(), LoadReport::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn foreign_file_is_refused() {
        // Someone else's file, and one in the retired v1 format: load,
        // compaction and append all refuse it and leave it as it was.
        let v1 = [&b"chain-nn dse cache v1\n"[..], &[7; 40]].concat();
        for (tag, bytes) in [
            ("foreign", b"definitely,not,a,cache\n1,2,3\n".to_vec()),
            ("v1", v1),
        ] {
            let path = temp_path(tag);
            std::fs::write(&path, &bytes).unwrap();
            let file = CacheFile::new(&path);
            for err in [
                file.load_into(&PointCache::new()).err(),
                file.compact().err(),
                file.append(&[(points(1)[0].clone(), feasible(1.0))]).err(),
            ] {
                let err = err.expect("refused");
                assert!(err.to_string().contains("is not a chain-nn dse cache file"));
            }
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{tag} file changed");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn truncated_tail_keeps_whole_records() {
        let path = temp_path("truncated");
        let file = CacheFile::new(&path);
        let pts = points(2);
        file.append(&[
            (pts[0].clone(), feasible(10.0)),
            (pts[1].clone(), feasible(20.0)),
        ])
        .unwrap();
        // Tear the file mid-way through the second record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();

        let cache = PointCache::new();
        let report = file.load_into(&cache).unwrap();
        assert_eq!(report.loaded, 1);
        assert!(report.corrupt_tail_bytes > 0);
        assert_eq!(cache.get(&pts[0]), Some(feasible(10.0)));
        assert!(cache.get(&pts[1]).is_none());

        // The tear was truncated away, so an append after recovery is
        // visible to the next load.
        file.append(&[(pts[1].clone(), feasible(20.0))]).unwrap();
        let reloaded = PointCache::new();
        let report = file.load_into(&reloaded).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.corrupt_tail_bytes, 0);
        assert_eq!(reloaded.get(&pts[1]), Some(feasible(20.0)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_bit_fails_checksum_and_stops() {
        let path = temp_path("bitflip");
        let file = CacheFile::new(&path);
        let pts = points(3);
        file.append(&[
            (pts[0].clone(), feasible(1.0)),
            (pts[1].clone(), feasible(2.0)),
            (pts[2].clone(), feasible(3.0)),
        ])
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit inside the second record (skip magic +
        // record 1 exactly).
        let rec1_payload =
            u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap()) as usize;
        let rec2_start = MAGIC.len() + 4 + 8 + rec1_payload;
        bytes[rec2_start + 4 + 8 + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let cache = PointCache::new();
        let report = file.load_into(&cache).unwrap();
        assert_eq!(report.loaded, 1, "only the record before the flip");
        assert!(report.corrupt_tail_bytes > 0, "rest of file abandoned");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_flush_keeps_the_journal_for_retry() {
        // A path inside a directory that does not exist: append fails.
        let mut bad_path = std::env::temp_dir();
        bad_path.push(format!("chain_nn_no_such_dir_{}", std::process::id()));
        bad_path.push("cache.bin");
        let bad = CacheFile::new(&bad_path);

        let cache = PointCache::new();
        let pts = points(2);
        cache.insert(&pts[0], feasible(1.0));
        cache.insert(&pts[1], PointOutcome::Infeasible("x".into()));
        assert!(bad.flush_dirty(&cache).is_err());

        // The drained entries were restored: a retry against a good
        // path flushes all of them, losing nothing.
        let good_path = temp_path("retry");
        let good = CacheFile::new(&good_path);
        assert_eq!(good.flush_dirty(&cache).unwrap(), 2);
        let reloaded = PointCache::new();
        assert_eq!(good.load_into(&reloaded).unwrap().loaded, 2);
        assert_eq!(reloaded.get(&pts[0]), Some(feasible(1.0)));
        std::fs::remove_file(&good_path).unwrap();
    }

    #[test]
    fn compact_drops_duplicates_and_keeps_first_records() {
        let path = temp_path("compact");
        let file = CacheFile::new(&path);
        let pts = points(3);
        // Three live records, then the first two again (superseded
        // repeats, as an evict-then-reevaluate daemon produces).
        file.append(&[
            (pts[0].clone(), feasible(1.0)),
            (pts[1].clone(), feasible(2.0)),
            (pts[2].clone(), PointOutcome::Infeasible("x".into())),
        ])
        .unwrap();
        file.append(&[
            (pts[0].clone(), feasible(91.0)),
            (pts[1].clone(), feasible(92.0)),
        ])
        .unwrap();
        let before = std::fs::metadata(&path).unwrap().len();

        let report = file.compact().unwrap();
        assert_eq!(
            report,
            LoadReport {
                loaded: 3,
                duplicates: 2,
                compacted: true,
                ..LoadReport::default()
            }
        );
        assert!(std::fs::metadata(&path).unwrap().len() < before);

        // Load semantics are unchanged: the FIRST record of each point
        // survived, and the compacted file is clean.
        let cache = PointCache::new();
        let load = file.load_into(&cache).unwrap();
        assert_eq!(load.loaded, 3);
        assert_eq!(load.dead(), 0);
        assert!(!load.compacted);
        assert_eq!(cache.get(&pts[0]), Some(feasible(1.0)));
        assert_eq!(cache.get(&pts[1]), Some(feasible(2.0)));
        // Idempotent: compacting a compacted file drops nothing.
        let again = file.compact().unwrap();
        assert_eq!(again.loaded, 3);
        assert_eq!(again.duplicates, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_auto_compacts_when_most_records_are_dead() {
        let path = temp_path("autocompact");
        let file = CacheFile::new(&path);
        let pts = points(2);
        let entries = vec![
            (pts[0].clone(), feasible(1.0)),
            (pts[1].clone(), feasible(2.0)),
        ];
        // 2 live + 4 duplicate records: 66 % dead, over the 50 %
        // threshold.
        file.append(&entries).unwrap();
        file.append(&entries).unwrap();
        file.append(&entries).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();

        let cache = PointCache::new();
        let report = file.load_into(&cache).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.duplicates, 4);
        assert!(report.compacted, "4/6 dead must trigger compaction");
        assert!(std::fs::metadata(&path).unwrap().len() < before);

        // Exactly-half dead does NOT trigger (threshold is strict).
        file.append(&entries).unwrap();
        let report = file.load_into(&PointCache::new()).unwrap();
        assert_eq!(report.duplicates, 2);
        assert!(!report.compacted);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_failing_the_evaluation_checks_are_rejected_and_later_records_stay() {
        // Valid checksums and content hashes, but no evaluation produces
        // the first two records.
        let path = temp_path("checked");
        let file = CacheFile::new(&path);
        let pts = points(2);
        let bogus = DesignPoint {
            net: "bogus".into(),
            word_bits: 4,
            ..pts[0].clone()
        };
        let negative = PointResult {
            sqnr_db: 99.0,
            ..*feasible(-5.0).result().unwrap()
        };
        let records = [
            (bogus, feasible(10.0)),
            (pts[0].clone(), PointOutcome::Feasible(negative)),
            (pts[1].clone(), feasible(20.0)),
        ];
        file.append(&records).unwrap();

        let cache = PointCache::new();
        let report = file.load_into(&cache).unwrap();
        assert_eq!(
            report,
            LoadReport {
                loaded: 1,
                rejected: 2,
                compacted: true,
                ..LoadReport::default()
            }
        );
        assert!(
            cache.get(&records[0].0).is_none(),
            "unknown net, 4-bit words"
        );
        assert!(cache.get(&records[1].0).is_none(), "negative fps");
        assert_eq!(cache.get(&records[2].0), Some(records[2].1.clone()));
        // Compaction dropped both, and kept the record after them.
        let reloaded = PointCache::new();
        let again = file.load_into(&reloaded).unwrap();
        assert_eq!((again.loaded, again.dead()), (1, 0));
        assert_eq!(reloaded.entries(), cache.entries());
        std::fs::remove_file(&path).unwrap();
    }

    /// splitmix64: the fuzz cases' deterministic stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    fn file_of(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for payload in payloads {
            write_frame(&mut bytes, payload).unwrap();
        }
        bytes
    }

    /// Replaces one field of a record with a value a fresh evaluation
    /// may or may not accept.
    fn mutate_record(rng: &mut Rng, point: &mut DesignPoint, outcome: &mut PointOutcome) {
        const ODD: [f64; 8] = [
            -5.0,
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-300,
            99.0,
        ];
        let odd = ODD[rng.below(ODD.len())];
        match rng.below(8) {
            0 => point.net = ["bogus", "", "ALEXNET", "vgg-16", "mnist"][rng.below(5)].into(),
            1 => point.word_bits = [0, 4, 8, 12, 16, 32][rng.below(6)],
            2 => point.batch = rng.below(3),
            3 => point.pes = rng.below(3),
            4 => point.kmem_depth = rng.below(3),
            5 => point.freq_mhz = odd,
            _ => match outcome {
                PointOutcome::Feasible(r) => {
                    let fields = [
                        &mut r.fps,
                        &mut r.achieved_gops,
                        &mut r.peak_gops,
                        &mut r.chip_mw,
                        &mut r.dram_mw,
                        &mut r.gates_k,
                        &mut r.sram_kb,
                        &mut r.sqnr_db,
                    ];
                    *fields.into_iter().nth(rng.below(8)).unwrap() = odd;
                }
                PointOutcome::Infeasible(_) => *outcome = feasible(odd),
            },
        }
    }

    /// Loads `bytes` as a cache file and asserts the loader's contract
    /// on it: only checked records load, a truncated file reloads
    /// clean, compaction keeps the entries, and a refused file is left
    /// as it was.
    fn check_fuzz_case(file: &CacheFile, bytes: &[u8]) {
        std::fs::write(file.path(), bytes).unwrap();
        let first = PointCache::new();
        let Ok(report) = file.load_into(&first) else {
            assert!(file.compact().is_err());
            assert!(file
                .append(&[(points(1)[0].clone(), feasible(1.0))])
                .is_err());
            assert_eq!(std::fs::read(file.path()).unwrap(), bytes);
            return;
        };
        let entries = first.entries();
        assert_eq!(entries.len(), report.loaded);
        for (point, outcome) in &entries {
            assert!(
                check_point(point).is_ok() && outcome.result().map_or(Ok(()), check_result).is_ok(),
                "{point}: {outcome:?}"
            );
        }
        let reloaded = PointCache::new();
        assert_eq!(file.load_into(&reloaded).unwrap().corrupt_tail_bytes, 0);
        assert_eq!(reloaded.entries(), entries);
        file.compact().unwrap();
        let compacted = PointCache::new();
        file.load_into(&compacted).unwrap();
        assert_eq!(compacted.entries(), entries);
    }

    #[test]
    fn fuzzed_files_load_only_checked_records_and_never_panic() {
        let path = temp_path("fuzz");
        let file = CacheFile::new(&path);
        let pts = points(3);
        let base = [
            (pts[0].clone(), feasible(10.0)),
            (pts[1].clone(), PointOutcome::Infeasible("too small".into())),
            (
                DesignPoint {
                    net: "vgg16".into(),
                    word_bits: 8,
                    ..pts[2].clone()
                },
                feasible(3.5),
            ),
            (pts[0].clone(), feasible(11.0)),
        ];
        let payloads: Vec<Vec<u8>> = base.iter().map(|(p, o)| encode_payload(p, o)).collect();
        let clean = file_of(&payloads);
        let mut cases = 0;
        for len in 0..=clean.len() {
            check_fuzz_case(&file, &clean[..len]);
            cases += 1;
        }
        let mut rng = Rng(0x00c0_ffee);
        while cases < 10_000 {
            let mut records = payloads.clone();
            let at = rng.below(records.len());
            let bytes = match rng.below(4) {
                // Random bytes after the magic line and some records.
                0 => {
                    let mut bytes = file_of(&records[..rng.below(records.len() + 1)]);
                    bytes.extend((0..rng.below(300)).map(|_| rng.next() as u8));
                    bytes
                }
                // Bit flips anywhere, magic line included.
                1 => {
                    let mut bytes = clean.clone();
                    for _ in 0..1 + rng.below(3) {
                        let i = rng.below(bytes.len());
                        bytes[i] ^= 1 << rng.below(8);
                    }
                    bytes
                }
                // Payload bytes changed, then checksummed again.
                2 => {
                    let payload = &mut records[at];
                    for _ in 0..1 + rng.below(3) {
                        let i = rng.below(payload.len());
                        match rng.below(3) {
                            0 => payload[i] ^= 1 << rng.below(8),
                            1 => payload[i] = rng.next() as u8,
                            _ => payload.truncate(i.max(1)),
                        }
                    }
                    file_of(&records)
                }
                // One field changed, then hashed and checksummed again.
                _ => {
                    let (mut point, mut outcome) = base[at].clone();
                    mutate_record(&mut rng, &mut point, &mut outcome);
                    records[at] = encode_payload(&point, &outcome);
                    file_of(&records)
                }
            };
            check_fuzz_case(&file, &bytes);
            cases += 1;
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_missing_and_foreign_files() {
        let file = CacheFile::new(temp_path("compact_missing"));
        assert_eq!(file.compact().unwrap(), LoadReport::default());
        let path = temp_path("compact_foreign");
        std::fs::write(&path, b"someone else's data\n").unwrap();
        assert!(CacheFile::new(&path).compact().is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn keep_from_drops_the_oldest_batches_byte_for_byte() {
        let path = temp_path("keep_from");
        let file = CacheFile::new(&path);
        let pts = points(5);
        file.append(&[
            (pts[0].clone(), feasible(1.0)),
            (pts[1].clone(), feasible(2.0)),
        ])
        .unwrap();
        let second = std::fs::metadata(&path).unwrap().len();
        file.append(&[(pts[2].clone(), PointOutcome::Infeasible("x".into()))])
            .unwrap();
        file.append(&[
            (pts[3].clone(), feasible(4.0)),
            (pts[4].clone(), feasible(5.0)),
        ])
        .unwrap();
        let before = std::fs::read(&path).unwrap();

        file.keep_from(second).unwrap();
        let after = std::fs::read(&path).unwrap();
        assert_eq!(after[..MAGIC.len()], *MAGIC);
        assert_eq!(after[MAGIC.len()..], before[second as usize..]);
        assert!(!file.tmp_path().exists(), "temp file left behind");
        let cache = PointCache::new();
        assert_eq!(
            file.load_into(&cache).unwrap(),
            LoadReport {
                loaded: 3,
                ..LoadReport::default()
            }
        );
        assert!(cache.get(&pts[1]).is_none());
        assert_eq!(cache.get(&pts[3]), Some(feasible(4.0)));

        // An offset inside the magic line keeps every record; keeping
        // from the end leaves an empty snapshot.
        file.keep_from(0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), after);
        file.keep_from(after.len() as u64).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), MAGIC);
        // A foreign file is refused and left as it was; a missing one
        // is an error.
        std::fs::write(&path, b"someone else's data\n").unwrap();
        assert!(file.keep_from(0).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"someone else's data\n");
        std::fs::remove_file(&path).unwrap();
        assert!(file.keep_from(0).is_err());
    }

    #[test]
    fn incremental_appends_accumulate() {
        let path = temp_path("incremental");
        let file = CacheFile::new(&path);
        let pts = points(4);

        let cache = PointCache::new();
        cache.insert(&pts[0], feasible(1.0));
        cache.insert(&pts[1], feasible(2.0));
        assert_eq!(file.flush_dirty(&cache).unwrap(), 2);
        cache.insert(&pts[2], PointOutcome::Infeasible("nope".into()));
        assert_eq!(file.flush_dirty(&cache).unwrap(), 1);
        assert_eq!(file.flush_dirty(&cache).unwrap(), 0, "journal drained");

        let reloaded = PointCache::new();
        let report = file.load_into(&reloaded).unwrap();
        assert_eq!(report.loaded, 3);
        assert_eq!(reloaded.len(), 3);
        assert!(reloaded.get(&pts[3]).is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
