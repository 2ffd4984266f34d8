//! The SLOG file: header, thread table, preview, time-keyed frame index,
//! and frames of records.

use ute_core::codec::{ByteReader, ByteWriter};
use ute_core::error::{Result, UteError};
use ute_core::ids::{LogicalThreadId, NodeId};
use ute_format::thread_table::ThreadTable;

use crate::preview::Preview;
use crate::record::SlogRecord;

/// Magic bytes opening a SLOG file.
pub const MAGIC: &[u8; 8] = b"UTESLOG\0";

/// Current SLOG format version.
pub const VERSION: u32 = 1;

/// One time-partitioned frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlogFrame {
    /// Frame time span start (inclusive), global ticks.
    pub t_start: u64,
    /// Frame time span end (exclusive), global ticks.
    pub t_end: u64,
    /// Records assigned or pseudo-copied into this frame.
    pub records: Vec<SlogRecord>,
}

impl SlogFrame {
    /// Number of pseudo records in the frame.
    pub fn pseudo_count(&self) -> usize {
        self.records.iter().filter(|r| r.is_pseudo()).count()
    }
}

/// An in-memory SLOG file.
#[derive(Debug, Clone, PartialEq)]
pub struct SlogFile {
    /// The timelines: one per thread, in thread-table order.
    pub threads: ThreadTable,
    /// Unified marker id → string pairs.
    pub markers: Vec<(u32, String)>,
    /// Whole-run preview data.
    pub preview: Preview,
    /// Time-partitioned frames, in time order. After
    /// [`SlogReader::load`] with a window this is only the contiguous
    /// run of frames that overlap the window, not the whole file.
    pub frames: Vec<SlogFrame>,
}

impl SlogFile {
    /// The timeline index of a thread, by (node, logical id).
    pub fn timeline_of(&self, node: NodeId, thread: LogicalThreadId) -> Option<u32> {
        self.threads
            .entries()
            .iter()
            .position(|e| e.node == node && e.logical == thread)
            .map(|i| i as u32)
    }

    /// The frame containing time `t` — a binary search over the frame
    /// index, touching no frame contents (§4's scalability property:
    /// lookup cost is independent of file size).
    pub fn frame_at(&self, t: u64) -> Option<&SlogFrame> {
        if self.frames.is_empty() {
            return None;
        }
        let i = self.frames.partition_point(|f| f.t_end <= t);
        let f = self.frames.get(i)?;
        if f.t_start <= t {
            Some(f)
        } else {
            None
        }
    }

    /// Total records across frames (pseudo copies included).
    pub fn total_records(&self) -> usize {
        self.frames.iter().map(|f| f.records.len()).sum()
    }

    /// Serializes the file: header, thread table, markers, preview,
    /// frame index, frames.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(MAGIC);
        w.put_u32(VERSION);
        self.threads.encode(&mut w);
        w.put_u32(self.markers.len() as u32);
        for (id, name) in &self.markers {
            w.put_u32(*id);
            w.put_str(name);
        }
        self.preview.encode(&mut w);
        // Frame bodies, encoded up front so the index can carry offsets.
        let mut bodies = Vec::with_capacity(self.frames.len());
        for f in &self.frames {
            let mut b = ByteWriter::new();
            for rec in &f.records {
                rec.encode(&mut b);
            }
            bodies.push(b.into_bytes());
        }
        // Frame index: count, then (t_start, t_end, nrecords, offset, size)
        // with offsets relative to the end of the index.
        w.put_u32(self.frames.len() as u32);
        let mut offset = 0u64;
        for (f, b) in self.frames.iter().zip(&bodies) {
            w.put_u64(f.t_start);
            w.put_u64(f.t_end);
            w.put_u32(f.records.len() as u32);
            w.put_u64(offset);
            w.put_u64(b.len() as u64);
            offset += b.len() as u64;
        }
        for b in &bodies {
            w.put_bytes(b);
        }
        w.into_bytes()
    }

    /// Parses a SLOG file, decoding every frame.
    pub fn from_bytes(data: &[u8]) -> Result<SlogFile> {
        SlogReader::open(data)?.load(None)
    }

    /// Reads from disk.
    pub fn read_from(path: &std::path::Path) -> Result<SlogFile> {
        use ute_core::error::PathContext;
        let data = std::fs::read(path).in_file(path)?;
        SlogFile::from_bytes(&data).in_file(path)
    }
}

/// One frame-index entry: the frame's time span, its record count, and
/// where its body sits in the file.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    t_start: u64,
    t_end: u64,
    nrecords: u32,
    /// Byte offset of the frame body from the end of the index.
    offset: u64,
    /// Body length in bytes.
    size: u64,
}

/// A SLOG file opened for frame-indexed reading (§4: the time it takes
/// to display a frame is independent of the size of the file).
///
/// [`open`](Self::open) decodes the header, thread table, markers,
/// preview and the whole frame index, and validates the index; it
/// decodes no frame. [`load`](Self::load) then decodes only the frames a
/// window needs. Frame bodies are checked only when loaded: a view
/// validates what it reads, `ute check` validates the whole file.
#[derive(Debug)]
pub struct SlogReader<'a> {
    data: &'a [u8],
    /// Byte offset of the first frame body (the end of the index).
    body_base: u64,
    /// The timelines: one per thread, in thread-table order.
    pub threads: ThreadTable,
    /// Unified marker id → string pairs.
    pub markers: Vec<(u32, String)>,
    /// Whole-run preview data.
    pub preview: Preview,
    index: Vec<IndexEntry>,
}

impl<'a> SlogReader<'a> {
    /// Decodes everything before the frame bodies and validates the
    /// frame index: byte ranges run contiguously from the first body
    /// byte without overlap and end inside `data`, and every frame
    /// starts no earlier than it ends and no earlier than its
    /// predecessor ends. A torn file therefore fails here, before any
    /// frame is decoded.
    pub fn open(data: &'a [u8]) -> Result<SlogReader<'a>> {
        let mut r = ByteReader::new(data);
        if r.get_bytes(8)? != MAGIC {
            return Err(UteError::corrupt("slog file: bad magic"));
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(UteError::VersionMismatch {
                profile: VERSION,
                file: version,
            });
        }
        let threads = ThreadTable::decode(&mut r)?;
        let nmarkers = r.get_u32()?;
        let cap = ute_core::codec::clamped_capacity(nmarkers as usize, 6, r.remaining());
        let mut markers = Vec::with_capacity(cap);
        for _ in 0..nmarkers {
            let id = r.get_u32()?;
            markers.push((id, r.get_str()?));
        }
        let preview = Preview::decode(&mut r)?;
        let nframes = r.get_u32()?;
        let cap = ute_core::codec::clamped_capacity(nframes as usize, 36, r.remaining());
        let mut index: Vec<IndexEntry> = Vec::with_capacity(cap);
        let mut next = 0u64;
        for i in 0..nframes {
            let t_start = r.get_u64()?;
            let t_end = r.get_u64()?;
            let nrecords = r.get_u32()?;
            let offset = r.get_u64()?;
            let size = r.get_u64()?;
            if offset != next {
                return Err(UteError::corrupt(format!(
                    "slog frame index: frame {i} body at offset {offset}, expected {next}"
                )));
            }
            let prev_end = index.last().map_or(0, |p| p.t_end);
            if t_start > t_end || t_start < prev_end {
                return Err(UteError::corrupt(format!(
                    "slog frame index: frame {i} [{t_start}, {t_end}) is out of time order"
                )));
            }
            next = offset
                .checked_add(size)
                .ok_or_else(|| UteError::corrupt("slog frame size overflows"))?;
            index.push(IndexEntry {
                t_start,
                t_end,
                nrecords,
                offset,
                size,
            });
        }
        if next > r.remaining() as u64 {
            return Err(UteError::corrupt(format!(
                "slog frame index: frames end {} bytes past the end of the file",
                next - r.remaining() as u64
            )));
        }
        Ok(SlogReader {
            data,
            body_base: r.pos(),
            threads,
            markers,
            preview,
            index,
        })
    }

    /// Decodes the frames that overlap `window` — those with
    /// `t_start < end && t_end > start`, the overlap test the view layer
    /// applies — or every frame for `None`. Because the index is time
    /// ordered, those frames are one contiguous run, found by binary
    /// search; the returned [`SlogFile::frames`] is that run. Each frame
    /// goes through the same record decoder and size check as a full
    /// read.
    pub fn load(self, window: Option<(u64, u64)>) -> Result<SlogFile> {
        let wanted = match window {
            None => 0..self.index.len(),
            Some((start, end)) => {
                let lo = self.index.partition_point(|f| f.t_end <= start);
                let hi = self.index.partition_point(|f| f.t_start < end);
                lo..hi.max(lo)
            }
        };
        let mut frames = Vec::with_capacity(wanted.len());
        for e in &self.index[wanted] {
            let at = self.body_base + e.offset;
            let mut fr = ByteReader::new(self.data);
            fr.seek(at)?;
            let mut records = Vec::with_capacity(ute_core::codec::clamped_capacity(
                e.nrecords as usize,
                2,
                fr.remaining(),
            ));
            for _ in 0..e.nrecords {
                records.push(SlogRecord::decode(&mut fr)?);
            }
            if fr.pos() != at + e.size {
                return Err(UteError::corrupt("slog frame size mismatch"));
            }
            frames.push(SlogFrame {
                t_start: e.t_start,
                t_end: e.t_end,
                records,
            });
        }
        ute_obs::counter("slog/frames_decoded").add(frames.len() as u64);
        ute_obs::counter("slog/frames_skipped").add((self.index.len() - frames.len()) as u64);
        Ok(SlogFile {
            threads: self.threads,
            markers: self.markers,
            preview: self.preview,
            frames,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SlogState;
    use ute_core::bebits::BeBits;
    use ute_core::ids::{Pid, SystemThreadId, TaskId, ThreadType};
    use ute_format::state::StateCode;
    use ute_format::thread_table::ThreadEntry;

    fn sample() -> SlogFile {
        let mut threads = ThreadTable::new();
        threads
            .register(ThreadEntry {
                task: TaskId(0),
                pid: Pid(1),
                system_tid: SystemThreadId(1),
                node: NodeId(0),
                logical: LogicalThreadId(0),
                ttype: ThreadType::Mpi,
            })
            .unwrap();
        let mut preview = Preview::new(0, 300, 3);
        preview.add(StateCode::RUNNING, 0, 300);
        let state = |start: u64, dur: u64, pseudo: bool| {
            SlogRecord::State(SlogState {
                timeline: 0,
                state: StateCode::RUNNING,
                bebits: BeBits::Complete,
                pseudo,
                start,
                duration: dur,
                node: 0,
                cpu: 0,
                marker_id: 0,
            })
        };
        SlogFile {
            threads,
            markers: vec![(1, "Init".into())],
            preview,
            frames: vec![
                SlogFrame {
                    t_start: 0,
                    t_end: 100,
                    records: vec![state(0, 150, false)],
                },
                SlogFrame {
                    t_start: 100,
                    t_end: 200,
                    records: vec![state(0, 150, true), state(120, 30, false)],
                },
                SlogFrame {
                    t_start: 200,
                    t_end: 300,
                    records: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let f = sample();
        let bytes = f.to_bytes();
        let back = SlogFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn frame_at_binary_searches() {
        let f = sample();
        assert_eq!(f.frame_at(0).unwrap().t_start, 0);
        assert_eq!(f.frame_at(99).unwrap().t_start, 0);
        assert_eq!(f.frame_at(100).unwrap().t_start, 100);
        assert_eq!(f.frame_at(299).unwrap().t_start, 200);
        assert!(f.frame_at(300).is_none());
    }

    #[test]
    fn pseudo_counting() {
        let f = sample();
        assert_eq!(f.frames[1].pseudo_count(), 1);
        assert_eq!(f.total_records(), 3);
    }

    #[test]
    fn timeline_lookup() {
        let f = sample();
        assert_eq!(f.timeline_of(NodeId(0), LogicalThreadId(0)), Some(0));
        assert_eq!(f.timeline_of(NodeId(1), LogicalThreadId(0)), None);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'Z';
        assert!(SlogFile::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        assert!(SlogFile::from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    /// Byte position of field `at` (0 t_start, 8 t_end, 16 nrecords,
    /// 20 offset, 28 size) of frame `i`'s index entry in `sample()`.
    fn index_field(i: usize, at: usize) -> usize {
        let header = SlogFile {
            frames: vec![],
            ..sample()
        }
        .to_bytes()
        .len();
        header + 36 * i + at
    }

    fn patched(i: usize, at: usize, value: u64) -> Vec<u8> {
        let mut bytes = sample().to_bytes();
        let pos = index_field(i, at);
        bytes[pos..pos + 8].copy_from_slice(&value.to_le_bytes());
        bytes
    }

    fn field(bytes: &[u8], i: usize, at: usize) -> u64 {
        let pos = index_field(i, at);
        u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap())
    }

    fn open_error(bytes: &[u8]) -> String {
        SlogReader::open(bytes).unwrap_err().to_string()
    }

    #[test]
    fn open_rejects_byte_ranges_not_contiguous_from_zero() {
        // Frame 0 must start at the first body byte.
        assert!(open_error(&patched(0, 20, 1)).contains("frame 0 body"));
        // A gap after frame 0, and frame 1 overlapping frame 0.
        let size0 = field(&sample().to_bytes(), 0, 28);
        assert!(open_error(&patched(1, 20, size0 + 1)).contains("frame 1 body"));
        assert!(open_error(&patched(1, 20, 0)).contains("frame 1 body"));
    }

    #[test]
    fn open_rejects_frames_out_of_time_order() {
        // Frame 1 starting before frame 0 ends would make frame_at's
        // binary search pick the wrong frame.
        assert!(open_error(&patched(1, 0, 50)).contains("out of time order"));
        // A frame ending before it starts.
        assert!(open_error(&patched(2, 8, 150)).contains("out of time order"));
    }

    #[test]
    fn open_rejects_frames_past_end_of_file() {
        // The empty last frame claims 5 body bytes the file lacks.
        assert!(open_error(&patched(2, 28, 5)).contains("past the end"));
        // A torn tail fails at open, before any frame is decoded.
        let bytes = sample().to_bytes();
        assert!(open_error(&bytes[..bytes.len() - 1]).contains("past the end"));
    }

    #[test]
    fn load_decodes_the_overlapping_run_of_frames() {
        let f = sample();
        let bytes = f.to_bytes();
        let starts = |w| -> Vec<u64> {
            let loaded = SlogReader::open(&bytes).unwrap().load(w).unwrap();
            loaded.frames.iter().map(|fr| fr.t_start).collect()
        };
        assert_eq!(starts(None), vec![0, 100, 200]);
        assert_eq!(starts(Some((0, 100))), vec![0]);
        assert_eq!(starts(Some((99, 101))), vec![0, 100]);
        assert_eq!(starts(Some((150, 151))), vec![100]);
        assert_eq!(starts(Some((100, 300))), vec![100, 200]);
        assert_eq!(starts(Some((300, 400))), Vec::<u64>::new());
        assert_eq!(starts(Some((150, 150))), vec![100]);
        assert_eq!(starts(Some((150, 50))), Vec::<u64>::new());
        // Every loaded frame equals its fully decoded counterpart.
        let w = SlogReader::open(&bytes)
            .unwrap()
            .load(Some((120, 250)))
            .unwrap();
        assert_eq!(w.frames, f.frames[1..].to_vec());
        assert_eq!(w.preview, f.preview);
    }
}
