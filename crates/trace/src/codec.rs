//! Compact binary trace encoding.
//!
//! Traces for the larger workloads run to tens of thousands of events;
//! the benchmark harness stores and replays them, so a compact,
//! allocation-light binary form beats generic serialization. The format
//! is little-endian, tagged per event:
//!
//! ```text
//! header:  magic "SDPM" | version u16 | pool_size u32 | name_len u16 | name
//! count:   u64
//! event:   tag u8
//!   0 = Compute: nest u32 | first_iter u64 | iters u64 | secs f64
//!   1 = Io:      disk u32 | block u64 | size u64 | flags u8 | nest u32 | iter u64
//!                flags bit0 = write, bit1 = sequential
//!   2 = Power:   disk u32 | action u8 | level u8
//!                action 0 = SpinDown, 1 = SpinUp, 2 = SetRpm(level)
//! ```
//!
//! Version 2 is the stored run-compressed format ([`crate::run::REvent`]
//! records); the `count` field then counts *records*, and a fourth tag
//! appears:
//!
//! ```text
//!   3 = Run:  count u64 | nest u32 | first_iter u64 | iters_per_rep u64
//!             | secs f64 | rotation u32 | nreqs u32
//!             | nreqs × (disk u32 | block u64 | stride u64 | size u64
//!                        | flags u8 | nest u32 | iter u64)
//! ```
//!
//! [`encode`]/[`decode`] (and the incremental [`StreamEncoder`] and
//! [`DecodeStream`]) read and write version 1 only; a version 2 buffer
//! passed to them is rejected with [`CodecError::RunFormat`].
//! [`encode_runs`]/[`decode_runs`] write version 2 and read both (a
//! version 1 buffer decodes as all-plain records).

use crate::event::{AppEvent, IoRequest, PowerAction, ReqKind};
use crate::run::{IoTemplate, REvent, Run, RunTrace};
use crate::stream::{EventStream, DEFAULT_CHUNK_EVENTS};
use crate::trace::Trace;
use sdpm_disk::RpmLevel;
use sdpm_layout::DiskId;

const MAGIC: &[u8; 4] = b"SDPM";
const VERSION: u16 = 1;
const VERSION_RUNS: u16 = 2;

/// Encoding/decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Missing or wrong magic/version header.
    BadHeader,
    /// The buffer ended mid-record.
    Truncated,
    /// An unknown event tag or action byte.
    BadTag(u8),
    /// The name field is not valid UTF-8.
    BadName,
    /// A run record fails [`Run::validate`] (its lowering would be
    /// degenerate or overflow).
    BadRun(String),
    /// A run's `rotation` exceeds the format's u32 field.
    RotationOverflow(u64),
    /// A run-compressed (version 2) buffer reached a per-event decoder;
    /// it decodes with [`decode_runs`].
    RunFormat,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "bad trace header"),
            CodecError::Truncated => write!(f, "truncated trace"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::BadName => write!(f, "trace name is not UTF-8"),
            CodecError::BadRun(why) => write!(f, "invalid run record: {why}"),
            CodecError::RotationOverflow(r) => {
                write!(f, "run rotation {r} exceeds the format's u32 field")
            }
            CodecError::RunFormat => {
                write!(f, "run-compressed trace: decode it with decode_runs")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Nest ids and per-run request counts travel as `u32` on the wire.
/// Real programs sit many orders of magnitude below that bound, so
/// overflow is a caller contract violation, reported loudly rather than
/// silently truncated.
fn wire_u32(v: usize, what: &str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("{what} {v} exceeds the wire format's u32 field"))
}

/// Trace names travel with a `u16` length prefix.
fn wire_name_len(len: usize) -> u16 {
    u16::try_from(len).unwrap_or_else(|_| {
        panic!("trace name of {len} bytes exceeds the wire format's u16 length")
    })
}

/// Writes the common header of format `version`, with `count` records.
fn write_header(buf: &mut Vec<u8>, version: u16, name: &str, pool_size: u32, count: u64) {
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&pool_size.to_le_bytes());
    let name = name.as_bytes();
    buf.extend_from_slice(&wire_name_len(name.len()).to_le_bytes());
    buf.extend_from_slice(name);
    buf.extend_from_slice(&count.to_le_bytes());
}

/// Serializes one event into `buf`.
fn write_event(buf: &mut Vec<u8>, e: &AppEvent) {
    match e {
        AppEvent::Compute {
            nest,
            first_iter,
            iters,
            secs,
        } => {
            buf.push(0);
            buf.extend_from_slice(&wire_u32(*nest, "nest id").to_le_bytes());
            buf.extend_from_slice(&first_iter.to_le_bytes());
            buf.extend_from_slice(&iters.to_le_bytes());
            buf.extend_from_slice(&secs.to_le_bytes());
        }
        AppEvent::Io(r) => {
            buf.push(1);
            buf.extend_from_slice(&r.disk.0.to_le_bytes());
            buf.extend_from_slice(&r.start_block.to_le_bytes());
            buf.extend_from_slice(&r.size_bytes.to_le_bytes());
            let mut flags = 0u8;
            if r.kind == ReqKind::Write {
                flags |= 1;
            }
            if r.sequential {
                flags |= 2;
            }
            buf.push(flags);
            buf.extend_from_slice(&wire_u32(r.nest, "nest id").to_le_bytes());
            buf.extend_from_slice(&r.iter.to_le_bytes());
        }
        AppEvent::Power { disk, action } => {
            buf.push(2);
            buf.extend_from_slice(&disk.0.to_le_bytes());
            match action {
                PowerAction::SpinDown => buf.extend_from_slice(&[0, 0]),
                PowerAction::SpinUp => buf.extend_from_slice(&[1, 0]),
                PowerAction::SetRpm(l) => buf.extend_from_slice(&[2, l.0]),
            }
        }
    }
}

/// Incremental encoder: header up front, events appended one at a time,
/// the count backpatched at [`StreamEncoder::finish`]. Producing the
/// whole byte stream this way is byte-identical to [`encode`] on the
/// materialized trace, so streamed writers and whole-trace writers can
/// share files.
pub struct StreamEncoder {
    buf: Vec<u8>,
    count_pos: usize,
    count: u64,
}

impl StreamEncoder {
    /// Starts an encoding for a trace named `name` over `pool_size`
    /// disks.
    #[must_use]
    pub fn new(name: &str, pool_size: u32) -> Self {
        let mut buf = Vec::with_capacity(64);
        write_header(&mut buf, VERSION, name, pool_size, 0); // count backpatched by finish
        let count_pos = buf.len() - 8;
        StreamEncoder {
            buf,
            count_pos,
            count: 0,
        }
    }

    /// Appends one event.
    pub fn push(&mut self, e: &AppEvent) {
        write_event(&mut self.buf, e);
        self.count += 1;
    }

    /// Appends a chunk of events.
    pub fn extend(&mut self, events: &[AppEvent]) {
        for e in events {
            self.push(e);
        }
    }

    /// Events encoded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finishes the encoding: backpatches the event count and returns
    /// the complete byte stream.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[self.count_pos..self.count_pos + 8].copy_from_slice(&self.count.to_le_bytes());
        crate::prof::add("encode.events", self.count);
        crate::prof::add("encode.bytes", self.buf.len() as u64);
        self.buf
    }
}

/// Serializes `trace` into the binary format.
#[must_use]
pub fn encode(trace: &Trace) -> Vec<u8> {
    let _sp = crate::prof::span("trace.encode");
    let mut enc = StreamEncoder::new(&trace.name, trace.pool_size);
    enc.buf.reserve(trace.events.len() * 34);
    enc.extend(&trace.events);
    enc.finish()
}

/// Drains `stream` through a [`StreamEncoder`]; the result is
/// byte-identical to `encode(&collect(stream))` without materializing
/// the trace.
#[must_use]
pub fn encode_stream(stream: &mut dyn EventStream) -> Vec<u8> {
    let _sp = crate::prof::span("trace.encode");
    let mut enc = StreamEncoder::new(stream.name(), stream.pool_size());
    while let Some(chunk) = stream.next_chunk() {
        enc.extend(chunk);
    }
    enc.finish()
}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn get_u16_le(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn get_u32_le(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_u64_le(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn get_f64_le(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64_le()?))
    }
}

/// Serializes one run record (tag 3). The format stores `rotation` in a
/// u32 field; a hand-built run exceeding that (the [`Compressor`] caps
/// rotation at [`crate::run::MAX_ROTATION`], so only hand-built records
/// can) is rejected rather than panicking mid-encode.
///
/// [`Compressor`]: crate::run::compress
fn write_run(buf: &mut Vec<u8>, run: &Run) -> Result<(), CodecError> {
    let rotation =
        u32::try_from(run.rotation).map_err(|_| CodecError::RotationOverflow(run.rotation))?;
    buf.push(3);
    buf.extend_from_slice(&run.count.to_le_bytes());
    buf.extend_from_slice(&wire_u32(run.nest, "nest id").to_le_bytes());
    buf.extend_from_slice(&run.first_iter.to_le_bytes());
    buf.extend_from_slice(&run.iters_per_rep.to_le_bytes());
    buf.extend_from_slice(&run.secs_per_rep.to_le_bytes());
    buf.extend_from_slice(&rotation.to_le_bytes());
    buf.extend_from_slice(&wire_u32(run.reqs.len(), "run request count").to_le_bytes());
    for t in &run.reqs {
        buf.extend_from_slice(&t.io.disk.0.to_le_bytes());
        buf.extend_from_slice(&t.io.start_block.to_le_bytes());
        buf.extend_from_slice(&t.block_stride.to_le_bytes());
        buf.extend_from_slice(&t.io.size_bytes.to_le_bytes());
        let mut flags = 0u8;
        if t.io.kind == ReqKind::Write {
            flags |= 1;
        }
        if t.io.sequential {
            flags |= 2;
        }
        buf.push(flags);
        buf.extend_from_slice(&wire_u32(t.io.nest, "nest id").to_le_bytes());
        buf.extend_from_slice(&t.io.iter.to_le_bytes());
    }
    Ok(())
}

/// Deserializes one event record.
fn read_event(r: &mut Reader<'_>) -> Result<AppEvent, CodecError> {
    let tag = r.get_u8()?;
    read_event_body(tag, r)
}

/// Deserializes the body of an event record whose tag byte has already
/// been consumed.
fn read_event_body(tag: u8, r: &mut Reader<'_>) -> Result<AppEvent, CodecError> {
    match tag {
        0 => Ok(AppEvent::Compute {
            nest: r.get_u32_le()? as usize,
            first_iter: r.get_u64_le()?,
            iters: r.get_u64_le()?,
            secs: r.get_f64_le()?,
        }),
        1 => {
            let disk = DiskId(r.get_u32_le()?);
            let start_block = r.get_u64_le()?;
            let size_bytes = r.get_u64_le()?;
            let flags = r.get_u8()?;
            let nest = r.get_u32_le()? as usize;
            let iter = r.get_u64_le()?;
            Ok(AppEvent::Io(IoRequest {
                disk,
                start_block,
                size_bytes,
                kind: if flags & 1 != 0 {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                },
                sequential: flags & 2 != 0,
                nest,
                iter,
            }))
        }
        2 => {
            let disk = DiskId(r.get_u32_le()?);
            let action = r.get_u8()?;
            let level = r.get_u8()?;
            let action = match action {
                0 => PowerAction::SpinDown,
                1 => PowerAction::SpinUp,
                2 => PowerAction::SetRpm(RpmLevel(level)),
                t => return Err(CodecError::BadTag(t)),
            };
            Ok(AppEvent::Power { disk, action })
        }
        t => Err(CodecError::BadTag(t)),
    }
}

/// Deserializes the body of a run record (tag 3 already consumed) and
/// validates it, so a decoded run can never wrap in [`Run::event_at`].
fn read_run_body(r: &mut Reader<'_>) -> Result<Run, CodecError> {
    let count = r.get_u64_le()?;
    let nest = r.get_u32_le()? as usize;
    let first_iter = r.get_u64_le()?;
    let iters_per_rep = r.get_u64_le()?;
    let secs_per_rep = r.get_f64_le()?;
    let rotation = u64::from(r.get_u32_le()?);
    let nreqs = r.get_u32_le()? as usize;
    let mut reqs = Vec::with_capacity(nreqs.min(r.buf.len() / 37 + 1));
    for _ in 0..nreqs {
        let disk = DiskId(r.get_u32_le()?);
        let start_block = r.get_u64_le()?;
        let block_stride = r.get_u64_le()?;
        let size_bytes = r.get_u64_le()?;
        let flags = r.get_u8()?;
        let req_nest = r.get_u32_le()? as usize;
        let iter = r.get_u64_le()?;
        reqs.push(IoTemplate {
            io: IoRequest {
                disk,
                start_block,
                size_bytes,
                kind: if flags & 1 != 0 {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                },
                sequential: flags & 2 != 0,
                nest: req_nest,
                iter,
            },
            block_stride,
        });
    }
    let run = Run {
        count,
        nest,
        first_iter,
        iters_per_rep,
        secs_per_rep,
        rotation,
        reqs,
    };
    run.validate().map_err(CodecError::BadRun)?;
    Ok(run)
}

/// Deserializes one run-compressed record.
fn read_revent(r: &mut Reader<'_>) -> Result<REvent, CodecError> {
    let tag = r.get_u8()?;
    if tag == 3 {
        Ok(REvent::Run(read_run_body(r)?))
    } else {
        Ok(REvent::Event(read_event_body(tag, r)?))
    }
}

/// Parses the common header; returns the reader positioned at the first
/// record plus `(version, pool_size, name, count)`. Versions other than
/// 1 and 2 are a [`CodecError::BadHeader`].
fn read_header(buf: &[u8]) -> Result<(Reader<'_>, u16, u32, String, u64), CodecError> {
    let mut r = Reader { buf };
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadHeader);
    }
    let version = r.get_u16_le()?;
    if version != VERSION && version != VERSION_RUNS {
        return Err(CodecError::BadHeader);
    }
    let pool_size = r.get_u32_le()?;
    let name_len = r.get_u16_le()? as usize;
    let name = String::from_utf8(r.take(name_len)?.to_vec()).map_err(|_| CodecError::BadName)?;
    let count = r.get_u64_le()?;
    Ok((r, version, pool_size, name, count))
}

/// Incremental decoder over a version 1 byte buffer: the header is
/// parsed up front, events are decoded one chunk at a time, so only one
/// chunk of events is resident regardless of trace length. A version 2
/// (run-compressed) buffer is rejected with [`CodecError::RunFormat`].
///
/// Corruption surfaces from [`DecodeStream::try_next_chunk`] as a
/// [`CodecError`]; the infallible [`EventStream`] view panics instead,
/// so callers that must handle corrupt inputs should drain the stream
/// through the fallible method.
pub struct DecodeStream<'a> {
    r: Reader<'a>,
    name: String,
    pool_size: u32,
    remaining: u64,
    buf: Vec<AppEvent>,
    chunk: usize,
}

impl<'a> DecodeStream<'a> {
    /// Parses the header and positions the stream at the first event,
    /// decoding in [`DEFAULT_CHUNK_EVENTS`]-sized chunks.
    pub fn new(buf: &'a [u8]) -> Result<Self, CodecError> {
        Self::chunked(buf, DEFAULT_CHUNK_EVENTS)
    }

    /// Like [`DecodeStream::new`] with an explicit chunk size.
    ///
    /// # Panics
    /// If `chunk` is zero.
    pub fn chunked(buf: &'a [u8], chunk: usize) -> Result<Self, CodecError> {
        assert!(chunk > 0, "chunk size must be positive");
        let (r, version, pool_size, name, remaining) = read_header(buf)?;
        if version != VERSION {
            return Err(CodecError::RunFormat);
        }
        Ok(DecodeStream {
            r,
            name,
            pool_size,
            remaining,
            buf: Vec::new(),
            chunk,
        })
    }

    /// Events not yet decoded (per the header's count).
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Decodes the next chunk, or returns `Ok(None)` when the header's
    /// event count has been fully delivered.
    pub fn try_next_chunk(&mut self) -> Result<Option<&[AppEvent]>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let n = usize::try_from(self.remaining)
            .unwrap_or(usize::MAX)
            .min(self.chunk);
        self.buf.clear();
        self.buf.reserve(n);
        for _ in 0..n {
            self.buf.push(read_event(&mut self.r)?);
        }
        self.remaining -= n as u64;
        crate::prof::add("decode.events", self.buf.len() as u64);
        Ok(Some(&self.buf))
    }
}

impl EventStream for DecodeStream<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn pool_size(&self) -> u32 {
        self.pool_size
    }

    /// # Panics
    /// On a corrupt byte stream — use [`DecodeStream::try_next_chunk`]
    /// when corruption must be handled rather than aborted on.
    fn next_chunk(&mut self) -> Option<&[AppEvent]> {
        DecodeStream::try_next_chunk(self).unwrap_or_else(|e| panic!("corrupt trace stream: {e}"))
    }

    fn try_next_chunk(&mut self) -> Result<Option<&[AppEvent]>, CodecError> {
        DecodeStream::try_next_chunk(self)
    }
}

/// Deserializes a trace previously produced by [`encode`]. A version 2
/// (run-compressed) buffer is a [`CodecError::RunFormat`]; read it with
/// [`decode_runs`].
pub fn decode(buf: &[u8]) -> Result<Trace, CodecError> {
    let _sp = crate::prof::span("trace.decode");
    crate::prof::add("decode.bytes", buf.len() as u64);
    let mut s = DecodeStream::new(buf)?;
    // The smallest event record is 7 bytes (a Power event), so a count
    // exceeding remaining/7 cannot be satisfied — cap the reservation so
    // a corrupted count cannot trigger an allocation failure before the
    // Truncated error surfaces.
    let cap = usize::try_from(s.remaining())
        .unwrap_or(usize::MAX)
        .min(buf.len() / 7 + 1);
    let mut events = Vec::with_capacity(cap);
    while let Some(chunk) = s.try_next_chunk()? {
        events.extend_from_slice(chunk);
    }
    Ok(Trace {
        name: s.name,
        pool_size: s.pool_size,
        events,
    })
}

/// Serializes a run-compressed trace into the version 2 format.
///
/// # Errors
/// [`CodecError::RotationOverflow`] when a (necessarily hand-built) run
/// record's rotation exceeds the format's u32 field.
pub fn encode_runs(trace: &RunTrace) -> Result<Vec<u8>, CodecError> {
    let mut buf = Vec::with_capacity(64);
    write_header(
        &mut buf,
        VERSION_RUNS,
        &trace.name,
        trace.pool_size,
        trace.events.len() as u64,
    );
    for re in &trace.events {
        match re {
            REvent::Event(e) => write_event(&mut buf, e),
            REvent::Run(r) => write_run(&mut buf, r)?,
        }
    }
    crate::prof::add("encode.records", trace.events.len() as u64);
    crate::prof::add("encode.bytes", buf.len() as u64);
    Ok(buf)
}

/// Deserializes a run-compressed trace previously produced by
/// [`encode_runs`] (or a version 1 buffer, which decodes as all-plain
/// records).
pub fn decode_runs(buf: &[u8]) -> Result<RunTrace, CodecError> {
    let _sp = crate::prof::span("trace.decode");
    crate::prof::add("decode.bytes", buf.len() as u64);
    let (mut r, version, pool_size, name, count) = read_header(buf)?;
    // Every record takes at least 7 bytes, so cap the reservation by the
    // buffer: a corrupted count cannot drive an allocation failure
    // before the Truncated error surfaces.
    let cap = usize::try_from(count)
        .unwrap_or(usize::MAX)
        .min(buf.len() / 7 + 1);
    let mut events = Vec::with_capacity(cap);
    for _ in 0..count {
        events.push(if version == VERSION {
            REvent::Event(read_event(&mut r)?)
        } else {
            read_revent(&mut r)?
        });
    }
    crate::prof::add("decode.records", events.len() as u64);
    Ok(RunTrace {
        name,
        pool_size,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            name: "sample-app".into(),
            pool_size: 8,
            events: vec![
                AppEvent::Compute {
                    nest: 0,
                    first_iter: 0,
                    iters: 100,
                    secs: 0.125,
                },
                AppEvent::Io(IoRequest {
                    disk: DiskId(3),
                    start_block: 9_999_999,
                    size_bytes: 65_536,
                    kind: ReqKind::Write,
                    sequential: true,
                    nest: 0,
                    iter: 100,
                }),
                AppEvent::Power {
                    disk: DiskId(7),
                    action: PowerAction::SetRpm(RpmLevel(4)),
                },
                AppEvent::Power {
                    disk: DiskId(1),
                    action: PowerAction::SpinDown,
                },
                AppEvent::Power {
                    disk: DiskId(1),
                    action: PowerAction::SpinUp,
                },
            ],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace {
            name: String::new(),
            pool_size: 1,
            events: vec![],
        };
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&sample()).to_vec();
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(CodecError::BadHeader));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = encode(&sample()).to_vec();
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix must fail");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let t = Trace {
            name: "x".into(),
            pool_size: 1,
            events: vec![],
        };
        let mut bytes = encode(&t).to_vec();
        // Bump the count and append a bogus tag.
        let count_pos = 4 + 2 + 4 + 2 + 1;
        bytes[count_pos] = 1;
        bytes.push(9);
        assert_eq!(decode(&bytes), Err(CodecError::BadTag(9)));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode(&sample()).to_vec();
        bytes[4] = 0xFF;
        assert_eq!(decode(&bytes), Err(CodecError::BadHeader));
    }

    /// A run-compressed trace with raw records on both sides of a run.
    fn sample_runs() -> RunTrace {
        let mut t = sample();
        for k in 0..40u64 {
            t.events.push(AppEvent::Compute {
                nest: 1,
                first_iter: k * 8,
                iters: 8,
                secs: 8.0e-6,
            });
            t.events.push(AppEvent::Io(IoRequest {
                disk: DiskId(2),
                start_block: 1000 + k * 64,
                size_bytes: 32 * 1024,
                kind: ReqKind::Read,
                sequential: false,
                nest: 1,
                iter: (k + 1) * 8,
            }));
        }
        let rt = crate::run::compress(&t);
        assert!(
            rt.events.iter().any(|e| matches!(e, REvent::Run(_))),
            "sample must contain a run record"
        );
        rt
    }

    #[test]
    fn v2_round_trip_preserves_runs() {
        let rt = sample_runs();
        let bytes = encode_runs(&rt).unwrap();
        assert_eq!(decode_runs(&bytes).unwrap(), rt);
    }

    #[test]
    fn v2_buffer_is_a_typed_error_for_the_per_event_decoder() {
        let bytes = encode_runs(&sample_runs()).unwrap();
        assert_eq!(decode(&bytes), Err(CodecError::RunFormat));
        assert!(matches!(
            DecodeStream::new(&bytes),
            Err(CodecError::RunFormat)
        ));
    }

    #[test]
    fn v1_decodes_as_plain_run_records() {
        let t = sample();
        let bytes = encode(&t);
        let rt = decode_runs(&bytes).unwrap();
        assert!(rt.events.iter().all(|e| matches!(e, REvent::Event(_))));
        assert_eq!(rt.lower(), t);
    }

    #[test]
    fn v2_truncation_rejected_at_every_length() {
        let bytes = encode_runs(&sample_runs()).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode_runs(&bytes[..cut]).is_err(),
                "decode_runs of {cut}-byte prefix must fail"
            );
            assert!(
                decode(&bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn degenerate_run_records_rejected() {
        let rt = RunTrace {
            name: "bad".into(),
            pool_size: 1,
            events: vec![REvent::Run(Run {
                count: 0,
                nest: 0,
                first_iter: 0,
                iters_per_rep: 1,
                secs_per_rep: 0.0,
                rotation: 1,
                reqs: vec![],
            })],
        };
        let bytes = encode_runs(&rt).unwrap();
        assert!(matches!(decode_runs(&bytes), Err(CodecError::BadRun(_))));
    }

    /// Regression: a hand-built run whose rotation exceeds the format's
    /// u32 field used to panic mid-encode via `expect("rotation fits
    /// u32")`; it must surface as a `CodecError` instead.
    #[test]
    fn oversized_rotation_is_an_error_not_a_panic() {
        let big = u64::from(u32::MAX) + 1;
        let run = Run {
            count: 1,
            nest: 0,
            first_iter: 0,
            iters_per_rep: big,
            secs_per_rep: 1.0,
            rotation: big,
            reqs: (0..big.min(2))
                .map(|k| IoTemplate {
                    io: IoRequest {
                        disk: DiskId(0),
                        start_block: k,
                        size_bytes: 4096,
                        kind: ReqKind::Read,
                        sequential: false,
                        nest: 0,
                        iter: k,
                    },
                    block_stride: 0,
                })
                .collect(),
        };
        let rt = RunTrace {
            name: "overflow".into(),
            pool_size: 1,
            events: vec![REvent::Run(run)],
        };
        assert_eq!(
            encode_runs(&rt),
            Err(CodecError::RotationOverflow(big)),
            "encode_runs must reject, not panic"
        );
    }
}

/// Writes a trace to `path` in the binary format.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_file(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, encode(trace))
}

/// Reads a trace previously written with [`write_file`].
///
/// # Errors
/// Filesystem errors, or a [`CodecError`] (wrapped as `InvalidData`).
pub fn read_file(path: &std::path::Path) -> std::io::Result<Trace> {
    let bytes = std::fs::read(path)?;
    decode(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod file_tests {
    use super::*;
    use crate::event::{AppEvent, IoRequest, ReqKind};
    use sdpm_layout::DiskId;

    #[test]
    fn file_round_trip() {
        let t = Trace {
            name: "file-rt".into(),
            pool_size: 4,
            events: vec![
                AppEvent::Compute {
                    nest: 0,
                    first_iter: 0,
                    iters: 5,
                    secs: 0.25,
                },
                AppEvent::Io(IoRequest {
                    disk: DiskId(2),
                    start_block: 77,
                    size_bytes: 4096,
                    kind: ReqKind::Read,
                    sequential: false,
                    nest: 0,
                    iter: 4,
                }),
            ],
        };
        let dir = std::env::temp_dir().join("sdpm-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sdpm");
        write_file(&t, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_reports_invalid_data() {
        let dir = std::env::temp_dir().join("sdpm-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.sdpm");
        std::fs::write(&path, b"not a trace").unwrap();
        let err = read_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
