//! Pull-based, chunked event streaming.
//!
//! The materialized [`Trace`] scales memory with trace length × however
//! many consumers hold one. This module decouples production from
//! consumption: an [`EventStream`] hands out events in bounded chunks,
//! so a consumer's working set is one chunk regardless of trace length.
//! Three sources implement it:
//!
//! * [`TraceStream`] — chunked windows over a materialized [`Trace`]
//!   (back-compat; zero-copy),
//! * [`crate::rungen::RunGenStream`] — the trace generator itself,
//!   emitting events as it computes them (the trace is never fully
//!   resident),
//! * [`crate::codec::DecodeStream`] — incremental decode of the `SDPM`
//!   binary format (one chunk of events resident at a time).
//!
//! [`EventSource`] abstracts *re-openable* streams: the oracle policies
//! replay a trace twice (Base pass, then schedule replay), so the
//! simulator needs to open a fresh stream per pass.
//!
//! [`demux`] splits one stream into per-disk substreams that share the
//! nominal (compute-only) timeline — the per-disk view that open-loop
//! replay and per-disk analyses consume.

use crate::codec::CodecError;
use crate::event::AppEvent;
use crate::trace::Trace;

/// Default chunk size, in events. Large enough that per-chunk overhead
/// (a virtual call and a bounds check) is noise next to per-event
/// simulation work; small enough that a chunk stays cache-resident.
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;

/// A pull-based, chunked event stream.
///
/// Implementors hand out events in program order, a chunk at a time; the
/// returned slice is valid until the next call (a lending iterator). The
/// stream is exhausted when `next_chunk` returns `None`; calling it
/// again after that stays `None`.
pub trait EventStream {
    /// Application name the events came from.
    fn name(&self) -> &str;

    /// Disk pool size the events were generated against.
    fn pool_size(&self) -> u32;

    /// The next chunk of events, or `None` when exhausted. Chunks are
    /// non-empty.
    fn next_chunk(&mut self) -> Option<&[AppEvent]>;

    /// Fallible variant of [`EventStream::next_chunk`]. Most streams
    /// cannot fail and inherit this default; streams over untrusted
    /// bytes ([`crate::codec::DecodeStream`]) override it to surface
    /// corruption as a [`CodecError`] instead of panicking, which is
    /// what the panic-free simulation entry points consume.
    fn try_next_chunk(&mut self) -> Result<Option<&[AppEvent]>, CodecError> {
        Ok(self.next_chunk())
    }
}

/// A stream factory: something that can be replayed from the start any
/// number of times. The oracle policies run a trace twice (Base pass to
/// recover gaps, then schedule replay), so the simulator requires a
/// source, not a one-shot stream.
pub trait EventSource {
    /// Opens a fresh stream positioned at the first event.
    fn open(&self) -> Box<dyn EventStream + '_>;
}

/// Chunked read-only windows over a materialized [`Trace`]. Zero-copy:
/// chunks are slices of `trace.events`.
pub struct TraceStream<'a> {
    trace: &'a Trace,
    pos: usize,
    chunk: usize,
}

impl<'a> TraceStream<'a> {
    /// Streams `trace` in [`DEFAULT_CHUNK_EVENTS`]-sized chunks.
    #[must_use]
    pub fn new(trace: &'a Trace) -> Self {
        Self::chunked(trace, DEFAULT_CHUNK_EVENTS)
    }

    /// Streams `trace` in `chunk`-sized chunks (the last may be short).
    ///
    /// # Panics
    /// If `chunk` is zero.
    #[must_use]
    pub fn chunked(trace: &'a Trace, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        TraceStream {
            trace,
            pos: 0,
            chunk,
        }
    }
}

impl EventStream for TraceStream<'_> {
    fn name(&self) -> &str {
        &self.trace.name
    }

    fn pool_size(&self) -> u32 {
        self.trace.pool_size
    }

    fn next_chunk(&mut self) -> Option<&[AppEvent]> {
        if self.pos >= self.trace.events.len() {
            return None;
        }
        let end = (self.pos + self.chunk).min(self.trace.events.len());
        let out = &self.trace.events[self.pos..end];
        self.pos = end;
        Some(out)
    }
}

impl Trace {
    /// A chunked stream over this trace's events.
    #[must_use]
    pub fn stream(&self) -> TraceStream<'_> {
        TraceStream::new(self)
    }
}

impl EventSource for Trace {
    fn open(&self) -> Box<dyn EventStream + '_> {
        Box::new(self.stream())
    }
}

/// Drains `stream` into a materialized [`Trace`].
#[must_use]
pub fn collect(stream: &mut dyn EventStream) -> Trace {
    let name = stream.name().to_string();
    let pool_size = stream.pool_size();
    let mut events = Vec::new();
    while let Some(chunk) = stream.next_chunk() {
        events.extend_from_slice(chunk);
    }
    // Cached traces live for a whole session: drop the growth slack.
    events.shrink_to_fit();
    Trace {
        name,
        pool_size,
        events,
    }
}

/// One event of a per-disk substream, stamped with its position on the
/// shared nominal timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Nominal (compute-only, stall-free) arrival time, seconds. All
    /// disks' substreams share this timeline.
    pub at_secs: f64,
    /// Global event index in the source stream. Strictly increasing
    /// within a substream and unique across substreams, so the global
    /// interleaving can be recovered by merging on `seq`.
    pub seq: u64,
    /// The event itself: `Io` or `Power` (never `Compute` — compute
    /// advances the shared timeline and belongs to no disk).
    pub event: AppEvent,
}

/// Per-disk demultiplexed view of one stream.
///
/// Invariants (see DESIGN.md §10):
/// * every `Io`/`Power` event of the source appears in exactly one
///   substream — the one of the disk it names;
/// * within a substream, events keep their source order (`seq` strictly
///   increases) and `at_secs` is non-decreasing;
/// * `at_secs` is the *nominal* timeline (compute seconds only): device
///   stalls are a simulation outcome, not a trace property, so the demux
///   is policy-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct Demuxed {
    /// Application name from the source stream.
    pub name: String,
    /// Pool size from the source stream; `per_disk.len()` equals it.
    pub pool_size: u32,
    /// Total nominal compute seconds in the stream.
    pub compute_secs: f64,
    /// One substream per disk, indexed by disk id.
    pub per_disk: Vec<Vec<TimedEvent>>,
}

/// Splits `stream` into per-disk substreams in a single pass.
///
/// # Panics
/// If an event names a disk outside the stream's pool.
#[must_use]
pub fn demux(stream: &mut dyn EventStream) -> Demuxed {
    let name = stream.name().to_string();
    let pool_size = stream.pool_size();
    let mut per_disk: Vec<Vec<TimedEvent>> = (0..pool_size).map(|_| Vec::new()).collect();
    let mut t = 0.0f64;
    let mut seq = 0u64;
    while let Some(chunk) = stream.next_chunk() {
        for event in chunk {
            match event {
                AppEvent::Compute { secs, .. } => t += secs,
                AppEvent::Io(r) => per_disk[r.disk.0 as usize].push(TimedEvent {
                    at_secs: t,
                    seq,
                    event: *event,
                }),
                AppEvent::Power { disk, .. } => per_disk[disk.0 as usize].push(TimedEvent {
                    at_secs: t,
                    seq,
                    event: *event,
                }),
            }
            seq += 1;
        }
    }
    Demuxed {
        name,
        pool_size,
        compute_secs: t,
        per_disk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{IoRequest, PowerAction, ReqKind};
    use sdpm_layout::DiskId;

    fn io(disk: u32, nest: usize) -> AppEvent {
        AppEvent::Io(IoRequest {
            disk: DiskId(disk),
            start_block: 0,
            size_bytes: 4096,
            kind: ReqKind::Read,
            sequential: false,
            nest,
            iter: 0,
        })
    }

    fn compute(nest: usize, secs: f64) -> AppEvent {
        AppEvent::Compute {
            nest,
            first_iter: 0,
            iters: 1,
            secs,
        }
    }

    fn sample(n_events: usize) -> Trace {
        let mut events = Vec::new();
        for i in 0..n_events {
            if i % 3 == 0 {
                events.push(compute(0, 0.5));
            } else {
                events.push(io((i % 2) as u32, 0));
            }
        }
        Trace {
            name: "s".into(),
            pool_size: 2,
            events,
        }
    }

    #[test]
    fn trace_stream_yields_all_events_in_order() {
        let t = sample(10);
        let mut s = TraceStream::chunked(&t, 3);
        let mut got = Vec::new();
        while let Some(chunk) = s.next_chunk() {
            assert!(!chunk.is_empty());
            assert!(chunk.len() <= 3);
            got.extend_from_slice(chunk);
        }
        assert_eq!(got, t.events);
        assert!(s.next_chunk().is_none(), "stays exhausted");
    }

    #[test]
    fn empty_trace_streams_no_chunks() {
        let t = Trace {
            name: "e".into(),
            pool_size: 1,
            events: vec![],
        };
        assert!(t.stream().next_chunk().is_none());
    }

    #[test]
    fn collect_round_trips_through_a_stream() {
        let t = sample(23);
        assert_eq!(collect(&mut t.stream()), t);
    }

    #[test]
    fn source_reopens_from_the_start() {
        let t = sample(7);
        let src: &dyn EventSource = &t;
        for _ in 0..2 {
            let mut s = src.open();
            let mut n = 0;
            while let Some(chunk) = s.next_chunk() {
                n += chunk.len();
            }
            assert_eq!(n, 7);
        }
    }

    #[test]
    fn demux_partitions_events_and_shares_the_timeline() {
        let t = Trace {
            name: "d".into(),
            pool_size: 3,
            events: vec![
                compute(0, 1.0),
                io(0, 0),
                io(2, 0),
                compute(0, 2.0),
                AppEvent::Power {
                    disk: DiskId(2),
                    action: PowerAction::SpinDown,
                },
                io(0, 0),
            ],
        };
        let d = demux(&mut t.stream());
        assert_eq!(d.pool_size, 3);
        assert!((d.compute_secs - 3.0).abs() < 1e-12);
        assert_eq!(d.per_disk[0].len(), 2);
        assert_eq!(d.per_disk[1].len(), 0);
        assert_eq!(d.per_disk[2].len(), 2);
        // Shared nominal timeline.
        assert!((d.per_disk[0][0].at_secs - 1.0).abs() < 1e-12);
        assert!((d.per_disk[2][0].at_secs - 1.0).abs() < 1e-12);
        assert!((d.per_disk[2][1].at_secs - 3.0).abs() < 1e-12);
        assert!((d.per_disk[0][1].at_secs - 3.0).abs() < 1e-12);
        // seq preserves the global interleaving.
        assert_eq!(d.per_disk[0][0].seq, 1);
        assert_eq!(d.per_disk[2][0].seq, 2);
        assert_eq!(d.per_disk[2][1].seq, 4);
        assert_eq!(d.per_disk[0][1].seq, 5);
    }

    #[test]
    fn demux_invariants_hold_on_a_larger_stream() {
        let t = sample(100);
        let d = demux(&mut TraceStream::chunked(&t, 7));
        let mut total = 0;
        let mut seen = std::collections::HashSet::new();
        for sub in &d.per_disk {
            total += sub.len();
            for w in sub.windows(2) {
                assert!(w[0].seq < w[1].seq, "seq strictly increases per disk");
                assert!(w[0].at_secs <= w[1].at_secs, "timeline is monotone");
            }
            for e in sub {
                assert!(seen.insert(e.seq), "events land in exactly one substream");
                assert!(!matches!(e.event, AppEvent::Compute { .. }));
            }
        }
        let io_and_power = t
            .events
            .iter()
            .filter(|e| !matches!(e, AppEvent::Compute { .. }))
            .count();
        assert_eq!(total, io_and_power);
    }
}
