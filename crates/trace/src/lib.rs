//! I/O traces, trace generation, and power-management directives.
//!
//! The paper's toolchain (Fig. 1) runs the compiler-instrumented program
//! once to produce a disk I/O request trace — each request a 4-tuple
//! `(arrival time ms, start block, request size, read|write)` — which then
//! drives the disk power simulator. This crate owns that interface layer:
//!
//! * [`event`] — the application event stream: `Compute` segments, blocking
//!   [`IoRequest`]s, and the explicit power-management calls
//!   (`spin_down` / `spin_up` / `set_RPM`) the compiler inserts,
//! * [`trace`] — whole traces with provenance, statistics, and the paper's
//!   nominal 4-tuple view,
//! * [`gen`] — trace generation: filters an IR program's element
//!   accesses through a one-chunk-per-array buffer cache and emits
//!   block-level striped requests; [`rungen`] computes them in closed
//!   form, miss to miss, and a per-iteration walk is kept as its oracle,
//! * [`codec`] — a compact binary encoding for storing/replaying traces,
//!   with incremental [`StreamEncoder`]/[`DecodeStream`] endpoints,
//! * [`run`] — the run-compressed stored-trace form ([`RunTrace`],
//!   [`compress`]), which the codec stores as its version 2 format,
//! * [`stream`] — pull-based chunked [`EventStream`]s over all of the
//!   above, plus the per-disk demultiplexer ([`demux`]).
//!
//! Traces are *closed-loop*: each request carries the compute time that
//! precedes it rather than a fixed wall-clock arrival, so the simulator
//! can propagate device stalls into application execution time — exactly
//! the effect behind the paper's Fig. 4 performance comparison.

// This crate parses untrusted bytes; a stray `unwrap()` is a
// denial-of-service. Failures must flow through `CodecError` (or, for
// caller contract violations, an explicit `panic!` with context).
// Narrowing and sign-discarding casts silently corrupt decoded values,
// so each one must be spelled as an audited conversion or carry an
// allow with its range argument.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod event;
pub mod gen;
pub mod mix;
sdpm_obs::prof_hooks!();
pub mod run;
pub mod rungen;
pub mod stream;
pub mod trace;

pub use codec::{DecodeStream, StreamEncoder};
pub use event::{AppEvent, IoRequest, PowerAction, ReqKind};
pub use gen::{generate, generate_walk, GenSource, TraceGenConfig};
pub use mix::{merge_tenants, tenant_timeline, TenantEvent, TenantStream};
pub use run::{compress, IoTemplate, REvent, Run, RunTrace, MAX_ROTATION};
pub use rungen::RunGenStream;
pub use stream::{
    collect, demux, Demuxed, EventSource, EventStream, TimedEvent, TraceStream,
    DEFAULT_CHUNK_EVENTS,
};
pub use trace::{Trace, TraceStats};
