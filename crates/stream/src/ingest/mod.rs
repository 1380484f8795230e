//! Multi-source ingestion: the front-end that feeds a
//! [`crate::StreamEngine`] from files, directories, pipes, and sockets.
//!
//! The CLI's original `follow` mode tailed exactly one CSV
//! synchronously, which left the multi-stream engine unreachable from
//! the binary. This module factors that loop into layers every
//! front-end shares:
//!
//! - [`Source`] — an incremental, poll-driven producer of completed
//!   bags for one or more named streams, with per-stream resume
//!   cursors. Implementations: [`CsvFileSource`] (content-addressed
//!   resume, hold-back), [`ThreadedLineSource`] (stdin or any reader),
//!   [`DirSource`] (one stream per `*.csv` file), [`TcpSource`]
//!   (non-blocking `stream,t,x…` line protocol), [`MemorySource`]
//!   (in-memory bags).
//! - [`BagAssembler`] — the row→bag grouping core (header skipping,
//!   monotonic times, trailing-bag hold-back, rotated-input resume)
//!   lifted out of `run_follow` so every source agrees on semantics.
//! - [`checkpoint`] — the `cursors + engine snapshot` state format
//!   (`BCPDFLW2`; the retired single-source `BCPDFLW1` layout is
//!   refused) with atomic rename+fsync persistence, and the
//!   [`CheckpointPolicy`] that decides when a session commits one.
//!
//! [`crate::Pipeline`] drives these layers: it polls the sources
//! round-robin, routes their bags into the engine by interned id,
//! quarantines streams that fail instead of killing the process, and
//! commits checkpoints.

pub mod checkpoint;
pub mod csv;
pub mod dir;
pub mod mem;
pub mod source;
pub mod tcp;

pub use checkpoint::{CheckpointPolicy, StateError, FOLLOW_STREAM, NO_TIME};
pub use csv::{CsvFileSource, ThreadedLineSource};
pub use dir::DirSource;
pub use mem::MemorySource;
pub use source::{
    parse_row, BagAssembler, Source, SourceError, SourceItem, SourceStatus, StreamCursor,
};
pub use tcp::{TcpLimits, TcpSource};
