//! # qr-server
//!
//! A networked refinement service over the `qr-core` session API: clients
//! send line-delimited JSON requests over TCP and get refinements (or
//! structured errors) back, one JSON object per line.
//!
//! The server is std-only — `TcpListener` + threads + a hand-rolled JSON
//! layer — because the workspace builds with no registry access. What it
//! adds over a bare `RefinementSession` is the *service* layer the paper's
//! interactive-refinement story needs:
//!
//! * a [session pool](pool::SessionPool) so concurrent requests against the
//!   same (database, query) share one set of provenance annotations,
//! * [admission control](server::Shared) that maps per-request latency
//!   budgets (`deadline_ms`) onto the solver's `SolveControl` and sheds
//!   work *before* queueing it when the estimated wait already blows the
//!   budget,
//! * client-disconnect detection that trips the solve's `CancelToken`, so
//!   abandoned requests stop consuming the queue,
//! * graceful degradation: a deadline-exceeded solve returns the best
//!   incumbent plus full statistics as a *successful* response,
//! * a closed [error taxonomy](protocol::ErrorKind) — `bad_request`,
//!   `shed`, `interrupted`, `internal` — so nothing crosses the socket as a
//!   raw panic,
//! * graceful drain on shutdown, and a `metrics` op dumping server
//!   counters plus per-solve [`qr_core::RefinementStats`] folded over every
//!   solve (summed, or the maximum for model sizes),
//! * **resumable solves**: an interrupted solve parks its checkpoint in a
//!   bounded, TTL'd [resume table](resume::ResumeTable) and hands the
//!   client a one-shot `resume_token`; a follow-up `{"op":"resume"}` — on
//!   any connection — continues the search where it stopped, under a fresh
//!   `deadline_ms`. The [retrying client](client::RetryingClient) closes
//!   the loop: jittered exponential backoff on `shed` (honoring
//!   `retry_after_ms`), token chaining on `interrupted`.
//!
//! See the repository README ("Running the server" and "Resumable solves")
//! for the wire protocol and example sessions.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod resume;
pub mod server;

pub use client::{Backoff, RetryPolicy, RetryingClient, SolveReport};
pub use json::Json;
pub use metrics::Metrics;
pub use pool::SessionPool;
pub use protocol::{ErrorKind, Request, ResumeRequest, SolveRequest, WireError, MAX_LINE_BYTES};
pub use resume::{ResumeCounters, ResumeTable};
pub use server::{start, ServerConfig, ServerHandle};
