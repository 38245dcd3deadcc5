//! Batched inference serving for MegaBlocks-RS.
//!
//! Training amortizes kernel-launch and routing overhead over large
//! batches for free; inference does not — requests arrive one at a
//! time, each carrying its own latency budget. This crate closes that
//! gap with a deadline-aware micro-batching engine over the dMoE
//! inference path ([`megablocks_core::DroplessMoe::infer`]):
//!
//! * **Bounded admission** — [`Engine::submit`] enqueues a
//!   `(tokens, deadline)` request into a bounded queue and sheds with
//!   [`ServeError::Overloaded`] once the queue is at
//!   [`ServeConfig::queue_cap`], mirroring the worker pool's own
//!   admission control (`exec::configure_queue_cap`): under flood the
//!   queue depth stays bounded and excess load fails fast instead of
//!   growing an unbounded backlog nobody will ever meet a deadline
//!   through.
//! * **Work-conserving batch formation** — the moment the batcher is
//!   free and a request is queued, it takes the queued requests in FIFO
//!   order, at most [`ServeConfig::max_batch`] of them.
//!   A lone request on an idle engine is dispatched at once; under load
//!   the requests that queue while one batch computes are the next
//!   batch, so batches grow with the load and no timer holds work back.
//! * **Pre-batch expiry** — requests whose deadline has already passed
//!   are dropped *before* batch formation and resolved with
//!   [`ServeError::Expired`]; they never occupy a slot in a batch the
//!   kernels then compute for nothing.
//! * **Deadline-aware execution** — each batch runs under an
//!   `exec::Ctx` combining a child of the engine's root cancel token
//!   with the latest member deadline, so shutdown and deadline overrun
//!   unwind mid-kernel through the existing band-boundary checks
//!   rather than running the batch to completion.
//!
//! The batched path is *bit-identical* to sequential evaluation:
//! per-token outputs do not depend on which batch a token rode in
//! (one-accumulator-per-element contract), so batching is purely a
//! throughput optimization — verified in this crate's tests and
//! measured by the `serve_steady`/`serve_saturated` workloads of
//! `benchmark/`.
//!
//! Latency (queue wait and end-to-end), batch sizes and queue depth are
//! recorded under `serve.*` telemetry metrics and mirrored onto the
//! timeline trace. Requests are counted where they are decided:
//! `serve.shed` or `serve.submitted` at admission, and exactly one
//! `serve.resolved{completed|expired|cancelled|kernel|shutdown}` when an
//! admitted request resolves — so `submitted` equals the sum of the
//! outcomes once the engine is idle, in [`EngineStats`] and in the
//! export alike.

#![deny(missing_docs)]

mod engine;

pub use engine::{Engine, EngineStats, Response, ResponseHandle, ServeConfig, ServeError};
