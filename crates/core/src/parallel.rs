//! Expert model parallelism, executed (paper §5: "our system supports
//! distributed training of MoEs with both data and expert model
//! parallelism").
//!
//! [`try_expert_parallel_forward`] runs a [`DroplessMoe`] forward pass the
//! way an expert-parallel deployment would: experts are partitioned across
//! `num_shards` virtual devices, tokens travel to their expert's shard
//! through an explicit all-to-all exchange, each shard runs the
//! block-sparse expert computation over *its own* block-diagonal
//! topology, and a second all-to-all brings the results home. Everything
//! executes in-process, but the data movement is materialized in
//! [`AllToAllBuffers`], so tests can assert both numerical equivalence
//! with the single-device layer and the communication volumes the
//! `gpusim` timeline model charges for.
//!
//! Two entry points:
//!
//! * [`try_expert_parallel_forward`] — invalid arguments and shard panics
//!   come back as a structured [`EpError`] instead of unwinding.
//! * [`resilient_expert_parallel_forward`] — the recovery path: each
//!   failed shard is retried up to [`EpPolicy::max_shard_retries`] times,
//!   stragglers (a shard slower than `straggler_factor`× the median,
//!   above a floor) are detected and counted, and if a shard keeps
//!   failing the layer degrades gracefully to a single-device
//!   [`DroplessMoe::forward`]. Every detection and recovery emits
//!   `resilience.*` telemetry against the `ep.shard_fail` /
//!   `ep.shard_delay` fault sites. It runs behind a per-shard circuit
//!   breaker ([`EpBreaker`]): a shard that keeps failing (or timing out
//!   against [`EpPolicy::shard_deadline`]) across calls opens its
//!   circuit, and subsequent layer calls short-circuit straight to the
//!   single-device fallback — no doomed shard work, no exchange — until
//!   the breaker half-opens and a probe call proves the shard healthy
//!   again. [`EpBreaker::never`] forgets failures between calls.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use megablocks_exec as exec;
use megablocks_resilience as resilience;
use megablocks_resilience::sites::{EP_SHARD_DELAY, EP_SHARD_FAIL};
use megablocks_sparse::Topology;
use megablocks_telemetry as telemetry;
use megablocks_tensor::Matrix;

use crate::experts::{expert_mlp, Retain};
use crate::{padded_gather, padded_scatter, DroplessMoe, PermuteInfo, Routing};

/// The materialized all-to-all exchange of one expert-parallel layer
/// invocation.
#[derive(Debug, Clone)]
pub struct AllToAllBuffers {
    /// For each shard: the (padded) token rows sent to it.
    pub shard_inputs: Vec<Matrix>,
    /// For each shard: its expert outputs, before the return exchange.
    pub shard_outputs: Vec<Matrix>,
    /// Total f32 elements moved in the dispatch direction.
    pub dispatch_elements: usize,
}

/// Statistics of an expert-parallel forward.
#[derive(Debug, Clone, PartialEq)]
pub struct EpStats {
    /// Shards (virtual devices).
    pub num_shards: usize,
    /// Experts owned by each shard.
    pub experts_per_shard: usize,
    /// Padded token rows processed by each shard.
    pub rows_per_shard: Vec<usize>,
    /// Elements exchanged per all-to-all direction.
    pub alltoall_elements: usize,
}

/// Structured failure of an expert-parallel forward.
#[derive(Debug)]
pub enum EpError {
    /// `num_shards` does not evenly partition the expert count.
    InvalidShardCount {
        /// The requested shard count.
        num_shards: usize,
        /// The layer's expert count.
        num_experts: usize,
    },
    /// The input's feature dimension differs from the layer's.
    InputShape {
        /// Columns of the input actually passed.
        got: usize,
        /// The layer's hidden size.
        expected: usize,
    },
    /// A shard's expert computation panicked (includes injected
    /// `ep.shard_fail` faults).
    ShardFailed {
        /// Index of the first failed shard.
        shard: usize,
        /// The panic message, if it carried one.
        reason: String,
    },
}

impl std::fmt::Display for EpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpError::InvalidShardCount {
                num_shards,
                num_experts,
            } => write!(
                f,
                "num_shards {num_shards} must divide num_experts {num_experts}"
            ),
            EpError::InputShape { got, expected } => write!(
                f,
                "input feature size mismatch: x has {got} columns, layer hidden size is {expected}"
            ),
            EpError::ShardFailed { shard, reason } => {
                write!(f, "expert-parallel shard {shard} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for EpError {}

/// Tuning knobs for [`resilient_expert_parallel_forward`].
#[derive(Debug, Clone)]
pub struct EpPolicy {
    /// Retries granted to each failed shard before falling back to the
    /// single-device forward.
    pub max_shard_retries: u32,
    /// A shard is a straggler when it runs longer than this multiple of
    /// the median shard time.
    pub straggler_factor: f64,
    /// Straggler floor in microseconds — below this, slowness is noise,
    /// never a straggler.
    pub straggler_floor_us: u64,
    /// Wall-clock budget for one shard attempt. Each attempt (first run
    /// and every retry) executes under a fresh
    /// [`megablocks_exec::Deadline`] this far in the future, so a shard
    /// stuck past it unwinds at the next cooperative cancellation point
    /// and counts as a shard failure — feeding retry, fallback, and the
    /// circuit breaker. `None` leaves shards unbounded.
    pub shard_deadline: Option<Duration>,
}

impl Default for EpPolicy {
    fn default() -> Self {
        EpPolicy {
            max_shard_retries: 2,
            straggler_factor: 8.0,
            straggler_floor_us: 10_000,
            shard_deadline: None,
        }
    }
}

/// What [`resilient_expert_parallel_forward`] did to produce its output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpRecovery {
    /// Shard re-executions attempted (counts every retry, not shards).
    pub shard_retries: u32,
    /// Failed shards that a retry healed.
    pub shards_recovered: u32,
    /// Shards flagged as stragglers (they completed, but late).
    pub stragglers_detected: u32,
    /// Whether the layer degraded to the single-device forward.
    pub fell_back: bool,
    /// Layer calls answered by the fallback *without* attempting EP at
    /// all, because a shard's circuit breaker was open.
    pub breaker_short_circuits: u32,
}

/// Tuning knobs for a per-shard circuit breaker ([`EpBreaker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive unhealed failures of a shard that open its circuit.
    pub open_after: u32,
    /// Short-circuited layer calls an open circuit absorbs before
    /// letting one half-open probe attempt through.
    pub probe_after: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            open_after: 3,
            probe_after: 2,
        }
    }
}

/// One shard's circuit state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: calls flow through.
    #[default]
    Closed,
    /// Tripped: EP attempts short-circuit to the single-device fallback.
    Open,
    /// Probing: the next EP attempt runs; success closes the circuit,
    /// failure re-opens it immediately.
    HalfOpen,
}

/// Per-shard circuit breaker for [`resilient_expert_parallel_forward`].
///
/// The classic state machine, one circuit per shard: `Closed` until
/// [`BreakerPolicy::open_after`] consecutive unhealed failures, then
/// `Open` (layer calls short-circuit to the single-device fallback
/// without attempting EP), then after [`BreakerPolicy::probe_after`]
/// absorbed calls `HalfOpen` — the next call runs a full EP probe whose
/// outcome either closes or re-opens the circuit. State transitions emit
/// `ep.breaker` counters (`open` / `half_open` / `close` /
/// `short_circuit`).
#[derive(Debug, Clone, Default)]
pub struct EpBreaker {
    policy: BreakerPolicy,
    shards: Vec<ShardCircuit>,
}

#[derive(Debug, Clone, Copy, Default)]
struct ShardCircuit {
    state: BreakerState,
    consecutive_failures: u32,
    open_calls: u32,
}

impl EpBreaker {
    /// A fully closed breaker with the given policy; per-shard circuits
    /// materialize on first use.
    pub fn new(policy: BreakerPolicy) -> Self {
        EpBreaker {
            policy,
            shards: Vec::new(),
        }
    }

    /// A breaker that never opens: every call retries and falls back on
    /// its own, without remembering failures across calls.
    pub fn never() -> Self {
        EpBreaker::new(BreakerPolicy {
            open_after: u32::MAX,
            probe_after: u32::MAX,
        })
    }

    /// The circuit state of `shard` (`Closed` for shards never seen).
    pub fn state(&self, shard: usize) -> BreakerState {
        self.shards
            .get(shard)
            .map_or(BreakerState::Closed, |s| s.state)
    }

    fn resize(&mut self, num_shards: usize) {
        if self.shards.len() < num_shards {
            self.shards.resize(num_shards, ShardCircuit::default());
        }
    }

    /// Advances open circuits one layer call: each either keeps
    /// absorbing (short-circuiting this call) or, after
    /// [`BreakerPolicy::probe_after`] absorbed calls, goes half-open.
    /// Returns the first shard still blocking, if any.
    fn tick_open(&mut self) -> Option<usize> {
        let mut blocked = None;
        for (i, s) in self.shards.iter_mut().enumerate() {
            if s.state != BreakerState::Open {
                continue;
            }
            if s.open_calls >= self.policy.probe_after {
                s.state = BreakerState::HalfOpen;
                telemetry::counter_with("ep.breaker", "half_open").inc();
            } else {
                s.open_calls += 1;
                blocked.get_or_insert(i);
            }
        }
        blocked
    }

    fn record_success(&mut self, shard: usize) {
        let s = &mut self.shards[shard];
        if s.state != BreakerState::Closed {
            telemetry::counter_with("ep.breaker", "close").inc();
        }
        *s = ShardCircuit::default();
    }

    fn record_failure(&mut self, shard: usize) {
        let s = &mut self.shards[shard];
        s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        let reopen = s.state == BreakerState::HalfOpen;
        if reopen || s.consecutive_failures >= self.policy.open_after {
            s.state = BreakerState::Open;
            s.open_calls = 0;
            telemetry::counter_with("ep.breaker", "open").inc();
            telemetry::trace_instant("ep.breaker.open");
        }
    }
}

/// The execution context for one shard attempt: a fresh deadline when
/// the policy bounds shard latency, empty (inheriting the submitter's
/// ambient context) otherwise.
fn shard_ctx(shard_deadline: Option<Duration>) -> exec::Ctx {
    match shard_deadline {
        Some(budget) => exec::Ctx::none().with_deadline(exec::Deadline::after(budget)),
        None => exec::Ctx::none(),
    }
}

/// Result of a resilient expert-parallel forward. When the layer had to
/// fall back to single-device execution, no meaningful exchange happened
/// and `stats`/`buffers` are `None`.
#[derive(Debug)]
pub struct EpOutcome {
    /// The layer output (EP or single-device fallback).
    pub output: Matrix,
    /// Exchange statistics, absent after fallback.
    pub stats: Option<EpStats>,
    /// Materialized all-to-all buffers, absent after fallback.
    pub buffers: Option<AllToAllBuffers>,
    /// What recovery machinery fired.
    pub recovery: EpRecovery,
}

/// Runs the dMoE forward pass with `num_shards`-way expert parallelism
/// and returns `(output, stats, buffers)`.
///
/// The output is numerically identical to [`DroplessMoe::forward`] up to
/// floating-point summation order (tests pin a 1e-4 agreement).
///
/// # Errors
///
/// Returns [`EpError::InvalidShardCount`] / [`EpError::InputShape`] for
/// argument problems and [`EpError::ShardFailed`] when a shard's expert
/// computation panics; the panic is contained on the worker and reported
/// as a value.
pub fn try_expert_parallel_forward(
    layer: &DroplessMoe,
    x: &Matrix,
    num_shards: usize,
) -> Result<(Matrix, EpStats, AllToAllBuffers), EpError> {
    let plan = EpPlan::new(layer, x, num_shards)?;
    let mut y = Matrix::pooled_zeros(plan.permute.padded_rows(), plan.hidden);
    let attempt = run_all_shards(&plan, &mut y, None);
    if let Some((shard, reason)) = attempt.first_failure() {
        resilience::record_detected(&EP_SHARD_FAIL);
        return Err(EpError::ShardFailed { shard, reason });
    }
    Ok(plan.finish(y))
}

/// Fault-tolerant expert-parallel forward: per-shard retry, straggler
/// detection, graceful degradation to the single-device layer, and a
/// per-shard circuit breaker that persists across layer calls.
///
/// Never fails on runtime faults — after `policy.max_shard_retries`
/// unsuccessful re-runs of any shard the whole layer falls back to
/// [`DroplessMoe::forward`] and reports it in [`EpRecovery::fell_back`].
/// Every shard's outcome (success, or failure after retries) feeds its
/// circuit in `breaker`; when any circuit is open, the call
/// short-circuits straight to the single-device forward — the doomed
/// shard work, its retries, and both all-to-alls are skipped entirely —
/// and [`EpRecovery::breaker_short_circuits`] records it.
///
/// # Errors
///
/// Only argument problems ([`EpError::InvalidShardCount`],
/// [`EpError::InputShape`]) are returned as errors; those are caller
/// bugs, not faults to recover from.
pub fn resilient_expert_parallel_forward(
    layer: &DroplessMoe,
    x: &Matrix,
    num_shards: usize,
    policy: &EpPolicy,
    breaker: &mut EpBreaker,
) -> Result<EpOutcome, EpError> {
    let plan = EpPlan::new(layer, x, num_shards)?;
    breaker.resize(num_shards);
    let mut recovery = EpRecovery::default();

    // Open circuits absorb the call before any shard work happens: the
    // whole layer degrades to the single-device forward until the
    // breaker half-opens and lets a probe attempt through.
    if breaker.tick_open().is_some() {
        telemetry::counter_with("ep.breaker", "short_circuit").inc();
        recovery.breaker_short_circuits += 1;
        recovery.fell_back = true;
        let output = layer.forward(x).output;
        return Ok(EpOutcome {
            output,
            stats: None,
            buffers: None,
            recovery,
        });
    }

    let mut y = Matrix::pooled_zeros(plan.permute.padded_rows(), plan.hidden);
    let attempt = run_all_shards(&plan, &mut y, policy.shard_deadline);
    count_stragglers(&attempt.elapsed_us, policy, &mut recovery);

    for (shard, failure) in attempt.failures.iter().enumerate() {
        if failure.is_none() {
            breaker.record_success(shard);
            continue;
        }
        resilience::record_detected(&EP_SHARD_FAIL);
        telemetry::counter_with("resilience.ep.shard_failures", plan.op_label(shard)).inc();
        let mut healed = false;
        for _ in 0..policy.max_shard_retries {
            recovery.shard_retries += 1;
            telemetry::counter_with("resilience.retries", "ep.shard").inc();
            let rerun = catch_unwind(AssertUnwindSafe(|| {
                // A fresh deadline per attempt: deadline expiry is
                // retryable precisely because the retry gets new budget.
                let _ambient = exec::cancel::enter(&shard_ctx(policy.shard_deadline));
                resilience::maybe_panic(&EP_SHARD_FAIL);
                plan.compute_shard(shard)
            }));
            if let Ok(out) = rerun {
                plan.write_shard(&mut y, shard, &out);
                out.recycle();
                resilience::record_recovered(&EP_SHARD_FAIL);
                recovery.shards_recovered += 1;
                healed = true;
                break;
            }
        }
        if !healed {
            breaker.record_failure(shard);
            // Graceful degradation: the shard is gone for good, so run
            // the whole layer single-device. Correctness over speed.
            telemetry::counter("resilience.ep.fallback").inc();
            recovery.fell_back = true;
            let output = layer.forward(x).output;
            return Ok(EpOutcome {
                output,
                stats: None,
                buffers: None,
                recovery,
            });
        }
        breaker.record_success(shard);
    }

    let (output, stats, buffers) = plan.finish(y);
    Ok(EpOutcome {
        output,
        stats: Some(stats),
        buffers: Some(buffers),
        recovery,
    })
}

/// Everything computed before shards launch: routing, the global
/// permutation, the dispatch exchange, and per-shard geometry.
struct EpPlan<'a> {
    layer: &'a DroplessMoe,
    routing: Routing,
    permute: PermuteInfo,
    offsets: Vec<usize>,
    shard_inputs: Vec<Matrix>,
    rows_per_shard: Vec<usize>,
    num_shards: usize,
    experts_per_shard: usize,
    ffn: usize,
    hidden: usize,
}

impl<'a> EpPlan<'a> {
    fn new(layer: &'a DroplessMoe, x: &Matrix, num_shards: usize) -> Result<Self, EpError> {
        let cfg = layer.config();
        if num_shards < 1 || !cfg.num_experts.is_multiple_of(num_shards) {
            return Err(EpError::InvalidShardCount {
                num_shards,
                num_experts: cfg.num_experts,
            });
        }
        if x.cols() != cfg.hidden_size {
            return Err(EpError::InputShape {
                got: x.cols(),
                expected: cfg.hidden_size,
            });
        }
        let experts_per_shard = cfg.num_experts / num_shards;

        // Routing and the global permutation happen where the tokens live.
        let routing = layer.router().forward(x);
        let permute = PermuteInfo::new(&routing, cfg.num_experts, cfg.block_size);
        let xg = padded_gather(x, &permute);
        let padded = permute.padded_tokens_per_expert();

        // Dispatch all-to-all: each shard receives the contiguous row
        // range of its experts (the expert-major layout makes this a pure
        // slice).
        let mut offsets = vec![0usize; cfg.num_experts + 1];
        for e in 0..cfg.num_experts {
            offsets[e + 1] = offsets[e] + padded[e];
        }
        let mut shard_inputs = Vec::with_capacity(num_shards);
        let mut rows_per_shard = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let lo = offsets[s * experts_per_shard];
            let hi = offsets[(s + 1) * experts_per_shard];
            shard_inputs.push(xg.rows_range(lo, hi));
            rows_per_shard.push(hi - lo);
        }
        Ok(EpPlan {
            layer,
            routing,
            permute,
            offsets,
            shard_inputs,
            rows_per_shard,
            num_shards,
            experts_per_shard,
            ffn: cfg.ffn_hidden_size,
            hidden: cfg.hidden_size,
        })
    }

    /// One shard's expert computation over its local block-diagonal
    /// topology, using its slice of the concatenated weights.
    fn compute_shard(&self, s: usize) -> Matrix {
        let cfg = self.layer.config();
        let eps = self.experts_per_shard;
        let local_tokens = &self.permute.kept_per_expert()[s * eps..(s + 1) * eps];
        let topo = Topology::for_moe(local_tokens, self.ffn, cfg.block_size)
            .expect("ffn is block-aligned");
        let col0 = s * eps * self.ffn;
        let cols = eps * self.ffn;
        let w1_local = Matrix::from_fn(self.hidden, cols, |i, j| {
            self.layer.w1().value()[(i, col0 + j)]
        });
        let w2_local = self.layer.w2().value().rows_range(col0, col0 + cols);
        let input = &self.shard_inputs[s];
        expert_mlp(input, &w1_local, &w2_local, &topo, Retain::Nothing)
            .unwrap_or_else(|e| panic!("{e}"))
            .0
    }

    /// Writes one shard's output into its row range of the combined `y`
    /// (the combine all-to-all for a retried shard).
    fn write_shard(&self, y: &mut Matrix, s: usize, out: &Matrix) {
        let lo = self.offsets[s * self.experts_per_shard] * self.hidden;
        let hi = self.offsets[(s + 1) * self.experts_per_shard] * self.hidden;
        y.as_mut_slice()[lo..hi].copy_from_slice(out.as_slice());
    }

    fn band_lens(&self) -> Vec<usize> {
        self.rows_per_shard
            .iter()
            .map(|&r| r * self.hidden)
            .collect()
    }

    fn op_label(&self, shard: usize) -> &'static str {
        // Telemetry labels are static; bucket shard indices coarsely.
        match shard {
            0 => "shard0",
            1 => "shard1",
            2 => "shard2",
            3 => "shard3",
            _ => "shard4plus",
        }
    }

    /// Materializes the combine all-to-all and the final un-permuted,
    /// confidence-scaled output.
    fn finish(self, y: Matrix) -> (Matrix, EpStats, AllToAllBuffers) {
        let dispatch_elements: usize = self.rows_per_shard.iter().map(|r| r * self.hidden).sum();
        let shard_outputs: Vec<Matrix> = (0..self.num_shards)
            .map(|s| {
                let lo = self.offsets[s * self.experts_per_shard];
                let hi = self.offsets[(s + 1) * self.experts_per_shard];
                y.rows_range(lo, hi)
            })
            .collect();
        let output = padded_scatter(&y, &self.permute, &self.routing.weights);
        let stats = EpStats {
            num_shards: self.num_shards,
            experts_per_shard: self.experts_per_shard,
            rows_per_shard: self.rows_per_shard,
            alltoall_elements: dispatch_elements,
        };
        let buffers = AllToAllBuffers {
            shard_inputs: self.shard_inputs,
            shard_outputs,
            dispatch_elements,
        };
        (output, stats, buffers)
    }
}

/// Per-shard results of one parallel attempt: containment happens at the
/// band level, so one shard's panic never tears down its siblings.
struct Attempt {
    failures: Vec<Option<String>>,
    elapsed_us: Vec<u64>,
}

impl Attempt {
    fn first_failure(&self) -> Option<(usize, String)> {
        self.failures
            .iter()
            .enumerate()
            .find_map(|(s, f)| f.as_ref().map(|r| (s, r.clone())))
    }
}

/// Launches every shard as a band of one plan. Shards that panic
/// (genuine bugs or injected `ep.shard_fail` faults) are contained and
/// reported per shard; the `ep.shard_delay` site and a wall-clock timer
/// sit inside each band for straggler detection, and `shard_deadline`
/// (when set) bounds each shard attempt with a fresh exec deadline.
fn run_all_shards(plan: &EpPlan<'_>, y: &mut Matrix, shard_deadline: Option<Duration>) -> Attempt {
    let failures: Vec<Mutex<Option<String>>> =
        (0..plan.num_shards).map(|_| Mutex::new(None)).collect();
    let elapsed_us: Vec<AtomicU64> = (0..plan.num_shards).map(|_| AtomicU64::new(0)).collect();
    let shard_body = |band: &mut [f32], s: usize| {
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            // The shard's deadline clock starts when the shard does, and
            // the ambient context covers every kernel the shard launches
            // — an injected `ep.shard_delay` that outlives the budget
            // turns the next kernel entry into a deadline panic, which
            // is contained here as an ordinary shard failure.
            let _ambient = exec::cancel::enter(&shard_ctx(shard_deadline));
            resilience::maybe_panic(&EP_SHARD_FAIL);
            resilience::inject_delay(&EP_SHARD_DELAY);
            plan.compute_shard(s)
        }));
        elapsed_us[s].store(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        match result {
            Ok(out) => {
                band.copy_from_slice(out.as_slice());
                out.recycle();
            }
            Err(payload) => {
                *failures[s].lock().expect("no panics hold this lock") =
                    Some(panic_reason(payload.as_ref()));
            }
        }
    };
    exec::LaunchPlan::over_bands(
        "moe.expert_parallel",
        y.as_mut_slice(),
        plan.band_lens(),
        &shard_body,
    )
    .launch();
    Attempt {
        failures: failures
            .into_iter()
            .map(|m| m.into_inner().expect("no panics hold this lock"))
            .collect(),
        elapsed_us: elapsed_us.into_iter().map(|a| a.into_inner()).collect(),
    }
}

/// Flags shards that ran longer than `straggler_factor`× the median
/// shard time (with a floor). Stragglers completed, so each detection is
/// immediately a recovery — the counters record how often the EP layer
/// ran degraded-but-correct.
fn count_stragglers(elapsed_us: &[u64], policy: &EpPolicy, recovery: &mut EpRecovery) {
    if elapsed_us.len() < 2 {
        return;
    }
    let mut sorted = elapsed_us.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    let threshold =
        ((median as f64 * policy.straggler_factor) as u64).max(policy.straggler_floor_us);
    for &us in elapsed_us {
        if us > threshold {
            resilience::record_detected(&EP_SHARD_DELAY);
            resilience::record_recovered(&EP_SHARD_DELAY);
            recovery.stragglers_detected += 1;
            telemetry::histogram("resilience.ep.straggler_us").record(us);
        }
    }
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MoeConfig;
    use megablocks_tensor::init::{normal, seeded_rng};

    fn layer(seed: u64) -> DroplessMoe {
        let mut rng = seeded_rng(seed);
        DroplessMoe::new(MoeConfig::new(6, 8, 4).with_block_size(4), &mut rng)
    }

    #[test]
    fn matches_single_device_for_every_shard_count() {
        let l = layer(1);
        let mut rng = seeded_rng(2);
        let x = normal(18, 6, 1.0, &mut rng);
        let reference = l.forward(&x).output;
        for shards in [1usize, 2, 4] {
            let (out, stats, _) = try_expert_parallel_forward(&l, &x, shards).unwrap();
            assert!(
                out.approx_eq(&reference, 1e-4),
                "{shards} shards diverged by {}",
                out.max_abs_diff(&reference)
            );
            assert_eq!(stats.num_shards, shards);
            assert_eq!(stats.experts_per_shard, 4 / shards);
        }
    }

    #[test]
    fn alltoall_volume_accounts_all_padded_rows() {
        let l = layer(3);
        let mut rng = seeded_rng(4);
        let x = normal(25, 6, 1.0, &mut rng);
        let (_, stats, buffers) = try_expert_parallel_forward(&l, &x, 2).unwrap();
        let total_rows: usize = stats.rows_per_shard.iter().sum();
        assert_eq!(stats.alltoall_elements, total_rows * 6);
        assert_eq!(buffers.dispatch_elements, stats.alltoall_elements);
        // Shard buffers have the advertised shapes.
        for (inp, &rows) in buffers.shard_inputs.iter().zip(&stats.rows_per_shard) {
            assert_eq!(inp.shape(), (rows, 6));
        }
        for (out, &rows) in buffers.shard_outputs.iter().zip(&stats.rows_per_shard) {
            assert_eq!(out.shape(), (rows, 6));
        }
    }

    #[test]
    fn imbalanced_shards_carry_their_actual_load() {
        // With heavy imbalance, shard row counts differ — no padding to a
        // worst-case shard (the dropless property survives distribution).
        let l = layer(7);
        let mut rng = seeded_rng(8);
        let x = normal(40, 6, 1.0, &mut rng);
        let (_, stats, _) = try_expert_parallel_forward(&l, &x, 2).unwrap();
        let tokens = l.forward(&x).stats.tokens_per_expert;
        let padded: Vec<usize> = tokens.iter().map(|&t| t.div_ceil(4) * 4).collect();
        assert_eq!(stats.rows_per_shard[0], padded[0] + padded[1]);
        assert_eq!(stats.rows_per_shard[1], padded[2] + padded[3]);
    }

    #[test]
    fn try_reports_structured_errors() {
        let l = layer(9);
        let mut rng = seeded_rng(10);
        let x = normal(8, 6, 1.0, &mut rng);
        let err = try_expert_parallel_forward(&l, &x, 3).unwrap_err();
        assert!(matches!(err, EpError::InvalidShardCount { .. }), "{err}");
        assert!(err.to_string().contains("must divide"));
        let bad = normal(8, 5, 1.0, &mut rng);
        let err = try_expert_parallel_forward(&l, &bad, 2).unwrap_err();
        assert!(matches!(err, EpError::InputShape { .. }), "{err}");
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_then_probes_and_closes() {
        let mut b = EpBreaker::new(BreakerPolicy {
            open_after: 2,
            probe_after: 2,
        });
        b.resize(2);
        // One failure is not enough; the second opens the circuit.
        b.record_failure(0);
        assert_eq!(b.state(0), BreakerState::Closed);
        b.record_failure(0);
        assert_eq!(b.state(0), BreakerState::Open);
        // The open circuit absorbs `probe_after` calls, then half-opens.
        assert_eq!(b.tick_open(), Some(0));
        assert_eq!(b.tick_open(), Some(0));
        assert_eq!(b.tick_open(), None, "probe attempt must be let through");
        assert_eq!(b.state(0), BreakerState::HalfOpen);
        // A successful probe closes the circuit and resets its counters.
        b.record_success(0);
        assert_eq!(b.state(0), BreakerState::Closed);
        b.record_failure(0);
        assert_eq!(b.state(0), BreakerState::Closed, "failure streak was reset");
    }

    #[test]
    fn half_open_failure_reopens_immediately() {
        let mut b = EpBreaker::new(BreakerPolicy {
            open_after: 3,
            probe_after: 1,
        });
        b.resize(1);
        for _ in 0..3 {
            b.record_failure(0);
        }
        assert_eq!(b.state(0), BreakerState::Open);
        assert_eq!(b.tick_open(), Some(0));
        assert_eq!(b.tick_open(), None);
        assert_eq!(b.state(0), BreakerState::HalfOpen);
        // The probe failing re-opens at once — no fresh failure streak
        // is required to keep a known-bad shard fenced off.
        b.record_failure(0);
        assert_eq!(b.state(0), BreakerState::Open);
        assert_eq!(b.tick_open(), Some(0), "reopened circuit absorbs again");
    }

    #[test]
    fn circuits_are_isolated_per_shard_and_never_breaker_stays_closed() {
        let mut b = EpBreaker::new(BreakerPolicy {
            open_after: 1,
            probe_after: 1,
        });
        b.resize(3);
        b.record_failure(1);
        assert_eq!(b.state(0), BreakerState::Closed);
        assert_eq!(b.state(1), BreakerState::Open);
        assert_eq!(b.state(2), BreakerState::Closed);
        // Shards the breaker never saw read as closed.
        assert_eq!(b.state(99), BreakerState::Closed);

        let mut never = EpBreaker::never();
        never.resize(2);
        for _ in 0..1000 {
            never.record_failure(0);
        }
        assert_eq!(never.state(0), BreakerState::Closed);
        assert_eq!(never.tick_open(), None);
    }

    #[test]
    fn expired_shard_deadline_degrades_opens_the_circuit_and_short_circuits() {
        let l = layer(13);
        let mut rng = seeded_rng(14);
        let x = normal(20, 6, 1.0, &mut rng);
        let reference = l.forward(&x).output;
        // A zero deadline expires before any shard kernel launches, so
        // every attempt (and its fresh-deadline retry) dies at a
        // cancellation point; the layer must degrade to the
        // single-device fallback, never panic.
        let policy = EpPolicy {
            shard_deadline: Some(Duration::ZERO),
            max_shard_retries: 1,
            ..EpPolicy::default()
        };
        let mut breaker = EpBreaker::new(BreakerPolicy {
            open_after: 1,
            probe_after: 1,
        });
        let outcome = resilient_expert_parallel_forward(&l, &x, 2, &policy, &mut breaker)
            .expect("valid args");
        assert!(outcome.recovery.fell_back);
        assert_eq!(outcome.recovery.breaker_short_circuits, 0);
        assert!(outcome.output.approx_eq(&reference, 1e-4));
        // The unhealed shard opened its circuit; the next call must
        // short-circuit without attempting EP at all.
        assert_eq!(breaker.state(0), BreakerState::Open);
        let outcome = resilient_expert_parallel_forward(&l, &x, 2, &policy, &mut breaker)
            .expect("valid args");
        assert!(outcome.recovery.fell_back);
        assert_eq!(outcome.recovery.breaker_short_circuits, 1);
        assert_eq!(outcome.recovery.shard_retries, 0, "EP was never attempted");
        assert!(outcome.output.approx_eq(&reference, 1e-4));
    }

    #[test]
    fn half_open_probe_with_healthy_deadline_closes_the_circuit() {
        let l = layer(15);
        let mut rng = seeded_rng(16);
        let x = normal(16, 6, 1.0, &mut rng);
        let reference = l.forward(&x).output;
        let healthy = EpPolicy {
            shard_deadline: Some(Duration::from_secs(3600)),
            ..EpPolicy::default()
        };
        let mut breaker = EpBreaker::new(BreakerPolicy {
            open_after: 1,
            probe_after: 1,
        });
        breaker.resize(2);
        breaker.record_failure(0);
        assert_eq!(breaker.state(0), BreakerState::Open);
        // Call 1: the open circuit absorbs it (short-circuit fallback).
        let outcome = resilient_expert_parallel_forward(&l, &x, 2, &healthy, &mut breaker)
            .expect("valid args");
        assert_eq!(outcome.recovery.breaker_short_circuits, 1);
        // Call 2: the circuit half-opens and the probe succeeds — full
        // EP results come back and the circuit closes.
        let outcome = resilient_expert_parallel_forward(&l, &x, 2, &healthy, &mut breaker)
            .expect("valid args");
        assert!(!outcome.recovery.fell_back);
        assert!(outcome.stats.is_some());
        assert!(outcome.output.approx_eq(&reference, 1e-4));
        assert_eq!(breaker.state(0), BreakerState::Closed);
    }

    #[test]
    fn resilient_matches_plain_forward_without_faults() {
        let l = layer(11);
        let mut rng = seeded_rng(12);
        let x = normal(20, 6, 1.0, &mut rng);
        let reference = l.forward(&x).output;
        let outcome = resilient_expert_parallel_forward(
            &l,
            &x,
            2,
            &EpPolicy::default(),
            &mut EpBreaker::never(),
        )
        .expect("valid args");
        assert!(outcome.output.approx_eq(&reference, 1e-4));
        assert!(!outcome.recovery.fell_back);
        assert_eq!(outcome.recovery.shard_retries, 0);
        assert_eq!(outcome.recovery.shards_recovered, 0);
        let stats = outcome.stats.expect("no fallback, stats present");
        assert_eq!(stats.num_shards, 2);
        assert!(outcome.buffers.is_some());
    }
}
