//! The five workloads: what each sets up, what one operation is, how it is
//! checked, and which layers its replay covers.
//!
//! Why these five (see README.md for the long form):
//!
//! * `train_dmoe` — the paper's headline path: a full optimizer step of a
//!   dMoE Transformer, where router, permutation, topology and the six
//!   block-sparse products do most of the work.
//! * `train_dense` — the Megatron baseline at equal active FLOPs, and the
//!   bypass workload: `sparse` and the MoE half of `core` do nothing here.
//! * `serve_steady` — open loop at a fixed rate with small requests: batches
//!   of about two requests, so queueing, launch overhead, topology build and
//!   block padding dominate while the kernels are tiny.
//! * `serve_saturated` — closed loop with 16 requests in flight: full
//!   batches, so SDD/DSD dominate and the batcher's wait is irrelevant.
//! * `lm_generate` — greedy generation: forward-only use of the LM, where
//!   every new token re-runs the training forward over the whole window.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::api::{
    self, DroplessMoe, Engine, Fallible, LmShape, Matrix, MoeShape, Refusal, ResponseHandle,
    TokenDataset, TrainLog, Trainer, TransformerLm,
};
use crate::metrics::Values;
use crate::replay::{self, Replayer};
use crate::stats::{median, percentile};
use crate::sys::cpu_seconds;
use crate::trace::{self, Recorder};

/// Warm-up optimizer steps taken during set-up.
const WARMUP_STEPS: usize = 3;
/// Arrival rate of `serve_steady`, requests per second.
const STEADY_RATE: f64 = 200.0;
/// Deadline of a `serve_steady` request, counted from its due time. The
/// engine's deadline-aware batching sees it on every request, but it is far
/// beyond any latency the system produces: on a shared box a vCPU can
/// vanish for several hundred milliseconds, and the workload must not fail
/// operations because of that.
const STEADY_DEADLINE: Duration = Duration::from_secs(2);
/// Pause before a refused (`Overloaded`) submit is tried again.
const RESUBMIT_PAUSE: Duration = Duration::from_millis(1);
/// Requests `serve_saturated` keeps in flight.
const SATURATED_IN_FLIGHT: usize = 16;
/// Every how many requests a served output is kept and checked.
const CHECK_EVERY: u64 = 16;
/// Most served outputs kept for checking per run, so that `peak_rss_mb` and
/// the checking time do not grow with the machine's speed or the run's
/// length.
const MAX_KEPT_OUTPUTS: usize = 256;
/// Generate calls whose output is checked against an argmax loop.
const CHECKED_GENERATE_CALLS: u64 = 4;
/// Tokens one `generate` call adds.
const NEW_TOKENS: usize = 16;
/// Prompt lengths `lm_generate` cycles through.
const PROMPT_CYCLE: [usize; 4] = [16, 32, 48, 64];
/// Failure messages kept per phase.
const KEPT_FAILURES: usize = 8;

/// Problem sizes: the benchmark's (`full`) or the few-second `--check`
/// ones (`toy`).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Whether this is the toy scale.
    pub toy: bool,
    /// The dMoE language model; the dense baseline drops `moe`.
    pub lm: LmShape,
    /// Sequences per optimizer step (no gradient accumulation).
    pub train_batch: usize,
    /// Optimizer step (warm-up included) after which validation loss is
    /// taken, off the clock.
    pub eval_at_step: usize,
    /// Validation batches evaluated.
    pub eval_batches: usize,
    /// Tokens per `serve_saturated` request.
    pub saturated_tokens: usize,
    /// Most tokens in a `serve_steady` request.
    pub steady_max_tokens: usize,
}

impl Scale {
    /// Model shape `M` of the issue: hidden 128, 2 heads of 64, 2 layers,
    /// FFN 512, vocab 512, max sequence 128; 8 experts, top-1, block 16.
    pub fn full() -> Self {
        let moe = MoeShape {
            hidden: 128,
            ffn: 512,
            experts: 8,
            block: 16,
        };
        Scale {
            toy: false,
            lm: LmShape {
                vocab: 512,
                hidden: 128,
                heads: 2,
                layers: 2,
                ffn: 512,
                seq: 128,
                moe: Some(moe),
            },
            train_batch: 4,
            eval_at_step: 24,
            eval_batches: 8,
            saturated_tokens: 32,
            steady_max_tokens: 16,
        }
    }

    /// The same structure at sizes that finish in a fraction of a second.
    pub fn toy() -> Self {
        let moe = MoeShape {
            hidden: 32,
            ffn: 64,
            experts: 4,
            block: 8,
        };
        Scale {
            toy: true,
            lm: LmShape {
                vocab: 256,
                hidden: 32,
                heads: 2,
                layers: 2,
                ffn: 64,
                seq: 80,
                moe: Some(moe),
            },
            train_batch: 2,
            eval_at_step: 30,
            eval_batches: 2,
            saturated_tokens: 16,
            steady_max_tokens: 8,
        }
    }

    fn moe(&self) -> MoeShape {
        self.lm.moe.expect("the scale's LM is the dMoE variant")
    }
}

/// One successful operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Completion time on the phase's clock, seconds from its start.
    pub done_s: f64,
    /// Duration, ms: optimizer step, request (from its due time in the open
    /// loop, from submit in the closed one) or `generate` call.
    pub ms: f64,
    /// Tokens trained, served or newly generated.
    pub tokens: u64,
}

/// The record of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Successful operations, in completion order.
    pub ops: Vec<Op>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Length of the timed region, seconds.
    pub wall_s: f64,
    /// User + system CPU seconds spent in the timed region.
    pub cpu_s: f64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }

    /// Appends a later phase of the same workload to this one.
    pub fn absorb(&mut self, later: Phase) {
        let offset = self.wall_s;
        self.ops.extend(later.ops.into_iter().map(|op| Op {
            done_s: op.done_s + offset,
            ..op
        }));
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.wall_s += later.wall_s;
        self.cpu_s += later.cpu_s;
        self.failures.extend(later.failures);
        self.failures.truncate(KEPT_FAILURES);
    }

    /// Tokens of all successful operations.
    pub fn tokens(&self) -> u64 {
        self.ops.iter().map(|op| op.tokens).sum()
    }

    /// Durations of all successful operations, ms.
    pub fn op_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|op| op.ms).collect()
    }
}

/// A workload after set-up.
pub trait Workload {
    /// Runs operations for about `seconds` (and at least one), recording
    /// spans when `rec` is given.
    fn run(&mut self, seconds: f64, rec: Option<&Recorder>) -> Phase;

    /// Off-the-clock output checks for everything run so far. Failed
    /// operations are counted into `phase`; a returned message is a
    /// run-level failure.
    fn verify(&mut self, phase: &mut Phase) -> Vec<String>;

    /// Per-layer values the workload itself observed (counts, waits).
    fn observed(&self, out: &mut Values);

    /// Whether the workload's schedule, not the system's speed, sets the
    /// token rate.
    fn rate_is_imposed(&self) -> bool {
        false
    }

    /// Replays one operation's shapes layer by layer and returns the
    /// milliseconds of one operation those layers account for.
    fn replay(&mut self, t: &Replayer, out: &mut Values) -> Fallible<f64>;
}

/// Sets a workload up from `seed`: corpus, model, warm-up, engine start.
///
/// # Panics
///
/// Panics on an unknown workload name (checked by the caller).
pub fn setup(name: &str, seed: u64, scale: Scale) -> Box<dyn Workload> {
    match name {
        "train_dmoe" => Box::new(Train::setup(seed, scale, scale.lm)),
        "train_dense" => Box::new(Train::setup(
            seed,
            scale,
            LmShape {
                moe: None,
                ..scale.lm
            },
        )),
        "serve_steady" => Box::new(Serve::setup(seed, scale, Loop::Open)),
        "serve_saturated" => Box::new(Serve::setup(seed, scale, Loop::Closed)),
        "lm_generate" => Box::new(Generate::setup(seed, scale)),
        other => panic!("unknown workload {other}"),
    }
}

// --- train_dmoe / train_dense ---------------------------------------------

struct Train {
    scale: Scale,
    shape: LmShape,
    seed: u64,
    train: TokenDataset,
    valid: TokenDataset,
    trainer: Trainer,
    losses: Vec<f32>,
    dropped: u64,
    eval_loss: Option<f32>,
}

impl Train {
    fn setup(seed: u64, scale: Scale, shape: LmShape) -> Self {
        let (train, valid) = api::corpus(scale.toy, seed);
        let lm = api::new_lm(shape, &mut api::rng(seed));
        let trainer = api::new_trainer(lm, scale.train_batch, shape.seq, seed);
        let mut this = Train {
            scale,
            shape,
            seed,
            train,
            valid,
            trainer,
            losses: Vec::new(),
            dropped: 0,
            eval_loss: None,
        };
        for _ in 0..WARMUP_STEPS {
            let log = api::train_step(&mut this.trainer, &this.train);
            this.book(&log);
        }
        this
    }

    /// Books a finished step and, when it was the evaluation step, takes
    /// the validation loss: after a fixed number of steps, so it repeats
    /// exactly however many steps a timed region fits. Returns the CPU
    /// seconds the evaluation cost, which are not the step's.
    fn book(&mut self, log: &TrainLog) -> f64 {
        self.losses.push(log.ce_loss);
        self.dropped += log.dropped_tokens as u64;
        if api::step_count(&self.trainer) != self.scale.eval_at_step {
            return 0.0;
        }
        let cpu = cpu_seconds();
        let loss = api::evaluate(&self.trainer, &self.valid, self.scale.eval_batches);
        self.eval_loss = Some(loss);
        cpu_seconds() - cpu
    }

    fn tokens_per_step(&self) -> u64 {
        (self.scale.train_batch * self.shape.seq) as u64
    }
}

impl Workload for Train {
    fn run(&mut self, seconds: f64, rec: Option<&Recorder>) -> Phase {
        let mut phase = Phase::default();
        let cpu_start = cpu_seconds();
        let mut cpu_off_clock = 0.0;
        let mut busy_s = 0.0;
        while busy_s < seconds || phase.attempted == 0 {
            let op = api::step_count(&self.trainer) as u64;
            let started = Instant::now();
            let log = match rec {
                None => api::train_step(&mut self.trainer, &self.train),
                Some(rec) => rec.scope("step", 0, op, |step| {
                    let pending = rec.scope("transformer.accumulate_step", step, op, |_| {
                        api::accumulate_step(&mut self.trainer, &self.train)
                    });
                    rec.scope("transformer.apply_step", step, op, |_| {
                        api::apply_step(&mut self.trainer, pending)
                    })
                }),
            };
            let took = started.elapsed().as_secs_f64();
            busy_s += took;
            phase.attempted += 1;
            cpu_off_clock += self.book(&log);
            if !log.ce_loss.is_finite() {
                phase.fail(format!("step {op}: non-finite loss {}", log.ce_loss));
            } else if log.dropped_tokens > 0 {
                phase.fail(format!("step {op}: {} tokens dropped", log.dropped_tokens));
            } else {
                phase.ops.push(Op {
                    done_s: busy_s,
                    ms: took * 1e3,
                    tokens: self.tokens_per_step(),
                });
            }
        }
        phase.wall_s = busy_s;
        phase.cpu_s = cpu_seconds() - cpu_start - cpu_off_clock;
        phase
    }

    fn verify(&mut self, _phase: &mut Phase) -> Vec<String> {
        let mut problems = Vec::new();
        // A run too short to reach the evaluation step catches up here, off
        // the clock, so the loss is always the one after that many steps.
        while api::step_count(&self.trainer) < self.scale.eval_at_step {
            let log = api::train_step(&mut self.trainer, &self.train);
            self.book(&log);
        }
        match self.eval_loss {
            Some(loss) if loss.is_finite() => {}
            other => problems.push(format!("validation loss {other:?} is not finite")),
        }
        // The first steps see an untrained model; single-batch losses are
        // noisy, so a median of the last few stands for "now".
        let as_f64 =
            |losses: &[f32]| -> Vec<f64> { losses.iter().map(|&l| f64::from(l)).collect() };
        let first = as_f64(&self.losses[..WARMUP_STEPS]);
        let first = first.iter().sum::<f64>() / first.len() as f64;
        let last = median(&as_f64(&self.losses[self.losses.len() - 5..]));
        if last >= first || last.is_nan() {
            problems.push(format!(
                "training loss did not decrease: first steps {first}, last five median {last}"
            ));
        }
        problems
    }

    fn observed(&self, out: &mut Values) {
        if let Some(loss) = self.eval_loss {
            out.set("transformer.eval_loss", f64::from(loss));
        }
        if self.shape.moe.is_some() {
            let assignments = self.losses.len() as u64 * self.tokens_per_step();
            out.set(
                "core.dropped_frac",
                self.dropped as f64 / (assignments * self.shape.layers as u64) as f64,
            );
        }
    }

    fn replay(&mut self, t: &Replayer, out: &mut Values) -> Fallible<f64> {
        let (batch, seq) = (self.scale.train_batch, self.shape.seq);
        let mut rng = api::rng(self.seed ^ 0x5eed);
        let workspace_before = api::workspace_counts();

        let sample_ms = t.ms("data.sample_batch", || {
            api::sample_batch(&self.train, batch, seq, &mut rng)
        });
        out.set("data.sample_batch_us", sample_ms * 1e3);
        let data = api::sample_batch(&self.train, batch, seq, &mut rng);

        // Whole-model calls on a fresh model of the same shape, so the
        // trained one keeps its gradients and optimizer state untouched.
        let mut lm = api::new_lm(self.shape, &mut rng);
        out.set(
            "transformer.fwd_ms",
            t.ms("transformer.fwd", || api::lm_eval_loss(&lm, &data)),
        );
        out.set(
            "transformer.fwd_bwd_ms",
            t.ms("transformer.fwd_bwd", || {
                api::lm_forward_backward(&mut lm, &data)
            }),
        );
        let clip_ms = t.ms("transformer.clip", || api::clip_grads(&mut lm));
        out.set("transformer.clip_ms", clip_ms);
        let mut adam = api::new_adam();
        let adam_ms = t.ms("transformer.adam", || {
            api::adam_step(&mut adam, &mut lm, 1e-4)
        });
        out.set("transformer.adam_ms", adam_ms);

        let lm_times = replay::lm_parts(t, self.shape, batch, seq, true, &mut rng, out);
        let (ffn_fwd, ffn_bwd) = match self.shape.moe {
            Some(moe) => {
                let layer = api::new_dmoe(moe, &mut rng);
                let x = api::normal(batch * seq, moe.hidden, 1.0, &mut rng);
                let times = replay::moe_parts(t, &layer, moe, &x, true, &mut rng, out)?;
                // Padding of the trained routers on real data, not of a
                // fresh router on noise.
                let trained = api::trainer_model_mut(&mut self.trainer);
                if let Some(overhead) = api::lm_forward_backward(trained, &data) {
                    out.set("core.padding_overhead", overhead);
                }
                (times.fwd_ms, times.bwd_ms)
            }
            None => (lm_times.dense_fwd_ms, lm_times.dense_bwd_ms),
        };
        replay::exec_parts(t, workspace_before, out);

        // One step = sample, L x (attention + two layer norms + FFN) forward
        // and backward, final layer norm, LM head (one forward and two
        // backward products), loss, clip, Adam. Embedding lookups and
        // residual adds are the untimed remainder.
        let per_block = lm_times.attn_fwd_ms
            + lm_times.attn_bwd_ms
            + 2.0 * lm_times.layernorm_ms
            + ffn_fwd
            + ffn_bwd;
        Ok(sample_ms
            + self.shape.layers as f64 * per_block
            + lm_times.layernorm_ms
            + 3.0 * lm_times.lmhead_ms
            + lm_times.cross_entropy_ms
            + clip_ms
            + adam_ms)
    }
}

// --- serve_steady / serve_saturated ---------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loop {
    /// One generator on a fixed schedule and one collector.
    Open,
    /// One client keeping a fixed number of requests in flight.
    Closed,
}

/// Rows of the matrix request tokens are sliced from.
const SOURCE_ROWS: usize = 4096;

/// The part of a serve workload the generator and the collector share.
struct ServeCore {
    scale: Scale,
    seed: u64,
    kind: Loop,
    engine: Engine,
    source: Matrix,
}

/// A request on its way from the generator to the collector.
struct Sent {
    index: u64,
    rows: usize,
    due: Instant,
    submitted: Instant,
    submit_us: f64,
    late_ms: f64,
    handle: Fallible<ResponseHandle>,
}

impl ServeCore {
    fn rows_of(&self, index: u64) -> usize {
        match self.kind {
            Loop::Open => {
                1 + ((7 * index + self.seed) % self.scale.steady_max_tokens as u64) as usize
            }
            Loop::Closed => self.scale.saturated_tokens,
        }
    }

    /// The tokens of request `index`: a function of the seed and the index
    /// only, so the checks can rebuild them.
    fn tokens_of(&self, index: u64) -> Matrix {
        let rows = self.rows_of(index);
        let span = (SOURCE_ROWS - rows) as u64;
        let first = ((index.wrapping_mul(131) + self.seed.wrapping_mul(977)) % span) as usize;
        self.source.rows_range(first, first + rows)
    }

    fn layer(&self) -> &DroplessMoe {
        api::engine_layer(&self.engine)
    }

    /// Submits request `index`. A full admission queue sheds the request;
    /// like a real client this one tries again until its deadline, with the
    /// latency clock (which started at `due`) still running, so a shed shows
    /// as latency and as `serve.shed`, not as a lost request.
    fn submit(&self, index: u64, due: Instant, deadline: Option<Instant>) -> Sent {
        let rows = self.rows_of(index);
        let submitted = Instant::now();
        let handle = loop {
            match api::submit(&self.engine, self.tokens_of(index), deadline) {
                Ok(handle) => break Ok(handle),
                Err(Refusal::Overloaded) if deadline.is_some_and(|d| Instant::now() < d) => {
                    std::thread::sleep(RESUBMIT_PAUSE);
                }
                Err(Refusal::Overloaded) => break Err("shed: admission queue full".to_owned()),
                Err(Refusal::Failed(why)) => break Err(why),
            }
        };
        Sent {
            index,
            rows,
            due,
            submitted,
            submit_us: submitted.elapsed().as_secs_f64() * 1e6,
            late_ms: submitted.saturating_duration_since(due).as_secs_f64() * 1e3,
            handle,
        }
    }
}

/// What the engine reported for the served requests of one phase.
#[derive(Debug, Default)]
struct ServeLog {
    submit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    batches: u64,
    shed: u64,
    expired: u64,
    max_queue_depth: u64,
}

/// Waits for requests, stamps their completion and books them.
struct Collector<'a> {
    rec: Option<&'a Recorder>,
    clock_start: Instant,
    phase: Phase,
    log: ServeLog,
    /// Outputs this phase may still keep.
    keep_budget: usize,
    kept_outputs: Vec<(u64, Matrix)>,
}

impl Collector<'_> {
    fn collect(&mut self, sent: Sent) {
        self.phase.attempted += 1;
        let resolved = sent.handle.and_then(api::wait);
        let now = Instant::now();
        let response = match resolved {
            Ok(response) => response,
            Err(why) => return self.phase.fail(format!("request {}: {why}", sent.index)),
        };
        if response.output.rows() != sent.rows {
            return self.phase.fail(format!(
                "request {}: {} rows back for {} sent",
                sent.index,
                response.output.rows(),
                sent.rows
            ));
        }
        self.phase.ops.push(Op {
            done_s: (now - self.clock_start).as_secs_f64(),
            ms: (now - sent.due).as_secs_f64() * 1e3,
            tokens: sent.rows as u64,
        });
        let (queue_wait, latency) = (response.queue_wait, response.latency);
        self.log.submit_us.push(sent.submit_us);
        self.log.late_ms.push(sent.late_ms);
        self.log.queue_wait_ms.push(queue_wait.as_secs_f64() * 1e3);
        self.log.latency_ms.push(latency.as_secs_f64() * 1e3);
        self.log
            .service_ms
            .push(latency.saturating_sub(queue_wait).as_secs_f64() * 1e3);
        if let Some(rec) = self.rec {
            // The engine reports durations, not instants; they are laid out
            // from the submit stamp taken just outside it.
            let request = rec.record("request", 0, sent.index, sent.due, now);
            let submit_end = sent.submitted + Duration::from_secs_f64(sent.submit_us * 1e-6);
            let batched = sent.submitted + queue_wait;
            let resolved = sent.submitted + latency;
            rec.record(
                "serve.submit",
                request,
                sent.index,
                sent.submitted,
                submit_end,
            );
            rec.record(
                "serve.queue_wait",
                request,
                sent.index,
                submit_end.min(batched),
                batched,
            );
            rec.record("serve.service", request, sent.index, batched, resolved);
        }
        if sent.index.is_multiple_of(CHECK_EVERY) && self.kept_outputs.len() < self.keep_budget {
            self.kept_outputs.push((sent.index, response.output));
        }
    }
}

struct Serve {
    core: ServeCore,
    next_request: u64,
    kept_outputs: Vec<(u64, Matrix)>,
    /// The latest phase's engine-side record.
    log: ServeLog,
}

impl Serve {
    fn setup(seed: u64, scale: Scale, kind: Loop) -> Self {
        let moe = scale.moe();
        let mut rng = api::rng(seed);
        let layer = api::new_dmoe(moe, &mut rng);
        let source = api::normal(SOURCE_ROWS, moe.hidden, 1.0, &mut rng);
        let core = ServeCore {
            scale,
            seed,
            kind,
            engine: api::new_engine(layer),
            source,
        };
        // Warm-up: start the pool and fill the workspace shelves.
        let warmup = 2 * SATURATED_IN_FLIGHT as u64;
        for index in 0..warmup {
            let sent = core.submit(index, Instant::now(), None);
            sent.handle.and_then(api::wait).expect("warm-up request");
        }
        Serve {
            core,
            next_request: warmup,
            kept_outputs: Vec::new(),
            log: ServeLog::default(),
        }
    }

    /// Open loop: the generator sleeps until each request is due and never
    /// waits for a reply; the collector stamps each completion. Latency
    /// counts from the due time, so a stalled generator shows as latency.
    fn run_open<'a>(&'a self, first: u64, seconds: f64, collector: Collector<'a>) -> Collector<'a> {
        let count = ((STEADY_RATE * seconds).round() as u64).max(1);
        let start = collector.clock_start;
        let (tx, rx) = mpsc::channel::<Sent>();
        std::thread::scope(|s| {
            let core = &self.core;
            s.spawn(move || {
                for k in 0..count {
                    let due = start + Duration::from_secs_f64(k as f64 / STEADY_RATE);
                    let ahead = due.saturating_duration_since(Instant::now());
                    if !ahead.is_zero() {
                        std::thread::sleep(ahead);
                    }
                    let sent = core.submit(first + k, due, Some(due + STEADY_DEADLINE));
                    if tx.send(sent).is_err() {
                        return;
                    }
                }
            });
            let collecting = s.spawn(move || {
                let mut collector = collector;
                for sent in rx {
                    collector.collect(sent);
                }
                collector
            });
            collecting.join().expect("collector thread")
        })
    }

    /// Closed loop: this thread keeps a fixed number of requests in flight,
    /// replacing each as it resolves, and drains them when time is up.
    fn run_closed<'a>(
        &'a self,
        first: u64,
        seconds: f64,
        mut collector: Collector<'a>,
    ) -> Collector<'a> {
        let start = collector.clock_start;
        let mut next = first;
        let mut in_flight = VecDeque::with_capacity(SATURATED_IN_FLIGHT);
        loop {
            let sending = start.elapsed().as_secs_f64() < seconds || next == first;
            while sending && in_flight.len() < SATURATED_IN_FLIGHT {
                in_flight.push_back(self.core.submit(next, Instant::now(), None));
                next += 1;
            }
            match in_flight.pop_front() {
                Some(sent) => collector.collect(sent),
                None => return collector,
            }
        }
    }
}

impl Workload for Serve {
    fn run(&mut self, seconds: f64, rec: Option<&Recorder>) -> Phase {
        let before = api::engine_stats(&self.core.engine);
        let cpu_start = cpu_seconds();
        let collector = Collector {
            rec,
            clock_start: Instant::now(),
            phase: Phase::default(),
            log: ServeLog::default(),
            keep_budget: MAX_KEPT_OUTPUTS - self.kept_outputs.len(),
            kept_outputs: Vec::new(),
        };
        let first = self.next_request;
        let collector = match self.core.kind {
            Loop::Open => self.run_open(first, seconds, collector),
            Loop::Closed => self.run_closed(first, seconds, collector),
        };
        let Collector {
            mut phase,
            mut log,
            kept_outputs,
            clock_start,
            ..
        } = collector;
        phase.wall_s = clock_start.elapsed().as_secs_f64();
        phase.cpu_s = cpu_seconds() - cpu_start;
        let after = api::engine_stats(&self.core.engine);
        log.batches = after.batches - before.batches;
        log.shed = after.shed - before.shed;
        log.expired = after.expired - before.expired;
        log.max_queue_depth = after.max_queue_depth;
        self.next_request = first + phase.attempted;
        self.kept_outputs.extend(kept_outputs);
        self.log = log;
        phase
    }

    fn verify(&mut self, phase: &mut Phase) -> Vec<String> {
        // A request served inside a batch must equal, bit for bit, the same
        // request run through the layer alone.
        for (index, served) in std::mem::take(&mut self.kept_outputs) {
            match api::dmoe_infer(self.core.layer(), &self.core.tokens_of(index)) {
                Ok(alone) if alone.as_slice() == served.as_slice() => {}
                Ok(_) => phase.fail(format!("request {index}: batched output differs from solo")),
                Err(why) => phase.fail(format!("request {index}: solo inference failed: {why}")),
            }
        }
        Vec::new()
    }

    fn rate_is_imposed(&self) -> bool {
        self.core.kind == Loop::Open
    }

    fn observed(&self, out: &mut Values) {
        let log = &self.log;
        let served = log.latency_ms.len() as f64;
        out.set("serve.submit_us_p50", median(&log.submit_us));
        out.set("serve.queue_wait_ms_p50", median(&log.queue_wait_ms));
        out.set(
            "serve.queue_wait_ms_p90",
            percentile(&log.queue_wait_ms, 90.0),
        );
        out.set("serve.service_ms_p50", median(&log.service_ms));
        out.set("serve.latency_ms_p99", percentile(&log.latency_ms, 99.0));
        out.set("serve.batches", log.batches as f64);
        out.set("serve.batch_size_mean", served / log.batches.max(1) as f64);
        out.set("serve.shed", log.shed as f64);
        out.set("serve.expired", log.expired as f64);
        out.set("serve.max_queue_depth", log.max_queue_depth as f64);
        if self.core.kind == Loop::Open {
            out.set(
                "serve.generator_late_ms_p99",
                percentile(&log.late_ms, 99.0),
            );
        }
        // The dropless claim on the serving path: every row sent came back
        // (checked per request), so nothing was dropped.
        out.set("core.dropped_frac", 0.0);
    }

    fn replay(&mut self, t: &Replayer, out: &mut Values) -> Fallible<f64> {
        // One operation here is one request, whose service is one batch:
        // replay a batch of the size the engine actually formed.
        let served = self.log.latency_ms.len().max(1) as f64;
        let mean_rows = (0..64).map(|i| self.core.rows_of(i)).sum::<usize>() as f64 / 64.0;
        let batch_tokens = mean_rows * served / self.log.batches.max(1) as f64;
        out.set("serve.batch_tokens_mean", batch_tokens);
        let rows = (batch_tokens.round() as usize).clamp(1, SOURCE_ROWS);
        let x = self.core.source.rows_range(0, rows);
        let moe = self.core.scale.moe();
        let mut rng = api::rng(self.core.seed ^ 0x5eed);
        let workspace_before = api::workspace_counts();
        let times = replay::moe_parts(t, self.core.layer(), moe, &x, false, &mut rng, out)?;
        replay::exec_parts(t, workspace_before, out);
        // Router softmax is the only softmax on this path.
        let logits = api::normal(rows, moe.experts, 1.0, &mut rng);
        out.set(
            "tensor.softmax_ms",
            t.ms("tensor.softmax", || api::softmax_rows(&logits)),
        );
        Ok(median(&self.log.queue_wait_ms) + times.infer_ms)
    }
}

// --- lm_generate ------------------------------------------------------------

struct Generate {
    scale: Scale,
    seed: u64,
    lm: TransformerLm,
    corpus: Vec<usize>,
    next_call: u64,
    kept_outputs: Vec<(u64, Vec<usize>)>,
}

impl Generate {
    fn setup(seed: u64, scale: Scale) -> Self {
        let (train, _valid) = api::corpus(scale.toy, seed);
        let corpus = api::corpus_tokens(&train)
            .iter()
            .map(|&t| t as usize)
            .collect();
        let lm = api::new_lm(scale.lm, &mut api::rng(seed));
        let this = Generate {
            scale,
            seed,
            lm,
            corpus,
            next_call: 0,
            kept_outputs: Vec::new(),
        };
        // Warm-up: one call of the longest prompt, off the books.
        let _ = api::generate(&this.lm, this.prompt_of(3), NEW_TOKENS);
        this
    }

    /// The prompt of call `index`: a corpus window whose length cycles and
    /// whose position depends on the seed and the index only.
    fn prompt_of(&self, index: u64) -> &[usize] {
        let len = PROMPT_CYCLE[(index % PROMPT_CYCLE.len() as u64) as usize];
        let span = (self.corpus.len() - len) as u64;
        let first = ((index.wrapping_mul(7919) + self.seed.wrapping_mul(104_729)) % span) as usize;
        &self.corpus[first..first + len]
    }
}

/// Index of the largest logit; the last one wins a tie, as in `generate`.
fn argmax(logits: &[f32]) -> usize {
    let mut best = 0;
    for (i, v) in logits.iter().enumerate() {
        if *v >= logits[best] {
            best = i;
        }
    }
    best
}

impl Workload for Generate {
    fn run(&mut self, seconds: f64, rec: Option<&Recorder>) -> Phase {
        let mut phase = Phase::default();
        let cpu_start = cpu_seconds();
        let mut busy_s = 0.0;
        while busy_s < seconds || phase.attempted == 0 {
            let index = self.next_call;
            self.next_call += 1;
            let started = Instant::now();
            let generated = trace::scope(rec, "transformer.generate", 0, index, |_| {
                api::generate(&self.lm, self.prompt_of(index), NEW_TOKENS)
            });
            let took = started.elapsed().as_secs_f64();
            busy_s += took;
            phase.attempted += 1;
            if generated.len() != NEW_TOKENS || generated.iter().any(|&t| t >= self.scale.lm.vocab)
            {
                phase.fail(format!("call {index}: malformed output {generated:?}"));
                continue;
            }
            phase.ops.push(Op {
                done_s: busy_s,
                ms: took * 1e3,
                tokens: NEW_TOKENS as u64,
            });
            if index < CHECKED_GENERATE_CALLS {
                self.kept_outputs.push((index, generated));
            }
        }
        phase.wall_s = busy_s;
        phase.cpu_s = cpu_seconds() - cpu_start;
        phase
    }

    fn verify(&mut self, phase: &mut Phase) -> Vec<String> {
        // Greedy generation must equal feeding each argmax back by hand.
        for (index, generated) in std::mem::take(&mut self.kept_outputs) {
            let mut context = self.prompt_of(index).to_vec();
            for _ in 0..NEW_TOKENS {
                let window = &context[context.len().saturating_sub(self.scale.lm.seq)..];
                let logits = api::next_token_logits(&self.lm, window);
                context.push(argmax(logits.row(0)));
            }
            if context[context.len() - NEW_TOKENS..] != generated[..] {
                phase.fail(format!(
                    "call {index}: generate differs from the argmax loop"
                ));
            }
        }
        Vec::new()
    }

    fn observed(&self, _out: &mut Values) {}

    fn replay(&mut self, t: &Replayer, out: &mut Values) -> Fallible<f64> {
        // One operation is NEW_TOKENS forwards over a growing window; the
        // layers are replayed at the middle window of the middle prompt.
        let shape = self.scale.lm;
        let prompt = median(&PROMPT_CYCLE.map(|l| l as f64)) as usize;
        let ctx = (prompt + NEW_TOKENS / 2).min(shape.seq);
        let mut rng = api::rng(self.seed ^ 0x5eed);
        let workspace_before = api::workspace_counts();
        replay::next_token_parts(t, &self.lm, &self.corpus, out);
        let lm_times = replay::lm_parts(t, shape, 1, ctx, false, &mut rng, out);
        let moe = self.scale.moe();
        let layer = api::new_dmoe(moe, &mut rng);
        let x = api::normal(ctx, moe.hidden, 1.0, &mut rng);
        replay::moe_parts(t, &layer, moe, &x, false, &mut rng, out)?;
        replay::exec_parts(t, workspace_before, out);
        Ok(NEW_TOKENS as f64 * (shape.layers as f64 * lm_times.block_fwd_ms + lm_times.lmhead_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_prefers_the_last_of_equal_maxima() {
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[0.5, 0.5, 0.1]), 1);
        assert_eq!(argmax(&[2.0]), 0);
    }
}
