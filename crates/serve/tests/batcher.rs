//! The batcher against a reference model of its queue.
//!
//! The model ([`predict`]) is a FIFO admission list. Past the queue cap a
//! request is shed; a request whose deadline passed before its batch
//! formed expires without riding; every batch is the next
//! `min(live queued, max_batch)` admitted requests, in order. A schedule
//! holds the engine's first batch in compute with an injected
//! `exec.band_stall`, submits a backlog behind it (and, in some, shuts
//! the engine down mid-stall), then checks the engine against the model:
//!
//! * (i) every admitted request resolves exactly once, and `EngineStats`
//!   obeys the conservation law;
//! * (ii) every output equals `layer().infer(tokens)` bit for bit;
//! * (iii) every batch is FIFO-contiguous and no larger than `max_batch`;
//! * (iv) the queue depth never exceeds `queue_cap`, and no request whose
//!   deadline passed before its batch formed rides in it.
//!
//! (v) needs no model: a lone request on an idle engine is dispatched at
//! once. The perturbation seed a schedule sets is process-global, so
//! every test takes one lock.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use megablocks_core::{DroplessMoe, MoeConfig};
use megablocks_exec::fault::{sites, FaultPlan};
use megablocks_exec::{
    configure_threads, perturbation_seed, set_perturbation, CancelKind, Deadline,
};
use megablocks_serve::{Engine, EngineStats, Response, ServeConfig, ServeError};
use megablocks_tensor::init::{normal, seeded_rng};
use megablocks_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

const HIDDEN: usize = 64;
/// Rows of the held request: enough that its SDD is a multi-band launch,
/// which has a band for the stall to park.
const HOLDER_ROWS: usize = 16;
/// How long the held batch computes. The backlog is submitted well inside
/// it.
const HOLD: Duration = Duration::from_millis(200);
/// The budget of a doomed request: it passes while the held batch
/// computes.
const DOOMED: Duration = Duration::from_millis(20);
/// The budget of a distant deadline: it outlives every schedule.
const DISTANT: Duration = Duration::from_secs(600);

/// Held by every test: a schedule sets the process-global perturbation
/// seed (`set_perturbation`), which reorders and stalls the bands of
/// every launch in the process, including another test's.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A one-thread pool runs every launch inline as a single band, and
    // the stall parks a band of a multi-band launch.
    configure_threads(2);
    guard
}

fn layer(rng: &mut StdRng) -> DroplessMoe {
    DroplessMoe::new(MoeConfig::new(HIDDEN, 256, 4).with_block_size(16), rng)
}

/// A backlog request's deadline, relative to the held batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// No deadline.
    Open,
    /// A deadline that outlives the schedule.
    Distant,
    /// A deadline that passes while the held batch computes.
    Doomed,
    /// A deadline already past at submission.
    Dead,
}

/// How the model says a request ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Shed,
    Expired,
    /// Rides in batch `batch` (0 is the held one) of `size` requests.
    Rides {
        batch: usize,
        size: usize,
    },
    Cancelled,
    ShutDown,
}

/// The reference model. Returns the fate of the held request and then of
/// each backlog request in submission order, and the engine's books.
fn predict(cfg: ServeConfig, backlog: &[Kind], shutdown: bool) -> (Vec<Fate>, EngineStats) {
    let held = if shutdown {
        Fate::Cancelled
    } else {
        Fate::Rides { batch: 0, size: 1 }
    };
    let mut fates = vec![held];
    let mut queue = Vec::new();
    // The held request was admitted alone.
    let mut max_depth = 1;
    for (i, &kind) in backlog.iter().enumerate() {
        fates.push(if kind == Kind::Dead {
            Fate::Expired
        } else if queue.len() >= cfg.queue_cap {
            Fate::Shed
        } else {
            queue.push(i + 1);
            max_depth = max_depth.max(queue.len());
            Fate::ShutDown
        });
    }
    if !shutdown {
        // The held batch finished: expired requests drop, and the live
        // ones leave in FIFO batches of at most `max_batch`.
        let mut live = Vec::new();
        for r in queue {
            if backlog[r - 1] == Kind::Doomed {
                fates[r] = Fate::Expired;
            } else {
                live.push(r);
            }
        }
        for (b, batch) in live.chunks(cfg.max_batch).enumerate() {
            for &r in batch {
                fates[r] = Fate::Rides {
                    batch: b + 1,
                    size: batch.len(),
                };
            }
        }
    }
    let count = |want: fn(&Fate) -> bool| fates.iter().filter(|&f| want(f)).count() as u64;
    let shed = count(|f| *f == Fate::Shed);
    let batches = fates.iter().filter_map(|f| match f {
        Fate::Rides { batch, .. } => Some(*batch as u64 + 1),
        _ => None,
    });
    let stats = EngineStats {
        submitted: fates.len() as u64 - shed,
        completed: count(|f| matches!(f, Fate::Rides { .. })),
        shed,
        expired: count(|f| *f == Fate::Expired),
        cancelled: count(|f| *f == Fate::Cancelled),
        kernel: 0,
        shutdown: count(|f| *f == Fate::ShutDown),
        batches: batches.max().unwrap_or(1),
        max_queue_depth: max_depth as u64,
    };
    (fates, stats)
}

/// One request as the test saw it.
struct Seen {
    tokens: Matrix,
    deadline: Option<Instant>,
    /// Just before and just after `submit`: the engine stamped its
    /// arrival in between.
    before: Instant,
    after: Instant,
    result: Result<Response, ServeError>,
}

impl Seen {
    /// Bounds on the instant this request's batch formed.
    fn formed(&self, response: &Response) -> (Instant, Instant) {
        (
            self.before + response.queue_wait,
            self.after + response.queue_wait,
        )
    }
}

#[derive(Debug, Clone)]
struct Schedule {
    cfg: ServeConfig,
    backlog: Vec<Kind>,
    shutdown: bool,
    seed: u64,
}

impl Schedule {
    fn seeded(seed: u64) -> Schedule {
        let mut rng = seeded_rng(seed);
        let cfg = ServeConfig::default()
            .with_max_batch(rng.gen_range(1..=4usize))
            .with_queue_cap(rng.gen_range(2..=12usize));
        let len = rng.gen_range(cfg.queue_cap / 2..=cfg.queue_cap + 3);
        let backlog = (0..len)
            .map(|_| match rng.gen_range(0..10) {
                0..=3 => Kind::Open,
                4..=5 => Kind::Distant,
                6..=8 => Kind::Doomed,
                _ => Kind::Dead,
            })
            .collect();
        Schedule {
            cfg,
            backlog,
            shutdown: rng.gen_range(0..4) == 0,
            seed,
        }
    }

    /// Runs the schedule on a fresh engine, checks (i)–(iv) against the
    /// model and returns the fates.
    fn check(&self) -> Vec<Fate> {
        let mut rng = seeded_rng(self.seed);
        let mut engine = Engine::new(layer(&mut rng), self.cfg);
        let holder = normal(HOLDER_ROWS, HIDDEN, 1.0, &mut rng);
        let backlog: Vec<Matrix> = self
            .backlog
            .iter()
            .map(|_| normal(rng.gen_range(1..=3usize), HIDDEN, 1.0, &mut rng))
            .collect();

        let perturbation = perturbation_seed();
        set_perturbation(self.seed);
        let hold_ms = if self.shutdown {
            60_000
        } else {
            HOLD.as_millis()
        };
        // The held request records the plan at submit, and its batch
        // runs under it on the batcher thread.
        let plan = FaultPlan::seeded(self.seed)
            .at_calls(&sites::EXEC_BAND_STALL, &[0])
            .delay_ms(hold_ms as u64)
            .enter();
        let start = Instant::now();
        let held = engine
            .submit(holder.clone(), None)
            .expect("an idle engine admits");
        let held_after = Instant::now();
        while plan.report().injected_at(&sites::EXEC_BAND_STALL) == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "the held batch never stalled"
            );
            std::thread::sleep(Duration::from_micros(100));
        }

        // The model reads a doomed request refused on arrival as dead.
        let mut kinds = self.backlog.clone();
        let mut handles = Vec::new();
        for (kind, tokens) in kinds.iter_mut().zip(backlog) {
            let now = Instant::now();
            let deadline = match kind {
                Kind::Open => None,
                Kind::Distant => Some(now + DISTANT),
                Kind::Doomed => Some(now + DOOMED),
                Kind::Dead => Some(now),
            };
            let before = Instant::now();
            let admitted = engine.submit(tokens.clone(), deadline.map(Deadline::at));
            let after = Instant::now();
            if matches!(admitted, Err(ServeError::Expired)) {
                assert!(
                    after >= deadline.expect("a deadline"),
                    "refused while alive"
                );
                *kind = Kind::Dead;
            }
            handles.push((tokens, deadline, before, after, admitted));
        }
        if self.shutdown {
            engine.shutdown();
            for _ in 0..2 {
                let refused = engine.submit(normal(1, HIDDEN, 1.0, &mut rng), None);
                assert_eq!(refused.err(), Some(ServeError::ShuttingDown));
            }
        } else {
            // The stall began after `start`, so it ends after
            // `start + HOLD`: the backlog queued, and every doomed
            // deadline passed, while the held batch computed.
            assert!(
                Instant::now() + DOOMED < start + HOLD,
                "the schedule outran its hold"
            );
        }

        let mut seen = vec![Seen {
            tokens: holder,
            deadline: None,
            before: start,
            after: held_after,
            result: held.wait(),
        }];
        for (tokens, deadline, before, after, admitted) in handles {
            seen.push(Seen {
                tokens,
                deadline,
                before,
                after,
                result: admitted.and_then(|handle| handle.wait()),
            });
        }
        drop(plan);
        set_perturbation(perturbation);

        let (fates, want) = predict(self.cfg, &kinds, self.shutdown);
        let case = format!("{self:?}");
        for (r, (fate, seen)) in fates.iter().zip(&seen).enumerate() {
            match (fate, &seen.result) {
                (Fate::Shed, Err(ServeError::Overloaded { depth })) => {
                    assert_eq!(*depth, self.cfg.queue_cap, "request {r}: {case}");
                }
                (Fate::Expired, Err(ServeError::Expired))
                | (Fate::Cancelled, Err(ServeError::Cancelled(CancelKind::Cancelled)))
                | (Fate::ShutDown, Err(ServeError::ShuttingDown)) => {}
                (Fate::Rides { size, .. }, Ok(response)) => {
                    assert_eq!(response.batch_size, *size, "request {r}: {case}");
                    assert!(response.batch_size <= self.cfg.max_batch);
                    let alone = engine.layer().infer(&seen.tokens).expect("infer");
                    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
                    let (got, solo): (Vec<u32>, Vec<u32>) = (bits(&response.output), bits(&alone));
                    assert!(got == solo, "request {r}: batched output diverged: {case}");
                    if let Some(deadline) = seen.deadline {
                        let (earliest, _) = seen.formed(response);
                        assert!(earliest < deadline, "request {r} rode expired: {case}");
                    }
                }
                (fate, result) => panic!("request {r}: model {fate:?}, engine {result:?}: {case}"),
            }
        }
        // Batches leave in admission order, and the members of one batch
        // share its formation instant.
        for (r, (fate_r, seen_r)) in fates.iter().zip(&seen).enumerate() {
            for (fate_s, seen_s) in fates.iter().zip(&seen).skip(r + 1) {
                let (Ok(first), Ok(later)) = (&seen_r.result, &seen_s.result) else {
                    continue;
                };
                let (first_lo, first_hi) = seen_r.formed(first);
                let (later_lo, later_hi) = seen_s.formed(later);
                assert!(
                    first_lo <= later_hi,
                    "request {r} left after a later one: {case}"
                );
                let same = matches!((fate_r, fate_s),
                    (Fate::Rides { batch: a, .. }, Fate::Rides { batch: b, .. }) if a == b);
                if same {
                    assert!(later_lo <= first_hi, "request {r}'s batch split: {case}");
                }
            }
        }

        let stats = engine.stats();
        assert_eq!(stats, want, "{case}");
        assert_eq!(
            stats.submitted,
            stats.completed + stats.expired + stats.cancelled + stats.kernel + stats.shutdown
        );
        assert_eq!(stats.shed + stats.submitted, seen.len() as u64);
        assert!(stats.max_queue_depth <= self.cfg.queue_cap as u64);
        fates
    }
}

#[test]
fn seeded_schedules_match_the_model() {
    let _guard = serial();
    let mut fates = Vec::new();
    for seed in 1..=12 {
        fates.extend(Schedule::seeded(seed).check());
    }
    // The seeds reach every fate and a backlog longer than one batch.
    for want in [Fate::Shed, Fate::Expired, Fate::Cancelled, Fate::ShutDown] {
        assert!(fates.contains(&want), "no schedule ends {want:?}");
    }
    assert!(fates
        .iter()
        .any(|f| matches!(f, Fate::Rides { batch, size } if *batch >= 2 && *size >= 2)));
}

#[test]
fn max_batch_trigger_groups_requests() {
    let _guard = serial();
    let fates = Schedule {
        cfg: ServeConfig::default().with_max_batch(3),
        backlog: vec![Kind::Open; 4],
        shutdown: false,
        seed: 21,
    }
    .check();
    let full = Fate::Rides { batch: 1, size: 3 };
    assert_eq!(
        fates[1..],
        [full, full, full, Fate::Rides { batch: 2, size: 1 }]
    );
}

#[test]
fn overload_sheds_at_the_queue_cap() {
    let _guard = serial();
    let fates = Schedule {
        cfg: ServeConfig::default().with_max_batch(64).with_queue_cap(2),
        backlog: vec![Kind::Open; 3],
        shutdown: false,
        seed: 22,
    }
    .check();
    let pair = Fate::Rides { batch: 1, size: 2 };
    assert_eq!(fates[1..], [pair, pair, Fate::Shed]);
}

#[test]
fn expired_requests_drop_before_batch_formation() {
    let _guard = serial();
    let fates = Schedule {
        cfg: ServeConfig::default(),
        backlog: vec![Kind::Dead, Kind::Open, Kind::Doomed, Kind::Distant],
        shutdown: false,
        seed: 23,
    }
    .check();
    let pair = Fate::Rides { batch: 1, size: 2 };
    assert_eq!(fates[1..], [Fate::Expired, pair, Fate::Expired, pair]);
}

#[test]
fn shutdown_mid_batch_cancels_it_and_drains_the_queue() {
    let _guard = serial();
    let fates = Schedule {
        cfg: ServeConfig::default().with_queue_cap(3),
        backlog: vec![
            Kind::Open,
            Kind::Dead,
            Kind::Distant,
            Kind::Doomed,
            Kind::Open,
        ],
        shutdown: true,
        seed: 24,
    }
    .check();
    let down = Fate::ShutDown;
    assert_eq!(
        fates,
        [Fate::Cancelled, down, Fate::Expired, down, down, Fate::Shed]
    );
}

#[test]
fn an_idle_engine_dispatches_a_lone_request_at_once() {
    let _guard = serial();
    let mut rng = seeded_rng(25);
    let engine = Engine::new(layer(&mut rng), ServeConfig::default());
    let waits: Vec<Duration> = (0..20)
        .map(|_| {
            let tokens = normal(2, HIDDEN, 1.0, &mut rng);
            let response = engine
                .submit(tokens, None)
                .expect("admitted")
                .wait()
                .expect("served");
            assert_eq!(response.batch_size, 1);
            response.queue_wait
        })
        .collect();
    let fastest = waits.iter().min().expect("twenty waits");
    assert!(
        *fastest < Duration::from_millis(1),
        "every lone request waited for co-riders: {waits:?}"
    );
}
