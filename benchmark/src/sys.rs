//! What the benchmark reads from the machine: CPU time and peak memory of
//! this process, the facts printed with every record, the calibration
//! probes each `*_gflops` row is compared against, and the speed probe that
//! turns measured times into reference-speed times.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// `USER_HZ`: the unit of the CPU-time fields of `/proc/self/stat`. Linux
/// reports them in 1/100 s on every architecture, whatever the kernel's
/// own tick rate.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process so far, threads that already
/// exited included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    (ticks() + ticks()) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kib / 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Facts printed with every record so two records can be told apart.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Logical CPUs.
    pub nproc: usize,
    /// Worker threads the exec runtime was configured with.
    pub threads: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// Short git revision of the checkout, or `unknown` outside a repo.
    pub git_rev: String,
    /// Workload seed.
    pub seed: u64,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Machine {
    /// Collects the facts (runs `rustc` and `git` once each, to completion).
    pub fn collect(threads: usize, seed: u64) -> Self {
        Machine {
            nproc: nproc(),
            threads,
            rustc: first_line_of("rustc", &["--version"]),
            git_rev: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            seed,
        }
    }

    /// The facts as JSON object fields (no braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"nproc\": {}, \"threads\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"seed\": {}",
            self.nproc, self.threads, self.rustc, self.git_rev, self.seed
        )
    }
}

/// Probe repetitions; the best one counts, since interference only ever
/// slows a probe down.
const PROBE_REPEATS: usize = 5;

/// Runs `f` on `threads` scoped threads at once, sums the rates they
/// return, and keeps the best of [`PROBE_REPEATS`] such rounds.
fn best_summed_rate(threads: usize, f: impl Fn() -> f64 + Sync) -> f64 {
    (0..PROBE_REPEATS)
        .map(|_| {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads).map(|_| s.spawn(&f)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread"))
                    .sum::<f64>()
            })
        })
        .fold(0.0, f64::max)
}

/// Peak f32 rate of `threads` cores in GFLOP/s, with a separate multiply
/// and add per element — the arithmetic the kernels' accumulation-order
/// contract allows (no fused multiply-add). Register-resident, so it is a
/// compute ceiling, not a memory one. Takes about 70 ms.
pub fn peak_gflops(threads: usize) -> f64 {
    const LANES: usize = 48;
    const ITERS: usize = 500_000;
    best_summed_rate(threads, || {
        let mut acc = [1.0f32; LANES];
        let a = black_box(0.999_f32);
        let b = black_box(0.001_f32);
        let started = Instant::now();
        for _ in 0..ITERS {
            for v in &mut acc {
                *v = *v * a + b;
            }
        }
        black_box(acc);
        (2 * LANES * ITERS) as f64 / started.elapsed().as_secs_f64()
    }) / 1e9
}

/// Streaming bandwidth of `threads` cores in GB/s: a scaled copy between
/// two arrays far larger than the last-level cache, counting one read and
/// one write per element. Only the traced run calls it, so its 32 MiB per
/// thread never show in `peak_rss_mb`.
pub fn stream_gbs(threads: usize) -> f64 {
    const LEN: usize = 4 << 20;
    const PASSES: usize = 2;
    best_summed_rate(threads, || {
        let src = vec![1.0f32; LEN];
        let mut dst = vec![0.5f32; LEN];
        let k = black_box(0.5_f32);
        let started = Instant::now();
        for _ in 0..PASSES {
            for (d, s) in dst.iter_mut().zip(&src) {
                *d = *s * k;
            }
            black_box(&mut dst);
        }
        (2 * 4 * LEN * PASSES) as f64 / started.elapsed().as_secs_f64()
    }) / 1e9
}

/// Milliseconds one [`SpeedProbe`] round takes on the reference box (two
/// vCPUs, two exec threads) at the fastest level it was seen at. Timed
/// results are reported as if every round took this long.
pub const PROBE_REFERENCE_MS: f64 = 3.5;

/// Rows, inner dimension and columns of the probe's matrix product.
const PROBE_GEMM: (usize, usize, usize) = (256, 128, 512);

/// Elements of the array the probe sweeps: 8 MiB, past the 4 MiB L2.
const PROBE_SWEEP_LEN: usize = 2 << 20;

/// What one probe thread works on.
struct ProbeBuffers {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    sweep: Vec<f32>,
}

impl ProbeBuffers {
    fn new() -> Self {
        let (m, k, n) = PROBE_GEMM;
        ProbeBuffers {
            a: vec![0.5; m * k],
            b: vec![0.25; k * n],
            c: vec![0.0; m * n],
            sweep: vec![0.1; PROBE_SWEEP_LEN],
        }
    }

    /// A cache-resident matrix product, then an update sweep over an array
    /// that is not: the two kinds of work a training step is made of.
    fn work(&mut self) {
        let (m, k, n) = PROBE_GEMM;
        self.c.fill(0.0);
        for i in 0..m {
            let c_row = &mut self.c[i * n..(i + 1) * n];
            for p in 0..k {
                let a = self.a[i * k + p];
                for (c, b) in c_row.iter_mut().zip(&self.b[p * n..(p + 1) * n]) {
                    *c += a * *b;
                }
            }
        }
        black_box(&mut self.c);
        let decay = black_box(0.999_f32);
        for v in &mut self.sweep {
            *v = *v * decay + 0.001;
        }
        black_box(&mut self.sweep);
    }
}

/// Times a fixed piece of the benchmark's own code, to tell how fast the
/// machine is at that moment.
///
/// The reference box is a VM on a shared host. Its speed on identical code
/// sits at one of a few levels 1.4x and more apart (a busy hyperthread
/// sibling, a neighbour filling the shared cache, a throttled vCPU) and
/// stays at a level for seconds to minutes, so no statistic of raw times
/// taken within one run repeats between runs. The benchmark therefore
/// samples this probe between short slices of the workload and multiplies
/// every operation's time by the machine's speed around that operation
/// ([`Readings::speed_near`]): the time it would have taken on a machine
/// that runs the probe in [`PROBE_REFERENCE_MS`].
///
/// One round runs the same work on every exec thread at once (the caller
/// is one of them) and lasts until the slowest is done, as a launch of the
/// exec pool does.
pub struct SpeedProbe {
    buffers: Vec<ProbeBuffers>,
    readings: Readings,
}

impl SpeedProbe {
    /// A probe for `threads` exec threads, its buffers faulted in.
    pub fn new(threads: usize) -> Self {
        let mut probe = SpeedProbe {
            buffers: (0..threads.max(1)).map(|_| ProbeBuffers::new()).collect(),
            readings: Readings::default(),
        };
        probe.sample(0.0, 1);
        probe.take();
        probe
    }

    /// Times `rounds` rounds now (3.5 to 7 ms each on the reference box) and books them at `at_s`
    /// on the caller's clock. Calls must come in the order of that clock.
    pub fn sample(&mut self, at_s: f64, rounds: usize) {
        for _ in 0..rounds {
            let (mine, others) = self.buffers.split_first_mut().expect("at least one buffer");
            let started = Instant::now();
            std::thread::scope(|s| {
                for buffers in others {
                    s.spawn(|| buffers.work());
                }
                mine.work();
            });
            let ms = started.elapsed().as_secs_f64() * 1e3;
            self.readings.0.push((at_s, ms));
        }
    }

    /// The readings since the last call.
    pub fn take(&mut self) -> Readings {
        std::mem::take(&mut self.readings)
    }

    /// What the probe's buffers add to this process's resident memory, MiB.
    /// They are resident from `new` to the end of the run, so
    /// `peak_rss_mib() - resident_mib()` is the peak of everything else.
    pub fn resident_mib(&self) -> f64 {
        let (m, k, n) = PROBE_GEMM;
        let floats = self.buffers.len() * (m * k + k * n + m * n + PROBE_SWEEP_LEN);
        (floats * std::mem::size_of::<f32>()) as f64 / (1 << 20) as f64
    }
}

/// Rounds around a moment that tell the machine's speed at that moment:
/// with two rounds every half second, about a second and a half either way. Fewer
/// follow single rounds, which a burst of interference either catches whole
/// or misses; more lag behind a change of level (both measured; README,
/// "Reference speed").
const NEAREST_ROUNDS: usize = 12;

/// Probe rounds as (time on the caller's clock in seconds, duration in ms),
/// in time order.
#[derive(Debug, Default, Clone)]
pub struct Readings(Vec<(f64, f64)>);

/// Mean of `rounds_ms` without its highest and lowest tenth. An operation
/// takes the mean of the machine's speed while it lasts, so the mean it is;
/// but a round that was descheduled for 50 ms says nothing about speed.
fn trimmed_mean(rounds_ms: impl Iterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = rounds_ms.collect();
    sorted.sort_by(f64::total_cmp);
    let trim = sorted.len() / 10;
    let kept = &sorted[trim..sorted.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

impl Readings {
    /// The machine's speed over all the readings, as a multiple of the
    /// reference speed (below 1 on a slower or busier machine). A time
    /// measured among them, multiplied by this, is the time at reference
    /// speed.
    pub fn speed(&self) -> f64 {
        PROBE_REFERENCE_MS / trimmed_mean(self.0.iter().map(|r| r.1))
    }

    /// The machine's speed around `at_s`: over the [`NEAREST_ROUNDS`]
    /// consecutive readings centred there.
    pub fn speed_near(&self, at_s: f64) -> f64 {
        let window = NEAREST_ROUNDS.min(self.0.len());
        let after = self.0.partition_point(|r| r.0 < at_s);
        let first = after.saturating_sub(window / 2).min(self.0.len() - window);
        let nearest = &self.0[first..first + window];
        PROBE_REFERENCE_MS / trimmed_mean(nearest.iter().map(|r| r.1))
    }

    /// Speed of the slowest and the fastest single round.
    pub fn extremes(&self) -> (f64, f64) {
        let slowest = self.0.iter().map(|r| r.1).fold(0.0, f64::max);
        let fastest = self.0.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        (PROBE_REFERENCE_MS / slowest, PROBE_REFERENCE_MS / fastest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = cpu_seconds();
        assert!(before >= 0.0);
        assert!(peak_rss_mib() > 0.5);
        assert!(nproc() >= 1);
        assert!(peak_gflops(1) > 0.01);
        assert!(cpu_seconds() >= before);
    }

    #[test]
    fn speed_is_the_reference_over_the_trimmed_mean_of_the_rounds() {
        // Ten rounds at twice the reference time, one of them descheduled.
        let mut rounds = vec![(0.0, 2.0 * PROBE_REFERENCE_MS); 10];
        rounds[3].1 = 80.0;
        assert!((Readings(rounds).speed() - 0.5).abs() < 1e-12);
        // Half the rounds slow: the mean says so, a median would not.
        let mixed: Vec<(f64, f64)> = (0..20)
            .map(|i| (0.0, PROBE_REFERENCE_MS * if i % 2 == 0 { 1.0 } else { 1.5 }))
            .collect();
        assert!((Readings(mixed).speed() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn speed_near_follows_a_change_of_level() {
        // Two rounds every half second for 20 s; the machine halves its
        // speed at 10 s.
        let readings = Readings(
            (0..80)
                .map(|i| {
                    let at_s = f64::from(i / 2) * 0.5;
                    let slow = if at_s < 10.0 { 1.0 } else { 2.0 };
                    (at_s, PROBE_REFERENCE_MS * slow)
                })
                .collect(),
        );
        assert!((readings.speed_near(0.0) - 1.0).abs() < 1e-12);
        assert!((readings.speed_near(5.2) - 1.0).abs() < 1e-12);
        assert!((readings.speed_near(15.0) - 0.5).abs() < 1e-12);
        assert!((readings.speed_near(25.0) - 0.5).abs() < 1e-12);
        let across = readings.speed_near(10.0);
        assert!(0.5 < across && across < 1.0);
        assert_eq!(readings.extremes(), (0.5, 1.0));
        // Fewer readings than the window: all of them.
        let few = Readings(vec![(0.0, PROBE_REFERENCE_MS), (1.0, PROBE_REFERENCE_MS)]);
        assert!((few.speed_near(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probe_rounds_take_time_and_their_buffers_are_accounted() {
        let mut probe = SpeedProbe::new(2);
        probe.sample(1.5, 2);
        let readings = probe.take();
        assert_eq!(readings.0.len(), 2);
        assert!(readings.0.iter().all(|r| r.0 == 1.5 && r.1 > 0.0));
        assert!(readings.speed() > 0.0);
        assert!(probe.take().0.is_empty());
        // Two threads x (8 MiB sweep + 0.875 MiB of matrices).
        assert!((probe.resident_mib() - 17.75).abs() < 1e-9);
    }
}
