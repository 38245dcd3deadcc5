//! The repository's one benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--check] [--agree]
//! ```
//!
//! Without `--workload`, every workload runs in a child process of its own
//! (fresh worker pool, its own set-up time and peak memory). With it, this
//! process measures that one workload and prints, as its last line, the
//! result object the driver reads.

mod api;
mod metrics;
mod replay;
mod stats;
mod sys;
mod trace;
mod workload;

use std::ffi::OsString;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::{Better, Def, Values, END_TO_END, PER_LAYER, WORKLOADS};
use sys::PROBE_REFERENCE_MS;
use workload::{Phase, Scale};

/// Seconds one run measures when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Seconds per workload under `--check`.
const CHECK_SECONDS: f64 = 0.3;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Seconds of workload between two samples of the speed probe: short enough
/// that the samples cover the run evenly, long enough that a serving slice
/// is not all ramp-up and drain.
const SLICE_SECONDS: f64 = 0.5;
/// Probe rounds per sample: with the slices above, about 2% of the run.
const ROUNDS_PER_SAMPLE: usize = 2;
/// Untraced/traced slice pairs of a traced run.
const TRACE_ALTERNATIONS: usize = 2;
/// Most exec threads the benchmark uses.
const MAX_THREADS: usize = 4;
/// Prefix of the environment variables that reconfigure the product.
const PRODUCT_ENV_PREFIX: &str = "MEGABLOCKS_";

const USAGE: &str = "usage: megablocks-benchmark [--workload W] [--seed S] [--seconds N] \
[--trace [0|1]] [--check] [--agree]
  --workload W   measure one of: train_dmoe train_dense serve_steady serve_saturated lm_generate
  --seed S       workload seed (default 1)
  --seconds N    seconds one run measures (default 20)
  --trace [0|1]  also (or, with --workload, instead) run traced and print per-layer metrics
  --check        every workload at toy size with all correctness checks, in a few seconds
  --agree        two full sets back to back, compared against the metrics' bounds";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    check: bool,
    agree: bool,
    toy: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        check: false,
        agree: false,
        toy: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                let raw = value("a number")?;
                args.seed = raw.parse().map_err(|_| format!("bad seed {raw}"))?;
            }
            "--seconds" => {
                let raw = value("a number")?;
                let seconds: f64 = raw.parse().map_err(|_| format!("bad seconds {raw}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds {raw} outside (0, 600]"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check" => args.check = true,
            "--agree" => args.agree = true,
            // Set by `--check` on its children.
            "--toy" => args.toy = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => measure(name, &args),
        None => orchestrate(&args),
    }
}

// --- one workload, in this process ------------------------------------------

/// Where `trace_<workload>.json` goes: `out/` beside this package's
/// manifest. `cargo run` tells the program where that is; a binary started
/// by hand falls back to where it was built.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

fn print_phase_problems(phase: &Phase, problems: &[String]) {
    for why in phase.failures.iter().chain(problems) {
        println!("  FAILED: {why}");
    }
}

/// The timed metrics of one untraced phase, as measured (`readings` =
/// `None`) or at reference speed: each operation's duration, and the stretch
/// of the clock up to its completion, multiplied by the machine's speed
/// around it (`sys::SpeedProbe`). A token rate the workload imposes is no
/// measure of speed and keeps the clock as it ran.
fn timed_metrics(phase: &Phase, readings: Option<&sys::Readings>, rate_is_imposed: bool) -> Values {
    let mut clock = Vec::with_capacity(phase.ops.len());
    let mut op_ms = Vec::with_capacity(phase.ops.len());
    let (mut now_s, mut previous_s) = (0.0, 0.0);
    for op in &phase.ops {
        let speed = readings.map_or(1.0, |r| r.speed_near(op.done_s));
        op_ms.push(op.ms * speed);
        now_s += (op.done_s - previous_s) * if rate_is_imposed { 1.0 } else { speed };
        previous_s = op.done_s;
        clock.push(now_s);
    }
    let tokens: Vec<u64> = phase.ops.iter().map(|op| op.tokens).collect();
    let cpu_s = phase.cpu_s * readings.map_or(1.0, sys::Readings::speed);
    let mut values = Values::default();
    values.set("tokens_per_s", stats::segment_median_rate(&clock, &tokens));
    values.set("op_ms_p50", stats::segment_median_percentile(&op_ms, 50.0));
    values.set("op_ms_p90", stats::segment_median_percentile(&op_ms, 90.0));
    values.set(
        "cpu_ms_per_ktok",
        cpu_s * 1e3 / (phase.tokens() as f64 / 1e3),
    );
    values
}

/// The environment variables set for this process that reconfigure the
/// product.
fn product_env_keys() -> impl Iterator<Item = OsString> {
    std::env::vars_os().map(|(key, _)| key).filter(|key| {
        key.to_str()
            .is_some_and(|k| k.starts_with(PRODUCT_ENV_PREFIX))
    })
}

fn measure(name: &str, args: &Args) -> ExitCode {
    // A leaked product setting would silently measure another configuration.
    if let Some(key) = product_env_keys().next() {
        eprintln!(
            "error: {} is set; the benchmark measures the product defaults, unset it",
            key.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let threads = sys::nproc().min(MAX_THREADS);
    assert!(
        api::configure_threads(threads),
        "exec runtime was resolved before the benchmark configured it"
    );
    let scale = if args.toy {
        Scale::toy()
    } else {
        Scale::full()
    };
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let machine = sys::Machine::collect(threads, args.seed);
    println!(
        "== {name}: seed {} | {seconds} s | {} | nproc {} threads {} | {} | git {}",
        machine.seed,
        if args.trace { "traced" } else { "untraced" },
        machine.nproc,
        machine.threads,
        machine.rustc,
        machine.git_rev
    );
    let peak_before = sys::peak_gflops(threads);
    if args.trace {
        measure_traced(name, args, scale, seconds, &machine, peak_before)
    } else {
        measure_untraced(name, args, scale, seconds, &machine, peak_before)
    }
}

fn measure_untraced(
    name: &str,
    args: &Args,
    scale: Scale,
    seconds: f64,
    machine: &sys::Machine,
    peak_before: f64,
) -> ExitCode {
    let mut probe = sys::SpeedProbe::new(machine.threads);

    // Set up several times and report the median: the first set-up also pays
    // for starting the pool and faulting memory in.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    let setup_clock = Instant::now();
    probe.sample(0.0, ROUNDS_PER_SAMPLE);
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(workload::setup(name, args.seed, scale));
        setups.push(started.elapsed().as_secs_f64());
        probe.sample(setup_clock.elapsed().as_secs_f64(), ROUNDS_PER_SAMPLE);
    }
    let mut workload = workload.expect("at least one set-up");
    let setup_s = stats::median(&setups);
    let setup_speed = probe.take().speed();

    // The run, in slices with the speed probe between them, on a clock that
    // stands still while the probe runs.
    let mut phase = Phase::default();
    while phase.wall_s < seconds {
        probe.sample(phase.wall_s, ROUNDS_PER_SAMPLE);
        phase.absorb(workload.run(SLICE_SECONDS.min(seconds - phase.wall_s), None));
    }
    probe.sample(phase.wall_s, ROUNDS_PER_SAMPLE);
    let readings = probe.take();

    let problems = workload.verify(&mut phase);
    let mut values = timed_metrics(&phase, Some(&readings), workload.rate_is_imposed());
    values.set("setup_s", setup_s * setup_speed);
    values.set("peak_rss_mb", sys::peak_rss_mib() - probe.resident_mib());
    let mut as_measured = timed_metrics(&phase, None, true);
    as_measured.set("setup_s", setup_s);
    let correct = phase.failed == 0 && problems.is_empty() && !phase.ops.is_empty();

    let op_ms = phase.op_ms();
    let tail = stats::tail_percentile(op_ms.len()).map_or_else(
        || "none has ten samples beyond it".to_owned(),
        |p| format!("p{p} = {:.4} ms", stats::percentile(&op_ms, p)),
    );
    println!(
        "  operations: {} attempted, {} failed; {} timed samples; as measured, the highest \
         supported percentile: {tail}; max {:.4} ms",
        phase.attempted,
        phase.failed,
        op_ms.len(),
        stats::percentile(&op_ms, 100.0)
    );
    print!("{}", metrics::table(&END_TO_END, &values));
    let (slowest, fastest) = readings.extremes();
    println!(
        "  times and rates above are at reference speed (speed probe = {PROBE_REFERENCE_MS} ms); \
         this machine ran at {:.3} of it during the run (slowest probe round {slowest:.3}, \
         fastest {fastest:.3}) and at {setup_speed:.3} during set-up. As measured:",
        readings.speed()
    );
    for def in &END_TO_END {
        if let Some(v) = as_measured.get(def.name) {
            println!("    {:<32} {v:>14.4} {}", def.name, def.unit);
        }
    }
    let mut observed = Values::default();
    workload.observed(&mut observed);
    if let Some(loss) = observed.get("transformer.eval_loss") {
        println!(
            "  validation loss after {} steps: {loss} nats",
            scale.eval_at_step
        );
    }
    let drift = (sys::peak_gflops(machine.threads) - peak_before).abs() / peak_before;
    println!(
        "  cpu_util {:.2} cores | calib.peak_gflops {peak_before:.2} drift {drift:.3}{}",
        phase.cpu_s / phase.wall_s,
        if drift > 0.1 {
            "  WARNING: the machine changed speed during the run"
        } else {
            ""
        }
    );
    print_phase_problems(&phase, &problems);
    println!(
        "{}",
        metrics::result_line(&END_TO_END, &values, correct, phase.attempted, phase.failed)
    );
    ExitCode::SUCCESS
}

fn measure_traced(
    name: &str,
    args: &Args,
    scale: Scale,
    seconds: f64,
    machine: &sys::Machine,
    peak_before: f64,
) -> ExitCode {
    let mut workload = workload::setup(name, args.seed, scale);
    let rec = trace::Recorder::new();
    // The same operations without and with spans, a quarter of the run each,
    // in alternating slices so that a machine that changes speed half-way
    // slows both kinds alike; the replay gets the rest.
    let slice = seconds / (4 * TRACE_ALTERNATIONS) as f64;
    let mut untraced = Phase::default();
    let mut traced = Phase::default();
    for _ in 0..TRACE_ALTERNATIONS {
        untraced.absorb(workload.run(slice, None));
        traced.absorb(workload.run(slice, Some(&rec)));
    }
    let mut problems = workload.verify(&mut traced);

    let mut values = Values::default();
    values.set("calib.peak_gflops", peak_before);
    values.set("calib.stream_gbs", sys::stream_gbs(machine.threads));
    values.set("proc.cpu_util", traced.cpu_s / traced.wall_s);
    let untraced_p50 = stats::segment_median_percentile(&untraced.op_ms(), 50.0);
    values.set(
        "trace.overhead_frac",
        stats::segment_median_percentile(&traced.op_ms(), 50.0) / untraced_p50 - 1.0,
    );
    workload.observed(&mut values);
    let covered_ms = rec.scope("replay", 0, 0, |root| {
        workload.replay(&replay::Replayer::new(&rec, root), &mut values)
    });
    match covered_ms {
        Ok(ms) => values.set("trace.coverage_frac", ms / untraced_p50),
        Err(why) => problems.push(format!("replay failed: {why}")),
    }
    let peak_after = sys::peak_gflops(machine.threads);
    values.set(
        "calib.drift_frac",
        (peak_after - peak_before).abs() / peak_before,
    );

    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    let correct = failed == 0 && problems.is_empty() && !traced.ops.is_empty();
    print!("{}", metrics::table(&PER_LAYER, &values));
    if let Some(coverage) = values.get("trace.coverage_frac") {
        if !(0.8..=1.2).contains(&coverage) {
            println!(
                "  WARNING: trace.coverage_frac {coverage:.2} is outside 0.8-1.2: \
                 the replayed layers do not add up to the operation"
            );
        }
    }
    println!("  span                              calls     total ms      self ms");
    let spans = rec.spans();
    for (span, calls, total_us, self_us) in trace::summarize(&spans) {
        println!(
            "  {span:<32} {calls:>6} {:>12.3} {:>12.3}",
            total_us / 1e3,
            self_us / 1e3
        );
    }
    print_phase_problems(&untraced, &[]);
    print_phase_problems(&traced, &problems);

    let dir = out_dir();
    let path = dir.join(format!("trace_{name}.json"));
    let header = format!(
        "\"workload\": \"{name}\", {}, \"seconds\": {seconds}",
        machine.json_fields()
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::render_json(&header, &spans)));
    match written {
        Ok(()) => println!("  {} spans written to {}", spans.len(), path.display()),
        Err(why) => println!("  WARNING: could not write {}: {why}", path.display()),
    }
    println!(
        "{}",
        metrics::result_line(&PER_LAYER, &values, correct, attempted, failed)
    );
    ExitCode::SUCCESS
}

// --- every workload, each in a child process ---------------------------------

/// One child's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: api::Json,
}

impl ChildResult {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric)?.get("value")?.as_f64()
    }
}

/// Runs this program again for one workload, with every product setting
/// removed from its environment, passes its output through and parses its
/// last line.
fn run_child(name: &str, args: &Args, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.check {
        command.arg("--toy");
    }
    for key in product_env_keys() {
        command.env_remove(key);
    }
    let output = command
        .output()
        .map_err(|e| format!("{name}: could not start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((body, last)) => (body, last),
        None => ("", stdout.trim_end()),
    };
    println!("{body}");
    if !output.status.success() {
        return Err(format!("{name}: child exited with {}", output.status));
    }
    let json = api::parse_json(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let field = |key: &str| json.get(key).ok_or(format!("{name}: result lacks {key}"));
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics: field("metrics")?.clone(),
    })
}

/// One full set: every workload untraced, then (with `--trace`) traced.
/// Returns the untraced results by workload, or the failures.
fn run_set(args: &Args, seconds: f64) -> (Vec<(&'static str, ChildResult)>, Vec<String>) {
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for name in WORKLOADS {
        let runs: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &traced in runs {
            match run_child(name, args, seconds, traced) {
                Ok(result) => {
                    if !result.correct || result.failed > 0 {
                        failures.push(format!(
                            "{name}{}: {} of {} operations failed, correct = {}",
                            if traced { " (traced)" } else { "" },
                            result.failed,
                            result.attempted,
                            result.correct
                        ));
                    }
                    if !traced {
                        results.push((name, result));
                    }
                }
                Err(why) => failures.push(why),
            }
        }
    }
    (results, failures)
}

fn print_summary(results: &[(&'static str, ChildResult)]) {
    println!("\n== summary: end-to-end metrics by workload");
    print!("  {:<16}", "workload");
    for def in END_TO_END {
        print!(" {:>16}", format!("{} [{}]", def.name, def.unit));
    }
    println!(" {:>14}", "ops failed/att");
    for (name, result) in results {
        print!("  {name:<16}");
        for def in END_TO_END {
            print!(" {:>16.4}", result.value(def.name).unwrap_or(f64::NAN));
        }
        println!(" {:>14}", format!("{}/{}", result.failed, result.attempted));
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(def: &Def, first: f64, second: f64) -> f64 {
    match def.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

fn orchestrate(args: &Args) -> ExitCode {
    let seconds = match (args.seconds, args.check) {
        (Some(seconds), _) => seconds,
        (None, true) => CHECK_SECONDS,
        (None, false) => DEFAULT_SECONDS,
    };
    let (first, mut failures) = run_set(args, seconds);
    print_summary(&first);
    if args.agree {
        let (second, more) = run_set(args, seconds);
        failures.extend(more);
        print_summary(&second);
        println!("\n== agreement of the two sets (difference as a share of the first)");
        for ((name, a), (_, b)) in first.iter().zip(&second) {
            for def in &END_TO_END {
                let (Some(x), Some(y)) = (a.value(def.name), b.value(def.name)) else {
                    failures.push(format!("{name}: {} missing from a set", def.name));
                    continue;
                };
                let diff = worsening(def, x, y);
                let breach = diff.abs() > def.bound;
                println!(
                    "  {name:<16} {:<16} {x:>14.4} {y:>14.4} {:>+8.2}%  bound {:>4.0}%{}",
                    def.name,
                    100.0 * diff,
                    100.0 * def.bound,
                    if breach { "  BREACH" } else { "" }
                );
                if breach {
                    failures.push(format!("{name}: {} disagrees between the sets", def.name));
                }
            }
        }
    }
    if failures.is_empty() {
        println!("\nall workloads correct");
        ExitCode::SUCCESS
    } else {
        for why in &failures {
            println!("FAILED: {why}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(argv: &[&str]) -> Result<Args, String> {
        parse_args(&argv.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parsed(&[
            "--workload",
            "serve_steady",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(args.workload.as_deref(), Some("serve_steady"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (7, Some(20.0), false)
        );
        assert!(parsed(&["--trace", "1"]).expect("parses").trace);
        // A bare --trace means traced; the next flag is not swallowed.
        let args = parsed(&["--trace", "--check"]).expect("parses");
        assert!(args.trace && args.check);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parsed(&["--workload", "nope"]).is_err());
        assert!(parsed(&["--seed"]).is_err());
        assert!(parsed(&["--seconds", "0"]).is_err());
        assert!(parsed(&["--seconds", "abc"]).is_err());
        assert!(parsed(&["--frobnicate"]).is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END[2];
        let higher = END_TO_END[1];
        assert_eq!(
            (lower.better, higher.better),
            (Better::Lower, Better::Higher)
        );
        assert!((worsening(&lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(&higher, 100.0, 120.0) < 0.0);
    }
}
