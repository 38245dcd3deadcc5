//! `megablocks-bench` — the bench crate's default binary: summarizers
//! for the observability artifacts a `repro` run writes.
//!
//! ```text
//! cargo run -p megablocks-bench -- health results/health_fig2.json
//! cargo run -p megablocks-bench -- trace results/trace_fig2.json
//! ```
//!
//! Subcommands:
//!   health  Summarize a results/health_<cmd>.json MoE health report.
//!   trace   Summarize a Chrome-trace JSON export (lanes, span counts).

use std::collections::BTreeMap;
use std::process::exit;

use megablocks_core::health::{parse_health_json, render_health_summary};
use megablocks_telemetry::{parse_chrome_trace, TracePhase};

fn usage() -> ! {
    eprintln!(
        "usage: megablocks-bench <health|trace> <path>\n\
         \n\
         health <health_json_path>\n\
         trace <trace_json_path>"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("health") => exit(health_cmd(&args[1..])),
        Some("trace") => exit(trace_cmd(&args[1..])),
        _ => usage(),
    }
}

fn health_cmd(args: &[String]) -> i32 {
    let Some(path) = args.first() else { usage() };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("health: cannot read {path}: {e}");
            return 2;
        }
    };
    match parse_health_json(&src) {
        Ok(records) => {
            print!("{}", render_health_summary(&records));
            if let Some(worst) = records
                .iter()
                .max_by(|a, b| a.imbalance.total_cmp(&b.imbalance))
            {
                println!(
                    "worst step: {} (imbalance {:.4}, padding overhead {:.4}, drop rate {:.4})",
                    worst.step, worst.imbalance, worst.padding_overhead, worst.drop_rate
                );
            }
            0
        }
        Err(e) => {
            eprintln!("health: cannot parse {path}: {e}");
            2
        }
    }
}

fn trace_cmd(args: &[String]) -> i32 {
    let Some(path) = args.first() else { usage() };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace: cannot read {path}: {e}");
            return 2;
        }
    };
    let snap = match parse_chrome_trace(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace: cannot parse {path}: {e}");
            return 2;
        }
    };
    println!(
        "{}: {} lanes, {} events ({} dropped)",
        path,
        snap.lanes.len(),
        snap.events.len(),
        snap.dropped_events
    );
    for lane in &snap.lanes {
        let n = snap.events.iter().filter(|e| e.tid == lane.tid).count();
        println!("  lane {:>3} {:<24} {n} events", lane.tid, lane.name);
    }
    // Top span families by total duration.
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for ev in &snap.events {
        if let TracePhase::Complete { dur_us } = ev.phase {
            let t = totals.entry(ev.name.as_str()).or_insert((0, 0));
            t.0 += 1;
            t.1 += dur_us;
        }
    }
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by_key(|(_, (_, total))| std::cmp::Reverse(*total));
    println!("top span families:");
    for (name, (calls, total_us)) in rows.into_iter().take(12) {
        println!("  {name:<34} {calls:>8} calls {total_us:>12} µs total");
    }
    println!("open in chrome://tracing or https://ui.perfetto.dev");
    0
}
