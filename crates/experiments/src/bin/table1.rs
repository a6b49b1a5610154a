//! **Table I** — NiLiHype's enhancement ladder (Section V-B).
//!
//! For each cumulative enhancement rung, runs a 1AppVM / UnixBench /
//! fail-stop campaign and reports the successful recovery rate, next to the
//! paper's measured value. Paper scale: ~1000 trials per rung.
//!
//! The eight rung campaigns are submitted to one resident
//! [`nlh_campaign::CampaignEngine`], so the boot template is built once
//! and shared across every rung.

use nlh_campaign::CampaignEngine;
use nlh_experiments::{hr, pct, print_latency, print_throughput, ExpOptions};

fn main() {
    let opts = ExpOptions::from_args();
    let trials = opts.count(300, 1000);
    println!("Table I: NiLiHype incremental enhancement ladder");
    println!("(1AppVM, UnixBench, fail-stop faults, {trials} trials per rung)");
    hr();
    println!("{:55} {:>12} {:>8}", "Mechanism", "Measured", "Paper");
    hr();
    let engine = CampaignEngine::new();
    let rows = nlh_campaign::run_ladder_on(&engine, trials, opts.seed);
    for row in &rows {
        let paper = row
            .rung
            .paper_rate()
            .map(|r| format!("{:.1}%", r * 100.0))
            .unwrap_or_else(|| "~97%".to_string());
        println!(
            "{:55} {:>12} {:>8}",
            row.rung.label(),
            pct(row.result.success_rate()),
            paper
        );
    }
    hr();
    if let Some(top) = rows.last() {
        print_throughput("top rung", &top.result.telemetry);
        print_latency("top rung", &top.result.telemetry);
    }
}
