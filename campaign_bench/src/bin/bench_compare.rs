//! `bench_compare`: compares two sets of `campaign_bench` runs.
//!
//! ```text
//! bench_compare BASE_DIR NEW_DIR [BENCHMARK_JSON]
//! ```
//!
//! Each directory holds one file per run, named `<workload>.<anything>`
//! (for example `ladder.3.json`), whose last non-empty line is the run's
//! JSON result. Runs pair up in file-name order. For every workload and
//! every end-to-end metric in `BENCHMARK_JSON` (default `BENCHMARK.json`)
//! it prints each side's median and quartiles, the share of pairs the new
//! side won, and a verdict (see `campaign_bench::compare`). Exits 1 when a
//! metric regressed or is unresolved, or a run reported a failed check.

use std::collections::BTreeMap;
use std::process::ExitCode;

use campaign_bench::compare::{compare, Verdict};
use campaign_bench::json::Json;

struct MetricSpec {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// Run results by workload, each in file-name order.
type Runs = BTreeMap<String, Vec<Json>>;

fn end_to_end_metrics(path: &str) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("{path}: metric without {k}"))
            };
            Ok(MetricSpec {
                name: field("name")?
                    .str()
                    .ok_or("metric name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.str() == Some("higher"),
                bound: field("bound")?.num().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

fn load_runs(dir: &str) -> Result<Runs, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let mut runs = Runs::new();
    for path in files {
        let file = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or_default();
        let workload = file.split('.').next().unwrap_or_default().to_string();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let result = Json::parse(last).map_err(|e| format!("{}: {e}", path.display()))?;
        runs.entry(workload).or_default().push(result);
    }
    Ok(runs)
}

/// Runs whose result reports a failed check.
fn failed_runs(runs: &[Json]) -> usize {
    runs.iter()
        .filter(|r| {
            r.get("correct") != Some(&Json::Bool(true))
                || r.get("failed").and_then(Json::num) != Some(0.0)
        })
        .count()
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.num())
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !(2..=3).contains(&args.len()) {
        eprintln!("usage: bench_compare BASE_DIR NEW_DIR [BENCHMARK_JSON]");
        return ExitCode::from(2);
    }
    let benchmark = args.get(2).map_or("BENCHMARK.json", String::as_str);
    let loaded = end_to_end_metrics(benchmark)
        .and_then(|m| Ok((m, load_runs(&args[0])?, load_runs(&args[1])?)));
    let (metrics, base, new) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            return ExitCode::from(2);
        }
    };

    let mut ok = true;
    println!(
        "{:<20} {:<14} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "wins"
    );
    for (workload, base_runs) in &base {
        let Some(new_runs) = new.get(workload) else {
            println!("{workload:<20} missing from {}", args[1]);
            ok = false;
            continue;
        };
        for (side, runs) in [("base", base_runs), ("new", new_runs)] {
            let failed = failed_runs(runs);
            if failed > 0 {
                println!("{workload:<20} {failed} {side} run(s) reported failed checks");
                ok = false;
            }
        }
        for m in &metrics {
            let (b, n) = (values(base_runs, &m.name), values(new_runs, &m.name));
            let Some(c) = compare(&b, &n, m.higher_is_better, m.bound) else {
                println!("{workload:<20} {:<14} no values", m.name);
                ok = false;
                continue;
            };
            let side = |s: campaign_bench::compare::Summary| {
                format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3)
            };
            println!(
                "{workload:<20} {:<14} {:>34} {:>34} {:>6}  {}",
                m.name,
                side(c.base),
                side(c.new),
                format!("{}/{}", c.wins, c.pairs),
                c.verdict
            );
            ok &= matches!(c.verdict, Verdict::Improved | Verdict::Unchanged);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
