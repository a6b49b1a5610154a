//! End-to-end checks of the benchmark itself, in process and at a tiny
//! scale: manifests, traced-versus-engine outcomes, the span tree, and the
//! metric names `BENCHMARK.json` promises.

use std::collections::BTreeSet;

use campaign_bench::json::Json;
use campaign_bench::trace::{name, Trace};
use campaign_bench::workload::{corpus, MAX_SEED, ROUND_STRIDE, WORKLOADS};
use campaign_bench::{run, Options, Report};
use nlh_campaign::SuiteSpec;

/// Trial-count multiplier that leaves one or two trials per cell.
const TINY: f64 = 0.02;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Json::arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::str)
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn manifests_parse_with_unique_job_names_and_documented_sizes() {
    // (workload, jobs, trials per round, base seed), as README.md documents.
    let expected = [
        ("ladder", 8, 600, 2018),
        ("fig2", 6, 180, 77),
        ("vswitch_steered", 6, 300, 2018),
        ("overcommit_steered", 6, 150, 2018),
    ];
    let listed = names(&benchmark_json(), "workloads");
    assert_eq!(listed, WORKLOADS.map(|w| w.name.to_string()));
    for (w, (wname, jobs, trials, seed)) in WORKLOADS.iter().zip(expected) {
        assert_eq!(w.name, wname);
        assert!(
            w.manifest.starts_with('#'),
            "{wname}: opens with its rationale"
        );
        let suite = SuiteSpec::parse(w.manifest).expect("manifest parses");
        assert_eq!(suite, w.base_suite().expect("valid for the bench"));
        let job_names: BTreeSet<&str> = suite.jobs.iter().map(|j| j.spec.name.as_str()).collect();
        assert_eq!(suite.jobs.len(), jobs, "{wname}: job count");
        assert_eq!(job_names.len(), jobs, "{wname}: job names are unique");
        assert_eq!(
            suite.jobs.iter().map(|j| j.spec.trials).sum::<u64>(),
            trials
        );
        assert!(
            suite.jobs.iter().all(|j| j.spec.seed == seed),
            "{wname}: seed"
        );
    }
}

#[test]
fn seeds_and_rounds_give_disjoint_trial_seeds() {
    let w = WORKLOADS[0];
    let seeds = |seed, round| -> Vec<u64> {
        let suite = w.suite(seed, round, 1.0).unwrap();
        let spec = &suite.jobs[0].spec;
        (spec.seed..spec.seed + spec.trials).collect()
    };
    assert_eq!(seeds(0, 0)[0], 2018, "round 0 at seed 0 is the manifest");
    let all = [seeds(0, 0), seeds(0, 1), seeds(1, 0), seeds(1, 1)].concat();
    assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
    assert_eq!(w.suite(1, 0, 1.0).unwrap(), w.suite(1, 0, 1.0).unwrap());
}

#[test]
fn every_seed_is_accepted_and_deterministic() {
    let w = WORKLOADS[0];
    let base = |seed| w.suite(seed, 0, 1.0).unwrap().jobs[0].spec.seed;
    for seed in [MAX_SEED + 1, 1 << 40, u64::MAX - 1, u64::MAX] {
        assert!(corpus(seed) <= MAX_SEED);
        assert_eq!(base(seed), base(seed), "seed {seed}");
        // The largest trial and round seeds stay in u64.
        let last = w.suite(seed, ROUND_STRIDE - 1, 1.0).unwrap();
        assert!(last
            .jobs
            .iter()
            .all(|j| j.spec.seed.checked_add(j.spec.trials).is_some()));
    }
    assert_eq!(corpus(MAX_SEED), MAX_SEED);
    assert_ne!(base(u64::MAX), base(u64::MAX - 1));
}

/// Spans nest inside their parents and share their trial id, siblings do
/// not overlap, and self times are non-negative and add up to the trial.
fn assert_well_formed(t: &Trace) {
    assert!(!t.spans.is_empty());
    let roots: Vec<_> = t.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), t.trials.len(), "one root per trial");
    assert!(roots.iter().all(|s| s.name == name::TRIAL));
    let mut last_child_end = vec![None; t.spans.len()];
    for (i, s) in t.spans.iter().enumerate() {
        assert!(s.start_ns <= s.end_ns, "{s:?}");
        if let Some(p) = s.parent {
            let parent = &t.spans[p];
            assert!(p < i, "parents precede children");
            assert_eq!(parent.trial, s.trial, "{s:?} and its parent share a trial");
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{s:?} nests"
            );
            if let Some(end) = last_child_end[p] {
                assert!(end <= s.start_ns, "siblings of {parent:?} overlap");
            }
            last_child_end[p] = Some(s.end_ns);
        }
    }
    let self_ns = t.self_times();
    assert!(
        self_ns.iter().all(|&n| n >= 0),
        "self times are non-negative"
    );
    for root in t.spans.iter().filter(|s| s.parent.is_none()) {
        let sum: i128 = t
            .spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.trial == root.trial)
            .map(|(_, n)| n)
            .sum();
        assert_eq!(
            sum,
            i128::from(root.ns()),
            "self times add up to trial {}",
            root.trial
        );
    }
}

fn assert_result_line(report: &Report, expected: &[String]) {
    let line = Json::parse(&report.result_line()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics: Vec<&str> = line
        .get("metrics")
        .and_then(Json::obj)
        .unwrap()
        .iter()
        .map(|(k, v)| {
            assert!(
                v.get("value").and_then(Json::num).is_some(),
                "{k} has a value"
            );
            assert!(
                v.get("unit").and_then(Json::str).is_some(),
                "{k} has a unit"
            );
            k.as_str()
        })
        .collect();
    assert_eq!(metrics, expected);
    for m in metrics {
        assert!(
            m.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {m:?}"
        );
    }
}

#[test]
fn every_workload_traces_like_the_engine_and_prints_every_metric() {
    let doc = benchmark_json();
    for w in WORKLOADS {
        let opts = |trace| Options {
            workload: w,
            seed: 5,
            seconds: 0.0,
            trace,
            scale: TINY,
        };
        let e2e = run(&opts(false)).expect("end-to-end run");
        assert!(
            e2e.correct && e2e.failed == 0,
            "{}: {:?}",
            w.name,
            e2e.notes
        );
        assert!(e2e.attempted >= w.base_suite().unwrap().jobs.len() as u64);
        assert_result_line(&e2e, &names(&doc, "end_to_end"));

        let traced = run(&opts(true)).expect("traced run");
        assert!(
            traced.correct && traced.failed == 0,
            "{}: traced outcomes equal the engine's: {:?}",
            w.name,
            traced.notes
        );
        assert_result_line(&traced, &names(&doc, "per_layer"));
        assert_well_formed(traced.trace.as_ref().expect("spans"));
    }
}
