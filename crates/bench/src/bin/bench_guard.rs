//! CI bench regression guard: diffs a fresh `BENCH_stepper.json` against
//! the checked-in `BENCH_floors.json` and fails (exit 1) when any
//! section's `steps_per_sec` falls more than 10% below its floor, or when
//! any other integer the floors pin for a section — the step count, a
//! determinism counter (`state_digest`, `frames_forwarded`,
//! `sched_mutations`) or a batched-loop tier counter (`tier_*`) —
//! differs from its golden value over the same window.
//!
//! Floors are deliberately conservative (see the comment in
//! `BENCH_floors.json`): the guard exists to catch dispatch-path
//! regressions of the kind PRs 5–10 optimized away, not to pin exact
//! machine-dependent rates. The exact counters are what pins the work.
//!
//! Usage: `bench_guard [--fresh PATH] [--floors PATH]`
//!
//! The JSON involved is the benchmark's own flat two-level output, so the
//! guard reads it with a small string scanner instead of pulling in a
//! JSON dependency.

/// Extracts the text of the top-level object named `section` (from its
/// opening `{` to the matching `}`) out of a flat two-level JSON document.
fn section<'a>(doc: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\"");
    let at = doc.find(&key)?;
    let open = at + doc[at..].find('{')?;
    let close = open + doc[open..].find('}')?;
    Some(&doc[open..=close])
}

/// Extracts an integer field `name` from a JSON object's text. Fractional
/// digits (allocs ratios) are not handled — the guard only reads counts
/// and rates, which the benchmark prints as integers.
fn field(obj: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\"");
    let at = obj.find(&key)?;
    let rest = &obj[at + key.len()..];
    let colon = rest.find(':')?;
    let digits: String = rest[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The names of an object's fields whose values are integers.
fn int_fields(obj: &str) -> Vec<&str> {
    obj.split('"')
        .collect::<Vec<_>>()
        .windows(3)
        .filter(|w| {
            w[2].trim_start()
                .strip_prefix(':')
                .is_some_and(|v| v.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        })
        .map(|w| w[1])
        .collect()
}

fn main() {
    let mut fresh_path = String::from("BENCH_stepper.json");
    let mut floors_path = String::from("BENCH_floors.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fresh" => fresh_path = args.next().expect("--fresh PATH"),
            "--floors" => floors_path = args.next().expect("--floors PATH"),
            other => panic!("unknown argument {other}"),
        }
    }
    let fresh = std::fs::read_to_string(&fresh_path)
        .unwrap_or_else(|e| panic!("cannot read {fresh_path}: {e}"));
    let floors = std::fs::read_to_string(&floors_path)
        .unwrap_or_else(|e| panic!("cannot read {floors_path}: {e}"));

    let mut failures = Vec::new();
    let mut checked = 0;

    for name in ["per_step", "batched", "virtio", "overcommit", "three_appvm"] {
        let fl =
            section(&floors, name).unwrap_or_else(|| panic!("floors file has no section {name}"));
        let fr =
            section(&fresh, name).unwrap_or_else(|| panic!("fresh bench has no section {name}"));
        let floor = field(fl, "steps_per_sec")
            .unwrap_or_else(|| panic!("floors section {name} has no steps_per_sec"));
        let rate = field(fr, "steps_per_sec")
            .unwrap_or_else(|| panic!("fresh section {name} has no steps_per_sec"));
        // >10% regression below the floor fails.
        let cutoff = floor / 10 * 9;
        if rate < cutoff {
            failures.push(format!(
                "{name}: {rate} steps/s is more than 10% below the floor of {floor}"
            ));
        } else {
            println!("bench_guard: {name} ok ({rate} steps/s, floor {floor})");
        }
        checked += 1;

        // Every other integer the floors pin is an exact golden of the
        // section's fixed window.
        for counter in int_fields(fl) {
            if counter == "steps_per_sec" {
                continue;
            }
            let want = field(fl, counter).expect("listed as an integer field");
            match field(fr, counter) {
                Some(got) if got == want => {
                    println!("bench_guard: {name}.{counter} ok ({got})");
                }
                got => failures.push(format!(
                    "{name}.{counter}: expected exactly {want}, got {got:?}"
                )),
            }
        }
    }

    assert!(checked > 0, "no sections checked");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_guard: FAIL {f}");
        }
        std::process::exit(1);
    }
    println!("bench_guard: all sections within 10% of their floors");
}
