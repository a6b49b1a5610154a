//! Parser robustness: the two text formats the tools read from disk — trial
//! records (`replay`) and suite manifests (`campaign_server`) — reject
//! damaged input with an `Err`, never a panic.
//!
//! The record parser also rejects a trigger range the injector cannot
//! draw from and a machine the record's setup cannot boot or step on
//! (`SetupKind::check_machine`): too few CPUs or frames, a zero clock, or
//! more CPUs or memory than the paper machine, the largest one modelled.
//! A record that still parses must also replay to a `Result`.
//!
//! Every checked-in manifest must parse. The damaged inputs are the
//! golden trial records and the CI manifest, cut at every character
//! boundary and hit with random single-character edits (replace, insert,
//! delete), and a subtractive mechanism spelling hit with punctuation
//! edits. A manifest that still parses must also be runnable: every
//! sampled job's `windows` must be a valid coverage-map width, since the
//! engine would otherwise assert mid-suite after earlier jobs had run.

use nlh_campaign::{BootCache, ExecMode, MechanismSpec, SuiteSpec, TrialRecord, MAX_TRIGGER_OPS};
use proptest::prelude::*;

const RECORDS: [&str; 3] = [
    include_str!("data/golden_residual_trial.log"),
    include_str!("data/golden_virtio_residual_trial.log"),
    include_str!("data/golden_sched_residual_trial.log"),
];

const MANIFEST: &str = include_str!("../../experiments/manifests/ci_suite.manifest");

/// Characters the edits draw from: the formats' own punctuation, digits
/// (to hit numeric fields, `0` in particular), letters, whitespace and a
/// multi-byte character.
const ALPHABET: &[char] = &[
    '0', '1', '9', '=', ' ', '\n', '#', '.', ':', ',', '(', ')', '[', ']', '-', 'a', 'Z', 'é',
];

/// Parses a manifest and, if it parses, checks it is runnable.
fn check_manifest(text: &str) {
    if let Ok(suite) = SuiteSpec::parse(text) {
        for job in &suite.jobs {
            if let ExecMode::Sampled { windows, .. } = job.spec.mode {
                assert!(
                    windows > 0 && windows as u64 <= MAX_TRIGGER_OPS,
                    "job {:?} parsed with windows = {windows}",
                    job.spec.name
                );
            }
        }
    }
}

/// Applies one edit at character position `pos % len`: 0 replaces,
/// 1 inserts, 2 deletes.
fn mutate(text: &str, op: u8, pos: usize, ch: usize) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let pos = pos % chars.len().max(1);
    let ch = ALPHABET[ch % ALPHABET.len()];
    match op {
        0 if !chars.is_empty() => chars[pos] = ch,
        2 if !chars.is_empty() => {
            chars.remove(pos);
        }
        _ => chars.insert(pos, ch),
    }
    chars.into_iter().collect()
}

/// Every prefix of every input, cut at each character boundary.
fn truncations(text: &str) -> impl Iterator<Item = &str> {
    text.char_indices()
        .map(|(i, _)| &text[..i])
        .chain(std::iter::once(text))
}

#[test]
fn checked_in_inputs_parse() {
    for record in RECORDS {
        TrialRecord::from_text(record).expect("golden record parses");
    }
    let suite = SuiteSpec::parse(MANIFEST).expect("ci manifest parses");
    assert_eq!(suite.jobs.len(), 3);

    // Every checked-in manifest parses into a runnable suite with unique
    // job names (the engine rejects duplicates before running anything).
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../experiments/manifests");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("manifest directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|e| e != "manifest") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("manifest reads");
        let suite = SuiteSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert!(!suite.jobs.is_empty(), "{} has no jobs", path.display());
        check_manifest(&text);
        let mut names: Vec<&str> = suite.jobs.iter().map(|j| j.spec.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            suite.jobs.len(),
            "{} repeats a job name",
            path.display()
        );
        seen += 1;
    }
    assert!(seen >= 4, "found {seen} manifests in {dir}");
}

/// `record` with the first occurrence of `from` replaced by `to`.
fn edit(record: &str, from: &str, to: &str) -> String {
    assert!(record.contains(from), "{from:?} not in the record");
    record.replacen(from, to, 1)
}

/// Edits that used to parse and then panic in `replay`, or replay for
/// minutes: an empty or inverted trigger range, fewer CPUs than the setup
/// pins, less memory than its boot domains take, a zero clock frequency,
/// and more CPUs or memory than the paper machine has (the largest of
/// these used to panic in the boot scrub, or overflow the frame count).
#[test]
fn records_the_trial_cannot_run_are_errors() {
    let [one_app, vswitch, _] = RECORDS;
    let cases = [
        edit(one_app, "trigger_ops = 0..2000", "trigger_ops = 5..2"),
        edit(one_app, "trigger_ops = 0..2000", "trigger_ops = 0..0"),
        edit(one_app, "cpus=8", "cpus=0"),
        edit(one_app, "cpus=8", "cpus=1"),
        edit(vswitch, "cpus=8", "cpus=2"),
        edit(one_app, "mem_mib=64", "mem_mib=1"),
        edit(one_app, "freq_mhz=2500", "freq_mhz=0"),
        edit(one_app, "cpus=8", "cpus=18446744073709551615"),
        edit(one_app, "mem_mib=64", "mem_mib=18446744073709551615"),
        edit(one_app, "mem_mib=64", "mem_mib=4503599627370496"),
        edit(one_app, "mem_mib=64", "mem_mib=8193"),
        edit(one_app, "cpus=8", "cpus=9"),
    ];
    for text in &cases {
        assert!(TrialRecord::from_text(text).is_err(), "parsed:\n{text}");
    }
}

#[test]
fn every_truncation_returns_instead_of_panicking() {
    for record in RECORDS {
        for prefix in truncations(record) {
            let _ = TrialRecord::from_text(prefix);
        }
    }
    for prefix in truncations(MANIFEST) {
        check_manifest(prefix);
    }
}

/// The manifest is small enough to sweep exhaustively: every position
/// replaced by every alphabet character (this is what turns
/// `windows = 8` into `windows = 0`).
#[test]
fn every_manifest_replacement_parses_runnable_or_fails() {
    for pos in 0..MANIFEST.chars().count() {
        for ch in 0..ALPHABET.len() {
            check_manifest(&mutate(MANIFEST, 0, pos, ch));
        }
    }
}

/// A subtractive mechanism spelling with one `(`, `)`, `-` or `,` put in
/// at any position (replacing a character or inserted), or with any one
/// character deleted: every edit is an `Err`, never a panic and never some
/// other configuration.
#[test]
fn mutated_mechanism_spellings_fail() {
    const SPELLING: &str = "NiLiHype(-pfd_scan,discard=faulting)";
    let job = |mechanism: &str| {
        format!("[job a]\nsetup = ThreeAppVm\nfault = Code\ntrials = 1\nmechanism = {mechanism}")
    };
    assert!(SuiteSpec::parse(&job(SPELLING)).is_ok());
    let punctuation = ['(', ')', '-', ','].map(|c| ALPHABET.iter().position(|&a| a == c).unwrap());
    for pos in 0..SPELLING.len() {
        for (op, ch) in (0..3).flat_map(|op| punctuation.map(|ch| (op, ch))) {
            let line = mutate(SPELLING, op, pos, ch);
            if line != SPELLING {
                assert!(SuiteSpec::parse(&job(&line)).is_err(), "{line} parsed");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Single-character edits of the golden trial records. An edit that
    /// parses and names a known mechanism replays to a `Result`, as
    /// `replay --log` would run it.
    #[test]
    fn mutated_records_return_instead_of_panicking(
        which in 0usize..3,
        op in 0u8..3,
        pos in 0usize..4096,
        ch in 0usize..64,
    ) {
        if let Ok(record) = TrialRecord::from_text(&mutate(RECORDS[which], op, pos, ch)) {
            if let Some(mech) = MechanismSpec::parse(&record.mechanism) {
                let _ = record.replay(mech.build().as_ref(), &BootCache::new());
            }
        }
    }

    /// Single-character edits of the CI manifest: `Ok` or `Err`, and
    /// every `Ok` suite is runnable.
    #[test]
    fn mutated_manifests_parse_runnable_or_fail(
        op in 0u8..3,
        pos in 0usize..4096,
        ch in 0usize..64,
    ) {
        check_manifest(&mutate(MANIFEST, op, pos, ch));
    }
}
