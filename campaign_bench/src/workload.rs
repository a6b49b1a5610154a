//! The benchmark's workloads: campaign-suite manifests under `workloads/`,
//! their seed-derived inputs, and the outcome digests that pin them.

use nlh_campaign::{
    BootMode, CampaignSpec, CellOutput, JobOutcome, SampledCampaign, StopPolicy, SuiteSpec,
    TrialClass, TrialResult,
};
use nlh_sim::digest::Fnv64;

/// Distance between the job seeds of consecutive rounds. Larger than any
/// cell's trial count, so no trial seed repeats across rounds.
pub const ROUND_STRIDE: u64 = 1 << 16;

/// Distance between the job seeds of consecutive `--seed` values, so each
/// seed gets its own trial corpus for up to `SEED_STRIDE / ROUND_STRIDE`
/// rounds.
pub const SEED_STRIDE: u64 = 1 << 32;

/// Largest `--seed` used as its own corpus index (see [`corpus`]), keeping
/// every derived trial seed in `u64`.
pub const MAX_SEED: u64 = (1 << 24) - 1;

/// The trial corpus a `--seed` selects: seeds up to [`MAX_SEED`] are their
/// own index, larger ones are hashed into `0..=MAX_SEED`, so every `u64`
/// seed is accepted and the same seed always gives the same trials.
pub fn corpus(seed: u64) -> u64 {
    if seed <= MAX_SEED {
        return seed;
    }
    let mut h = Fnv64::new();
    h.write_u64(seed);
    h.finish() % (MAX_SEED + 1)
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// The manifest text (`SuiteSpec::parse` format).
    pub manifest: &'static str,
    /// Outcome digest of round 0 at `--seed 0`, full scale.
    pub golden: u64,
}

/// Every workload, in the order the benchmark runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ladder",
        manifest: include_str!("../workloads/ladder.manifest"),
        golden: 0x98c7_0aec_6294_323e,
    },
    Workload {
        name: "fig2",
        manifest: include_str!("../workloads/fig2.manifest"),
        golden: 0xb4d5_7c0a_55d9_71b6,
    },
    Workload {
        name: "vswitch_steered",
        manifest: include_str!("../workloads/vswitch_steered.manifest"),
        golden: 0x3413_8d6d_9ddb_a7df,
    },
    Workload {
        name: "overcommit_steered",
        manifest: include_str!("../workloads/overcommit_steered.manifest"),
        golden: 0x0a1f_fbf4_e780_4e9b,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The manifest as written, validated for what the benchmark relies
    /// on: fixed trial counts below [`ROUND_STRIDE`] and warm boots, so a
    /// bench-driven trace can replay exactly what the engine ran.
    pub fn base_suite(&self) -> Result<SuiteSpec, String> {
        let suite = SuiteSpec::parse(self.manifest)?;
        for job in &suite.jobs {
            let s = &job.spec;
            if s.stop != StopPolicy::FixedTrials || s.boot != BootMode::Warm {
                return Err(format!(
                    "job {}: the benchmark needs fixed trials and warm boots",
                    s.name
                ));
            }
            if s.trials == 0 || s.trials >= ROUND_STRIDE {
                return Err(format!(
                    "job {}: trials must be in 1..{ROUND_STRIDE}",
                    s.name
                ));
            }
        }
        Ok(suite)
    }

    /// The suite one round runs: every job's base seed offset by the
    /// [`corpus`] of `seed` and by `round`, and its trial count multiplied
    /// by `scale` (at least one trial per cell). Round 0 at seed 0 and
    /// scale 1 is the manifest as written.
    pub fn suite(&self, seed: u64, round: u64, scale: f64) -> Result<SuiteSpec, String> {
        let seed = corpus(seed);
        if round >= SEED_STRIDE / ROUND_STRIDE {
            return Err(format!("round {round} would reuse another seed's trials"));
        }
        let mut suite = self.base_suite()?;
        for job in &mut suite.jobs {
            let s = &mut job.spec;
            s.seed += seed * SEED_STRIDE + round * ROUND_STRIDE;
            s.trials = ((s.trials as f64 * scale).round() as u64).max(1);
        }
        Ok(suite)
    }
}

/// The outcome digest of a finished suite: an FNV-1a hash over each cell
/// in run order. A sharded cell contributes every trial's class,
/// injection outcome, step count and simulated recovery latency; a
/// sampled cell its successes, failures, first-failure index and coverage
/// map. Any change to a simulated statistic changes the digest.
pub fn digest(outcomes: &[JobOutcome]) -> u64 {
    let mut h = Fnv64::new();
    for job in outcomes {
        h.write(job.name.as_bytes());
        h.write_u64(job.cell.executed);
        match &job.cell.output {
            CellOutput::Sharded(_) => {
                for r in &job.cell.per_trial {
                    digest_trial(&mut h, r);
                }
            }
            CellOutput::Sampled(s) => digest_sampled(&mut h, s),
        }
    }
    h.finish()
}

fn digest_trial(h: &mut Fnv64, r: &TrialResult) {
    h.write(format!("{:?}|{:?}|", r.class, r.injection).as_bytes());
    h.write_u64(r.steps);
    h.write_u64(
        r.recovery
            .as_ref()
            .map_or(u64::MAX, |rep| rep.total.as_nanos()),
    );
}

fn digest_sampled(h: &mut Fnv64, s: &SampledCampaign) {
    h.write_u64(s.trials);
    h.write_u64(s.successes);
    h.write_u64(s.failures);
    h.write_u64(s.first_failure_trial.unwrap_or(u64::MAX));
    h.write(s.coverage.to_json().as_bytes());
}

/// Whether two sampled campaigns agree on every statistic the digest
/// covers.
pub fn same_sampled(a: &SampledCampaign, b: &SampledCampaign) -> bool {
    a.trials == b.trials
        && a.successes == b.successes
        && a.failures == b.failures
        && a.first_failure_trial == b.first_failure_trial
        && a.coverage.to_json() == b.coverage.to_json()
}

/// Checks a finished cell against its spec: the engine ran every trial
/// and its aggregate agrees with the per-trial results. Returns the
/// problem, if any.
pub fn check_cell(spec: &CampaignSpec, job: &JobOutcome) -> Option<String> {
    let cell = &job.cell;
    if job.name != spec.name || cell.executed != spec.trials {
        return Some(format!(
            "{}: executed {} of {} trials",
            spec.name, cell.executed, spec.trials
        ));
    }
    match &cell.output {
        CellOutput::Sharded(r) => {
            let detected = cell
                .per_trial
                .iter()
                .filter(|t| {
                    matches!(
                        t.class,
                        TrialClass::RecoverySuccess { .. } | TrialClass::RecoveryFailure(_)
                    )
                })
                .count() as u64;
            let successes = cell
                .per_trial
                .iter()
                .filter(|t| t.class.is_success())
                .count() as u64;
            let consistent = cell.per_trial.len() as u64 == r.trials
                && r.trials == spec.trials
                && r.detected == detected
                && r.successes == successes
                && r.non_manifested + r.sdc + r.detected == r.trials;
            (!consistent)
                .then(|| format!("{}: aggregate disagrees with per-trial results", spec.name))
        }
        CellOutput::Sampled(s) => {
            let consistent = s.trials == spec.trials
                && s.coverage.trials() == s.trials
                && s.successes + s.failures <= s.trials;
            (!consistent).then(|| format!("{}: coverage map disagrees with trial count", spec.name))
        }
    }
}
