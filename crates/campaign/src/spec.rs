//! Campaign specifications: the data form of "run this campaign".
//!
//! A [`CampaignSpec`] captures everything a campaign needs — setup, fault,
//! trial budget, seed, mechanism, execution mode — as plain data,
//! so whole experiment suites can be expressed as a [`SuiteSpec`] job
//! graph and submitted to the resident [`crate::CampaignEngine`] instead
//! of hand-rolling loops in every experiment binary. Specs parse from a
//! line-oriented manifest format (`SuiteSpec::parse`), the input of the
//! `campaign_server` binary. A cell names its mechanism by a
//! [`MechanismSpec`] spelling (`NiLiHype`, `Rung(Basic)`,
//! `NiLiHype(-pfd_scan)`, `ReHype(-nonidem_mitigation)`, ...), so every
//! configuration a campaign runs is data.

use nlh_core::MechanismSpec;
use nlh_hv::HandlerKind;
use nlh_inject::FaultType;

use crate::campaign::BootMode;
use crate::coverage::SamplingMode;
use crate::setup::{BenchKind, SetupKind};
use crate::trial::MAX_TRIGGER_OPS;

/// How the engine executes a spec's trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Shard trials across all cores, folding results in seed order — the
    /// parallel path.
    Sharded,
    /// The sequential coverage-map campaign of
    /// [`crate::run_sampled_campaign_in`]: deterministic trial-by-trial
    /// steering, optionally held for a handler family.
    Sampled {
        /// Trigger-ops strata on the coverage map.
        windows: usize,
        /// Uniform draws or coverage-guided steering.
        sampling: SamplingMode,
        /// Hold the armed injector for this handler family.
        steer_handler: Option<HandlerKind>,
        /// Cycle the in-handler injection depth over `0..depth_cycle`.
        depth_cycle: u64,
    },
}

/// When a cell stops running trials. Every cell runs its whole budget;
/// the one-variant enum stays because `campaign_bench` names
/// [`StopPolicy::FixedTrials`] when it checks a workload's manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopPolicy {
    /// Run exactly `trials` trials — the deterministic mode every golden
    /// test runs under.
    FixedTrials,
}

/// One campaign cell, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Cell name (job-graph node id, streaming label).
    pub name: String,
    /// Target system configuration.
    pub setup: SetupKind,
    /// Fault type to inject.
    pub fault: FaultType,
    /// Trial budget: the cell runs exactly this many trials.
    pub trials: u64,
    /// Base seed; trial `i` uses `seed + i`.
    pub seed: u64,
    /// Recovery mechanism recipe.
    pub mechanism: MechanismSpec,
    /// Parallel-sharded or sequential-sampled execution.
    pub mode: ExecMode,
    /// How trials get their booted system: always
    /// [`BootMode::Warm`], a checkout from the engine's shared boot cache.
    /// The field stays because `campaign_bench` checks it.
    pub boot: BootMode,
    /// Stop policy: always [`StopPolicy::FixedTrials`]. The field stays
    /// because `campaign_bench` checks it.
    pub stop: StopPolicy,
    /// Emit a streaming telemetry snapshot every this many trials (`0` =
    /// only the final snapshot).
    pub snapshot_every: u64,
}

impl CampaignSpec {
    /// A sharded, fixed-trials, warm-started NiLiHype cell — the common
    /// case; adjust fields from there.
    pub fn new(name: impl Into<String>, setup: SetupKind, fault: FaultType, trials: u64) -> Self {
        CampaignSpec {
            name: name.into(),
            setup,
            fault,
            trials,
            seed: 2018,
            mechanism: MechanismSpec::nilihype(),
            mode: ExecMode::Sharded,
            boot: BootMode::Warm,
            stop: StopPolicy::FixedTrials,
            snapshot_every: 0,
        }
    }
}

/// One job-graph node: a spec plus the names of jobs that must complete
/// before it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The campaign to run. `spec.name` is the job's graph node id.
    pub spec: CampaignSpec,
    /// Names of jobs this one runs after.
    pub after: Vec<String>,
}

/// A whole experiment suite as a dependency graph of campaign cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuiteSpec {
    /// The jobs, in submission order (ties in the topological order are
    /// broken by this order, so execution is deterministic).
    pub jobs: Vec<JobSpec>,
}

impl SuiteSpec {
    /// Adds an independent job.
    pub fn push(&mut self, spec: CampaignSpec) {
        self.jobs.push(JobSpec {
            spec,
            after: Vec::new(),
        });
    }

    /// Adds a job that runs after the named jobs.
    pub fn push_after(&mut self, spec: CampaignSpec, after: &[&str]) {
        self.jobs.push(JobSpec {
            spec,
            after: after.iter().map(|s| s.to_string()).collect(),
        });
    }

    /// Parses the `campaign_server` manifest format: one `[job NAME]`
    /// header per cell followed by `key = value` lines. `#` starts a
    /// comment; blank lines are ignored.
    ///
    /// Keys: `setup` (e.g. `ThreeAppVm`, `OneAppVm(UnixBench)`,
    /// `Overcommit(4)`), `fault` (`Failstop`/`Register`/`Code`), `trials`,
    /// `seed`, `mechanism` (see [`MechanismSpec::parse`]), `mode`
    /// (`sharded`, the default, or `sampled`), `windows`, `sampling`
    /// (`uniform`/`guided`), `steer` (a handler name), `depth-cycle`,
    /// `snapshot-every`, `after` (comma-separated job names).
    pub fn parse(text: &str) -> Result<SuiteSpec, String> {
        let mut suite = SuiteSpec::default();
        let mut current: Option<ManifestJob> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            let err = |msg: String| format!("manifest line {}: {msg}", lineno + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let header = header
                    .strip_suffix(']')
                    .ok_or_else(|| err("unterminated [job ...] header".into()))?;
                let name = header
                    .strip_prefix("job ")
                    .ok_or_else(|| err(format!("expected [job NAME], got [{header}]")))?
                    .trim();
                if name.is_empty() {
                    return Err(err("job name is empty".into()));
                }
                if let Some(done) = current.take() {
                    suite.jobs.push(done.finish()?);
                }
                current = Some(ManifestJob::new(name));
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(format!("expected key = value, got {line:?}")))?;
            let job = current
                .as_mut()
                .ok_or_else(|| err("key outside any [job ...] section".into()))?;
            job.set(key.trim(), value.trim())
                .map_err(|m| err(format!("{}: {m}", key.trim())))?;
        }
        if let Some(done) = current.take() {
            suite.jobs.push(done.finish()?);
        }
        Ok(suite)
    }
}

/// Renders a setup the way the manifest parser reads it.
pub fn setup_manifest_name(setup: SetupKind) -> String {
    match setup {
        SetupKind::OneAppVm(bench) => format!("OneAppVm({bench})"),
        SetupKind::OneHvmAppVm(bench) => format!("OneHvmAppVm({bench})"),
        SetupKind::ThreeAppVm => "ThreeAppVm".into(),
        SetupKind::TwoAppVmSharedCpu => "TwoAppVmSharedCpu".into(),
        SetupKind::TwoAppVmVswitch => "TwoAppVmVswitch".into(),
        SetupKind::Overcommit(r) => format!("Overcommit({r})"),
    }
}

/// Parses [`setup_manifest_name`]'s output.
pub fn parse_setup(s: &str) -> Option<SetupKind> {
    match s {
        "ThreeAppVm" => return Some(SetupKind::ThreeAppVm),
        "TwoAppVmSharedCpu" => return Some(SetupKind::TwoAppVmSharedCpu),
        "TwoAppVmVswitch" => return Some(SetupKind::TwoAppVmVswitch),
        _ => {}
    }
    let (head, inner) = s.strip_suffix(')')?.split_once('(')?;
    let bench = || {
        [
            BenchKind::BlkBench,
            BenchKind::UnixBench,
            BenchKind::NetBench,
            BenchKind::VirtioBlkBench,
            BenchKind::VirtioNetBench,
        ]
        .into_iter()
        .find(|b| b.to_string() == inner)
    };
    match head {
        "OneAppVm" => bench().map(SetupKind::OneAppVm),
        "OneHvmAppVm" => bench().map(SetupKind::OneHvmAppVm),
        "Overcommit" => inner.parse().ok().map(SetupKind::Overcommit),
        _ => None,
    }
}

/// A partially parsed manifest job.
struct ManifestJob {
    name: String,
    setup: Option<SetupKind>,
    fault: Option<FaultType>,
    trials: Option<u64>,
    seed: u64,
    mechanism: MechanismSpec,
    sampled: bool,
    windows: usize,
    sampling: SamplingMode,
    steer_handler: Option<HandlerKind>,
    depth_cycle: u64,
    snapshot_every: u64,
    after: Vec<String>,
}

impl ManifestJob {
    fn new(name: &str) -> Self {
        ManifestJob {
            name: name.to_string(),
            setup: None,
            fault: None,
            trials: None,
            seed: 2018,
            mechanism: MechanismSpec::nilihype(),
            sampled: false,
            windows: crate::coverage::DEFAULT_OPS_WINDOWS,
            sampling: SamplingMode::CoverageGuided,
            steer_handler: None,
            depth_cycle: 1,
            snapshot_every: 0,
            after: Vec::new(),
        }
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let bad = |what: &str| format!("invalid {what} {value:?}");
        match key {
            "setup" => self.setup = Some(parse_setup(value).ok_or_else(|| bad("setup"))?),
            "fault" => self.fault = Some(FaultType::from_name(value).ok_or_else(|| bad("fault"))?),
            "trials" => self.trials = Some(value.parse().map_err(|_| bad("integer"))?),
            "seed" => self.seed = value.parse().map_err(|_| bad("integer"))?,
            "mechanism" => {
                self.mechanism = MechanismSpec::parse(value).ok_or_else(|| bad("mechanism"))?
            }
            "mode" => match value {
                "sharded" => self.sampled = false,
                "sampled" => self.sampled = true,
                _ => return Err(bad("mode (sharded|sampled)")),
            },
            "windows" => self.windows = value.parse().map_err(|_| bad("integer"))?,
            "sampling" => match value {
                "uniform" => self.sampling = SamplingMode::Uniform,
                "guided" => self.sampling = SamplingMode::CoverageGuided,
                _ => return Err(bad("sampling (uniform|guided)")),
            },
            "steer" => {
                self.steer_handler =
                    Some(HandlerKind::from_name(value).ok_or_else(|| bad("handler"))?)
            }
            "depth-cycle" => self.depth_cycle = value.parse().map_err(|_| bad("integer"))?,
            "snapshot-every" => self.snapshot_every = value.parse().map_err(|_| bad("integer"))?,
            "after" => self
                .after
                .extend(value.split(',').map(|s| s.trim().to_string())),
            _ => return Err("unknown key".into()),
        }
        Ok(())
    }

    fn finish(self) -> Result<JobSpec, String> {
        let missing = |what: &str| format!("job {:?}: missing {what}", self.name);
        if self.sampled && !(1..=MAX_TRIGGER_OPS).contains(&(self.windows as u64)) {
            return Err(format!(
                "job {:?}: windows must be in 1..={MAX_TRIGGER_OPS}, got {}",
                self.name, self.windows
            ));
        }
        let spec = CampaignSpec {
            name: self.name.clone(),
            setup: self.setup.ok_or_else(|| missing("setup"))?,
            fault: self.fault.ok_or_else(|| missing("fault"))?,
            trials: self.trials.ok_or_else(|| missing("trials"))?,
            seed: self.seed,
            mechanism: self.mechanism,
            mode: if self.sampled {
                ExecMode::Sampled {
                    windows: self.windows,
                    sampling: self.sampling,
                    steer_handler: self.steer_handler,
                    depth_cycle: self.depth_cycle,
                }
            } else {
                ExecMode::Sharded
            },
            boot: BootMode::Warm,
            stop: StopPolicy::FixedTrials,
            snapshot_every: self.snapshot_every,
        };
        Ok(JobSpec {
            spec,
            after: self.after,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_names_round_trip() {
        for setup in [
            SetupKind::OneAppVm(BenchKind::BlkBench),
            SetupKind::OneAppVm(BenchKind::UnixBench),
            SetupKind::OneAppVm(BenchKind::NetBench),
            SetupKind::OneAppVm(BenchKind::VirtioBlkBench),
            SetupKind::OneAppVm(BenchKind::VirtioNetBench),
            SetupKind::OneHvmAppVm(BenchKind::UnixBench),
            SetupKind::OneHvmAppVm(BenchKind::NetBench),
            SetupKind::ThreeAppVm,
            SetupKind::TwoAppVmSharedCpu,
            SetupKind::TwoAppVmVswitch,
            SetupKind::Overcommit(1),
            SetupKind::Overcommit(8),
        ] {
            assert_eq!(parse_setup(&setup_manifest_name(setup)), Some(setup));
        }
        assert_eq!(parse_setup("FourAppVm"), None);
        assert_eq!(parse_setup("Overcommit(x)"), None);
        assert_eq!(parse_setup("OneHvmAppVm(Bench)"), None);
        assert_eq!(parse_setup("OneAppVm(UnixBench))"), None);
    }

    #[test]
    fn manifest_parses_a_two_job_graph() {
        let text = "
# a tiny suite
[job off]
setup = TwoAppVmVswitch
fault = Failstop
trials = 5
seed = 7
mechanism = Rung(ReactivateTimerEvents)
mode = sampled
steer = VirtioMmio

[job on]
setup = TwoAppVmVswitch
fault = Failstop
trials = 5
seed = 7
mechanism = Rung(VirtqueueConsistency)
mode = sampled
steer = VirtioMmio
after = off
";
        let suite = SuiteSpec::parse(text).expect("parses");
        assert_eq!(suite.jobs.len(), 2);
        assert_eq!(suite.jobs[0].spec.name, "off");
        assert!(suite.jobs[0].after.is_empty());
        assert_eq!(suite.jobs[1].after, vec!["off".to_string()]);
        assert_eq!(
            suite.jobs[1].spec.mechanism,
            MechanismSpec::rung(nlh_core::LadderRung::VirtqueueConsistency)
        );
        match suite.jobs[1].spec.mode {
            ExecMode::Sampled { steer_handler, .. } => {
                assert_eq!(steer_handler, Some(HandlerKind::VirtioMmio));
            }
            ref m => panic!("expected sampled mode, got {m:?}"),
        }
    }

    #[test]
    fn manifest_defaults() {
        let text = "
[job cell]
setup = OneAppVm(UnixBench)
fault = Register
trials = 100
";
        let suite = SuiteSpec::parse(text).unwrap();
        let job = &suite.jobs[0];
        // Seed 2018, NiLiHype, sharded, no snapshot cadence.
        assert_eq!(
            job.spec,
            CampaignSpec::new(
                "cell",
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Register,
                100
            )
        );
        assert!(job.after.is_empty(), "no dependencies");
    }

    #[test]
    fn manifest_rejects_malformed_input() {
        assert!(
            SuiteSpec::parse("setup = ThreeAppVm").is_err(),
            "key outside job"
        );
        assert!(SuiteSpec::parse("[job a]\nsetup = Nope\nfault = Code\ntrials = 1").is_err());
        assert!(
            SuiteSpec::parse("[job a]\nfault = Code\ntrials = 1").is_err(),
            "missing setup"
        );
        assert!(SuiteSpec::parse("[job a]\nwat").is_err(), "not key = value");
        assert!(SuiteSpec::parse("[job a]\nsetup = ThreeAppVm\nbogus = 1").is_err());
        assert!(
            SuiteSpec::parse("[job a]\nsteer = nope").is_err(),
            "unknown handler"
        );
        let sampled = |windows: &str| {
            format!(
                "[job a]\nsetup = TwoAppVmVswitch\nfault = Failstop\ntrials = 1\n\
                 mode = sampled\nwindows = {windows}"
            )
        };
        assert!(SuiteSpec::parse(&sampled("0")).is_err(), "zero windows");
        assert!(
            SuiteSpec::parse(&sampled("2001")).is_err(),
            "windows > MAX_TRIGGER_OPS"
        );
        assert!(SuiteSpec::parse(&sampled("2000")).is_ok());
        // A key outside the documented list is an error naming its line.
        for key in ["boot = cold", "stop-halfwidth = 0.1"] {
            let text = format!("[job a]\nsetup = ThreeAppVm\nfault = Code\ntrials = 1\n{key}");
            let name = key.split(' ').next().unwrap();
            assert_eq!(
                SuiteSpec::parse(&text),
                Err(format!("manifest line 5: {name}: unknown key")),
                "{key}"
            );
        }
    }
}
