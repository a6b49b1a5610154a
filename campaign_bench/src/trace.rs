//! The traced run: the same trials the engine ran, driven one at a time
//! from bench code, with a span around each call into a layer.
//!
//! Nothing inside the program is instrumented. Spans come from three
//! places only: the bench's own calls (`BootCache::checkout`,
//! `run_trial_with`, `run_sampled_campaign_in` and its `after_trial`
//! hook), and [`TracedMechanism`], a `RecoveryMechanism` that delegates
//! every method unchanged and notes when the trial body starts
//! (`op_support` is the body's first call) and when `recover` runs. That
//! splits every trial into
//!
//! ```text
//! trial
//! ├── boot_cache.checkout      clone + reseed of the boot template
//! ├── hv.pre_detect            trial body up to the recover call
//! ├── core.recover             RecoveryMechanism::recover
//! └── hv.post_recover          rest of the trial, including classify
//! ```
//!
//! or, when no detector fires, `checkout` followed by `hv.undetected`.
//! Spans stay in memory until the run ends.

use std::cell::Cell;
use std::io::{self, Write};
use std::time::Instant;

use nlh_campaign::{
    run_sampled_campaign_in, run_trial_with, BootCache, CampaignSpec, ExecMode, SampledCampaign,
    TrialConfig, TrialResult, TrialRunOptions,
};
use nlh_core::{RecoveryError, RecoveryMechanism, RecoveryReport};
use nlh_hv::hypercalls::OpSupport;
use nlh_hv::{Hypervisor, MachineConfig};
use nlh_sim::SimDuration;

/// Span names, one per layer boundary.
pub mod name {
    /// A whole trial (the root of each trial's tree).
    pub const TRIAL: &str = "trial";
    /// `BootCache::checkout`.
    pub const CHECKOUT: &str = "boot_cache.checkout";
    /// Trial body from its start to the `recover` call.
    pub const PRE_DETECT: &str = "hv.pre_detect";
    /// `RecoveryMechanism::recover`.
    pub const RECOVER: &str = "core.recover";
    /// Trial body from `recover` returning to the trial's end.
    pub const POST_RECOVER: &str = "hv.post_recover";
    /// Trial body of a trial in which no detector fired.
    pub const UNDETECTED: &str = "hv.undetected";
}

/// One timed interval. Times are nanoseconds since the trace began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, one of [`name`].
    pub name: &'static str,
    /// Trial id, shared by every span of one trial.
    pub trial: u64,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// Start, in ns.
    pub start_ns: u64,
    /// End, in ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Simulation facts of one traced trial, recorded beside its spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialFacts {
    /// Whether `recover` was called.
    pub detected: bool,
    /// Steps from the trial's start to the `recover` call.
    pub pre_detect_steps: Option<u64>,
    /// Steps of the whole trial body (sharded cells only: sampled cells do
    /// not expose per-trial results).
    pub steps: Option<u64>,
    /// Simulated recovery latency reported by `recover`.
    pub sim_recovery: Option<SimDuration>,
}

/// Every span and trial fact of a traced run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    /// Spans in creation order; each trial's root precedes its children.
    pub spans: Vec<Span>,
    /// One entry per trial, indexed by trial id.
    pub trials: Vec<TrialFacts>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            trials: Vec::new(),
        }
    }
}

/// What one traced cell produced, for comparison with the engine's cell.
#[derive(Debug)]
pub enum TracedCell {
    /// Seed-ordered trial results of a sharded cell.
    Sharded(Vec<TrialResult>),
    /// A sampled cell's campaign.
    Sampled(Box<SampledCampaign>),
}

impl Trace {
    /// Runs every trial of `spec` on this thread, one at a time, through
    /// the same public entry point the engine uses for that mode.
    pub fn run_cell(&mut self, cache: &BootCache, spec: &CampaignSpec) -> TracedCell {
        let mech = TracedMechanism {
            inner: spec.mechanism.build(),
            marks: Cell::new(Marks::default()),
        };
        match spec.mode {
            ExecMode::Sharded => TracedCell::Sharded(
                (0..spec.trials)
                    .map(|i| {
                        let cfg = TrialConfig::new(spec.setup, spec.fault, spec.seed + i);
                        let start = Instant::now();
                        let (hv, layout) = cache.checkout(&cfg.machine, cfg.setup, cfg.seed);
                        let body = Instant::now();
                        let base = hv.steps_executed();
                        let (r, _, _) =
                            run_trial_with(hv, &layout, &cfg, &mech, TrialRunOptions::default());
                        let end = Instant::now();
                        let marks = mech.marks.take();
                        self.record(start, body, marks, end, base, Some(r.steps));
                        r
                    })
                    .collect(),
            ),
            ExecMode::Sampled {
                windows,
                sampling,
                steer_handler,
                depth_cycle,
            } => {
                let base = cache
                    .checkout(&MachineConfig::small(), spec.setup, spec.seed)
                    .0
                    .steps_executed();
                let mut start = Instant::now();
                let mut after_trial = |_, _, _| {
                    let end = Instant::now();
                    let marks = mech.marks.take();
                    // The body starts at op_support, the first call
                    // run_trial_with makes after the checkout.
                    let body = marks.body_start.unwrap_or(end);
                    self.record(start, body, marks, end, base, None);
                    start = Instant::now();
                    false
                };
                TracedCell::Sampled(Box::new(run_sampled_campaign_in(
                    cache,
                    spec.setup,
                    spec.fault,
                    &mech,
                    spec.seed,
                    spec.trials,
                    windows,
                    sampling,
                    steer_handler,
                    depth_cycle,
                    &mut after_trial,
                )))
            }
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, name: &'static str, trial: u64, parent: Option<usize>, a: u64, b: u64) {
        self.spans.push(Span {
            name,
            trial,
            parent,
            start_ns: a,
            end_ns: b,
        });
    }

    fn record(
        &mut self,
        start: Instant,
        body: Instant,
        marks: Marks,
        end: Instant,
        base_steps: u64,
        steps: Option<u64>,
    ) {
        let trial = self.trials.len() as u64;
        let (t0, t1, t3) = (self.ns(start), self.ns(body), self.ns(end));
        let root = self.spans.len();
        self.push(name::TRIAL, trial, None, t0, t3);
        self.push(name::CHECKOUT, trial, Some(root), t0, t1);
        match marks.recover {
            Some(rec) => {
                let (r0, r1) = (self.ns(rec.start), self.ns(rec.end));
                self.push(name::PRE_DETECT, trial, Some(root), t1, r0);
                self.push(name::RECOVER, trial, Some(root), r0, r1);
                self.push(name::POST_RECOVER, trial, Some(root), r1, t3);
            }
            None => self.push(name::UNDETECTED, trial, Some(root), t1, t3),
        }
        self.trials.push(TrialFacts {
            detected: marks.recover.is_some(),
            pre_detect_steps: marks.recover.map(|r| r.steps - base_steps),
            steps,
            sim_recovery: marks.recover.and_then(|r| r.sim_total),
        });
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total ns of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        // Not `sum()`: an empty f64 sum is -0.0.
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children of one span never overlap).
    pub fn self_times(&self) -> Vec<i128> {
        let mut self_ns: Vec<i128> = self.spans.iter().map(|s| i128::from(s.ns())).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= i128::from(s.ns());
            }
        }
        self_ns
    }

    /// Writes the spans as JSON lines, one object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"trial\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trial, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct RecoverMark {
    start: Instant,
    end: Instant,
    steps: u64,
    sim_total: Option<SimDuration>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Marks {
    body_start: Option<Instant>,
    recover: Option<RecoverMark>,
}

/// A pass-through recovery mechanism that notes when each trial body
/// starts and when recovery runs.
struct TracedMechanism {
    inner: Box<dyn RecoveryMechanism>,
    marks: Cell<Marks>,
}

impl RecoveryMechanism for TracedMechanism {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn op_support(&self) -> OpSupport {
        let mut m = self.marks.get();
        m.body_start = Some(Instant::now());
        self.marks.set(m);
        self.inner.op_support()
    }

    fn recover(&self, hv: &mut Hypervisor) -> Result<RecoveryReport, RecoveryError> {
        let steps = hv.steps_executed();
        let start = Instant::now();
        let report = self.inner.recover(hv);
        let end = Instant::now();
        let mut m = self.marks.get();
        m.recover = Some(RecoverMark {
            start,
            end,
            steps,
            sim_total: report.as_ref().ok().map(|r| r.total),
        });
        self.marks.set(m);
        report
    }
}
