//! Fault-injection campaigns (Section VI): trial orchestration, outcome
//! classification, and recovery-rate statistics.
//!
//! A **trial** boots the target system, starts the benchmarks, injects one
//! fault, performs recovery when a detector fires, and classifies the
//! outcome (Section VI-C); [`run_trial_with`] is the one trial entry
//! point. A **campaign** runs many trials (in parallel across OS threads —
//! the analogue of the paper's Campaign Agent) and aggregates recovery
//! rates with 95% confidence intervals; [`CampaignEngine`] is the one
//! campaign executor.
//!
//! The two system configurations of Section VI-A are provided: the 1AppVM
//! setup used for measurement-driven development (Table I, Section IV) and
//! the 3AppVM setup used for the headline recovery-rate results (Figure 2),
//! including the post-recovery creation of a third, BlkBench-running AppVM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisect;
mod boot_cache;
mod campaign;
mod classify;
mod coverage;
mod engine;
mod overhead;
mod record;
mod setup;
mod spec;
mod stream;
mod trial;

pub use bisect::{bisect_trials, first_divergence, BisectReport, DivergenceSide};
pub use boot_cache::{BootCache, CacheCounters};
pub use campaign::{BootMode, CampaignResult, CampaignTelemetry};
pub use classify::{classify, netbench_affected, TrialClass};
pub use coverage::{
    run_sampled_campaign_in, CoverageMap, SampledCampaign, SamplingMode, DEFAULT_OPS_WINDOWS,
};
pub use engine::{CampaignEngine, CellOutput, CellResult, JobOutcome, SuiteError};
pub use nlh_core::MechanismSpec;
pub use overhead::{measure_hv_cycles, overhead_percent, OverheadPoint};
pub use record::{
    EventRing, RecordedOutcome, TrialEvent, TrialEventKind, TrialRecord, EVENT_RING_CAPACITY,
};
pub use setup::{build_system, reseed_system, BenchKind, SetupKind, SystemLayout};
pub use spec::{
    parse_setup, setup_manifest_name, CampaignSpec, ExecMode, JobSpec, StopPolicy, SuiteSpec,
};
pub use stream::{CampaignSnapshot, MemorySink, NullSink, TelemetrySink};
pub use trial::{
    run_trial_group, run_trial_with, ArmedTrial, Sibling, TrialConfig, TrialObservations,
    TrialResult, TrialRunOptions, MAX_TRIGGER_OPS,
};
