//! One fault-injection trial (Section VI-C): boot, run, inject, recover,
//! classify.

use nlh_core::{RecoveryMechanism, RecoveryReport};
use nlh_hv::{Hypervisor, MachineConfig};
use nlh_inject::{FaultType, InjectionOutcome, Injector};
use nlh_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::classify::{classify, TrialClass};
use crate::record::{EventRing, RecordedOutcome, TrialEventKind, TrialRecord};
use crate::setup::{SetupKind, SystemLayout};

/// Second-level trigger budget: micro-ops executed in the hypervisor
/// before injection (the paper uses 0–20 000 instructions; micro-ops are
/// coarser by roughly 10×).
pub const MAX_TRIGGER_OPS: u64 = 2_000;

/// Configuration of one trial.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialConfig {
    /// The system configuration.
    pub setup: SetupKind,
    /// The fault type to inject.
    pub fault: FaultType,
    /// Trial seed (drives everything deterministically).
    pub seed: u64,
    /// Machine parameters.
    pub machine: MachineConfig,
}

impl TrialConfig {
    /// A trial on the default small campaign machine.
    pub fn new(setup: SetupKind, fault: FaultType, seed: u64) -> Self {
        TrialConfig {
            setup,
            fault,
            seed,
            machine: MachineConfig::small(),
        }
    }
}

/// Raw observations collected while running a trial (input to
/// classification).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialObservations {
    /// A detector fired.
    pub detected: bool,
    /// Recovery could not be attempted (mechanism returned an error).
    pub recovery_error: Option<String>,
    /// A second detection occurred after recovery.
    pub second_detection: bool,
    /// Reason text of the second detection.
    pub second_detection_reason: Option<String>,
}

/// The result of one trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// How the injected fault manifested (None if the trigger never fired,
    /// which does not happen in practice).
    pub injection: Option<InjectionOutcome>,
    /// Raw observations.
    pub observations: TrialObservations,
    /// The recovery report, if recovery ran.
    pub recovery: Option<RecoveryReport>,
    /// Final classification.
    pub class: TrialClass,
    /// Simulation steps executed by the trial body (campaign telemetry
    /// divides the shard total by wall time for its steps/sec counter).
    /// Deterministic per config, so it participates in `PartialEq`: the
    /// batched and reference trial loops must execute identical step
    /// sequences, not merely reach the same classification.
    pub steps: u64,
}

/// Options for [`run_trial_with`], the one trial entry point.
#[derive(Debug, Clone)]
pub struct TrialRunOptions {
    /// Drive the hypervisor through the batched fast path (`true`, the
    /// default) or the reference loop: one fully checked `step_any` +
    /// `on_step` per iteration. Both execute the same step sequence; the
    /// reference loop is the oracle the differential tests pin the fast
    /// path against.
    pub batched: bool,
    /// Draw the second-level trigger's micro-op budget from this range
    /// instead of the full `[0, MAX_TRIGGER_OPS)`. The coverage-guided
    /// campaign steers with this; replay restores it.
    pub trigger_ops: Option<(u64, u64)>,
    /// When `false`, run the trial without ever arming the injector: a
    /// fault-free reference execution whose step sequence is identical to
    /// an injected run's up to the injection step (the bisection oracle's
    /// baseline).
    pub inject: bool,
    /// Stop the trial body after this many steps (divergence bisection
    /// probes a prefix and fingerprints the machine). Requires
    /// `batched == false`: the batched path cannot stop mid-stretch.
    pub step_limit: Option<u64>,
    /// Hold the armed injector until the struck CPU executes inside this
    /// handler family (see [`Injector::steer_to_handler`]). The
    /// device-heavy campaigns steer into `HandlerKind::VirtioMmio` to land
    /// faults mid-virtqueue-transaction; replay restores the filter.
    pub steer_handler: Option<nlh_hv::HandlerKind>,
    /// Delay a steered injection by this many additional micro-ops executed
    /// inside the steered handler (see [`Injector::with_steer_depth`]):
    /// `0` keeps the historical first-op-in-handler behaviour, nonzero
    /// pushes the fault into the handler's mutation window. Ignored when
    /// `steer_handler` is `None`; replay restores it.
    pub steer_depth: u64,
}

impl Default for TrialRunOptions {
    fn default() -> Self {
        TrialRunOptions {
            batched: true,
            trigger_ops: None,
            inject: true,
            step_limit: None,
            steer_handler: None,
            steer_depth: 0,
        }
    }
}

/// Runs the trial body — inject, detect, recover, classify — on an
/// already-booted system, returning the result, the trial's event record
/// (enough to replay the trial bit-identically, see
/// [`TrialRecord::replay`]) and the final machine state.
///
/// The system comes from [`build_system`](crate::build_system) (a cold
/// boot) or [`BootCache::checkout`](crate::BootCache::checkout) (a warm
/// start); both produce identical results (differential-tested).
///
/// With default options the hypervisor runs through its one batched
/// stepping loop with the injector as its stop rule
/// ([`Injector::run_until`]): the loop races through the pre-trigger
/// window, spends the micro-op budget in fused spans, stops on the exact
/// step the fault fires on, and after injection runs on as a plain
/// batched run. The executed step sequence — and therefore the
/// [`TrialResult`] — is bit-identical to the reference loop selected by
/// `TrialRunOptions { batched: false, .. }`. Recording only observes rare
/// events (trigger fire, injection, detection, recovery transitions),
/// never the per-step hot path.
pub fn run_trial_with(
    mut hv: Hypervisor,
    layout: &SystemLayout,
    config: &TrialConfig,
    mechanism: &dyn RecoveryMechanism,
    opts: TrialRunOptions,
) -> (TrialResult, TrialRecord, Hypervisor) {
    assert!(
        opts.step_limit.is_none() || !opts.batched,
        "step_limit requires the unbatched reference loop"
    );
    hv.support = mechanism.op_support();

    let trigger_ops = opts.trigger_ops.unwrap_or((0, MAX_TRIGGER_OPS));
    let mut injector = Injector::with_ops_range(
        config.fault,
        config.seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xF00D,
        config.setup.trigger_window(),
        trigger_ops,
    );
    if let Some(h) = opts.steer_handler {
        injector = injector
            .steer_to_handler(h)
            .with_steer_depth(opts.steer_depth);
    }

    let mut record = TrialRecord {
        config: config.clone(),
        trigger_ops,
        steer_handler: opts.steer_handler,
        steer_depth: if opts.steer_handler.is_some() {
            opts.steer_depth
        } else {
            0
        },
        mechanism: mechanism.name().to_string(),
        fire_at: injector.fire_at(),
        ops_budget: injector.ops_budget(),
        injection: None,
        events: EventRing::new(),
        outcome: None,
    };

    let trial_end = nlh_sim::SimTime::ZERO + config.setup.trial_duration();
    let deadline = trial_end.saturating_since(nlh_sim::SimTime::ZERO);
    let deadline = nlh_sim::SimTime::ZERO + deadline.saturating_sub(SimDuration::from_millis(500));

    let steps_before = hv.steps_executed();
    let mut obs = TrialObservations::default();
    let mut recovery: Option<RecoveryReport> = None;
    let mut recovered = false;

    while hv.now() < trial_end {
        if let Some(limit) = opts.step_limit {
            if hv.steps_executed() - steps_before >= limit {
                break;
            }
        }
        if hv.detection().is_some() {
            if !recovered {
                obs.detected = true;
                recovered = true;
                if let Some(d) = hv.detection() {
                    record.events.push(
                        d.at,
                        TrialEventKind::DetectorFired,
                        format!("{:?} cpu{} {}", d.kind, d.cpu.index(), d.reason),
                    );
                }
                let started = hv.now_max();
                record
                    .events
                    .push(started, TrialEventKind::RecoveryStarted, mechanism.name());
                match mechanism.recover(&mut hv) {
                    Ok(r) => {
                        for step in &r.steps {
                            record.events.push(
                                started,
                                TrialEventKind::RecoveryPhase,
                                format!("{} {:?}", step.name, step.duration),
                            );
                        }
                        record.events.push(
                            hv.now_max(),
                            TrialEventKind::RecoveryDone,
                            format!("total {:?}", r.total),
                        );
                        recovery = Some(r);
                    }
                    Err(e) => {
                        record.events.push(
                            hv.now_max(),
                            TrialEventKind::RecoveryAborted,
                            e.to_string(),
                        );
                        obs.recovery_error = Some(e.to_string());
                        break;
                    }
                }
            } else {
                obs.second_detection = true;
                obs.second_detection_reason = hv.detection().map(|d| d.reason.clone());
                if let Some(d) = hv.detection() {
                    record.events.push(
                        d.at,
                        TrialEventKind::SecondDetection,
                        format!("{:?} cpu{} {}", d.kind, d.cpu.index(), d.reason),
                    );
                }
                break;
            }
        } else if !opts.inject {
            // Fault-free reference run: no injector to consult.
            if opts.batched {
                hv.run_until(trial_end);
            } else {
                hv.step_any();
            }
        } else {
            let was_armed = injector.armed_at().is_some();
            let injected_now = if opts.batched {
                injector.run_until(&mut hv, trial_end)
            } else {
                let (cpu, out) = hv.step_any();
                injector.on_step(&mut hv, cpu, out)
            };
            if let (false, Some(at)) = (was_armed, injector.armed_at()) {
                record.events.push(
                    at,
                    TrialEventKind::TriggerFired,
                    format!("ops_budget={}", injector.ops_budget()),
                );
            }
            if injected_now {
                record.injection = injector.injection_point().copied();
                if let Some(p) = &record.injection {
                    record.events.push(
                        p.at,
                        TrialEventKind::Injected,
                        format!(
                            "cpu={} handler={} op={}/{} outcome={:?}",
                            p.cpu.index(),
                            p.handler,
                            p.op_index,
                            p.program_len,
                            injector.outcome()
                        ),
                    );
                }
            }
            // Short-circuit: a non-manifested or SDC fault can no
            // longer trigger detection in this model; the
            // classification is already determined, so skip simulating
            // the rest of the run.
            if injected_now && hv.detection().is_none() {
                let class = match injector.outcome() {
                    Some(InjectionOutcome::NonManifested) => Some(TrialClass::NonManifested),
                    Some(InjectionOutcome::Sdc) => Some(TrialClass::Sdc),
                    _ => None,
                };
                if let Some(class) = class {
                    let result = TrialResult {
                        injection: injector.outcome(),
                        class: class.clone(),
                        observations: obs,
                        recovery: None,
                        steps: hv.steps_executed() - steps_before,
                    };
                    finish_record(&mut record, &result, hv.now_max());
                    return (result, record, hv);
                }
            }
        }
    }

    let now = hv.now_max();
    let class = classify(&hv, layout, &obs, now, deadline);
    let result = TrialResult {
        injection: injector.outcome(),
        observations: obs,
        recovery,
        class,
        steps: hv.steps_executed() - steps_before,
    };
    // A step-limited probe stops mid-trial; its classification is not the
    // trial's outcome, so leave the record's outcome empty.
    if opts.step_limit.is_none() {
        finish_record(&mut record, &result, now);
    }
    (result, record, hv)
}

fn finish_record(record: &mut TrialRecord, result: &TrialResult, now: nlh_sim::SimTime) {
    record.events.push(
        now,
        TrialEventKind::Classified,
        format!("{:?}", result.class),
    );
    record.outcome = Some(RecordedOutcome {
        class: result.class.clone(),
        injection: result.injection,
        steps: result.steps,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot_cache::BootCache;
    use crate::setup::{build_system, BenchKind};
    use nlh_core::{Microreboot, Microreset};

    /// A cold-booted trial with default options.
    fn cold_trial(config: &TrialConfig, mechanism: &dyn RecoveryMechanism) -> TrialResult {
        let (hv, layout) = build_system(config.machine.clone(), config.setup, config.seed);
        run_trial_with(hv, &layout, config, mechanism, TrialRunOptions::default()).0
    }

    #[test]
    fn failstop_trial_with_full_nilihype_usually_succeeds() {
        let mech = Microreset::nilihype();
        let mut successes = 0;
        let n = 20;
        for seed in 0..n {
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                seed,
            );
            let r = cold_trial(&cfg, &mech);
            assert!(r.observations.detected, "failstop is always detected");
            if r.class.is_success() {
                successes += 1;
            }
        }
        assert!(
            successes >= n * 7 / 10,
            "full NiLiHype should succeed most of the time: {successes}/{n}"
        );
    }

    #[test]
    fn basic_nilihype_never_succeeds() {
        let mech = Microreset::with_enhancements(nlh_core::Enhancements::none());
        for seed in 0..10 {
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                seed,
            );
            let r = cold_trial(&cfg, &mech);
            assert!(
                !r.class.is_success(),
                "seed {seed}: basic microreset cannot succeed, got {:?}",
                r.class
            );
        }
    }

    #[test]
    fn rehype_failstop_trial_succeeds_too() {
        let mech = Microreboot::rehype();
        let mut successes = 0;
        let n = 10;
        for seed in 100..100 + n {
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                seed,
            );
            if cold_trial(&cfg, &mech).class.is_success() {
                successes += 1;
            }
        }
        assert!(successes >= n * 6 / 10, "{successes}/{n}");
    }

    #[test]
    fn register_faults_mostly_non_manifested() {
        let mech = Microreset::nilihype();
        let mut nm = 0;
        let n = 30;
        for seed in 0..n {
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Register,
                seed,
            );
            if cold_trial(&cfg, &mech).class == TrialClass::NonManifested {
                nm += 1;
            }
        }
        assert!(nm > n / 2, "{nm}/{n} non-manifested");
    }

    #[test]
    fn warm_trial_equals_cold_trial() {
        let cache = BootCache::new();
        let mech = Microreset::nilihype();
        for seed in [0, 17, 4096] {
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                seed,
            );
            let cold = cold_trial(&cfg, &mech);
            let (hv, layout) = cache.checkout(&cfg.machine, cfg.setup, cfg.seed);
            let (warm, _, _) = run_trial_with(hv, &layout, &cfg, &mech, TrialRunOptions::default());
            assert_eq!(cold, warm, "seed {seed}");
        }
    }

    #[test]
    fn trial_is_deterministic() {
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Failstop,
            1234,
        );
        let a = cold_trial(&cfg, &mech);
        let b = cold_trial(&cfg, &mech);
        assert_eq!(a.class, b.class);
        assert_eq!(a.injection, b.injection);
    }
}
