//! Per-trial event log: compact records of what a trial did, cheap enough
//! to stay on by default.
//!
//! A fault-injection campaign's most valuable trials are the rare residual
//! failures, and before this module they evaporated when the process
//! exited. A [`TrialRecord`] captures everything needed to re-run a trial
//! bit-identically from its [`BootCache`](crate::BootCache) snapshot — the
//! seed, machine/setup key, fault type and trigger draw — plus a bounded
//! ring of key events (trigger fire, injection point, detector fire,
//! recovery phases, outcome) for at-a-glance debugging without re-running
//! anything.
//!
//! Records serialize to a line-oriented text format (`to_text` /
//! `from_text`); the workspace's `serde` is a no-op shim, so the format is
//! hand-rolled and versioned. A checked-in record of a known residual
//! failure (`tests/data/`) pins both the format and the replay path in CI.
//!
//! ## Determinism preconditions
//!
//! Replay reproduces the original [`TrialResult`] exactly because every
//! source of randomness derives from the recorded key:
//!
//! * the system is checked out of the [`BootCache`](crate::BootCache)
//!   (clone + reseed), which the warm==cold differential proptests pin to
//!   cold boots;
//! * the injector's trigger draws come from a seed derived from the trial
//!   seed, plus the recorded `trigger_ops` range for steered trials;
//! * the step loops are deterministic (batched==unbatched is pinned by
//!   PR 5's differential tests).

use std::collections::VecDeque;
use std::fmt::Write as _;

use nlh_core::RecoveryMechanism;
use nlh_hv::{HandlerKind, MachineConfig};
use nlh_inject::{FaultType, InjectionOutcome, InjectionPoint};
use nlh_sim::{CpuId, SimTime};

use crate::boot_cache::BootCache;
use crate::classify::TrialClass;
use crate::spec::{parse_setup, setup_manifest_name};
use crate::trial::{run_trial_with, TrialConfig, TrialResult, TrialRunOptions};

/// Maximum events a record retains; older events are dropped (with a
/// count) once the ring is full. Trials emit on the order of ten events,
/// so in practice nothing is dropped.
pub const EVENT_RING_CAPACITY: usize = 64;

/// The kind of a recorded trial event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialEventKind {
    /// The first-level trigger timer fired; the micro-op counter is armed.
    TriggerFired,
    /// The fault was applied.
    Injected,
    /// A detector (panic or watchdog) fired.
    DetectorFired,
    /// Recovery began.
    RecoveryStarted,
    /// One recovery phase completed.
    RecoveryPhase,
    /// Recovery finished.
    RecoveryDone,
    /// Recovery could not complete.
    RecoveryAborted,
    /// A detector fired again after recovery.
    SecondDetection,
    /// The trial was classified.
    Classified,
}

impl TrialEventKind {
    /// Stable name used by the text format.
    pub fn name(self) -> &'static str {
        match self {
            TrialEventKind::TriggerFired => "TriggerFired",
            TrialEventKind::Injected => "Injected",
            TrialEventKind::DetectorFired => "DetectorFired",
            TrialEventKind::RecoveryStarted => "RecoveryStarted",
            TrialEventKind::RecoveryPhase => "RecoveryPhase",
            TrialEventKind::RecoveryDone => "RecoveryDone",
            TrialEventKind::RecoveryAborted => "RecoveryAborted",
            TrialEventKind::SecondDetection => "SecondDetection",
            TrialEventKind::Classified => "Classified",
        }
    }

    /// Parses a name produced by [`TrialEventKind::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        const ALL: [TrialEventKind; 9] = [
            TrialEventKind::TriggerFired,
            TrialEventKind::Injected,
            TrialEventKind::DetectorFired,
            TrialEventKind::RecoveryStarted,
            TrialEventKind::RecoveryPhase,
            TrialEventKind::RecoveryDone,
            TrialEventKind::RecoveryAborted,
            TrialEventKind::SecondDetection,
            TrialEventKind::Classified,
        ];
        ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One entry in a trial's event ring: when, what, and a short free-form
/// detail string (already formatted — events are for humans and golden
/// files, not for steering; the typed injection point lives in
/// [`TrialRecord::injection`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: TrialEventKind,
    /// Pre-formatted detail (may be empty; never contains newlines).
    pub detail: String,
}

/// A bounded ring of [`TrialEvent`]s; the newest
/// [`EVENT_RING_CAPACITY`] entries win.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventRing {
    events: VecDeque<TrialEvent>,
    dropped: u64,
}

impl EventRing {
    /// An empty ring.
    pub fn new() -> Self {
        EventRing::default()
    }

    /// Appends an event, evicting the oldest entry when full.
    pub fn push(&mut self, at: SimTime, kind: TrialEventKind, detail: impl Into<String>) {
        if self.events.len() == EVENT_RING_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        let mut detail = detail.into();
        if detail.contains('\n') {
            detail = detail.replace('\n', " ");
        }
        self.events.push_back(TrialEvent { at, kind, detail });
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TrialEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of evicted events.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Outcome summary stored in a record (enough for a replay to assert
/// equivalence without the full in-memory [`TrialResult`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedOutcome {
    /// Final classification.
    pub class: TrialClass,
    /// How the fault manifested (`None` if the trigger never fired).
    pub injection: Option<InjectionOutcome>,
    /// Steps executed by the trial body.
    pub steps: u64,
}

/// The compact per-trial log: identity, trigger draws, injection point,
/// event ring and outcome. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// The trial's full configuration (seed, setup, fault, machine).
    pub config: TrialConfig,
    /// The ops range the second-level trigger budget was drawn from.
    /// `(0, MAX_TRIGGER_OPS)` for uniform campaigns; a narrower stratum
    /// under coverage-guided steering.
    pub trigger_ops: (u64, u64),
    /// The handler filter a steered trial held the armed injector for
    /// (`None` for unsteered trials). Part of the identity: replay must
    /// restore it or the fault lands elsewhere.
    pub steer_handler: Option<HandlerKind>,
    /// The steered in-handler op delay ([`TrialRunOptions::steer_depth`]):
    /// `0` (the historical behaviour) injects on the first op inside the
    /// steered handler. Written only when nonzero, so older records and
    /// golden logs are byte-identical.
    pub steer_depth: u64,
    /// The mechanism's [`RecoveryMechanism::name`]: the
    /// [`crate::MechanismSpec`] spelling of its configuration
    /// (`"NiLiHype"`, `"Rung(Basic)"`, `"NiLiHype(-pfd_scan)"`, ...),
    /// which replay parses and rebuilds.
    pub mechanism: String,
    /// When the first-level trigger timer was set to fire.
    pub fire_at: SimTime,
    /// The drawn second-level micro-op budget.
    pub ops_budget: u64,
    /// Where the fault landed, if it was injected.
    pub injection: Option<InjectionPoint>,
    /// The bounded event ring.
    pub events: EventRing,
    /// The trial's outcome (always present for completed trials; `None`
    /// only for step-limited prefix runs).
    pub outcome: Option<RecordedOutcome>,
}

fn format_class(class: &TrialClass) -> String {
    match class {
        TrialClass::NonManifested => "NonManifested".into(),
        TrialClass::Sdc => "Sdc".into(),
        TrialClass::RecoverySuccess { no_vm_failures } => {
            format!("RecoverySuccess no_vmf={no_vm_failures}")
        }
        TrialClass::RecoveryFailure(reason) => format!("RecoveryFailure {reason}"),
    }
}

fn parse_class(s: &str) -> Option<TrialClass> {
    match s {
        "NonManifested" => Some(TrialClass::NonManifested),
        "Sdc" => Some(TrialClass::Sdc),
        _ => {
            if let Some(rest) = s.strip_prefix("RecoverySuccess no_vmf=") {
                return Some(TrialClass::RecoverySuccess {
                    no_vm_failures: rest.trim() == "true",
                });
            }
            s.strip_prefix("RecoveryFailure ")
                .map(|r| TrialClass::RecoveryFailure(r.to_string()))
        }
    }
}

fn format_injection_outcome(o: InjectionOutcome) -> &'static str {
    match o {
        InjectionOutcome::NonManifested => "NonManifested",
        InjectionOutcome::Sdc => "Sdc",
        InjectionOutcome::Detected => "Detected",
    }
}

fn parse_injection_outcome(s: &str) -> Option<InjectionOutcome> {
    match s {
        "NonManifested" => Some(InjectionOutcome::NonManifested),
        "Sdc" => Some(InjectionOutcome::Sdc),
        "Detected" => Some(InjectionOutcome::Detected),
        "none" => None,
        _ => None,
    }
}

/// Extracts `key=value` from a whitespace-separated field list.
fn field<'a>(fields: &'a [&'a str], key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find_map(|f| f.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

impl TrialRecord {
    /// Serializes the record to the versioned line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("# nlh trial record\n");
        out.push_str("version = 2\n");
        let _ = writeln!(out, "seed = {}", self.config.seed);
        let _ = writeln!(out, "setup = {}", setup_manifest_name(self.config.setup));
        let _ = writeln!(out, "fault = {}", self.config.fault);
        let _ = writeln!(
            out,
            "machine = cpus={} mem_mib={} freq_mhz={}",
            self.config.machine.num_cpus,
            self.config.machine.memory_mib,
            self.config.machine.cpu_freq_mhz
        );
        let _ = writeln!(out, "mechanism = {}", self.mechanism);
        let _ = writeln!(
            out,
            "trigger_ops = {}..{}",
            self.trigger_ops.0, self.trigger_ops.1
        );
        if let Some(h) = self.steer_handler {
            let _ = writeln!(out, "steer_handler = {h}");
        }
        if self.steer_depth != 0 {
            let _ = writeln!(out, "steer_depth = {}", self.steer_depth);
        }
        let _ = writeln!(out, "fire_at = {}", self.fire_at.as_nanos());
        let _ = writeln!(out, "ops_budget = {}", self.ops_budget);
        if let Some(p) = &self.injection {
            let _ = writeln!(
                out,
                "injection = cpu={} at={} handler={} op={} len={} budget={}",
                p.cpu.index(),
                p.at.as_nanos(),
                p.handler,
                p.op_index,
                p.program_len,
                p.ops_budget
            );
        }
        if self.events.dropped() > 0 {
            let _ = writeln!(out, "events_dropped = {}", self.events.dropped());
        }
        for e in self.events.iter() {
            let _ = writeln!(
                out,
                "event = {} {} {}",
                e.at.as_nanos(),
                e.kind.name(),
                e.detail
            );
        }
        if let Some(o) = &self.outcome {
            let _ = writeln!(
                out,
                "injection_outcome = {}",
                o.injection.map(format_injection_outcome).unwrap_or("none")
            );
            let _ = writeln!(out, "steps = {}", o.steps);
            let _ = writeln!(out, "class = {}", format_class(&o.class));
        }
        out
    }

    /// Parses a record produced by [`TrialRecord::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<TrialRecord, String> {
        let mut seed = None;
        let mut setup = None;
        let mut fault = None;
        let mut machine = None;
        let mut mechanism = None;
        let mut trigger_ops = None;
        let mut steer_handler = None;
        let mut steer_depth = 0u64;
        let mut fire_at = None;
        let mut ops_budget = None;
        let mut injection = None;
        let mut events = EventRing::new();
        let mut injection_outcome: Option<Option<InjectionOutcome>> = None;
        let mut steps = None;
        let mut class = None;

        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", ln + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("line {}: bad {what}: {value}", ln + 1);
            match key {
                "version" => {
                    if value != "2" {
                        return Err(format!("unsupported record version {value}"));
                    }
                }
                "seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "setup" => setup = Some(parse_setup(value).ok_or_else(|| bad("setup"))?),
                "fault" => fault = Some(FaultType::from_name(value).ok_or_else(|| bad("fault"))?),
                "machine" => {
                    let fields: Vec<&str> = value.split_whitespace().collect();
                    let get = |k: &str| {
                        field(&fields, k)
                            .and_then(|v| v.parse::<u64>().ok())
                            .ok_or_else(|| bad("machine"))
                    };
                    machine = Some(MachineConfig {
                        num_cpus: get("cpus")? as usize,
                        memory_mib: get("mem_mib")?,
                        cpu_freq_mhz: get("freq_mhz")?,
                    });
                }
                "mechanism" => mechanism = Some(value.to_string()),
                "trigger_ops" => {
                    let (lo, hi) = value.split_once("..").ok_or_else(|| bad("trigger_ops"))?;
                    trigger_ops = Some((
                        lo.parse::<u64>().map_err(|_| bad("trigger_ops"))?,
                        hi.parse::<u64>().map_err(|_| bad("trigger_ops"))?,
                    ));
                }
                "steer_handler" => {
                    steer_handler =
                        Some(HandlerKind::from_name(value).ok_or_else(|| bad("steer_handler"))?);
                }
                "steer_depth" => {
                    steer_depth = value.parse::<u64>().map_err(|_| bad("steer_depth"))?;
                }
                "fire_at" => {
                    fire_at = Some(SimTime::from_nanos(
                        value.parse::<u64>().map_err(|_| bad("fire_at"))?,
                    ))
                }
                "ops_budget" => {
                    ops_budget = Some(value.parse::<u64>().map_err(|_| bad("ops_budget"))?)
                }
                "injection" => {
                    let fields: Vec<&str> = value.split_whitespace().collect();
                    let num = |k: &str| {
                        field(&fields, k)
                            .and_then(|v| v.parse::<u64>().ok())
                            .ok_or_else(|| bad("injection"))
                    };
                    let handler = field(&fields, "handler")
                        .and_then(HandlerKind::from_name)
                        .ok_or_else(|| bad("injection handler"))?;
                    injection = Some(InjectionPoint {
                        cpu: CpuId::from_index(num("cpu")? as usize),
                        at: SimTime::from_nanos(num("at")?),
                        handler,
                        op_index: num("op")? as usize,
                        program_len: num("len")? as usize,
                        ops_budget: num("budget")?,
                    });
                }
                "events_dropped" => {
                    events.dropped = value.parse::<u64>().map_err(|_| bad("events_dropped"))?;
                }
                "event" => {
                    let mut parts = value.splitn(3, ' ');
                    let at = parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| bad("event time"))?;
                    let kind = parts
                        .next()
                        .and_then(TrialEventKind::from_name)
                        .ok_or_else(|| bad("event kind"))?;
                    let detail = parts.next().unwrap_or("").to_string();
                    events.events.push_back(TrialEvent {
                        at: SimTime::from_nanos(at),
                        kind,
                        detail,
                    });
                }
                "injection_outcome" => injection_outcome = Some(parse_injection_outcome(value)),
                "steps" => steps = Some(value.parse::<u64>().map_err(|_| bad("steps"))?),
                "class" => class = Some(parse_class(value).ok_or_else(|| bad("class"))?),
                other => return Err(format!("line {}: unknown key `{other}`", ln + 1)),
            }
        }

        let config = TrialConfig {
            setup: setup.ok_or("missing setup")?,
            fault: fault.ok_or("missing fault")?,
            seed: seed.ok_or("missing seed")?,
            machine: machine.ok_or("missing machine")?,
        };
        config.setup.check_machine(&config.machine)?;
        let outcome = match class {
            Some(class) => Some(RecordedOutcome {
                class,
                injection: injection_outcome.ok_or("missing injection_outcome")?,
                steps: steps.ok_or("missing steps")?,
            }),
            None => None,
        };
        Ok(TrialRecord {
            config,
            trigger_ops: trigger_ops
                .filter(|(lo, hi)| lo < hi)
                .ok_or("missing or empty trigger_ops range")?,
            steer_handler,
            steer_depth,
            mechanism: mechanism.ok_or("missing mechanism")?,
            fire_at: fire_at.ok_or("missing fire_at")?,
            ops_budget: ops_budget.ok_or("missing ops_budget")?,
            injection,
            events,
            outcome,
        })
    }

    /// Re-runs the recorded trial from its [`BootCache`] snapshot and
    /// checks the replay against the record.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch: a trigger draw that
    /// differs (the record and the code disagree on the derivation), or a
    /// replayed outcome that differs from the recorded one.
    pub fn replay(
        &self,
        mechanism: &dyn RecoveryMechanism,
        cache: &BootCache,
    ) -> Result<TrialResult, String> {
        if mechanism.name() != self.mechanism {
            return Err(format!(
                "mechanism mismatch: record says {}, got {}",
                self.mechanism,
                mechanism.name()
            ));
        }
        let (hv, layout) =
            cache.checkout(&self.config.machine, self.config.setup, self.config.seed);
        let opts = TrialRunOptions {
            trigger_ops: Some(self.trigger_ops),
            steer_handler: self.steer_handler,
            steer_depth: self.steer_depth,
            ..TrialRunOptions::default()
        };
        let (result, record, _) = run_trial_with(hv, &layout, &self.config, mechanism, opts);
        if record.fire_at != self.fire_at || record.ops_budget != self.ops_budget {
            return Err(format!(
                "trigger drift: recorded fire_at={} budget={}, replay drew fire_at={} budget={}",
                self.fire_at.as_nanos(),
                self.ops_budget,
                record.fire_at.as_nanos(),
                record.ops_budget
            ));
        }
        if record.injection != self.injection {
            return Err(format!(
                "injection point drift: recorded {:?}, replayed {:?}",
                self.injection, record.injection
            ));
        }
        if let Some(expected) = &self.outcome {
            let got = record
                .outcome
                .as_ref()
                .ok_or("replay produced no outcome")?;
            if got != expected {
                return Err(format!(
                    "outcome drift: recorded {expected:?}, replayed {got:?}"
                ));
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{BenchKind, SetupKind};
    use crate::trial::MAX_TRIGGER_OPS;

    fn sample_record() -> TrialRecord {
        let mut events = EventRing::new();
        events.push(
            SimTime::from_millis(30),
            TrialEventKind::Injected,
            "cpu=2 handler=TimerInterrupt op=3/9 outcome=Detected",
        );
        events.push(
            SimTime::from_millis(31),
            TrialEventKind::DetectorFired,
            "Panic cpu2",
        );
        TrialRecord {
            config: TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                42,
            ),
            trigger_ops: (0, MAX_TRIGGER_OPS),
            steer_handler: None,
            steer_depth: 0,
            mechanism: "NiLiHype".into(),
            fire_at: SimTime::from_millis(29),
            ops_budget: 117,
            injection: Some(InjectionPoint {
                cpu: CpuId::from_index(2),
                at: SimTime::from_millis(30),
                handler: HandlerKind::TimerInterrupt,
                op_index: 3,
                program_len: 9,
                ops_budget: 117,
            }),
            events,
            outcome: Some(RecordedOutcome {
                class: TrialClass::RecoveryFailure("the AppVM was affected".into()),
                injection: Some(InjectionOutcome::Detected),
                steps: 123_456,
            }),
        }
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let rec = sample_record();
        let text = rec.to_text();
        let back = TrialRecord::from_text(&text).expect("parse");
        assert_eq!(rec, back);
        // And re-serialization is stable (golden files depend on it).
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn every_class_round_trips() {
        for class in [
            TrialClass::NonManifested,
            TrialClass::Sdc,
            TrialClass::RecoverySuccess {
                no_vm_failures: true,
            },
            TrialClass::RecoverySuccess {
                no_vm_failures: false,
            },
            TrialClass::RecoveryFailure("two AppVMs affected".into()),
        ] {
            assert_eq!(parse_class(&format_class(&class)), Some(class));
        }
    }

    #[test]
    fn steer_handler_key_round_trips() {
        let mut rec = sample_record();
        rec.steer_handler = Some(HandlerKind::VirtioMmio);
        let text = rec.to_text();
        assert!(text.contains("steer_handler = VirtioMmio"));
        let back = TrialRecord::from_text(&text).expect("parse");
        assert_eq!(rec, back);
        // Absent key stays None (older records parse unchanged).
        rec.steer_handler = None;
        let back = TrialRecord::from_text(&rec.to_text()).expect("parse");
        assert_eq!(back.steer_handler, None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TrialRecord::from_text("nonsense").is_err());
        assert!(TrialRecord::from_text("version = 9\n").is_err());
        // Version 1 spelled setups differently and has no reader.
        let v1 = sample_record()
            .to_text()
            .replace("version = 2", "version = 1")
            .replace("OneAppVm(UnixBench)", "OneAppVm:UnixBench");
        assert!(TrialRecord::from_text(&v1).is_err());
        // Missing mandatory keys.
        assert!(TrialRecord::from_text("version = 2\nseed = 3\n").is_err());
    }

    #[test]
    fn ring_bounds_and_drop_count() {
        let mut ring = EventRing::new();
        for i in 0..(EVENT_RING_CAPACITY as u64 + 10) {
            ring.push(SimTime::from_nanos(i), TrialEventKind::RecoveryPhase, "");
        }
        assert_eq!(ring.len(), EVENT_RING_CAPACITY);
        assert_eq!(ring.dropped(), 10);
        assert_eq!(ring.iter().next().unwrap().at, SimTime::from_nanos(10));
    }
}
