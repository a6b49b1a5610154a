//! [`MechanismSpec`]: a recovery configuration as plain data, with one
//! spelling per configuration, which manifests, trial records and
//! `replay --mech` share.
//!
//! `NiLiHype`, `ReHype`, `CheckpointRestore`, `Rung(<rung>)` and
//! `NiLiHype-NoSchedFix` name their configurations. Every other one is a
//! subtraction from `NiLiHype` or `ReHype`: one `-<flag>` per disabled
//! [`Enhancements`] or [`ReHypeConfig`] field, in declaration order, then
//! `discard=faulting` for [`DiscardPolicy::FaultingThreadOnly`], e.g.
//! `NiLiHype(-pfd_scan)`. `parse` accepts only the spelling `name` prints,
//! plus `Rung(VirtqueueConsistency)`, the full set, whose name is
//! `NiLiHype`.

use crate::checkpoint::CheckpointRestore;
use crate::clr::RecoveryMechanism;
use crate::enhancements::{Enhancements, LadderRung};
use crate::microreboot::{Microreboot, ReHypeConfig};
use crate::microreset::{DiscardPolicy, Microreset};

/// Which recovery mechanism to build, and how it is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismSpec {
    /// Microreset (NiLiHype).
    Microreset {
        /// The active enhancements.
        enhancements: Enhancements,
        /// Which execution threads recovery discards.
        discard: DiscardPolicy,
    },
    /// Microreboot (ReHype).
    Microreboot(ReHypeConfig),
    /// Rollback to a post-boot checkpoint (Section II-B).
    CheckpointRestore,
}

impl MechanismSpec {
    /// Full NiLiHype.
    pub fn nilihype() -> Self {
        MechanismSpec::Microreset {
            enhancements: Enhancements::full(),
            discard: DiscardPolicy::AllThreads,
        }
    }

    /// Full ReHype.
    pub fn rehype() -> Self {
        MechanismSpec::Microreboot(ReHypeConfig::full())
    }

    /// Microreset capped at a Table I ladder rung (cumulative enhancements
    /// up to and including the rung).
    pub fn rung(rung: LadderRung) -> Self {
        MechanismSpec::Microreset {
            enhancements: rung.enhancements(),
            discard: DiscardPolicy::AllThreads,
        }
    }

    /// Instantiates the mechanism.
    pub fn build(&self) -> Box<dyn RecoveryMechanism> {
        match *self {
            MechanismSpec::Microreset {
                enhancements,
                discard,
            } => Box::new(Microreset::new(enhancements, discard)),
            MechanismSpec::Microreboot(config) => Box::new(Microreboot::with_config(config)),
            MechanismSpec::CheckpointRestore => Box::new(CheckpointRestore),
        }
    }

    /// The configuration's one spelling (see the module docs).
    pub fn name(&self) -> String {
        let (base, items) = match *self {
            MechanismSpec::Microreset {
                mut enhancements,
                discard,
            } => {
                if discard == DiscardPolicy::AllThreads {
                    if let Some((name, _)) = named_microresets().find(|(_, e)| *e == enhancements) {
                        return name;
                    }
                }
                let mut items = subtracted(enhancements.flags_mut());
                if discard == DiscardPolicy::FaultingThreadOnly {
                    items.push("discard=faulting".into());
                }
                ("NiLiHype", items)
            }
            MechanismSpec::Microreboot(mut config) => ("ReHype", subtracted(config.flags_mut())),
            MechanismSpec::CheckpointRestore => ("CheckpointRestore", Vec::new()),
        };
        if items.is_empty() {
            base.into()
        } else {
            format!("{base}({})", items.join(","))
        }
    }

    /// Parses a [`MechanismSpec::name`]; `None` for any other string.
    pub fn parse(s: &str) -> Option<MechanismSpec> {
        if let Some((_, enhancements)) = named_microresets().find(|(name, _)| name == s) {
            return Some(MechanismSpec::Microreset {
                enhancements,
                discard: DiscardPolicy::AllThreads,
            });
        }
        let (base, args) = match s.split_once('(') {
            Some((base, rest)) => (base, Some(rest.strip_suffix(')')?)),
            None => (s, None),
        };
        let args = args.into_iter().flat_map(|a| a.split(','));
        let spec = match base {
            "CheckpointRestore" => MechanismSpec::CheckpointRestore,
            "NiLiHype" => {
                let mut enhancements = Enhancements::full();
                let mut discard = DiscardPolicy::AllThreads;
                for arg in args {
                    if arg == "discard=faulting" {
                        discard = DiscardPolicy::FaultingThreadOnly;
                    } else {
                        clear(enhancements.flags_mut(), arg)?;
                    }
                }
                MechanismSpec::Microreset {
                    enhancements,
                    discard,
                }
            }
            "ReHype" => {
                let mut config = ReHypeConfig::full();
                for arg in args {
                    clear(config.flags_mut(), arg)?;
                }
                MechanismSpec::Microreboot(config)
            }
            _ => return None,
        };
        (spec.name() == s).then_some(spec)
    }
}

/// The microreset configurations that discard all threads and have a name
/// of their own, first match wins: full NiLiHype, the overcommit
/// campaign's no-sched-fix arm, and the Table I rungs (the top rung is
/// the full set, so it only parses).
fn named_microresets() -> impl Iterator<Item = (String, Enhancements)> {
    let no_sched_fix = Enhancements {
        sched_consistency: false,
        ..Enhancements::full()
    };
    [
        ("NiLiHype".to_string(), Enhancements::full()),
        ("NiLiHype-NoSchedFix".to_string(), no_sched_fix),
    ]
    .into_iter()
    .chain(LadderRung::ALL.map(|r| (format!("Rung({})", r.name()), r.enhancements())))
}

/// `-<flag>` for every disabled flag, in table order.
fn subtracted<const N: usize>(flags: [(&str, &mut bool); N]) -> Vec<String> {
    flags
        .into_iter()
        .filter(|(_, on)| !**on)
        .map(|(flag, _)| format!("-{flag}"))
        .collect()
}

/// Clears the flag `arg` (`-<flag>`) names; `None` if it names none.
fn clear<const N: usize>(flags: [(&str, &mut bool); N], arg: &str) -> Option<()> {
    let flag = arg.strip_prefix('-')?;
    let (_, on) = flags.into_iter().find(|(name, _)| *name == flag)?;
    *on = false;
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Sets each flag from one bit of `bits`, in table order.
    fn set_flags<const N: usize>(flags: [(&str, &mut bool); N], bits: u16) {
        for (i, (_, on)) in flags.into_iter().enumerate() {
            *on = bits >> i & 1 == 1;
        }
    }

    fn assert_round_trips(spec: MechanismSpec) {
        let name = spec.name();
        assert_eq!(MechanismSpec::parse(&name), Some(spec), "{name}");
        assert_eq!(spec.build().name(), name);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random enhancement sets under either discard policy, and random
        /// ReHype configurations, parse back from their names, and the
        /// mechanisms they build report those names.
        #[test]
        fn names_round_trip(bits in 0u16..1 << 14, faulting in any::<bool>(), rehype in 0u16..64) {
            let mut enhancements = Enhancements::none();
            set_flags(enhancements.flags_mut(), bits);
            let discard = if faulting {
                DiscardPolicy::FaultingThreadOnly
            } else {
                DiscardPolicy::AllThreads
            };
            assert_round_trips(MechanismSpec::Microreset { enhancements, discard });
            let mut config = ReHypeConfig::full();
            set_flags(config.flags_mut(), rehype);
            assert_round_trips(MechanismSpec::Microreboot(config));
        }
    }

    /// Spellings and the configurations they parse to (`None`: rejected).
    /// The first eleven are the spellings manifests and golden logs used
    /// before the grammar existed, with their configurations at the time.
    #[test]
    fn spellings_parse_to_their_configurations() {
        let reset = |enhancements, discard| {
            Some(MechanismSpec::Microreset {
                enhancements,
                discard,
            })
        };
        let (full, all, faulting) = (
            Enhancements::full(),
            DiscardPolicy::AllThreads,
            DiscardPolicy::FaultingThreadOnly,
        );
        let without = |clear: fn(&mut Enhancements)| {
            let mut e = full;
            clear(&mut e);
            e
        };
        let mut table: Vec<(String, Option<MechanismSpec>)> = LadderRung::ALL
            .map(|r| (format!("Rung({})", r.name()), reset(r.enhancements(), all)))
            .into();
        let rehype = ReHypeConfig::full();
        let no_sched_fix = without(|e| e.sched_consistency = false);
        let no_scan = without(|e| e.pfd_scan = false);
        let no_undo = without(|e| e.nonidem_mitigation = false);
        for (spelling, spec) in [
            ("NiLiHype", reset(full, all)),
            ("NiLiHype-NoSchedFix", reset(no_sched_fix, all)),
            ("ReHype", Some(MechanismSpec::Microreboot(rehype))),
            ("NiLiHype(-pfd_scan)", reset(no_scan, all)),
            ("NiLiHype(discard=faulting)", reset(full, faulting)),
            (
                "NiLiHype(-nonidem_mitigation,discard=faulting)",
                reset(no_undo, faulting),
            ),
            (
                "ReHype(-nonidem_mitigation)",
                Some(MechanismSpec::Microreboot(ReHypeConfig {
                    nonidem_mitigation: false,
                    ..rehype
                })),
            ),
            ("CheckpointRestore", Some(MechanismSpec::CheckpointRestore)),
            ("", None),
            ("NiLiHype()", None),
            ("NiLiHype(-pfd_scan,-pfd_scan)", None),
            ("NiLiHype(-pfd_scan,-nonidem_mitigation)", None),
            ("NiLiHype(-nope)", None),
            ("NiLiHype(pfd_scan)", None),
            ("NiLiHype(-pfd_scan,)", None),
            ("NiLiHype(-pfd_scan", None),
            ("NiLiHype(discard=all)", None),
            ("NiLiHype(-sched_consistency)", None),
            ("ReHype(discard=faulting)", None),
            ("ReHype(-pfd_scan)", None),
            ("CheckpointRestore()", None),
            ("Rung(Nope)", None),
        ] {
            table.push((spelling.into(), spec));
        }
        for (spelling, spec) in table {
            assert_eq!(MechanismSpec::parse(&spelling), spec, "{spelling:?}");
        }
        // The top rung is the full set, so it records itself as NiLiHype.
        let top = MechanismSpec::rung(LadderRung::VirtqueueConsistency);
        assert_eq!(top.name(), "NiLiHype");
    }
}
