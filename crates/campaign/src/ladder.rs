//! The Table I enhancement ladder: measurement-driven incremental
//! development of NiLiHype (Section V-B).

use nlh_core::{LadderRung, MechanismSpec};
use nlh_inject::FaultType;
use serde::{Deserialize, Serialize};

use crate::campaign::CampaignResult;
use crate::engine::{CampaignEngine, CellOutput};
use crate::setup::{BenchKind, SetupKind};
use crate::spec::CampaignSpec;
use crate::stream::NullSink;

/// One row of the reproduced Table I.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LadderRow {
    /// The rung.
    pub rung: LadderRung,
    /// Campaign results at this rung.
    pub result: CampaignResult,
}

/// Runs the Table I ladder on `engine`: for each cumulative enhancement
/// rung, a 1AppVM / UnixBench / fail-stop campaign (Section V-B),
/// returning one row per rung. All eight rung campaigns target the same
/// `(machine, setup)` key, so the engine's shared cache builds the boot
/// template once instead of once per rung.
pub fn run_ladder_on(
    engine: &CampaignEngine,
    trials_per_rung: u64,
    base_seed: u64,
) -> Vec<LadderRow> {
    LadderRung::ALL
        .iter()
        .map(|&rung| {
            let mut spec = CampaignSpec::new(
                format!("ladder-{}", rung.name()),
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                trials_per_rung,
            );
            spec.seed = base_seed;
            spec.mechanism = MechanismSpec::rung(rung);
            let cell = engine.run_spec(&spec, &mut NullSink);
            let result = match cell.output {
                CellOutput::Sharded(r) => r,
                CellOutput::Sampled(_) => unreachable!("ladder cells are sharded"),
            };
            LadderRow { rung, result }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_shape_holds_on_small_samples() {
        // The full calibration lives in the integration tests and
        // experiment binaries; here we sanity-check the two anchors that
        // define the ladder: Basic never succeeds, the top rung mostly
        // succeeds, and the trend is upward overall.
        let rows = run_ladder_on(&CampaignEngine::new(), 30, 11);
        assert_eq!(rows.len(), 8);
        let basic = rows.first().unwrap();
        assert_eq!(
            basic.result.successes, 0,
            "basic microreset must never succeed"
        );
        let top = rows.last().unwrap();
        assert!(
            top.result.success_rate().value() > 0.8,
            "full NiLiHype: {}",
            top.result.success_rate()
        );
        let first_rate = rows[1].result.success_rate().value();
        let top_rate = top.result.success_rate().value();
        assert!(first_rate < top_rate);
    }
}
