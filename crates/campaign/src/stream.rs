//! Streaming campaign telemetry: incremental per-cell snapshots.
//!
//! The resident [`crate::CampaignEngine`] emits a [`CampaignSnapshot`]
//! every [`crate::CampaignSpec::snapshot_every`] trials (and once at cell
//! completion) to a caller-supplied [`TelemetrySink`], so a long suite shows its recovery-rate estimates
//! and Wilson intervals tightening live instead of going silent until the
//! end. Snapshots are derived state — dropping them never changes a
//! campaign's result, which is what keeps the streaming path golden-safe.

use nlh_sim::stats::Proportion;

use crate::boot_cache::CacheCounters;

/// One point-in-time view of a running campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSnapshot {
    /// The cell's job name ([`crate::CampaignSpec::name`]).
    pub job: String,
    /// Trials completed so far (seed-ordered prefix).
    pub trials_done: u64,
    /// The cell's trial budget.
    pub trials_target: u64,
    /// Detected faults among completed trials.
    pub detected: u64,
    /// Successful recoveries among completed trials.
    pub successes: u64,
    /// `true` once the cell has finished (final snapshot).
    pub done: bool,
    /// Boot-cache activity attributable to this cell so far (counter
    /// deltas since the cell started; gauges are current values).
    pub cache: CacheCounters,
    /// The cell's share of wall-clock time: the seconds its stretch of
    /// cells has run so far times the cell's share of the host time its
    /// workers spent on them. The final snapshots of a stretch split what
    /// earlier ones left, so they sum to at most the stretch's time.
    pub wall_secs: f64,
}

impl CampaignSnapshot {
    /// Recovery rate over detected faults, as a [`Proportion`].
    pub fn recovery(&self) -> Proportion {
        Proportion::new(self.successes, self.detected)
    }

    /// A one-line human rendering with the Wilson 95% interval (`job:
    /// 40/100 trials, 31/38 recovered, 81.6% [66.6%, 90.8%]`).
    pub fn render_line(&self) -> String {
        let p = self.recovery();
        let (lo, hi) = p.wilson_95();
        let mark = if self.done { " [done]" } else { "" };
        format!(
            "{}: {}/{} trials, {}/{} recovered, {:.1}% [{:.1}%, {:.1}%]{}",
            self.job,
            self.trials_done,
            self.trials_target,
            self.successes,
            self.detected,
            p.value() * 100.0,
            lo * 100.0,
            hi * 100.0,
            mark
        )
    }
}

/// Receives streaming snapshots from the engine.
///
/// Sinks observe; they cannot influence execution, so any sink (or none)
/// yields bit-identical campaign results.
pub trait TelemetrySink {
    /// Called with each incremental or final snapshot, in order.
    fn snapshot(&mut self, snap: &CampaignSnapshot);
}

/// Discards every snapshot.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn snapshot(&mut self, _snap: &CampaignSnapshot) {}
}

/// Collects every snapshot in memory (tests, post-hoc inspection).
#[derive(Debug, Default)]
pub struct MemorySink {
    /// All snapshots received, in emission order.
    pub snapshots: Vec<CampaignSnapshot>,
}

impl TelemetrySink for MemorySink {
    fn snapshot(&mut self, snap: &CampaignSnapshot) {
        self.snapshots.push(snap.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(done: u64, detected: u64, successes: u64) -> CampaignSnapshot {
        CampaignSnapshot {
            job: "cell".into(),
            trials_done: done,
            trials_target: 100,
            detected,
            successes,
            done: false,
            cache: CacheCounters::default(),
            wall_secs: 0.0,
        }
    }

    #[test]
    fn snapshot_derives_rate_and_interval() {
        let s = snap(40, 38, 31);
        let p = Proportion::new(31, 38);
        assert_eq!(s.recovery().value(), p.value());
        assert!(s
            .render_line()
            .contains("31/38 recovered, 81.6% [66.6%, 90.8%]"));
    }

    #[test]
    fn memory_sink_keeps_order() {
        let mut sink = MemorySink::default();
        sink.snapshot(&snap(10, 9, 7));
        sink.snapshot(&snap(20, 18, 15));
        assert_eq!(sink.snapshots.len(), 2);
        assert_eq!(sink.snapshots[0].trials_done, 10);
        assert_eq!(sink.snapshots[1].trials_done, 20);
        NullSink.snapshot(&snap(1, 1, 1));
    }
}
