//! Warm-start boot templates: build the post-boot system once, clone it
//! per trial.
//!
//! Every trial needs a freshly booted `(Hypervisor, SystemLayout)` pair.
//! Booting is deterministic and — because no simulation steps run during
//! [`build_system`] — the trial seed influences nothing but RNG state.
//! A [`BootCache`] therefore builds the system once per
//! `(MachineConfig, SetupKind)` key from a canonical seed, and each trial
//! checks out a deep clone with its own seed re-derived into every RNG via
//! [`reseed_system`]. The clone is bit-for-bit what a cold boot with that
//! seed would have produced, at a fraction of the cost.
//!
//! The cache is the resident campaign engine's shared service: one cache
//! outlives many campaigns, so a whole suite pays each template build once
//! (see `engine.rs`). Templates stay resident for the cache's lifetime:
//! there is one per distinct key a suite touches, a handful at most.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

use nlh_hv::{Hypervisor, MachineConfig};

use crate::setup::{build_system, reseed_system, SetupKind, SystemLayout};

/// Seed used to build templates. Arbitrary: checkout re-derives all RNG
/// state from the trial seed, so the template seed never leaks into trials.
const TEMPLATE_SEED: u64 = 0;

/// A pristine post-boot system, shared read-only between workers.
type Template = Arc<(Hypervisor, SystemLayout)>;

/// Point-in-time counters of a [`BootCache`], embedded in campaign
/// telemetry so cross-campaign template reuse is observable per cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Checkouts served by an already-built template: every checkout but
    /// the first of each template.
    pub hits: u64,
    /// Template builds. The first checkout of a key pays for its build,
    /// whether the checkout built the template itself or
    /// [`BootCache::prepare`] built it ahead of time.
    pub misses: u64,
    /// Number of currently resident templates.
    pub resident_templates: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    templates: HashMap<(MachineConfig, SetupKind), Template>,
    checkouts: u64,
    builds: u64,
}

/// A cache of pristine post-boot systems, keyed by machine + setup.
///
/// Shared by the campaign worker threads; the map lock is held only to
/// look up (or build) a template, never during the per-trial deep clone.
#[derive(Debug)]
pub struct BootCache {
    inner: Mutex<CacheInner>,
}

impl Default for BootCache {
    fn default() -> Self {
        BootCache::new()
    }
}

impl BootCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        BootCache {
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// The template for `(machine, setup)`, built on first use, and
    /// whether this call built it. Counts a checkout if `checkout`.
    fn template(
        &self,
        machine: &MachineConfig,
        setup: SetupKind,
        checkout: bool,
    ) -> (Template, bool) {
        let mut inner = self.inner.lock().unwrap();
        inner.checkouts += u64::from(checkout);
        if let Some(template) = inner.templates.get(&(machine.clone(), setup)) {
            return (Arc::clone(template), false);
        }
        // Build under the lock: concurrent first checkouts of one key must
        // produce exactly one build.
        inner.builds += 1;
        let built = Arc::new(build_system(machine.clone(), setup, TEMPLATE_SEED));
        inner
            .templates
            .insert((machine.clone(), setup), Arc::clone(&built));
        (built, true)
    }

    /// Returns a ready-to-run system for `seed`: a deep clone of the cached
    /// post-boot template with every RNG re-derived from `seed`. Builds and
    /// caches the template on first use of a `(machine, setup)` key.
    pub fn checkout(
        &self,
        machine: &MachineConfig,
        setup: SetupKind,
        seed: u64,
    ) -> (Hypervisor, SystemLayout) {
        let (template, _) = self.template(machine, setup, true);
        let (mut hv, layout) = (*template).clone();
        reseed_system(&mut hv, seed);
        (hv, layout)
    }

    /// Builds the template for `(machine, setup)` now if it is not
    /// resident, without checking anything out. Returns whether it built.
    pub fn prepare(&self, machine: &MachineConfig, setup: SetupKind) -> bool {
        self.template(machine, setup, false).1
    }

    /// `(hits, misses)` — checkouts served from a cached template vs.
    /// template builds.
    pub fn stats(&self) -> (u64, u64) {
        let c = self.counters();
        (c.hits, c.misses)
    }

    /// A full snapshot of the cache's counters and resident set.
    pub fn counters(&self) -> CacheCounters {
        let inner = self.inner.lock().unwrap();
        CacheCounters {
            hits: inner.checkouts.saturating_sub(inner.builds),
            misses: inner.builds,
            resident_templates: inner.templates.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::BenchKind;

    #[test]
    fn checkout_builds_once_per_key() {
        let cache = BootCache::new();
        let machine = MachineConfig::small();
        let one = SetupKind::OneAppVm(BenchKind::UnixBench);
        cache.checkout(&machine, one, 1);
        cache.checkout(&machine, one, 2);
        cache.checkout(&machine, SetupKind::ThreeAppVm, 3);
        assert_eq!(cache.stats(), (1, 2));
        let c = cache.counters();
        assert_eq!(c.resident_templates, 2);
    }

    #[test]
    fn checkout_matches_cold_boot_layout_and_state() {
        let cache = BootCache::new();
        let machine = MachineConfig::small();
        for setup in [
            SetupKind::OneAppVm(BenchKind::NetBench),
            SetupKind::ThreeAppVm,
            SetupKind::TwoAppVmSharedCpu,
        ] {
            let (warm_hv, warm_layout) = cache.checkout(&machine, setup, 42);
            let (cold_hv, cold_layout) = build_system(machine.clone(), setup, 42);
            assert_eq!(warm_layout, cold_layout);
            assert_eq!(warm_hv.rng, cold_hv.rng, "{setup:?}: hypervisor RNG");
            assert_eq!(warm_hv.domains.len(), cold_hv.domains.len());
            assert_eq!(warm_hv.pft.free_count(), cold_hv.pft.free_count());
            assert_eq!(warm_hv.create_queue.len(), cold_hv.create_queue.len());
        }
    }

    #[test]
    fn prepared_template_is_paid_for_by_its_first_checkout() {
        let cache = BootCache::new();
        let machine = MachineConfig::small();
        let setup = SetupKind::OneAppVm(BenchKind::UnixBench);
        assert!(cache.prepare(&machine, setup));
        assert!(!cache.prepare(&machine, setup), "already resident");
        for seed in 0..3 {
            cache.checkout(&machine, setup, seed);
        }
        assert_eq!(cache.stats(), (2, 1), "as if the first checkout built it");
    }

    #[test]
    fn concurrent_checkouts_share_one_template() {
        let cache = BootCache::new();
        let machine = MachineConfig::small();
        let setup = SetupKind::OneAppVm(BenchKind::UnixBench);
        std::thread::scope(|scope| {
            for i in 0..8u64 {
                let cache = &cache;
                let machine = &machine;
                scope.spawn(move || {
                    let (hv, _) = cache.checkout(machine, setup, i);
                    assert_eq!(hv.domains.len(), 2);
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1, "exactly one build despite 8 threads");
        assert_eq!(hits, 7);
    }
}
