//! Target-system configurations (Section VI-A).

use nlh_hv::domain::{DomainKind, DomainSpec, GuestProgram};
use nlh_hv::{CpuId, DomId, Hypervisor, MachineConfig};
use nlh_sim::{Pcg64, SimDuration, SimTime};
use nlh_workloads::{BlkBench, NetBench, PrivVmDriver, UnixBench, VirtioBlkBench, VirtioNetBench};
use serde::{Deserialize, Serialize};

/// The synthetic benchmarks (Section VI-A, plus the virtio device-path
/// variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BenchKind {
    /// Block-device stress.
    BlkBench,
    /// Hypercall/VM-management stress.
    UnixBench,
    /// UDP ping responder (also the latency probe).
    NetBench,
    /// Block-device stress over the virtio-blk descriptor ring.
    VirtioBlkBench,
    /// Paced east-west frames through a virtio-net port (loopback in the
    /// 1AppVM setup, cross-connected in `TwoAppVmVswitch`).
    VirtioNetBench,
}

impl std::fmt::Display for BenchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchKind::BlkBench => write!(f, "BlkBench"),
            BenchKind::UnixBench => write!(f, "UnixBench"),
            BenchKind::NetBench => write!(f, "NetBench"),
            BenchKind::VirtioBlkBench => write!(f, "VirtioBlkBench"),
            BenchKind::VirtioNetBench => write!(f, "VirtioNetBench"),
        }
    }
}

/// The evaluated system configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SetupKind {
    /// PrivVM + one AppVM running the given benchmark for ~10 s. Used for
    /// the measurement-driven ladders; "success" means **no** VM affected.
    OneAppVm(BenchKind),
    /// [`SetupKind::OneAppVm`] with a fully hardware-virtualized
    /// ([`DomainKind::AppHvm`]) AppVM, whose syscalls do not trap through
    /// the hypervisor — the paper's HVM future-work configuration. Same
    /// durations, trigger window and success rule as `OneAppVm`.
    OneHvmAppVm(BenchKind),
    /// PrivVM + UnixBench AppVM + NetBench AppVM (~24 s); a third,
    /// BlkBench-running AppVM is created after recovery. "Success" means
    /// at most one AppVM affected and the hypervisor still operates
    /// correctly (the new VM can be created and runs to completion).
    ThreeAppVm,
    /// PrivVM + two AppVMs (UnixBench and NetBench) whose vCPUs share one
    /// physical CPU — the paper's future-work configuration ("multiple
    /// vCPUs per CPU"). "Success" means no VM affected, as in the 1AppVM
    /// setup.
    TwoAppVmSharedCpu,
    /// PrivVM + two AppVMs each running [`BenchKind::VirtioNetBench`] on a
    /// virtio-net port, cross-connected through the virtual switch
    /// (east-west traffic). The device-heavy configuration for the
    /// virtqueue-consistency experiments; "success" means no VM affected.
    TwoAppVmVswitch,
    /// PrivVM + `2 * ratio` AppVMs (alternating UnixBench and BlkBench)
    /// multiplexed over two physical CPUs by the credit scheduler — the
    /// N:M overcommit configuration. `Overcommit(1)` is 1:1 (one vCPU per
    /// CPU, still through the credit machinery); `Overcommit(8)` is 8:1.
    /// "Success" means no VM affected, as in the 1AppVM setup.
    Overcommit(u8),
}

impl SetupKind {
    /// Benchmark run length for this setup.
    pub fn bench_duration(self) -> SimDuration {
        match self {
            SetupKind::OneAppVm(_)
            | SetupKind::OneHvmAppVm(_)
            | SetupKind::TwoAppVmSharedCpu
            | SetupKind::TwoAppVmVswitch
            | SetupKind::Overcommit(_) => SimDuration::from_secs(10),
            SetupKind::ThreeAppVm => SimDuration::from_secs(24),
        }
    }

    /// Total simulated trial length (benchmarks + recovery + slack).
    pub fn trial_duration(self) -> SimDuration {
        match self {
            SetupKind::OneAppVm(_)
            | SetupKind::OneHvmAppVm(_)
            | SetupKind::TwoAppVmSharedCpu
            | SetupKind::TwoAppVmVswitch
            | SetupKind::Overcommit(_) => SimDuration::from_secs(13),
            SetupKind::ThreeAppVm => SimDuration::from_secs(27),
        }
    }

    /// The first-level fault-trigger window (Section VI-C): 1AppVM injects
    /// between 10% and 90% of the benchmark run; 3AppVM between 500 ms and
    /// 6 s.
    pub fn trigger_window(self) -> (SimTime, SimTime) {
        match self {
            SetupKind::OneAppVm(_)
            | SetupKind::OneHvmAppVm(_)
            | SetupKind::TwoAppVmSharedCpu
            | SetupKind::TwoAppVmVswitch
            | SetupKind::Overcommit(_) => (SimTime::from_secs(1), SimTime::from_secs(9)),
            SetupKind::ThreeAppVm => (SimTime::from_millis(500), SimTime::from_secs(6)),
        }
    }

    /// The AppVMs [`build_system`] creates: the boot AppVMs in creation
    /// order, and the AppVM queued for creation after recovery.
    fn apps(self) -> (Vec<AppSlot>, Option<AppSlot>) {
        use BenchKind::{BlkBench, NetBench, UnixBench, VirtioNetBench};
        let (c1, c2) = (CpuId(1), CpuId(2));
        match self {
            SetupKind::OneAppVm(kind) | SetupKind::OneHvmAppVm(kind) => (vec![(kind, c1)], None),
            // Both vCPUs on CPU 1: the tick scheduler round-robins them.
            SetupKind::TwoAppVmSharedCpu => (vec![(UnixBench, c1), (NetBench, c1)], None),
            SetupKind::TwoAppVmVswitch => (vec![(VirtioNetBench, c1), (VirtioNetBench, c2)], None),
            SetupKind::ThreeAppVm => (
                vec![(UnixBench, c1), (NetBench, c2)],
                Some((BlkBench, CpuId(3))),
            ),
            // `2 * ratio` vCPUs over the credit scheduler's CPUs 1 and 2.
            // Alternating home CPUs keeps the boot layout balanced;
            // alternating benchmarks mixes hypercall-heavy and block-heavy
            // pressure.
            SetupKind::Overcommit(ratio) => {
                let apps = [(UnixBench, c1), (BlkBench, c2)].into_iter().cycle();
                (apps.take(2 * ratio.max(1) as usize).collect(), None)
            }
        }
    }

    /// The fewest CPUs and boot-domain frames [`build_system`] can lay
    /// this setup out on: one CPU past the highest that the PrivVM (CPU 0)
    /// or an AppVM is pinned to, and the PrivVM's and boot AppVMs' pages.
    fn min_machine(self) -> (usize, usize) {
        let (apps, queued) = self.apps();
        let pins = apps.iter().chain(&queued).map(|(_, cpu)| cpu.index());
        (
            1 + pins.max().unwrap_or(0),
            PRIV_PAGES + apps.len() * APP_PAGES,
        )
    }

    /// Checks that a trial of this setup can run on `machine`:
    /// [`build_system`] panics on too few CPUs or frames, and stepping
    /// divides by the clock frequency.
    ///
    /// # Errors
    ///
    /// Names the first requirement `machine` misses.
    pub(crate) fn check_machine(self, machine: &MachineConfig) -> Result<(), String> {
        let (cpus, domain_pages) = self.min_machine();
        let pages = machine.boot_heap_pages().saturating_add(domain_pages);
        if machine.num_cpus < cpus {
            Err(format!("{self:?} needs {cpus} CPUs"))
        } else if machine.memory_mib.checked_mul(1024).is_none() {
            Err(format!(
                "{} MiB overflows the frame count",
                machine.memory_mib
            ))
        } else if machine.num_pages() < pages {
            Err(format!("{self:?} needs {pages} page frames"))
        } else if machine.cpu_freq_mhz == 0 {
            Err("a zero clock frequency".to_string())
        } else {
            Ok(())
        }
    }
}

/// An AppVM in a setup's layout: its benchmark and the CPU it is pinned to.
type AppSlot = (BenchKind, CpuId);

/// Where everything ended up in a built system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemLayout {
    /// The configuration that was built.
    pub setup: SetupKind,
    /// The initial AppVMs, paired with their benchmark kind.
    pub initial_apps: Vec<(DomId, BenchKind)>,
    /// The benchmark the post-recovery AppVM will run, if scheduled.
    pub post_recovery_app: Option<BenchKind>,
    /// When the PrivVM issues the post-recovery `domctl` create.
    pub create_at: Option<SimTime>,
}

/// Pages allocated to each AppVM.
const APP_PAGES: usize = 192;
/// Pages allocated to the PrivVM.
const PRIV_PAGES: usize = 256;

fn make_bench(kind: BenchKind, seed: u64, dur: SimDuration, tls: f64) -> Box<dyn GuestProgram> {
    match kind {
        BenchKind::BlkBench => Box::new(BlkBench::new(seed, dur, tls)),
        BenchKind::UnixBench => Box::new(UnixBench::new(seed, dur, tls)),
        BenchKind::NetBench => Box::new(NetBench::new(seed, dur, tls)),
        BenchKind::VirtioBlkBench => Box::new(VirtioBlkBench::new(seed, dur, tls)),
        BenchKind::VirtioNetBench => Box::new(VirtioNetBench::new(
            seed,
            dur,
            SimDuration::from_millis(1),
            tls,
        )),
    }
}

/// Builds the target system for a trial.
///
/// The hypervisor is booted, the PrivVM (with the block driver) and the
/// initial AppVMs are created, NetBench traffic is attached when NetBench
/// runs, and — in the 3AppVM configuration — the post-recovery BlkBench
/// AppVM's creation is queued and scheduled on the PrivVM.
pub fn build_system(
    machine: MachineConfig,
    setup: SetupKind,
    seed: u64,
) -> (Hypervisor, SystemLayout) {
    let mut hv = Hypervisor::new(machine, seed);
    // Cold boots pay the full platform bring-up, dominated by the walk over
    // all of RAM (Xen's `bootscrub`). Seed-independent, so a warm-started
    // clone carries the identical scrubbed state without redoing the walk.
    hv.run_boot_scrub();
    let tls = hv.tuning.tls_sensitivity;
    let dur = setup.bench_duration();

    let (apps, queued) = setup.apps();
    // "Following recovery, a third AppVM is created": scheduled after the
    // trigger window plus worst-case detection + recovery latency.
    let create_at = queued.map(|_| SimTime::from_secs(9));

    hv.add_boot_domain(DomainSpec {
        kind: DomainKind::Priv,
        pages: PRIV_PAGES,
        pinned_cpu: CpuId(0),
        program: Box::new(PrivVmDriver::new(seed ^ 0xD0, create_at)),
    });
    if let SetupKind::Overcommit(_) = setup {
        // Load balancing migrates Ready vCPUs between CPUs 1 and 2 and the
        // preemption tick time-slices within each.
        hv.sched.enable_credit(&[CpuId(1), CpuId(2)]);
    }
    let kind = if matches!(setup, SetupKind::OneHvmAppVm(_)) {
        DomainKind::AppHvm
    } else {
        DomainKind::App
    };
    let mut initial_apps = Vec::with_capacity(apps.len());
    for (k, &(bench, cpu)) in apps.iter().enumerate() {
        let dom = hv.add_boot_domain(DomainSpec {
            kind,
            pages: APP_PAGES,
            pinned_cpu: cpu,
            program: make_bench(bench, seed ^ (0xA1 + k as u64), dur, tls),
        });
        initial_apps.push((dom, bench));
    }
    let mut ports = Vec::new();
    for &(dom, bench) in &initial_apps {
        match bench {
            BenchKind::NetBench => hv.attach_net_traffic(dom, SimDuration::from_millis(1)),
            BenchKind::VirtioBlkBench => {
                hv.add_virtio_blk(dom);
            }
            BenchKind::VirtioNetBench => ports.push(hv.add_virtio_net(dom)),
            BenchKind::BlkBench | BenchKind::UnixBench => {}
        }
    }
    // Two virtio-net ports are cross-connected through the virtual switch;
    // a single port loops back to itself (tx frames arrive on its own rx
    // queue).
    if let [p1, p2] = ports[..] {
        hv.connect_vswitch(p1, p2);
    }
    if let Some((bench, cpu)) = queued {
        // The post-recovery AppVM runs its benchmark for ~10 s.
        let tag = 0xA1 + apps.len() as u64;
        hv.queue_domain_creation(DomainSpec {
            kind: DomainKind::App,
            pages: APP_PAGES,
            pinned_cpu: cpu,
            program: make_bench(bench, seed ^ tag, SimDuration::from_secs(10), tls),
        });
    }
    // Record boot-time I/O APIC configuration (what ReHype's write log
    // reconstructs after the reboot re-initializes the controller).
    hv.ioapic_log = Some(hv.irqs.ioapic_snapshot());

    let layout = SystemLayout {
        setup,
        initial_apps,
        post_recovery_app: queued.map(|(bench, _)| bench),
        create_at,
    };
    (hv, layout)
}

/// Re-derives every RNG in a pristine post-boot system from `seed`, exactly
/// mirroring the derivations [`build_system`] applies at construction
/// (PrivVM `seed ^ 0xD0`, AppVMs `seed ^ 0xA1`, `^ 0xA2`, ..., continuing
/// through the queued post-recovery domains).
///
/// Booting performs no simulation steps, so the seed influences nothing but
/// RNG state: a cloned template after `reseed_system(seed)` is
/// indistinguishable from `build_system(.., seed)`. The differential tests
/// in `nlh-campaign` prove this trial-for-trial.
pub fn reseed_system(hv: &mut Hypervisor, seed: u64) {
    hv.rng = Pcg64::seed_from_u64(seed);
    let mut app_idx: u64 = 0;
    for dom in hv.domains.iter_mut() {
        if let Some(p) = dom.program.as_mut() {
            match dom.kind {
                DomainKind::Priv => p.reseed(seed ^ 0xD0),
                DomainKind::App | DomainKind::AppHvm => {
                    app_idx += 1;
                    p.reseed(seed ^ (0xA0 + app_idx));
                }
            }
        }
    }
    for spec in hv.create_queue.iter_mut() {
        app_idx += 1;
        spec.program.reseed(seed ^ (0xA0 + app_idx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_appvm_layout() {
        let (hv, layout) = build_system(
            MachineConfig::small(),
            SetupKind::OneAppVm(BenchKind::UnixBench),
            1,
        );
        assert_eq!(hv.domains.len(), 2);
        assert_eq!(layout.initial_apps.len(), 1);
        assert!(layout.create_at.is_none());
        assert!(hv.net.is_none());
    }

    #[test]
    fn one_hvm_appvm_layout() {
        let (hv, layout) = build_system(
            MachineConfig::small(),
            SetupKind::OneHvmAppVm(BenchKind::UnixBench),
            1,
        );
        assert_eq!(hv.domains.len(), 2);
        assert_eq!(hv.domains[1].kind, DomainKind::AppHvm);
        assert_eq!(layout.initial_apps.len(), 1);
        assert!(layout.create_at.is_none());
    }

    #[test]
    fn three_appvm_layout() {
        let (hv, layout) = build_system(MachineConfig::small(), SetupKind::ThreeAppVm, 1);
        assert_eq!(hv.domains.len(), 3, "third AppVM not yet created");
        assert_eq!(layout.initial_apps.len(), 2);
        assert_eq!(layout.post_recovery_app, Some(BenchKind::BlkBench));
        assert!(hv.net.is_some(), "NetBench traffic attached");
        assert_eq!(hv.create_queue.len(), 1, "BlkBench VM queued for domctl");
    }

    #[test]
    fn netbench_one_appvm_attaches_traffic() {
        let (hv, _) = build_system(
            MachineConfig::small(),
            SetupKind::OneAppVm(BenchKind::NetBench),
            2,
        );
        assert!(hv.net.is_some());
    }

    #[test]
    fn vswitch_layout_connects_two_ports() {
        let (hv, layout) = build_system(MachineConfig::small(), SetupKind::TwoAppVmVswitch, 4);
        assert_eq!(hv.domains.len(), 3);
        assert_eq!(layout.initial_apps.len(), 2);
        assert_eq!(hv.virtio.devices.len(), 2);
        // Cross-connected: each port's peer is the other one.
        assert_eq!(hv.virtio.peer_of(0), 1);
        assert_eq!(hv.virtio.peer_of(1), 0);
        assert!(hv.net.is_none(), "no legacy NetBench traffic source");
        assert!(layout.create_at.is_none());
    }

    #[test]
    fn one_appvm_virtio_blk_attaches_device() {
        let (hv, _) = build_system(
            MachineConfig::small(),
            SetupKind::OneAppVm(BenchKind::VirtioBlkBench),
            5,
        );
        assert_eq!(hv.virtio.devices.len(), 1);
        assert!(hv.net.is_none());
    }

    /// `check_machine` accepts the smallest machine a trial of each setup
    /// boots and runs on, and nothing smaller.
    #[test]
    fn check_machine_accepts_exactly_what_a_trial_needs() {
        use crate::{run_trial_with, TrialConfig, TrialRunOptions};
        for setup in [
            SetupKind::OneAppVm(BenchKind::VirtioNetBench),
            SetupKind::OneHvmAppVm(BenchKind::BlkBench),
            SetupKind::ThreeAppVm,
            SetupKind::TwoAppVmSharedCpu,
            SetupKind::TwoAppVmVswitch,
            SetupKind::Overcommit(0),
            SetupKind::Overcommit(8),
        ] {
            let (cpus, domain_pages) = setup.min_machine();
            let mut m = MachineConfig {
                num_cpus: cpus,
                memory_mib: 0,
                cpu_freq_mhz: 1,
            };
            m.memory_mib = ((m.boot_heap_pages() + domain_pages) as u64).div_ceil(256);
            assert_eq!(setup.check_machine(&m), Ok(()), "{setup:?}");
            let (hv, layout) = build_system(m.clone(), setup, 1);
            let config = TrialConfig {
                machine: m.clone(),
                ..TrialConfig::new(setup, nlh_inject::FaultType::Code, 1)
            };
            let mech = nlh_core::Microreset::nilihype();
            run_trial_with(hv, &layout, &config, &mech, TrialRunOptions::default());

            for (cpus, mib, mhz) in [
                (cpus - 1, m.memory_mib, 1),
                (cpus, m.memory_mib - 1, 1),
                (cpus, m.memory_mib, 0),
            ] {
                let small = MachineConfig {
                    num_cpus: cpus,
                    memory_mib: mib,
                    cpu_freq_mhz: mhz,
                };
                assert!(
                    setup.check_machine(&small).is_err(),
                    "{setup:?} on {small:?}"
                );
            }
        }
    }

    #[test]
    fn fault_free_vswitch_run_forwards_frames() {
        let (mut hv, _) = build_system(MachineConfig::small(), SetupKind::TwoAppVmVswitch, 6);
        hv.run_until(SimTime::from_secs(1));
        assert!(hv.detection().is_none(), "{:?}", hv.detection());
        assert!(hv.virtio.forwarded > 0, "east-west frames flowing");
        assert_eq!(hv.virtio.dropped_torn, 0);
    }

    #[test]
    fn trigger_windows_match_paper() {
        let (lo, hi) = SetupKind::ThreeAppVm.trigger_window();
        assert_eq!(lo, SimTime::from_millis(500));
        assert_eq!(hi, SimTime::from_secs(6));
        let (lo, hi) = SetupKind::OneAppVm(BenchKind::BlkBench).trigger_window();
        // 10%..90% of a ~10 s run.
        assert_eq!(lo, SimTime::from_secs(1));
        assert_eq!(hi, SimTime::from_secs(9));
    }

    #[test]
    fn overcommit_layout_builds_ratio_vcpus() {
        let (hv, layout) = build_system(MachineConfig::small(), SetupKind::Overcommit(4), 7);
        assert_eq!(hv.domains.len(), 9, "PrivVM + 2*4 AppVMs");
        assert_eq!(layout.initial_apps.len(), 8);
        assert!(hv.sched.credit_mode(), "credit scheduler enabled");
        assert!(hv.net.is_none());
        assert!(layout.create_at.is_none());
    }

    #[test]
    fn fault_free_overcommit_run_stays_consistent() {
        let (mut hv, _) = build_system(MachineConfig::small(), SetupKind::Overcommit(4), 8);
        hv.run_until(SimTime::from_secs(1));
        assert!(hv.detection().is_none(), "{:?}", hv.detection());
        assert!(hv.sched.check_all().is_ok());
        assert!(hv.domains.iter().all(|d| d.is_active()));
    }

    #[test]
    fn fault_free_three_appvm_run_reaches_creation() {
        let (mut hv, _) = build_system(MachineConfig::small(), SetupKind::ThreeAppVm, 3);
        hv.run_until(SimTime::from_secs(10));
        assert!(hv.detection().is_none(), "{:?}", hv.detection());
        assert_eq!(hv.domains.len(), 4, "BlkBench VM created at 9 s");
        assert!(hv.domains[3].is_active());
    }
}
