use super::*;
use crate::domain::{DomainKind, GuestNotice, GuestOp, GuestProgram, IdleLoop};
use crate::hypercalls::HcRequest;
use crate::interrupts::GuestEventKind;

fn small_hv() -> Hypervisor {
    Hypervisor::new(MachineConfig::small(), 7)
}

fn app_spec(cpu: usize) -> DomainSpec {
    DomainSpec {
        kind: DomainKind::App,
        pages: 64,
        pinned_cpu: CpuId::from_index(cpu),
        program: Box::new(IdleLoop),
    }
}

#[test]
fn boots_and_ticks_without_domains() {
    let mut hv = small_hv();
    hv.run_for(SimDuration::from_millis(250));
    assert!(hv.detection().is_none());
    // Heartbeats ran on every CPU.
    for cpu in 0..hv.num_cpus() {
        assert!(hv.percpu[cpu].watchdog.heartbeat >= 2, "cpu{cpu} heartbeat");
    }
    // Time sync ran.
    assert!(hv.last_time_sync > SimTime::ZERO);
}

#[test]
fn apic_always_reprogrammed_by_handler() {
    let mut hv = small_hv();
    hv.run_for(SimDuration::from_millis(100));
    for cpu in 0..hv.num_cpus() {
        assert!(
            hv.percpu[cpu].apic.is_programmed(),
            "cpu{cpu} APIC must stay armed in steady state"
        );
    }
}

#[test]
fn domains_run_and_stay_consistent() {
    let mut hv = small_hv();
    hv.add_boot_domain(DomainSpec {
        kind: DomainKind::Priv,
        pages: 32,
        pinned_cpu: CpuId(0),
        program: Box::new(IdleLoop),
    });
    hv.add_boot_domain(app_spec(1));
    hv.run_for(SimDuration::from_millis(200));
    assert!(hv.detection().is_none());
    assert!(hv.sched.check_all().is_ok());
    assert_eq!(hv.pft.count_inconsistent(), 0);
    assert!(
        hv.locks.held_locks().is_empty(),
        "steady state holds no locks"
    );
    for cpu in 0..hv.num_cpus() {
        assert_eq!(hv.percpu[cpu].local_irq_count, 0);
    }
}

#[test]
fn guest_cycles_dominate_hypervisor_cycles() {
    let mut hv = small_hv();
    hv.add_boot_domain(app_spec(1));
    hv.run_for(SimDuration::from_millis(300));
    let share = hv.accounting.hypervisor_share();
    assert!(share > 0.0 && share < 0.30, "hv share = {share}");
}

#[test]
fn discard_stacks_reports_in_flight_work() {
    let mut hv = small_hv();
    hv.add_boot_domain(app_spec(1));
    // Step until some CPU is mid-program.
    let mut guard = 0;
    while hv.stacks.iter().all(|s| s.is_empty()) && guard < 200_000 {
        hv.step_any();
        guard += 1;
    }
    assert!(guard < 200_000, "never entered the hypervisor");
    let report = hv.discard_all_stacks();
    assert!(report.frames_discarded >= 1);
    for i in 0..hv.num_cpus() {
        assert_eq!(hv.cpu_mode(CpuId::from_index(i)), CpuMode::Parked);
        assert!(hv.stacks[i].is_empty());
    }
}

#[test]
fn resume_after_synchronizes_clocks_and_clears_detection() {
    let mut hv = small_hv();
    hv.raise_panic(CpuId(2), "test");
    assert!(hv.detection().is_some());
    hv.discard_all_stacks();
    hv.resume_after(SimDuration::from_millis(22));
    assert!(hv.detection().is_none());
    let t0 = hv.cpu_now(CpuId(0));
    for cpu in 1..hv.num_cpus() {
        assert_eq!(hv.cpu_now(CpuId::from_index(cpu)), t0);
    }
    for i in 0..hv.num_cpus() {
        assert_eq!(hv.cpu_mode(CpuId::from_index(i)), CpuMode::Run);
    }
}

#[test]
fn first_detection_wins() {
    let mut hv = small_hv();
    hv.raise_panic(CpuId(0), "first");
    hv.raise_hang(CpuId(1), "second");
    assert_eq!(hv.detection().unwrap().reason, "first");
    assert_eq!(hv.detection().unwrap().kind, DetectionKind::Panic);
}

#[test]
fn frozen_machine_does_not_step() {
    let mut hv = small_hv();
    hv.raise_panic(CpuId(0), "frozen");
    let before = hv.now();
    let (_, out) = hv.step_any();
    assert_eq!(out, StepOutcome::Frozen);
    assert_eq!(hv.now(), before);
}

#[test]
fn unprogrammed_apic_leads_to_watchdog_hang() {
    let mut hv = small_hv();
    // Disarm CPU 3's APIC: its heartbeat events can never run.
    hv.percpu[3].apic.disarm();
    hv.run_for(SimDuration::from_secs(2));
    let det = hv.detection().expect("watchdog should fire");
    assert_eq!(det.kind, DetectionKind::Hang);
    assert_eq!(det.cpu, CpuId(3));
}

#[test]
fn held_timer_lock_leads_to_hang() {
    let mut hv = small_hv();
    // Leak CPU 2's timer-heap lock, as an abandoned thread would.
    let l = hv.timer_locks[2];
    hv.locks.acquire(l, CpuId(5));
    hv.run_for(SimDuration::from_secs(2));
    let det = hv.detection().expect("spin on leaked lock must hang");
    assert_eq!(det.kind, DetectionKind::Hang);
}

#[test]
fn leaked_irq_count_panics_on_next_tick() {
    let mut hv = small_hv();
    hv.percpu[4].local_irq_count = 1; // abandonment residue
    hv.run_for(SimDuration::from_secs(1));
    let det = hv.detection().expect("exit-path assert must fire");
    assert_eq!(det.kind, DetectionKind::Panic);
    assert!(det.reason.contains("in_irq"));
}

#[test]
fn lost_heartbeat_event_false_hang() {
    let mut hv = small_hv();
    // Model a popped-but-not-rearmed heartbeat on CPU 1.
    assert!(hv
        .timers
        .remove_kind(TimerEventKind::WatchdogHeartbeat(CpuId(1))));
    hv.run_for(SimDuration::from_secs(2));
    let det = hv.detection().expect("watchdog false positive");
    assert_eq!(det.kind, DetectionKind::Hang);
    assert_eq!(det.cpu, CpuId(1));
}

#[test]
fn torn_context_switch_panics_via_assert() {
    let mut hv = small_hv();
    hv.add_boot_domain(app_spec(1));
    // Tear the metadata, as a fault mid-switch would.
    hv.sched.cs_set_running_on(VcpuId(0), None);
    hv.run_for(SimDuration::from_millis(100));
    let det = hv.detection().expect("sched assert must fire");
    assert!(det.reason.contains("schedule"), "{}", det.reason);
}

#[test]
fn netbench_traffic_flows_and_replies_recorded() {
    use crate::domain::{GuestNotice, GuestOp, GuestProgram, WorkloadVerdict};
    /// Minimal echo guest: replies to each NetRx.
    #[derive(Debug, Clone)]
    struct Echo {
        backlog: Vec<u64>,
    }
    impl GuestProgram for Echo {
        fn name(&self) -> &str {
            "Echo"
        }
        fn next_op(&mut self, _now: SimTime, _rng: &mut Pcg64) -> GuestOp {
            match self.backlog.pop() {
                Some(seq) => GuestOp::Hypercall(HcRequest::NetReply(seq)),
                None => GuestOp::Block,
            }
        }
        fn notice(&mut self, _now: SimTime, n: GuestNotice) {
            if let GuestNotice::Event(GuestEventKind::NetRx { seq }) = n {
                self.backlog.push(seq);
            }
        }
        fn verdict(&self, _now: SimTime, _deadline: SimTime) -> WorkloadVerdict {
            WorkloadVerdict::Running
        }
        fn clone_box(&self) -> Box<dyn GuestProgram> {
            Box::new(self.clone())
        }
    }
    let mut hv = small_hv();
    let dom = hv.add_boot_domain(DomainSpec {
        kind: DomainKind::App,
        pages: 16,
        pinned_cpu: CpuId(1),
        program: Box::new(Echo { backlog: vec![] }),
    });
    hv.attach_net_traffic(dom, SimDuration::from_millis(1));
    hv.run_for(SimDuration::from_millis(300));
    assert!(hv.detection().is_none());
    assert!(
        hv.net_replies.len() > 200,
        "expected ~300 replies, got {}",
        hv.net_replies.len()
    );
    assert_eq!(hv.net.as_ref().unwrap().drops, 0);
}

/// Minimal virtio guest: one queue-notify kick, then block until the
/// matching completion event arrives.
#[derive(Debug, Clone)]
struct KickOnce {
    queue: u8,
    payload: u64,
    kicked: bool,
    completed: bool,
}

impl KickOnce {
    fn new(queue: u8, payload: u64) -> Self {
        KickOnce {
            queue,
            payload,
            kicked: false,
            completed: false,
        }
    }
}

impl GuestProgram for KickOnce {
    fn name(&self) -> &str {
        "KickOnce"
    }
    fn next_op(&mut self, _now: SimTime, _rng: &mut Pcg64) -> GuestOp {
        if !self.kicked {
            self.kicked = true;
            GuestOp::VirtioKick {
                queue: self.queue,
                payload: self.payload,
            }
        } else if self.completed {
            GuestOp::Done
        } else {
            GuestOp::Block
        }
    }
    fn notice(&mut self, _now: SimTime, notice: GuestNotice) {
        if let GuestNotice::Event(
            GuestEventKind::VirtioBlkDone { .. } | GuestEventKind::VirtioNetTxDone { .. },
        ) = notice
        {
            self.completed = true;
        }
    }
    fn verdict(&self, _now: SimTime, _deadline: SimTime) -> crate::domain::WorkloadVerdict {
        if self.completed {
            crate::domain::WorkloadVerdict::CompletedOk
        } else {
            crate::domain::WorkloadVerdict::Failed(crate::domain::FailReason::Incomplete)
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProgram> {
        Box::new(self.clone())
    }
}

#[test]
fn virtio_blk_kick_completes_and_delivers() {
    let mut hv = small_hv();
    let dom = hv.add_boot_domain(DomainSpec {
        kind: DomainKind::App,
        pages: 32,
        pinned_cpu: CpuId(1),
        program: Box::new(KickOnce::new(nlh_virtio::Q_RX as u8, 42)),
    });
    hv.add_virtio_blk(dom);
    hv.run_for(SimDuration::from_millis(50));
    assert!(hv.detection().is_none());
    assert!(hv.domains[dom.index()].finished, "completion delivered");
    let q = &hv.virtio.devices[0].queues[nlh_virtio::Q_RX];
    assert_eq!(q.avail_idx(), 1);
    assert_eq!(q.used_idx(), 1);
    assert_eq!(q.in_flight(), 0);
    assert_eq!(q.undelivered(), 0);
    assert!(hv.virtio.check_invariants().is_ok());
}

#[test]
fn vswitch_forwards_and_interrupts_peer() {
    let mut hv = small_hv();
    let d1 = hv.add_boot_domain(DomainSpec {
        kind: DomainKind::App,
        pages: 32,
        pinned_cpu: CpuId(1),
        program: Box::new(KickOnce::new(nlh_virtio::Q_TX as u8, 7)),
    });
    let d2 = hv.add_boot_domain(app_spec(2));
    let p1 = hv.add_virtio_net(d1);
    let p2 = hv.add_virtio_net(d2);
    hv.connect_vswitch(p1, p2);
    hv.run_for(SimDuration::from_millis(50));
    assert!(hv.detection().is_none());
    assert_eq!(hv.virtio.forwarded, 1, "frame crossed the vswitch");
    assert_eq!(hv.virtio.dropped_no_buffer, 0);
    assert!(hv.domains[d1.index()].finished, "tx completion delivered");
    let rx = &hv.virtio.devices[p2].queues[nlh_virtio::Q_RX];
    assert_eq!(rx.undelivered(), 0, "peer rx frame delivered");
    assert_eq!(
        rx.avail_pending(),
        nlh_virtio::QUEUE_SIZE as u64,
        "consumed rx buffer reposted"
    );
    assert!(hv.virtio.check_invariants().is_ok());
}

#[test]
fn abandoned_notify_leaves_residue_repair_completes_it() {
    let mut hv = small_hv();
    let dom = hv.add_boot_domain(DomainSpec {
        kind: DomainKind::App,
        pages: 32,
        pinned_cpu: CpuId(1),
        program: Box::new(KickOnce::new(nlh_virtio::Q_RX as u8, 9)),
    });
    hv.add_virtio_blk(dom);
    // Step until the notify handler has popped the descriptor but not
    // yet logged its completion (pc 3/4 = the in-flight window).
    let mut guard = 0;
    loop {
        hv.step_any();
        guard += 1;
        assert!(guard < 500_000, "never reached the virtio MMIO handler");
        if let Some((EntryCause::VirtioMmio(_), pc)) = hv.cpu_program_context(CpuId(1)) {
            if pc == 3 {
                break;
            }
        }
    }
    // Microreset strikes: abandon everything mid-transaction.
    hv.discard_all_stacks();
    assert_eq!(hv.virtio.devices[0].queues[nlh_virtio::Q_RX].in_flight(), 1);
    let rep = hv.virtio_repair();
    assert_eq!(rep.reprocessed, 1, "in-flight request re-executed");
    assert_eq!(hv.virtio.devices[0].queues[nlh_virtio::Q_RX].in_flight(), 0);
    assert!(
        hv.virtio.devices[0].undelivered() > 0,
        "completion published, awaiting delivery"
    );
    assert!(
        hv.irqs.is_pending(CpuId(1), VEC_BLK),
        "repair re-raised the completion interrupt"
    );
    assert_eq!(hv.virtio_repair().total(), 0, "repair is idempotent");
    hv.resume_after(SimDuration::from_millis(22));
    hv.run_for(SimDuration::from_millis(50));
    assert!(hv.domains[dom.index()].finished, "guest saw the completion");
    assert!(hv.virtio.check_invariants().is_ok());
}
