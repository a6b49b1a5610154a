//! NetBench: the UDP ping responder and recovery-latency probe.
//!
//! An external sender (modelled by [`nlh_hv::Hypervisor::attach_net_traffic`])
//! emits one UDP packet per millisecond; the receiver inside the AppVM
//! replies to each. The sender-side reply log (`Hypervisor::net_replies`,
//! an [`nlh_hv::netlog::NetReplyLog`] that keeps every reply's sequence
//! number and arrival time exactly, in about 5 bytes) is the measurement
//! surface: service interruption shows up as a gap in reply times
//! (Section VII-B, `nlh_experiments::netbench_reply_gap`), and packet
//! loss beyond the ring capacity shows up as missing sequence numbers
//! (the 10%-per-second failure criterion of Section VI-A is evaluated by
//! the campaign's analyzer, `nlh_campaign::classify::netbench_affected`).

use std::collections::VecDeque;

use nlh_hv::domain::{GuestNotice, GuestOp, GuestProgram, WorkloadVerdict};
use nlh_hv::hypercalls::HcRequest;
use nlh_hv::interrupts::GuestEventKind;
use nlh_sim::{Pcg64, SimDuration, SimTime};

use crate::WorkloadCore;

/// The NetBench receiver.
#[derive(Debug, Clone)]
pub struct NetBench {
    core: WorkloadCore,
    backlog: VecDeque<u64>,
    /// A packet being processed (userspace work before the reply).
    processing: Option<u64>,
    replies_sent: u64,
}

impl NetBench {
    /// Creates a NetBench run of the given duration.
    pub fn new(seed: u64, duration: SimDuration, tls_sensitivity: f64) -> Self {
        NetBench {
            core: WorkloadCore::new(seed, duration, tls_sensitivity),
            backlog: VecDeque::new(),
            processing: None,
            replies_sent: 0,
        }
    }

    /// Replies transmitted so far.
    pub fn replies_sent(&self) -> u64 {
        self.replies_sent
    }
}

impl GuestProgram for NetBench {
    fn name(&self) -> &str {
        "NetBench"
    }

    fn next_op(&mut self, now: SimTime, _rng: &mut Pcg64) -> GuestOp {
        // Always drain the backlog first — even past the end of the run
        // window, so queued packets are answered. Each packet costs a
        // little userspace processing before the reply goes out.
        if let Some(seq) = self.processing.take() {
            self.replies_sent += 1;
            return GuestOp::Hypercall(HcRequest::NetReply(seq));
        }
        if let Some(seq) = self.backlog.pop_front() {
            self.processing = Some(seq);
            return GuestOp::Compute(SimDuration::from_micros(60));
        }
        if self.core.past_end(now) {
            self.core.finished = true;
            return GuestOp::Done;
        }
        GuestOp::Block
    }

    fn notice(&mut self, _now: SimTime, notice: GuestNotice) {
        if self.core.common_notice(&notice) {
            return;
        }
        if let GuestNotice::Event(GuestEventKind::NetRx { seq }) = notice {
            self.backlog.push_back(seq);
        }
    }

    fn verdict(&self, now: SimTime, deadline: SimTime) -> WorkloadVerdict {
        self.core.verdict(now, deadline)
    }

    fn clone_box(&self) -> Box<dyn GuestProgram> {
        Box::new(self.clone())
    }

    fn reseed(&mut self, seed: u64) {
        self.core.reseed(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_in_arrival_order() {
        let mut w = NetBench::new(1, SimDuration::from_secs(10), 0.5);
        let mut rng = Pcg64::seed_from_u64(0);
        for seq in 1..=3 {
            w.notice(
                SimTime::ZERO,
                GuestNotice::Event(GuestEventKind::NetRx { seq }),
            );
        }
        for expect in 1..=3u64 {
            match w.next_op(SimTime::ZERO, &mut rng) {
                GuestOp::Compute(_) => {}
                op => panic!("expected processing compute, got {op:?}"),
            }
            match w.next_op(SimTime::ZERO, &mut rng) {
                GuestOp::Hypercall(HcRequest::NetReply(s)) => assert_eq!(s, expect),
                op => panic!("expected reply, got {op:?}"),
            }
        }
        assert_eq!(w.next_op(SimTime::ZERO, &mut rng), GuestOp::Block);
        assert_eq!(w.replies_sent(), 3);
    }

    #[test]
    fn drains_backlog_past_end_before_done() {
        let mut w = NetBench::new(2, SimDuration::from_millis(1), 0.5);
        let mut rng = Pcg64::seed_from_u64(0);
        // Establish the window.
        assert_eq!(w.next_op(SimTime::ZERO, &mut rng), GuestOp::Block);
        let late = SimTime::from_secs(1);
        w.notice(late, GuestNotice::Event(GuestEventKind::NetRx { seq: 9 }));
        assert!(matches!(w.next_op(late, &mut rng), GuestOp::Compute(_)));
        match w.next_op(late, &mut rng) {
            GuestOp::Hypercall(HcRequest::NetReply(9)) => {}
            op => panic!("expected late reply, got {op:?}"),
        }
        assert_eq!(w.next_op(late, &mut rng), GuestOp::Done);
        assert!(w.verdict(late, late + SimDuration::from_secs(1)).is_ok());
    }
}
