//! Property-based tests of the hypervisor substrate's core data structures.

use nlh_hv::locks::{AcquireOutcome, LockPlacement, LockRegistry};
use nlh_hv::mem::{PageFrameDescriptor, PageFrameTable, PageState};
use nlh_hv::sched::Scheduler;
use nlh_hv::timers::{TimerEvent, TimerEventKind, TimerSubsystem};
use nlh_sim::{CpuId, DomId, PageNum, SimDuration, SimTime, VcpuId};
use proptest::prelude::*;

/// Abstract page-frame operations for sequence testing.
#[derive(Debug, Clone, Copy)]
enum PfOp {
    Alloc,
    Free(u8),
    IncRef(u8),
    DecRef(u8),
    Validate(u8),
    Invalidate(u8),
    Scan,
}

fn pf_op_strategy() -> impl Strategy<Value = PfOp> {
    prop_oneof![
        Just(PfOp::Alloc),
        any::<u8>().prop_map(PfOp::Free),
        any::<u8>().prop_map(PfOp::IncRef),
        any::<u8>().prop_map(PfOp::DecRef),
        any::<u8>().prop_map(PfOp::Validate),
        any::<u8>().prop_map(PfOp::Invalidate),
        Just(PfOp::Scan),
    ]
}

/// The page-frame table as it was before it went sparse: every descriptor
/// and the whole free list stored explicitly. The sparse table must be
/// indistinguishable from it, `Debug` text included (the machine's state
/// digest hashes that text).
mod eager {
    use nlh_hv::mem::{MemError, PageFrameDescriptor, PageState};
    use nlh_sim::{DomId, PageNum};

    #[derive(Debug)]
    pub struct PageFrameTable {
        frames: Vec<PageFrameDescriptor>,
        free: Vec<PageNum>,
    }

    impl PageFrameTable {
        pub fn new(num_pages: usize) -> Self {
            PageFrameTable {
                frames: vec![PageFrameDescriptor::free(); num_pages],
                free: (0..num_pages).rev().map(PageNum::from_index).collect(),
            }
        }

        pub fn len(&self) -> usize {
            self.frames.len()
        }

        pub fn free_count(&self) -> usize {
            self.free.len()
        }

        pub fn get(&self, page: PageNum) -> Result<&PageFrameDescriptor, MemError> {
            self.frames
                .get(page.index())
                .ok_or(MemError::BadFrame(page))
        }

        pub fn get_mut(&mut self, page: PageNum) -> Result<&mut PageFrameDescriptor, MemError> {
            self.frames
                .get_mut(page.index())
                .ok_or(MemError::BadFrame(page))
        }

        pub fn alloc(
            &mut self,
            owner: Option<DomId>,
            state: PageState,
        ) -> Result<PageNum, MemError> {
            let page = self.free.pop().ok_or(MemError::OutOfMemory)?;
            let pfd = &mut self.frames[page.index()];
            if pfd.use_count != 0 || pfd.validated || pfd.state != PageState::Free {
                return Err(MemError::CorruptFrame(page));
            }
            pfd.owner = owner;
            pfd.state = state;
            Ok(page)
        }

        pub fn free(&mut self, page: PageNum) -> Result<(), MemError> {
            let pfd = self.get_mut(page)?;
            if pfd.use_count != 0 || pfd.validated || pfd.state == PageState::Free {
                return Err(MemError::CorruptFrame(page));
            }
            pfd.owner = None;
            pfd.state = PageState::Free;
            self.free.push(page);
            Ok(())
        }

        pub fn inc_ref(&mut self, page: PageNum) -> Result<(), MemError> {
            self.get_mut(page)?.use_count += 1;
            Ok(())
        }

        pub fn dec_ref(&mut self, page: PageNum) -> Result<(), MemError> {
            let pfd = self.get_mut(page)?;
            if pfd.use_count == 0 {
                return Err(MemError::RefUnderflow(page));
            }
            pfd.use_count -= 1;
            Ok(())
        }

        pub fn set_validated(&mut self, page: PageNum, validated: bool) -> Result<(), MemError> {
            self.get_mut(page)?.validated = validated;
            Ok(())
        }

        pub fn consistency_scan(&mut self) -> usize {
            let mut fixed = 0;
            for pfd in &mut self.frames {
                if !pfd.is_consistent() {
                    pfd.use_count = 0;
                    pfd.validated = false;
                    fixed += 1;
                }
            }
            fixed
        }

        pub fn count_inconsistent(&self) -> usize {
            self.frames.iter().filter(|p| !p.is_consistent()).count()
        }

        pub fn iter(&self) -> impl Iterator<Item = (PageNum, &PageFrameDescriptor)> {
            self.frames
                .iter()
                .enumerate()
                .map(|(i, p)| (PageNum::from_index(i), p))
        }
    }
}

/// Frames in the differential tables; operations also name the three
/// out-of-range frames `DIFF_PAGES..DIFF_PAGES + 3`.
const DIFF_PAGES: u32 = 24;

/// One operation of the sparse-vs-eager differential.
#[derive(Debug, Clone, Copy)]
enum DiffOp {
    /// Allocate: owner and state chosen by the selector.
    Alloc(u8),
    Free(u32),
    IncRef(u32),
    DecRef(u32),
    SetValidated(u32, bool),
    /// Write one field through `get_mut` (fault-injection style): the
    /// selector picks the field, the value its new content.
    Poke(u32, u8, u8),
    Scan,
}

fn diff_op_strategy() -> impl Strategy<Value = DiffOp> {
    let page = || 0..DIFF_PAGES + 3;
    prop_oneof![
        any::<u8>().prop_map(DiffOp::Alloc),
        any::<u8>().prop_map(DiffOp::Alloc),
        page().prop_map(DiffOp::Free),
        page().prop_map(DiffOp::IncRef),
        page().prop_map(DiffOp::DecRef),
        (page(), any::<bool>()).prop_map(|(p, v)| DiffOp::SetValidated(p, v)),
        (page(), 0u8..4, any::<u8>()).prop_map(|(p, f, v)| DiffOp::Poke(p, f, v)),
        Just(DiffOp::Scan),
    ]
}

fn owner_and_state(sel: u8) -> (Option<DomId>, PageState) {
    let owner = (sel & 1 == 1).then_some(DomId(u32::from(sel >> 4)));
    let state = match (sel >> 1) % 3 {
        0 => PageState::Free,
        1 => PageState::HeapAllocated,
        _ => PageState::DomainOwned,
    };
    (owner, state)
}

fn poke(pfd: &mut PageFrameDescriptor, field: u8, value: u8) {
    match field {
        0 => pfd.use_count = u32::from(value % 4),
        1 => pfd.validated = value & 1 == 1,
        2 => pfd.owner = (value & 1 == 1).then_some(DomId(u32::from(value >> 4))),
        _ => pfd.state = owner_and_state(value).1,
    }
}

proptest! {
    /// The sparse page-frame table answers every operation exactly as the
    /// eager one does: same results and errors (frames above the touched
    /// watermark and out-of-range frames included), same free count,
    /// inconsistency count, scan repairs, iteration and `Debug` text after
    /// every step.
    #[test]
    fn sparse_page_frame_table_matches_eager(ops in prop::collection::vec(diff_op_strategy(), 0..120)) {
        let mut sparse = PageFrameTable::new(DIFF_PAGES as usize);
        let mut eager = eager::PageFrameTable::new(DIFF_PAGES as usize);
        for op in ops {
            match op {
                DiffOp::Alloc(sel) => {
                    let (owner, state) = owner_and_state(sel);
                    prop_assert_eq!(sparse.alloc(owner, state), eager.alloc(owner, state), "{:?}", op);
                }
                DiffOp::Free(p) => {
                    prop_assert_eq!(sparse.free(PageNum(p)), eager.free(PageNum(p)), "{:?}", op);
                }
                DiffOp::IncRef(p) => {
                    prop_assert_eq!(sparse.inc_ref(PageNum(p)), eager.inc_ref(PageNum(p)), "{:?}", op);
                }
                DiffOp::DecRef(p) => {
                    prop_assert_eq!(sparse.dec_ref(PageNum(p)), eager.dec_ref(PageNum(p)), "{:?}", op);
                }
                DiffOp::SetValidated(p, v) => {
                    prop_assert_eq!(
                        sparse.set_validated(PageNum(p), v),
                        eager.set_validated(PageNum(p), v),
                        "{:?}", op
                    );
                }
                DiffOp::Poke(p, field, value) => {
                    let a = sparse.get_mut(PageNum(p)).map(|pfd| poke(pfd, field, value));
                    let b = eager.get_mut(PageNum(p)).map(|pfd| poke(pfd, field, value));
                    prop_assert_eq!(a, b, "{:?}", op);
                }
                DiffOp::Scan => {
                    prop_assert_eq!(sparse.consistency_scan(), eager.consistency_scan());
                }
            }
            prop_assert_eq!(sparse.len(), eager.len());
            prop_assert_eq!(sparse.free_count(), eager.free_count(), "after {:?}", op);
            prop_assert_eq!(sparse.count_inconsistent(), eager.count_inconsistent(), "after {:?}", op);
            for p in 0..DIFF_PAGES + 3 {
                prop_assert_eq!(sparse.get(PageNum(p)), eager.get(PageNum(p)));
            }
            prop_assert!(sparse.iter().eq(eager.iter()), "iter() after {:?}", op);
            prop_assert_eq!(format!("{sparse:?}"), format!("{eager:?}"), "after {:?}", op);
            prop_assert_eq!(format!("{sparse:#?}"), format!("{eager:#?}"), "after {:?}", op);
        }
    }

    /// Whatever sequence of operations runs, the page-frame table's global
    /// accounting stays intact: free + live = total, and a scan always
    /// drives the inconsistency count to zero.
    #[test]
    fn page_frame_table_accounting_holds(ops in prop::collection::vec(pf_op_strategy(), 0..200)) {
        let total = 64usize;
        let mut pft = PageFrameTable::new(total);
        let mut live: Vec<PageNum> = Vec::new();
        for op in ops {
            match op {
                PfOp::Alloc => {
                    if let Ok(p) = pft.alloc(Some(DomId(1)), PageState::DomainOwned) {
                        prop_assert!(!live.contains(&p), "double allocation of {p}");
                        live.push(p);
                    }
                }
                PfOp::Free(i) => {
                    if !live.is_empty() {
                        let idx = i as usize % live.len();
                        let p = live[idx];
                        // Only clean pages can be freed; emulate the real
                        // caller by clearing first.
                        let d = pft.get(p).unwrap();
                        if d.use_count == 0 && !d.validated {
                            pft.free(p).unwrap();
                            live.swap_remove(idx);
                        }
                    }
                }
                PfOp::IncRef(i) => {
                    if !live.is_empty() {
                        let p = live[i as usize % live.len()];
                        pft.inc_ref(p).unwrap();
                    }
                }
                PfOp::DecRef(i) => {
                    if !live.is_empty() {
                        let p = live[i as usize % live.len()];
                        let _ = pft.dec_ref(p); // may legitimately underflow-err
                    }
                }
                PfOp::Validate(i) => {
                    if !live.is_empty() {
                        let p = live[i as usize % live.len()];
                        pft.set_validated(p, true).unwrap();
                    }
                }
                PfOp::Invalidate(i) => {
                    if !live.is_empty() {
                        let p = live[i as usize % live.len()];
                        pft.set_validated(p, false).unwrap();
                    }
                }
                PfOp::Scan => {
                    pft.consistency_scan();
                    prop_assert_eq!(pft.count_inconsistent(), 0);
                }
            }
            prop_assert_eq!(pft.free_count() + live.len(), total);
        }
        pft.consistency_scan();
        prop_assert_eq!(pft.count_inconsistent(), 0);
    }

    /// Timer events always pop in non-decreasing deadline order.
    #[test]
    fn timer_pops_are_ordered(deadlines in prop::collection::vec(0u64..10_000, 1..64)) {
        let mut t = TimerSubsystem::new(1);
        for (i, ms) in deadlines.iter().enumerate() {
            t.insert(CpuId(0), TimerEvent {
                deadline: SimTime::from_micros(*ms),
                kind: TimerEventKind::OneShot(i as u64),
                period: None,
            });
        }
        let far = SimTime::from_secs(100);
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some(ev) = t.pop_due(CpuId(0), far) {
            prop_assert!(ev.deadline >= last);
            last = ev.deadline;
            popped += 1;
        }
        prop_assert_eq!(popped, deadlines.len());
    }

    /// Reactivation after arbitrary event loss restores exactly the
    /// expected recurring set, idempotently.
    #[test]
    fn timer_reactivation_is_complete_and_idempotent(drop_mask in 0u16..64) {
        let mut t = TimerSubsystem::new(4);
        let period = SimDuration::from_millis(10);
        let expected: Vec<(TimerEventKind, CpuId, SimDuration)> = (0..4)
            .map(|c| (TimerEventKind::WatchdogHeartbeat(CpuId(c)), CpuId(c), period))
            .chain([(TimerEventKind::TimeSync, CpuId(0), period)])
            .collect();
        for (kind, cpu, _) in &expected {
            t.insert(*cpu, TimerEvent { deadline: SimTime::ZERO, kind: *kind, period: Some(period) });
        }
        for (i, (kind, _, _)) in expected.iter().enumerate() {
            if drop_mask & (1 << i) != 0 {
                t.remove_kind(*kind);
            }
        }
        t.reactivate_recurring(&expected, SimTime::from_millis(5));
        for (kind, _, _) in &expected {
            prop_assert!(t.contains_kind(*kind));
        }
        prop_assert_eq!(t.reactivate_recurring(&expected, SimTime::from_millis(5)), 0);
    }

    /// Any pattern of acquisitions is fully cleared by the two unlock
    /// passes recovery runs (heap locks + the static segment).
    #[test]
    fn lock_registry_release_passes_clear_everything(
        holders in prop::collection::vec((0u8..8, any::<bool>()), 0..32)
    ) {
        let mut reg = LockRegistry::new();
        let heap_ids: Vec<_> = (0..8)
            .map(|i| reg.register(format!("h{i}"), LockPlacement::Heap))
            .collect();
        for (i, (cpu, use_heap)) in holders.iter().enumerate() {
            let id = if *use_heap {
                heap_ids[i % heap_ids.len()]
            } else {
                nlh_hv::locks::StaticLock::ALL[i % 5].id()
            };
            let _ = reg.acquire(id, CpuId(*cpu as u32));
        }
        reg.unlock_heap_locks(heap_ids.clone());
        reg.unlock_static_segment();
        prop_assert!(reg.held_locks().is_empty());
        // Everything is acquirable again.
        for id in heap_ids {
            prop_assert_eq!(reg.acquire(id, CpuId(0)), AcquireOutcome::Acquired);
        }
    }

    /// `make_consistent_from_percpu` + `requeue_runnable` always produce a
    /// state that passes every scheduler assertion, from any torn state.
    #[test]
    fn scheduler_repair_always_converges(
        percpu in prop::collection::vec(prop::option::of(0u8..4), 4),
        torn in prop::collection::vec((0u8..4, prop::option::of(0u8..4), any::<bool>()), 0..8),
    ) {
        let mut s = Scheduler::new(4);
        for i in 0..4 {
            s.register_vcpu(VcpuId(i), CpuId(i));
        }
        for (c, v) in percpu.iter().enumerate() {
            s.cs_set_percpu_current(CpuId(c as u32), v.map(|x| VcpuId(x as u32)));
        }
        for (v, on, cur) in torn {
            s.cs_set_running_on(VcpuId(v as u32), on.map(|c| CpuId(c as u32)));
            s.cs_set_is_current(VcpuId(v as u32), cur);
        }
        s.make_consistent_from_percpu();
        s.requeue_runnable();
        prop_assert!(s.check_all().is_ok());
        // Idempotent:
        prop_assert_eq!(s.make_consistent_from_percpu(), 0);
    }
}
