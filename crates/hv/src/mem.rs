//! Hypervisor memory management: page-frame descriptors and the heap.
//!
//! Two pieces of memory state matter to the paper's recovery mechanisms:
//!
//! * **Page-frame descriptors** (`struct page_info` in Xen). Each frame
//!   carries a *use counter* and a *validation bit*. Hypercalls update the
//!   two in separate steps, so a fault can leave them inconsistent; both
//!   ReHype and NiLiHype run a consistency scan over all descriptors during
//!   recovery (the dominant 21 ms of NiLiHype's 22 ms latency on an 8 GB
//!   machine — Table III).
//! * **The hypervisor heap**. ReHype reboots into a fresh heap and must
//!   re-integrate preserved allocations (211 ms, Table II); NiLiHype keeps
//!   the heap in place. The heap also hosts dynamically-allocated locks,
//!   which the shared "release heap locks" enhancement walks.
//!
//! A third piece matters to *campaign cost* rather than recovery:
//! the **boot-time memory scrub** ([`boot_scrub`]). Xen walks and scrubs
//! all of RAM when it boots (`bootscrub`, on by default), which is the bulk
//! of why a full platform boot — and therefore reboot-based recovery, the
//! paper's foil — is slow. Cold-booting a target system pays this walk;
//! the campaign boot cache exists to pay it once per configuration.

use nlh_sim::{DomId, LockId, PageNum};
use serde::{Deserialize, Serialize};

/// Lifecycle state of a physical page frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PageState {
    /// On the free list.
    Free,
    /// Backing a hypervisor heap allocation.
    HeapAllocated,
    /// Owned by a domain (guest memory).
    DomainOwned,
}

/// A page-frame descriptor (`struct page_info`).
///
/// The invariant the recovery scan restores is `validated == (use_count > 0)`
/// for domain-owned pages: a page is validated as a page-table page exactly
/// while references to it are held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageFrameDescriptor {
    /// Reference count of mappings/pins of this frame.
    pub use_count: u32,
    /// Whether the frame has been validated as a page-table page.
    pub validated: bool,
    /// Owning domain, if any.
    pub owner: Option<DomId>,
    /// Current lifecycle state.
    pub state: PageState,
}

impl PageFrameDescriptor {
    /// A clean, free frame.
    pub const fn free() -> Self {
        PageFrameDescriptor {
            use_count: 0,
            validated: false,
            owner: None,
            state: PageState::Free,
        }
    }

    /// Whether the validation bit and use counter are mutually consistent.
    pub fn is_consistent(&self) -> bool {
        match self.state {
            PageState::Free => self.use_count == 0 && !self.validated,
            PageState::HeapAllocated => !self.validated,
            PageState::DomainOwned => self.validated == (self.use_count > 0),
        }
    }
}

/// Errors from page-frame operations.
///
/// In the real hypervisor these conditions trip `BUG_ON`/`ASSERT` and panic
/// the hypervisor; callers in this crate translate them into detections.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemError {
    /// The free list is exhausted.
    OutOfMemory,
    /// An allocated frame was found in an invalid state (e.g. a "free" page
    /// that still has references — the signature of a double-applied
    /// non-idempotent hypercall retry).
    CorruptFrame(PageNum),
    /// A reference count would underflow.
    RefUnderflow(PageNum),
    /// The frame index is out of range.
    BadFrame(PageNum),
    /// The heap free list metadata is corrupted.
    HeapCorrupt,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory => write!(f, "out of hypervisor memory"),
            MemError::CorruptFrame(p) => write!(f, "page frame {p} is in a corrupt state"),
            MemError::RefUnderflow(p) => write!(f, "use count underflow on frame {p}"),
            MemError::BadFrame(p) => write!(f, "page frame {p} out of range"),
            MemError::HeapCorrupt => write!(f, "hypervisor heap free list corrupted"),
        }
    }
}

impl std::error::Error for MemError {}

/// A clean free frame, lent out for every frame above the stored prefix.
static FREE_FRAME: PageFrameDescriptor = PageFrameDescriptor::free();

/// The table of all page-frame descriptors plus the frame free list.
///
/// Frames are handed out lowest first, so a booted machine has touched
/// only a low prefix of its frames. The table stores descriptors up to
/// the highest frame touched so far; every frame above reads as
/// [`PageFrameDescriptor::free`]. The free list is a LIFO stack whose
/// bottom is always the never-allocated tail `fresh..len` (highest frame
/// deepest), so it is kept as that low-water index plus the stack of
/// frames explicitly returned by [`PageFrameTable::free`]. Results,
/// errors, allocation order, [`PageFrameTable::len`] and the `Debug`
/// rendering (which `Hypervisor::state_digest` hashes) are those of a
/// table holding all `len` descriptors and the full free list.
#[derive(Clone, Serialize, Deserialize)]
pub struct PageFrameTable {
    /// Descriptors of frames `0..frames.len()`.
    frames: Vec<PageFrameDescriptor>,
    /// Number of frames.
    num_pages: usize,
    /// Frames `fresh..num_pages` are the untouched bottom of the free
    /// stack.
    fresh: usize,
    /// Freed frames, stacked above the fresh tail.
    freed: Vec<PageNum>,
}

impl PageFrameTable {
    /// Creates a table with `num_pages` clean, free frames.
    pub fn new(num_pages: usize) -> Self {
        PageFrameTable {
            frames: Vec::new(),
            num_pages,
            fresh: 0,
            freed: Vec::new(),
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.num_pages
    }

    /// Whether the table has no frames.
    pub fn is_empty(&self) -> bool {
        self.num_pages == 0
    }

    /// Number of free frames.
    pub fn free_count(&self) -> usize {
        self.freed.len() + (self.num_pages - self.fresh)
    }

    /// The descriptor for `page`.
    pub fn get(&self, page: PageNum) -> Result<&PageFrameDescriptor, MemError> {
        match self.frames.get(page.index()) {
            Some(pfd) => Ok(pfd),
            None if page.index() < self.num_pages => Ok(&FREE_FRAME),
            None => Err(MemError::BadFrame(page)),
        }
    }

    /// Mutable access to the descriptor for `page`.
    pub fn get_mut(&mut self, page: PageNum) -> Result<&mut PageFrameDescriptor, MemError> {
        let i = page.index();
        if i >= self.num_pages {
            return Err(MemError::BadFrame(page));
        }
        if i >= self.frames.len() {
            self.frames.resize(i + 1, PageFrameDescriptor::free());
        }
        Ok(&mut self.frames[i])
    }

    /// Allocates a frame for `owner` in state `state`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when the free list is empty, and
    /// [`MemError::CorruptFrame`] when the popped frame is not clean — the
    /// real hypervisor `BUG()`s here, and this is how a double-applied
    /// non-idempotent hypercall retry eventually manifests.
    pub fn alloc(&mut self, owner: Option<DomId>, state: PageState) -> Result<PageNum, MemError> {
        let page = match self.freed.pop() {
            Some(page) => page,
            None if self.fresh < self.num_pages => {
                self.fresh += 1;
                PageNum::from_index(self.fresh - 1)
            }
            None => return Err(MemError::OutOfMemory),
        };
        let pfd = self.get_mut(page)?;
        if pfd.use_count != 0 || pfd.validated || pfd.state != PageState::Free {
            return Err(MemError::CorruptFrame(page));
        }
        pfd.owner = owner;
        pfd.state = state;
        Ok(page)
    }

    /// Returns `page` to the free list.
    ///
    /// # Errors
    ///
    /// [`MemError::CorruptFrame`] if the frame still has references or a set
    /// validation bit (hypervisor `BUG()` in the real system).
    pub fn free(&mut self, page: PageNum) -> Result<(), MemError> {
        let pfd = self.get_mut(page)?;
        if pfd.use_count != 0 || pfd.validated {
            return Err(MemError::CorruptFrame(page));
        }
        if pfd.state == PageState::Free {
            return Err(MemError::CorruptFrame(page));
        }
        pfd.owner = None;
        pfd.state = PageState::Free;
        self.freed.push(page);
        Ok(())
    }

    /// Increments the use counter (one half of a pin operation).
    pub fn inc_ref(&mut self, page: PageNum) -> Result<(), MemError> {
        let pfd = self.get_mut(page)?;
        pfd.use_count += 1;
        Ok(())
    }

    /// Decrements the use counter.
    ///
    /// # Errors
    ///
    /// [`MemError::RefUnderflow`] when the counter is already zero — the
    /// signature of a lost (never-applied or undone-twice) reference.
    pub fn dec_ref(&mut self, page: PageNum) -> Result<(), MemError> {
        let pfd = self.get_mut(page)?;
        if pfd.use_count == 0 {
            return Err(MemError::RefUnderflow(page));
        }
        pfd.use_count -= 1;
        Ok(())
    }

    /// Sets the validation bit (the other half of a pin operation).
    pub fn set_validated(&mut self, page: PageNum, validated: bool) -> Result<(), MemError> {
        self.get_mut(page)?.validated = validated;
        Ok(())
    }

    /// The recovery-time consistency scan over **all** page-frame
    /// descriptors (Tables II and III: 21 ms on an 8 GB machine).
    ///
    /// Restores `validated == (use_count > 0)` on domain-owned frames and
    /// clears stray bits on free/heap frames. Returns the number of frames
    /// repaired. The cost is proportional to [`PageFrameTable::len`]; the
    /// recovery latency model charges it accordingly. (The host walks only
    /// the stored prefix: untouched frames are clean.)
    pub fn consistency_scan(&mut self) -> usize {
        let mut fixed = 0;
        for pfd in &mut self.frames {
            if pfd.is_consistent() {
                continue;
            }
            match pfd.state {
                PageState::Free | PageState::HeapAllocated => {
                    pfd.use_count = 0;
                    pfd.validated = false;
                }
                PageState::DomainOwned => {
                    // The validation bit is the more reliable source: an
                    // abandoned pin takes its reference *before* setting
                    // the bit, so a mismatch means the references are
                    // stray (half-applied pin, leaked grant, or corruption)
                    // and must be dropped. Repairing in the other
                    // direction would fabricate pins and trip Xen's
                    // "already validated" BUG on the next real pin.
                    pfd.use_count = 0;
                    pfd.validated = false;
                }
            }
            fixed += 1;
        }
        fixed
    }

    /// Counts inconsistent descriptors without repairing them.
    pub fn count_inconsistent(&self) -> usize {
        self.frames.iter().filter(|p| !p.is_consistent()).count()
    }

    /// Iterates over `(page, descriptor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PageNum, &PageFrameDescriptor)> {
        let untouched = self.num_pages - self.frames.len();
        self.frames
            .iter()
            .chain(std::iter::repeat_n(&FREE_FRAME, untouched))
            .enumerate()
            .map(|(i, p)| (PageNum::from_index(i), p))
    }
}

/// Renders exactly what `#[derive(Debug)]` rendered for the table when it
/// stored every descriptor and the full free list.
impl std::fmt::Debug for PageFrameTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Frames<'a>(&'a PageFrameTable);
        impl std::fmt::Debug for Frames<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list()
                    .entries(self.0.iter().map(|(_, p)| p))
                    .finish()
            }
        }
        struct FreeStack<'a>(&'a PageFrameTable);
        impl std::fmt::Debug for FreeStack<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                // Bottom first: the fresh tail, highest frame deepest.
                let t = self.0;
                let fresh = (t.fresh..t.num_pages).rev().map(PageNum::from_index);
                f.debug_list()
                    .entries(fresh.chain(t.freed.iter().copied()))
                    .finish()
            }
        }
        f.debug_struct("PageFrameTable")
            .field("frames", &Frames(self))
            .field("free", &FreeStack(self))
            .finish()
    }
}

/// Bytes per simulated page frame.
pub const PAGE_BYTES: usize = 4096;

/// Evidence left behind by the boot-time memory scrub: one checksum per
/// scrubbed frame, plus a whole-memory digest.
///
/// Recovery code never consults the ledger — NiLiHype's point is precisely
/// that recovery must *not* redo boot work, and ReHype's reboot preserves
/// VM memory rather than re-scrubbing it. It exists so that the scrub is
/// real work with an observable result (and so a cloned warm-start system
/// provably carries the same scrubbed-memory state as a cold boot).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubLedger {
    checksums: Vec<u64>,
}

impl ScrubLedger {
    /// Number of scrubbed frames.
    pub fn len(&self) -> usize {
        self.checksums.len()
    }

    /// Whether no frames were scrubbed.
    pub fn is_empty(&self) -> bool {
        self.checksums.is_empty()
    }

    /// The scrub checksum recorded for `page`.
    pub fn checksum(&self, page: PageNum) -> Option<u64> {
        self.checksums.get(page.index()).copied()
    }

    /// A digest over all per-frame checksums.
    pub fn digest(&self) -> u64 {
        self.checksums.iter().fold(0xcbf29ce484222325, |acc, &c| {
            (acc ^ c).rotate_left(5).wrapping_mul(0x100000001b3)
        })
    }
}

/// The boot-time memory scrub (Xen's `bootscrub`): fills every word of
/// every frame with a frame-specific poison pattern, reads it back into a
/// checksum, then repeats with the inverted pattern — the classic
/// write/verify double pass of a memory test. The walk touches all of
/// simulated RAM at word granularity, so its host cost scales with the
/// machine's memory size exactly as the real scrub does; on the campaign
/// machine it dominates the cost of a cold boot.
pub fn boot_scrub(num_pages: usize) -> ScrubLedger {
    const WORDS: usize = PAGE_BYTES / 8;
    let mut frame = [0u64; WORDS];
    let mut checksums = Vec::with_capacity(num_pages);
    for page in 0..num_pages {
        let mut sum = 0xcbf29ce484222325u64;
        for pass in 0..2u64 {
            // Frame-specific xorshift pattern, inverted on the second pass.
            let mut x = (page as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(pass)
                | 1;
            for w in frame.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *w = if pass == 0 { x } else { !x };
            }
            for &w in frame.iter() {
                sum = (sum ^ w).rotate_left(7).wrapping_mul(0x100000001b3);
            }
        }
        checksums.push(sum);
    }
    ScrubLedger { checksums }
}

/// Kinds of hypervisor heap allocations the simulation tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeapObjKind {
    /// Per-CPU scheduler data (runqueue + its lock).
    PerCpuSched(u32),
    /// Per-CPU timer heap data (and its lock).
    PerCpuTimer(u32),
    /// A domain descriptor.
    DomainStruct(DomId),
    /// A vCPU descriptor.
    VcpuStruct(u32),
    /// A domain's grant table.
    GrantTable(DomId),
    /// Anything else.
    Misc,
}

/// A live hypervisor heap allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapObject {
    /// Stable id of the allocation.
    pub id: u64,
    /// What the allocation is for.
    pub kind: HeapObjKind,
    /// A spinlock embedded in the object, if any (walked by the
    /// "release heap locks" recovery enhancement).
    pub lock: Option<LockId>,
    /// Page frames backing the allocation.
    pub pages: Vec<PageNum>,
}

/// The hypervisor heap.
///
/// The simulation tracks allocations as objects rather than bytes; what
/// recovery cares about is *which* objects exist (to find their locks), how
/// many pages they cover (ReHype's heap rebuild cost), and whether the free
/// list metadata is intact (a corruption target that the reboot repairs but
/// microreset does not).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Heap {
    objects: Vec<HeapObject>,
    next_id: u64,
    freelist_corrupted: bool,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Self {
        Heap {
            objects: Vec::new(),
            next_id: 1,
            freelist_corrupted: false,
        }
    }

    /// Allocates an object of `kind` backed by `n_pages` frames from `pft`.
    ///
    /// # Errors
    ///
    /// [`MemError::HeapCorrupt`] if the free-list metadata has been
    /// corrupted (the allocation path walks it), or any frame-allocation
    /// error.
    pub fn alloc(
        &mut self,
        pft: &mut PageFrameTable,
        kind: HeapObjKind,
        n_pages: usize,
        lock: Option<LockId>,
    ) -> Result<u64, MemError> {
        if self.freelist_corrupted {
            return Err(MemError::HeapCorrupt);
        }
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            match pft.alloc(None, PageState::HeapAllocated) {
                Ok(p) => pages.push(p),
                Err(e) => {
                    // Roll back partial allocation.
                    for p in pages {
                        let _ = pft.free(p);
                    }
                    return Err(e);
                }
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.objects.push(HeapObject {
            id,
            kind,
            lock,
            pages,
        });
        Ok(id)
    }

    /// Frees object `id`, returning its frames to `pft`.
    ///
    /// # Errors
    ///
    /// [`MemError::HeapCorrupt`] if the free list is corrupted or the id is
    /// unknown (a double free).
    pub fn free(&mut self, pft: &mut PageFrameTable, id: u64) -> Result<(), MemError> {
        if self.freelist_corrupted {
            return Err(MemError::HeapCorrupt);
        }
        let idx = self
            .objects
            .iter()
            .position(|o| o.id == id)
            .ok_or(MemError::HeapCorrupt)?;
        let obj = self.objects.swap_remove(idx);
        for p in obj.pages {
            pft.free(p)?;
        }
        Ok(())
    }

    /// Live allocations.
    pub fn objects(&self) -> &[HeapObject] {
        &self.objects
    }

    /// Total pages backing live allocations.
    pub fn allocated_pages(&self) -> usize {
        self.objects.iter().map(|o| o.pages.len()).sum()
    }

    /// Whether the free-list metadata is corrupted.
    pub fn is_freelist_corrupted(&self) -> bool {
        self.freelist_corrupted
    }

    /// Corrupts the free-list metadata (fault-injection surface).
    pub fn corrupt_freelist(&mut self) {
        self.freelist_corrupted = true;
    }

    /// Rebuilds the free-list metadata from the live allocations, as
    /// ReHype's reboot does when it recreates the heap and re-integrates
    /// preserved allocations. Clears any corruption.
    pub fn rebuild_freelist(&mut self) {
        self.freelist_corrupted = false;
    }

    /// Locks embedded in live heap objects (the set the shared
    /// "release heap locks" enhancement walks).
    pub fn embedded_locks(&self) -> impl Iterator<Item = LockId> + '_ {
        self.objects.iter().filter_map(|o| o.lock)
    }
}

impl Default for Heap {
    fn default() -> Self {
        Heap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PageFrameTable {
        PageFrameTable::new(64)
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut t = table();
        assert_eq!(t.free_count(), 64);
        let p = t.alloc(Some(DomId(1)), PageState::DomainOwned).unwrap();
        assert_eq!(t.free_count(), 63);
        let pfd = t.get(p).unwrap();
        assert_eq!(pfd.owner, Some(DomId(1)));
        assert_eq!(pfd.state, PageState::DomainOwned);
        t.free(p).unwrap();
        assert_eq!(t.free_count(), 64);
        assert_eq!(t.get(p).unwrap().state, PageState::Free);
    }

    #[test]
    fn alloc_detects_dirty_free_page() {
        let mut t = table();
        let p = t.alloc(None, PageState::DomainOwned).unwrap();
        t.inc_ref(p).unwrap();
        // Simulate corruption: force the frame back onto the free list with
        // a stale reference (what a double-applied retry produces).
        t.get_mut(p).unwrap().state = PageState::Free;
        t.freed.push(p);
        // Allocation of other pages is fine until the dirty one is popped.
        assert_eq!(
            t.alloc(None, PageState::DomainOwned),
            Err(MemError::CorruptFrame(p))
        );
    }

    #[test]
    fn free_rejects_referenced_page() {
        let mut t = table();
        let p = t.alloc(None, PageState::DomainOwned).unwrap();
        t.inc_ref(p).unwrap();
        assert_eq!(t.free(p), Err(MemError::CorruptFrame(p)));
        t.dec_ref(p).unwrap();
        t.free(p).unwrap();
    }

    #[test]
    fn double_free_is_an_error() {
        let mut t = table();
        let p = t.alloc(None, PageState::DomainOwned).unwrap();
        t.free(p).unwrap();
        assert_eq!(t.free(p), Err(MemError::CorruptFrame(p)));
    }

    #[test]
    fn dec_ref_underflow() {
        let mut t = table();
        let p = t.alloc(None, PageState::DomainOwned).unwrap();
        assert_eq!(t.dec_ref(p), Err(MemError::RefUnderflow(p)));
    }

    #[test]
    fn out_of_range_frame() {
        let t = table();
        assert_eq!(
            t.get(PageNum(999)).err(),
            Some(MemError::BadFrame(PageNum(999)))
        );
    }

    #[test]
    fn out_of_memory() {
        let mut t = PageFrameTable::new(1);
        t.alloc(None, PageState::HeapAllocated).unwrap();
        assert_eq!(
            t.alloc(None, PageState::HeapAllocated),
            Err(MemError::OutOfMemory)
        );
    }

    #[test]
    fn consistency_scan_repairs_half_pin() {
        let mut t = table();
        let p = t.alloc(Some(DomId(1)), PageState::DomainOwned).unwrap();
        // A pin is inc_ref + set_validated; a fault between the two leaves
        // the pair inconsistent: the reference is stray and gets dropped.
        t.inc_ref(p).unwrap();
        assert!(!t.get(p).unwrap().is_consistent());
        assert_eq!(t.count_inconsistent(), 1);
        let fixed = t.consistency_scan();
        assert_eq!(fixed, 1);
        let pfd = t.get(p).unwrap();
        assert_eq!(pfd.use_count, 0, "stray reference dropped");
        assert!(!pfd.validated);
        assert_eq!(t.count_inconsistent(), 0);
    }

    #[test]
    fn consistency_scan_clears_stray_validation() {
        let mut t = table();
        let p = t.alloc(Some(DomId(1)), PageState::DomainOwned).unwrap();
        t.set_validated(p, true).unwrap(); // validated with zero refs
        assert_eq!(t.consistency_scan(), 1);
        assert!(!t.get(p).unwrap().validated);
    }

    #[test]
    fn consistency_scan_is_idempotent() {
        let mut t = table();
        for _ in 0..8 {
            let p = t.alloc(Some(DomId(2)), PageState::DomainOwned).unwrap();
            t.inc_ref(p).unwrap();
        }
        assert_eq!(t.consistency_scan(), 8);
        assert_eq!(t.consistency_scan(), 0);
    }

    #[test]
    fn scan_does_not_hide_double_apply() {
        // A double-applied pin (count 2, validated) is *consistent* and must
        // survive the scan — the paper's logging enhancement exists exactly
        // because the scan cannot repair it.
        let mut t = table();
        let p = t.alloc(Some(DomId(1)), PageState::DomainOwned).unwrap();
        t.inc_ref(p).unwrap();
        t.inc_ref(p).unwrap();
        t.set_validated(p, true).unwrap();
        assert_eq!(t.consistency_scan(), 0);
        assert_eq!(t.get(p).unwrap().use_count, 2);
    }

    #[test]
    fn heap_alloc_free() {
        let mut t = table();
        let mut h = Heap::new();
        let id = h
            .alloc(&mut t, HeapObjKind::PerCpuSched(0), 2, Some(LockId(5)))
            .unwrap();
        assert_eq!(h.allocated_pages(), 2);
        assert_eq!(h.embedded_locks().collect::<Vec<_>>(), vec![LockId(5)]);
        h.free(&mut t, id).unwrap();
        assert_eq!(h.allocated_pages(), 0);
        assert_eq!(t.free_count(), 64);
    }

    #[test]
    fn heap_corruption_blocks_alloc_until_rebuild() {
        let mut t = table();
        let mut h = Heap::new();
        h.corrupt_freelist();
        assert_eq!(
            h.alloc(&mut t, HeapObjKind::Misc, 1, None),
            Err(MemError::HeapCorrupt)
        );
        h.rebuild_freelist();
        assert!(h.alloc(&mut t, HeapObjKind::Misc, 1, None).is_ok());
    }

    #[test]
    fn heap_alloc_rolls_back_on_failure() {
        let mut t = PageFrameTable::new(2);
        let mut h = Heap::new();
        assert_eq!(
            h.alloc(&mut t, HeapObjKind::Misc, 3, None),
            Err(MemError::OutOfMemory)
        );
        assert_eq!(t.free_count(), 2, "partial allocation was rolled back");
    }

    #[test]
    fn boot_scrub_is_deterministic_and_per_frame() {
        let a = boot_scrub(16);
        let b = boot_scrub(16);
        assert_eq!(a, b, "scrub patterns are fixed, not seeded");
        assert_eq!(a.len(), 16);
        assert_eq!(a.digest(), b.digest());
        // Each frame gets its own pattern, so checksums differ.
        let first = a.checksum(PageNum::from_index(0)).unwrap();
        let second = a.checksum(PageNum::from_index(1)).unwrap();
        assert_ne!(first, second);
        assert_eq!(a.checksum(PageNum::from_index(16)), None);
    }

    #[test]
    fn boot_scrub_digest_depends_on_memory_size() {
        assert_ne!(boot_scrub(8).digest(), boot_scrub(16).digest());
        assert!(boot_scrub(0).is_empty());
    }

    #[test]
    fn heap_double_free_is_error() {
        let mut t = table();
        let mut h = Heap::new();
        let id = h.alloc(&mut t, HeapObjKind::Misc, 1, None).unwrap();
        h.free(&mut t, id).unwrap();
        assert_eq!(h.free(&mut t, id), Err(MemError::HeapCorrupt));
    }
}
