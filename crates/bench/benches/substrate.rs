//! Hypervisor-substrate hot paths.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use nlh_bench::small_machine;
use nlh_hv::mem::PageFrameTable;
use nlh_hv::timers::{TimerEvent, TimerEventKind, TimerSubsystem};
use nlh_sim::{CpuId, DomId, PageNum, SimDuration, SimTime};

fn bench_stepping(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/step");
    group.throughput(Throughput::Elements(10_000));
    // Checked per-step loop: what the trial loop drives while the
    // injector counts micro-ops.
    group.bench_function("10k_steps", |b| {
        b.iter_batched(
            || {
                let mut hv = small_machine(7);
                hv.run_for(SimDuration::from_millis(30)); // warm up
                hv
            },
            |mut hv| {
                for _ in 0..10_000 {
                    hv.step_any();
                }
                hv
            },
            BatchSize::SmallInput,
        )
    });
    // Batched run loop (checks hoisted to the horizon): what trials drive
    // outside the injection window — the campaign's dominant path.
    group.bench_function("10k_steps_batched", |b| {
        b.iter_batched(
            || {
                let mut hv = small_machine(7);
                hv.run_for(SimDuration::from_millis(30)); // warm up
                hv
            },
            |mut hv| {
                let target = hv.steps_executed() + 10_000;
                while hv.steps_executed() < target && hv.detection().is_none() {
                    hv.run_for(SimDuration::from_millis(5));
                }
                hv
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_pfd_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/pfd_scan");
    for pages in [16_384usize, 262_144] {
        group.throughput(Throughput::Elements(pages as u64));
        group.bench_function(format!("{pages}_frames"), |b| {
            b.iter_batched(
                || {
                    let mut pft = PageFrameTable::new(pages);
                    // Dirty a sprinkle of frames, as a fault would.
                    for i in (0..pages).step_by(97) {
                        let p = pft
                            .alloc(Some(DomId(1)), nlh_hv::mem::PageState::DomainOwned)
                            .unwrap();
                        if i % 2 == 0 {
                            pft.inc_ref(p).unwrap();
                        } else {
                            pft.set_validated(p, true).unwrap();
                        }
                    }
                    pft
                },
                |mut pft| pft.consistency_scan(),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_timer_heap(c: &mut Criterion) {
    c.bench_function("substrate/timer_heap_churn", |b| {
        b.iter_batched(
            || {
                let mut t = TimerSubsystem::new(8);
                for i in 0..64u64 {
                    t.insert(
                        CpuId((i % 8) as u32),
                        TimerEvent {
                            deadline: SimTime::from_micros(i * 37),
                            kind: TimerEventKind::OneShot(i),
                            period: None,
                        },
                    );
                }
                t
            },
            |mut t| {
                let now = SimTime::from_secs(1);
                let mut popped = 0;
                for cpu in 0..8 {
                    while let Some(ev) = t.pop_due(CpuId(cpu), now) {
                        popped += 1;
                        // Re-arm to keep the heap busy.
                        t.insert(
                            CpuId(cpu),
                            TimerEvent {
                                deadline: now + SimDuration::from_micros(popped),
                                kind: ev.kind,
                                period: None,
                            },
                        );
                        if popped > 64 {
                            break;
                        }
                    }
                }
                popped
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_page_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/page_ops");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("alloc_pin_unpin_free_x1000", |b| {
        b.iter_batched(
            || PageFrameTable::new(4096),
            |mut pft| {
                for _ in 0..1_000 {
                    let p = pft
                        .alloc(Some(DomId(1)), nlh_hv::mem::PageState::DomainOwned)
                        .unwrap();
                    pft.inc_ref(p).unwrap();
                    pft.set_validated(p, true).unwrap();
                    pft.set_validated(p, false).unwrap();
                    pft.dec_ref(p).unwrap();
                    pft.free(p).unwrap();
                }
                pft
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_locks(c: &mut Criterion) {
    use nlh_hv::locks::{LockPlacement, LockRegistry};
    c.bench_function("substrate/lock_registry", |b| {
        let mut reg = LockRegistry::new();
        let ids: Vec<_> = (0..16)
            .map(|i| reg.register(format!("l{i}"), LockPlacement::Heap))
            .collect();
        b.iter(|| {
            for (i, &id) in ids.iter().enumerate() {
                reg.acquire(id, CpuId((i % 8) as u32));
            }
            for &id in &ids {
                reg.release(id);
            }
            std::hint::black_box(&reg);
        })
    });
    // Keep PageNum referenced so the import list stays tidy under edits.
    let _ = PageNum(0);
}

criterion_group!(
    benches,
    bench_stepping,
    bench_pfd_scan,
    bench_timer_heap,
    bench_page_ops,
    bench_locks
);
criterion_main!(benches);
