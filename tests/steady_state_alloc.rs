//! Counting-allocator proof of the allocation-free hot loops.
//!
//! `dtc-par` raises a thread-local flag ([`dtc_par::hot_loop_active`]) only
//! while a worker executes shard chunks; this test installs a global
//! allocator that counts every allocation made under that flag. After one
//! warm-up round (which grows the worker arenas and interns the telemetry
//! handles), a steady-state kernel-lowering + execution round must perform
//! **zero** heap allocations inside the hot loops — the tentpole's
//! allocation discipline, enforced rather than promised.
//!
//! The flag lives in a `const`-initialized `thread_local!` `Cell`, so
//! reading it from inside the allocator cannot itself allocate or recurse.

use dtc_spmm::core::{BalancedDtcKernel, DtcKernel, SpmmKernel};
use dtc_spmm::formats::{gen, DenseMatrix};
use dtc_spmm::sim::Device;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static HOT_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct HotCountingAlloc;

// SAFETY: delegates every operation to `System`; the only addition is a
// relaxed counter bump keyed on a const-initialized thread-local flag.
unsafe impl GlobalAlloc for HotCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if dtc_par::hot_loop_active() {
            HOT_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if dtc_par::hot_loop_active() {
            HOT_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if dtc_par::hot_loop_active() {
            HOT_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: HotCountingAlloc = HotCountingAlloc;

#[test]
fn kernel_hot_loops_do_not_allocate_in_steady_state() {
    // Community structure gives uneven windows, so the balanced kernel's
    // split windows and the weighted shard cuts are both exercised.
    let a = gen::community(2048, 2048, 16, 24.0, 0.9, 99);
    let b = DenseMatrix::from_fn(2048, 32, |r, c| ((r + 2 * c) % 9) as f32 * 0.5 - 1.0);
    let device = Device::rtx4090();
    let base = DtcKernel::new(&a);
    let bal = BalancedDtcKernel::new(&a);

    dtc_par::set_threads(Some(4));
    // Warm-up: the first rounds grow the pooled worker arenas to their
    // steady-state capacity and populate the cached telemetry handles.
    for _ in 0..2 {
        let _ = base.trace(64, &device, false);
        let _ = bal.trace(64, &device, false);
        let _ = base.execute(&b).expect("warm-up execute");
    }

    HOT_ALLOCS.store(0, Ordering::SeqCst);
    let t_base = base.trace(64, &device, false);
    let t_bal = bal.trace(64, &device, false);
    let c = base.execute(&b).expect("steady-state execute");
    let hot_allocs = HOT_ALLOCS.load(Ordering::SeqCst);
    dtc_par::set_threads(None);

    // The work actually ran in parallel (not a degenerate serial pass).
    assert!(t_base.num_tbs() > 0 && t_bal.num_tbs() > 0);
    assert_eq!(c.rows(), 2048);
    assert_eq!(
        hot_allocs, 0,
        "steady-state shard execution must not allocate: {hot_allocs} hot allocations"
    );
}
