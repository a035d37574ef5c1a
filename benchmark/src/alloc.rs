//! A counting global allocator, so `nn.plan_steady_allocs` can be read
//! from outside `Plan::run` (the same instrument as `tests/plan_alloc.rs`
//! at the repo root). Counting is armed per thread, so the serving
//! workers' own allocations never land in a probe's count and an
//! unarmed allocation costs one thread-local load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator.
pub struct CountingAlloc;

thread_local! {
    // `const` and `Copy`: no lazy initialisation and no destructor, so the
    // allocator never re-enters itself through this slot.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn tick() {
    if ARMED.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only added work touches plain thread-local `Cell`s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    // Forwarded explicitly: the default would `alloc` + memset, turning the
    // lazily-zeroed pages behind `vec![0.0; n]` into touched ones and
    // moving both timings and `peak_rss_mb`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations (and reallocations) the calling thread makes in `f`.
pub fn count_allocs(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    COUNT.with(Cell::get)
}
