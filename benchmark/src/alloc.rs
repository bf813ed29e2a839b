//! Counting global allocator for the traced run.
//!
//! Always installed, so the measured and the traced run execute the same
//! allocator code; it counts only while [`set_counting`] is on, into
//! per-thread cells, so two client threads never share a cache line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // `const` initialiser and no destructor: touching the cell from inside
    // the allocator can neither allocate nor run after thread teardown.
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let _ = TALLY.try_with(|t| {
            let (n, b) = t.get();
            t.set((n + 1, b + bytes as u64));
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches a thread-local
// `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// This thread's `(allocations, bytes requested)` so far.
pub fn thread_tally() -> (u64, u64) {
    TALLY.with(Cell::get)
}
