//! A counting `#[global_allocator]`: wraps the system allocator and
//! tallies every `alloc` / `realloc` / `alloc_zeroed` issued by the
//! calling thread. Spans read the tally on entry and exit, so the
//! traced run reports allocations per layer call (the same technique
//! `crates/fleet/tests/zero_alloc.rs` uses to prove the hot path
//! allocation-free, here read around each call instead of asserted).
//!
//! The counter is thread-local, so worker threads of a 2-worker round
//! never perturb the measuring thread's reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initializer: the slot needs no lazy-init bookkeeping, so
    // touching it from inside the allocator cannot recurse into it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers all memory management to `System`; only adds a
// counter update, which allocates nothing (const-init thread-local).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn tally() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations are simply not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Heap allocations this thread has issued so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_not_frees() {
        let before = thread_allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        assert_eq!(thread_allocs() - before, 1, "one Vec, one allocation");
        drop(v);
        assert_eq!(thread_allocs() - before, 1, "a free is not an allocation");
    }
}
