//! The disabled-path contract: with tracing off, `span!`/`event!`
//! sites must not allocate at all — the whole cost is one relaxed
//! atomic load and a branch. Asserted with a counting global
//! allocator that counts *per thread*: the libtest harness and the
//! sibling test run on other threads of this same process, and a
//! separate test binary only isolates this file from other binaries,
//! not from those threads. Each test therefore reads only its own
//! thread's count, before and after the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread. `const`-initialised and
    /// without a destructor, so the allocator can touch it at any point
    /// of a thread's life (including its teardown) without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn disabled_spans_and_events_allocate_nothing() {
    tigris_obs::set_enabled(false);

    // Positive control: an allocation on this thread must register, so
    // a counter that is broken (always zero) cannot pass the contract.
    let before = allocations();
    let probe: Vec<u8> = Vec::with_capacity(1);
    assert!(allocations() > before, "the per-thread counter must see this thread's allocation");
    drop(probe);

    let before = allocations();
    for i in 0..10_000u64 {
        let _guard = tigris_obs::span!("noalloc.span", i = i, half = 0.5_f64, tag = "quiet");
        tigris_obs::event!("noalloc.event", i = i, ok = true);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "disabled instrumentation sites must not allocate");
}

#[test]
fn disabled_field_expressions_are_not_evaluated() {
    tigris_obs::set_enabled(false);
    let mut evaluated = false;
    {
        let _guard = tigris_obs::span!(
            "noalloc.lazy",
            cost = {
                evaluated = true;
                1_u64
            }
        );
    }
    assert!(!evaluated, "field expressions must stay unevaluated while tracing is off");
}
