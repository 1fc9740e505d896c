//! The counting allocator behind every heap measurement and allocation-free
//! proof: `exp_multilevel`'s solve peaks and the `alloc_free` /
//! `serve_alloc_free` test binaries, each of which installs
//! [`CountingAllocator`] as its `#[global_allocator]` and reads it through
//! [`counted`], [`held_peak`] and [`held`].  The counters are process-wide;
//! in a binary that installed nothing they stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The system allocator, counting allocations (a `realloc` is one),
/// deallocations, the bytes this process holds and the most it held since
/// [`held_peak`] last reset the mark.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static HELD: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let held = HELD.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(held, Relaxed);
}

fn allocated(ptr: *mut u8, bytes: usize) -> *mut u8 {
    if !ptr.is_null() {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grew(bytes);
    }
    ptr
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are exactly those `System` requires; the counters are
// statistics and never decide what is allocated.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received (see the impl).
        allocated(unsafe { System.alloc(layout) }, layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received (see the impl).
        allocated(unsafe { System.alloc_zeroed(layout) }, layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.dealloc(ptr, layout) };
        DEALLOCATIONS.fetch_add(1, Relaxed);
        HELD.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received (see the impl).
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => _ = HELD.fetch_sub(layout.size() - new_size, Relaxed),
            }
        }
        moved
    }
}

/// Runs `f` and returns its result with the allocations and deallocations
/// made meanwhile.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let allocs_before = ALLOCATIONS.load(SeqCst);
    let deallocs_before = DEALLOCATIONS.load(SeqCst);
    let out = f();
    let allocs = ALLOCATIONS.load(SeqCst) - allocs_before;
    let deallocs = DEALLOCATIONS.load(SeqCst) - deallocs_before;
    (out, allocs, deallocs)
}

/// Runs `f` and returns its result with the most heap it held above the
/// level it started from.  Only `f` may allocate meanwhile (a solve is one
/// thread; a test holds [`one_at_a_time`]).
pub fn held_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = HELD.load(SeqCst);
    PEAK.store(start, SeqCst);
    let out = f();
    (out, PEAK.load(SeqCst) - start)
}

/// The heap bytes this process holds now.
pub fn held() -> usize {
    HELD.load(SeqCst)
}

/// The lock every test of a counting binary holds from its first allocation
/// to its last assert: the counters are process-wide (threads a solve
/// spawns must be counted too), so a test that allocated while another
/// measures would be counted against it.
pub fn one_at_a_time() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    // A test that failed while holding the lock must not fail the others.
    let guard = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    // The lock changes hands when a test ends, which is also when the harness
    // tears that test's thread down and starts the next one: both allocate,
    // on threads a test cannot fence.  Give the counters up to half a second
    // to stand still; if something keeps allocating, the test goes ahead and
    // fails on its own count instead of hanging.
    let counts = || (ALLOCATIONS.load(SeqCst), DEALLOCATIONS.load(SeqCst));
    let mut seen = counts();
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(10));
        let now = counts();
        if now == seen {
            break;
        }
        seen = now;
    }
    guard
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Called directly (this test binary keeps the system allocator), so
    /// only these calls move the counters.
    #[test]
    fn held_and_peak_follow_every_entry_point() {
        let heap = CountingAllocator;
        let layout = |size| Layout::from_size_align(size, 8).expect("valid layout");
        let held = || HELD.load(SeqCst);
        let ((base, peak), allocs, deallocs) = counted(|| {
            let base = held();
            let ((), peak) = held_peak(|| {
                // SAFETY: every pointer comes from `heap` and is handed back
                // with the layout it was allocated or reallocated at.
                unsafe {
                    let block = heap.alloc(layout(64));
                    assert_eq!(held(), base + 64);
                    let block = heap.realloc(block, layout(64), 256);
                    assert_eq!(held(), base + 256);
                    let block = heap.realloc(block, layout(256), 16);
                    assert_eq!(held(), base + 16);
                    let zeroed = heap.alloc_zeroed(layout(100));
                    assert!(std::slice::from_raw_parts(zeroed, 100)
                        .iter()
                        .all(|&b| b == 0));
                    assert_eq!(held(), base + 116);
                    heap.dealloc(block, layout(16));
                    heap.dealloc(zeroed, layout(100));
                }
            });
            (base, peak)
        });
        assert_eq!(held(), base);
        assert_eq!(peak, 256, "the realloc growth is the high-water mark");
        assert_eq!((allocs, deallocs), (4, 2));
    }
}
