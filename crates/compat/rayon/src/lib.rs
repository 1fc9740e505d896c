//! Offline stand-in for `rayon`, restricted to what the workspace uses:
//! `slice.par_iter().map(f).collect::<Vec<_>>()`.
//!
//! Unlike most of the compat crates this is not a sequential fake — the
//! map fans the closure out over `std::thread::scope`, so the experiment
//! harness's per-instance parallelism (its one user) genuinely runs
//! concurrently.  Work distribution is **stealing**, not static
//! chunking: every worker claims small index blocks from one shared atomic
//! cursor, so a skewed batch (one expensive element among cheap ones) keeps
//! the remaining lanes busy instead of idling them behind a pre-assigned
//! chunk boundary.  Claiming is exactly-once by construction (`fetch_add` on
//! the cursor), which is what makes writing each result into its own output
//! slot sound.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The trait needed for `.par_iter().map(...).collect()`, mirroring
/// `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Borrowing parallel iteration over a collection, mirroring rayon's trait of
/// the same name.
pub trait IntoParallelRefIterator<'a> {
    /// Element type yielded by reference.
    type Item: Sync + 'a;

    /// A parallel iterator over `&Self::Item`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps each element through `f` (evaluated when `collect` runs).
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel iterator, ready to collect.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Runs the map on scoped stealing workers and gathers the results in
    /// input order (each worker writes its result into the claimed index's
    /// output slot, so order is positional, not completion-based).
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
        C: From<Vec<R>>,
    {
        C::from(par_map_slice_with_threads(
            self.items,
            &self.f,
            host_threads(self.items.len()),
        ))
    }
}

/// One worker thread per available core, capped by the element count.
fn host_threads(len: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(len)
}

/// Block size for the stealing cursor: small enough that a skewed batch
/// rebalances (a worker stuck on an expensive element only holds back the
/// rest of *its block*), large enough that the shared `fetch_add` is not hit
/// once per trivial element on large inputs.
fn steal_block(len: usize, threads: usize) -> usize {
    (len / (threads * 8)).clamp(1, 64)
}

/// A raw pointer that may cross thread boundaries.  Soundness is the
/// caller's obligation: every index is claimed exactly once off the atomic
/// cursor, so no two workers ever touch the same output slot.
struct SendPtr<T>(*mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Order-preserving parallel map with `threads` stealing workers: each
/// worker writes `f(items[i])` directly into output slot `i`.  Exposed with
/// an explicit thread count so tests can force the concurrent path on
/// single-core hosts.
///
/// If `f` panics, the panic propagates after the scope joins; results
/// already written are leaked rather than dropped (acceptable for the
/// workspace: a panicking solve aborts the run).
fn par_map_slice_with_threads<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync>(
    items: &'a [T],
    f: &F,
    threads: usize,
) -> Vec<R> {
    let len = items.len();
    if threads <= 1 || len <= 1 {
        return items.iter().map(f).collect();
    }
    let block = steal_block(len, threads);
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(len);
    // SAFETY: `MaybeUninit` needs no initialization; every slot is written
    // exactly once below before being read.
    unsafe { out.set_len(len) };
    let cursor = AtomicUsize::new(0);
    let slots = SendPtr(out.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let slots = &slots;
            let cursor = &cursor;
            scope.spawn(move || loop {
                let start = cursor.fetch_add(block, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + block).min(len);
                for i in start..end {
                    let r = f(&items[i]);
                    // SAFETY: slot `i` belongs to this worker alone (the
                    // cursor hands out each index exactly once) and is in
                    // bounds.
                    unsafe { (*slots.0.add(i)).write(r) };
                }
            });
        }
    });
    // SAFETY: the scope joined all workers and the cursor ran past `len`,
    // so every slot `0..len` is initialized; `MaybeUninit<R>` and `R` have
    // identical layout.
    unsafe {
        let mut out = std::mem::ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr() as *mut R, len, out.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_on_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let input: Vec<usize> = (0..64).collect();
        let _: Vec<()> = input
            .par_iter()
            .map(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
            .collect();
        let distinct = ids.lock().unwrap().len();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(distinct >= cores.min(2), "only {distinct} threads used");
    }

    // The stealing internals, driven with forced thread counts so the
    // concurrent path is exercised even on a single-core host.

    #[test]
    fn forced_thread_map_preserves_order_and_visits_everything() {
        let input: Vec<u64> = (0..517).collect();
        for threads in [2, 3, 5, 8] {
            let out = super::par_map_slice_with_threads(&input, &|&x| x * x, threads);
            assert_eq!(
                out,
                (0..517).map(|x: u64| x * x).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn stealing_rebalances_a_skewed_batch() {
        // One expensive element among cheap ones: with stealing, the worker
        // that draws the expensive element keeps only its own block; the
        // other workers drain the rest.  Static chunking would serialize
        // half the input behind the expensive element.  The assertion is on
        // correctness (the balancing is observable in wall-clock, which a
        // unit test should not gate on).
        let input: Vec<u64> = (0..128).collect();
        let out = super::par_map_slice_with_threads(
            &input,
            &|&x| {
                if x == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                x + 1
            },
            4,
        );
        assert_eq!(out, (1..=128).collect::<Vec<_>>());
    }

    #[test]
    fn forced_thread_map_handles_nontrivial_drop_types() {
        let input: Vec<u64> = (0..97).collect();
        let out = super::par_map_slice_with_threads(&input, &|&x| vec![x; 3], 3);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i as u64; 3]);
        }
    }
}
