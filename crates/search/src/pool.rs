//! The crate's one work pool: a deterministic parallel map.
//!
//! Independent work items (multi-start restarts, adaptive-scheduler
//! members, a table's searches) run across the machine's cores and come
//! back in input order. Each item's result depends only on the item, so
//! the thread count decides where work runs, never what it returns.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Applies `f` to every item, on up to one thread per available core
/// (the calling thread included), and returns the results in input
/// order.
///
/// Workers pull the next unstarted item as they finish one, so a few
/// long items do not hold up the short ones queued behind them: put the
/// longest items first. With one core or at most one item it runs on
/// the calling thread. A panic in `f` propagates to the caller.
pub fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    // noc-verify: allow(DET03) — thread count only places work
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    par_map_on(threads, items, f)
}

/// [`par_map`] on at most `threads` worker threads.
fn par_map_on<T: Send, R: Send>(
    threads: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Each slot is taken exactly once, by the worker that claimed its
    // index, so its lock is never contended.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return mine;
            };
            let item = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            if let Some(item) = item {
                mine.push((i, f(item)));
            }
        }
    };
    let mut done = Vec::with_capacity(slots.len());
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        // The calling thread is the first worker.
        done.extend(work());
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uneven work: item `i` spins for a time that varies with `i`, so
    /// workers finish out of order.
    fn uneven(i: u64) -> u64 {
        let mut x = i;
        for _ in 0..(i % 7) * 20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        x
    }

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..50).collect();
        let expected: Vec<u64> = items.iter().map(|&i| uneven(i)).collect();
        assert_eq!(par_map_on(4, items.clone(), uneven), expected);
        assert_eq!(par_map(items, uneven), expected);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(par_map_on(4, Vec::<u64>::new(), uneven).is_empty());
        assert!(par_map(Vec::<u64>::new(), uneven).is_empty());
    }

    #[test]
    fn one_item_runs_once() {
        let calls = AtomicUsize::new(0);
        let out = par_map_on(4, vec![3u64], |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            uneven(i)
        });
        assert_eq!(out, vec![uneven(3)]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn thread_count_does_not_change_the_output() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map_on(1, items.clone(), uneven);
        for threads in [2, 3, 8, 64] {
            assert_eq!(par_map_on(threads, items.clone(), uneven), serial);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        par_map_on(5, (0..40).collect(), |i: usize| {
            calls[i].fetch_add(1, Ordering::Relaxed)
        });
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_worker_panic_propagates() {
        par_map_on(3, (0..10u64).collect(), |i| {
            assert!(i != 5, "item {i} failed");
            uneven(i)
        });
    }
}
