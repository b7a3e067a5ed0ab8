//! The shared fan-out primitive: an ordered, deterministic parallel map
//! over OS threads on crossbeam work-stealing deques.
//!
//! Work items are pushed into a global injector; each worker drains its
//! local deque first, then batches from the injector, then steals from
//! peers. Results land in per-index slots, so the output order is the input
//! order no matter which thread ran which item — the property every sweep
//! consumer (normalization, chunking, record files) relies on.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::collections::BTreeMap;

/// Default worker count: the host's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `threads` OS threads, returning results in
/// input order.
///
/// Output is identical for any `threads >= 1` as long as `f` is a pure
/// function of `(index, item)` — which engine runs are, because each run
/// owns its own seeded RNG.
pub fn ordered_parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    ordered_parallel_stream(threads, items, f, |_, r| out.push(r));
    out
}

/// Stream `f(index, item)` results to `sink` in **input order**, as they
/// complete, on up to `threads` OS threads.
///
/// Unlike [`ordered_parallel_map`], only results that have finished but not
/// yet flushed to the sink are buffered (the reorder window plus the
/// delivery-channel backlog). When the sink keeps pace with the workers
/// that is O(threads) in practice, so a campaign writing records to disk
/// does not hold the whole grid. The sink runs on the calling thread and
/// backpressures nothing: workers keep computing, so a sink *persistently
/// slower than all workers combined* grows the backlog toward O(items) —
/// keep sinks cheap (buffered writes, no per-record fsync).
pub fn ordered_parallel_stream<T, R, F, S>(threads: usize, items: &[T], f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    S: FnMut(usize, R),
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        for (i, t) in items.iter().enumerate() {
            sink(i, f(i, t));
        }
        return;
    }

    let injector = Injector::new();
    for i in 0..n {
        injector.push(i);
    }
    let locals: Vec<Worker<usize>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<usize>> = locals.iter().map(|w| w.stealer()).collect();
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();

    std::thread::scope(|scope| {
        for (wid, local) in locals.into_iter().enumerate() {
            let injector = &injector;
            let stealers = &stealers;
            let f = &f;
            let tx = tx.clone();
            scope.spawn(move || loop {
                let idx = local.pop().or_else(|| {
                    // Global queue first, then other workers. An idle worker
                    // that finds nothing anywhere may exit: no new work is
                    // ever produced, and any index still in a peer's local
                    // deque will be popped by that peer before it exits.
                    std::iter::repeat_with(|| injector.steal_batch_and_pop(&local))
                        .find(|s| !s.is_retry())
                        .and_then(|s| s.success())
                        .or_else(|| {
                            for (vid, st) in stealers.iter().enumerate() {
                                if vid == wid {
                                    continue;
                                }
                                loop {
                                    match st.steal() {
                                        Steal::Success(i) => return Some(i),
                                        Steal::Retry => continue,
                                        Steal::Empty => break,
                                    }
                                }
                            }
                            None
                        })
                });
                match idx {
                    Some(i) => {
                        let r = f(i, &items[i]);
                        if tx.send((i, r)).is_err() {
                            break; // receiver gone: nothing left to deliver to
                        }
                    }
                    None => break,
                }
            });
        }
        // The receive loop runs on the scope's owning thread: buffer
        // out-of-order completions, flush the ready prefix in index order.
        drop(tx);
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        let mut next = 0usize;
        for (i, r) in rx {
            pending.insert(i, r);
            while let Some(r) = pending.remove(&next) {
                sink(next, r);
                next += 1;
            }
        }
        assert!(
            pending.is_empty() && next == n,
            "every index must be delivered exactly once"
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let serial = ordered_parallel_map(1, &items, |i, &x| x * x + i as u64);
        for threads in [2, 3, 8] {
            let par = ordered_parallel_map(threads, &items, |i, &x| x * x + i as u64);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let items: Vec<usize> = (0..100).collect();
        let calls = AtomicUsize::new(0);
        let out = ordered_parallel_map(4, &items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = vec![];
        assert!(ordered_parallel_map(4, &none, |_, &x| x).is_empty());
        assert_eq!(ordered_parallel_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn stream_delivers_in_index_order_as_results_finish() {
        let items: Vec<u64> = (0..181).collect();
        for threads in [1, 2, 5] {
            let mut seen = Vec::new();
            ordered_parallel_stream(
                threads,
                &items,
                |i, &x| x * 3 + i as u64,
                |i, r| seen.push((i, r)),
            );
            assert_eq!(seen.len(), items.len(), "threads={threads}");
            for (pos, &(i, r)) in seen.iter().enumerate() {
                assert_eq!(i, pos, "sink must observe spec order");
                assert_eq!(r, items[pos] * 3 + pos as u64);
            }
        }
    }

    #[test]
    fn stream_reorders_results_that_finish_ahead_of_the_due_index() {
        // Item 0 is made much slower than the rest, so with several workers
        // later items routinely finish first and must wait in the reorder
        // buffer; delivery must nonetheless be strictly contiguous and
        // exactly-once (`i == next` is stronger than "sorted": it fails on
        // any skip, duplicate, or early delivery).
        let items: Vec<usize> = (0..40).collect();
        let mut next = 0usize;
        ordered_parallel_stream(
            4,
            &items,
            |i, &x| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                x
            },
            |i, r| {
                assert_eq!(i, r);
                assert_eq!(i, next, "delivery must be strictly contiguous");
                next += 1;
            },
        );
        assert_eq!(next, 40);
    }
}
