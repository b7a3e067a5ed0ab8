//! A bounded, process-wide memo of built Fig. 8 task graphs.
//!
//! The generators are pure functions of (label, scale), so a graph built
//! once can stand in for every later build of the same pair. The memo
//! keeps built graphs as shared [`Arc`]s under a total-task budget and
//! evicts the least recently used graphs to stay within it. Clients pick
//! the scale of the grids they send, so the budget, not the number of
//! distinct keys, is what bounds its memory.
//!
//! The lock is held only to look up and to insert: a graph is always
//! built with the lock released, so one large build never stalls lookups
//! of other graphs. Two threads that miss on the same key at once both
//! build; the first to insert wins and the other adopts its graph, so
//! every caller of a retained key shares one allocation.

use crate::suite::{fig8_index, FIG8};
use crate::Scale;
use joss_dag::TaskGraph;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Total tasks the process-wide memo retains: 2^18. Built graphs take
/// 29–32 B per task averaged over the suite and at most 40.6 B per task
/// for any one instance (measured at scales 1/1000 to full), so the memo
/// holds about 8.4 MB of graphs and at most about 10.7 MB. The smallest
/// instance has 128 tasks, which caps it at 2048 graphs.
pub(crate) const MEMO_TASK_BUDGET: usize = 1 << 18;

/// (position in the suite, scale).
type Key = (usize, Scale);

struct Entry {
    graph: Arc<TaskGraph>,
    last_used: u64,
}

struct Inner {
    entries: HashMap<Key, Entry>,
    tasks: usize,
    tick: u64,
}

/// Least-recently-used memo of Fig. 8 graphs holding at most `budget`
/// tasks in total.
pub(crate) struct GraphMemo {
    budget: usize,
    inner: Mutex<Inner>,
}

impl GraphMemo {
    /// An empty memo that retains at most `budget` tasks.
    pub(crate) fn new(budget: usize) -> GraphMemo {
        GraphMemo {
            budget,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tasks: 0,
                tick: 0,
            }),
        }
    }

    /// The graph for `label` at `scale`, shared from the memo when it is
    /// retained and built otherwise. `None` for an unknown label, which
    /// builds nothing.
    pub(crate) fn get(&self, label: &str, scale: Scale) -> Option<Arc<TaskGraph>> {
        let key = (fig8_index(label)?, scale);
        if let Some(graph) = self.lookup(key) {
            return Some(graph);
        }
        let graph = Arc::new(FIG8[key.0](scale));
        Some(self.retain(key, graph))
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("graph memo lock poisoned by a panic while it was held")
    }

    fn lookup(&self, key: Key) -> Option<Arc<TaskGraph>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(&key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.graph))
    }

    /// Keep a freshly built graph, evicting least-recently-used graphs
    /// until it fits, and return the graph callers should share: the
    /// retained one if another thread inserted this key first. A graph
    /// larger than the whole budget is returned without being retained.
    fn retain(&self, key: Key, graph: Arc<TaskGraph>) -> Arc<TaskGraph> {
        let tasks = graph.n_tasks();
        if tasks > self.budget {
            return graph;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.last_used = tick;
            return Arc::clone(&entry.graph);
        }
        while inner.tasks + tasks > self.budget {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("retained tasks exceed zero only while a graph is retained");
            let evicted = inner.entries.remove(&victim).expect("victim was found");
            inner.tasks -= evicted.graph.n_tasks();
        }
        inner.tasks += tasks;
        inner.entries.insert(
            key,
            Entry {
                graph: Arc::clone(&graph),
                last_used: tick,
            },
        );
        graph
    }

    /// (graphs, tasks) currently retained.
    #[cfg(test)]
    fn retained(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.entries.len(), inner.tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    const SCALE: Scale = Scale::Divided(400);

    #[test]
    fn a_repeated_key_shares_one_graph() {
        let memo = GraphMemo::new(MEMO_TASK_BUDGET);
        let first = memo.get("MM_256_dop4", SCALE).expect("known label");
        let again = memo.get("MM_256_dop4", SCALE).expect("known label");
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(memo.retained(), (1, first.n_tasks()));
        // Another scale of the same label is another key.
        let other = memo.get("MM_256_dop4", Scale::Divided(10)).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(memo.retained().0, 2);
    }

    #[test]
    fn many_distinct_scales_never_exceed_the_budget() {
        // DP has 20200 tasks at full scale and floors at 606, so each
        // divisor below is a distinct key of 606..=2020 tasks.
        let budget = 5_000;
        let memo = GraphMemo::new(budget);
        let mut built = 0;
        for d in 10..60 {
            let graph = memo.get("DP", Scale::Divided(d)).expect("known label");
            built += graph.n_tasks();
            let (graphs, tasks) = memo.retained();
            assert!(tasks <= budget, "{tasks} tasks retained over {budget}");
            assert!(graphs >= 1, "the graph just built fits and stays");
        }
        assert!(built > 5 * budget, "the keys must overflow the budget");
        // The most recent key survived eviction and is shared.
        let last = memo.get("DP", Scale::Divided(59)).unwrap();
        let again = memo.get("DP", Scale::Divided(59)).unwrap();
        assert!(Arc::ptr_eq(&last, &again));
    }

    #[test]
    fn a_graph_over_the_budget_is_returned_but_not_retained() {
        let memo = GraphMemo::new(100);
        let first = memo.get("DP", SCALE).expect("known label");
        assert!(first.n_tasks() > 100);
        assert_eq!(memo.retained(), (0, 0));
        let again = memo.get("DP", SCALE).expect("known label");
        assert!(
            !Arc::ptr_eq(&first, &again),
            "an oversized graph is rebuilt"
        );
        assert_eq!(first.n_tasks(), again.n_tasks());
    }

    #[test]
    fn an_unknown_label_builds_nothing() {
        let memo = GraphMemo::new(MEMO_TASK_BUDGET);
        assert!(memo.get("NOPE", SCALE).is_none());
        assert!(memo.get("dp", SCALE).is_none(), "labels are case-sensitive");
        assert_eq!(memo.retained(), (0, 0));
    }

    #[test]
    fn concurrent_misses_on_one_key_share_the_first_insert() {
        let memo = GraphMemo::new(MEMO_TASK_BUDGET);
        let start = Barrier::new(4);
        let graphs: Vec<Arc<TaskGraph>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        memo.get("FB", SCALE).expect("known label")
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("memo worker panicked"))
                .collect()
        });
        for g in &graphs[1..] {
            assert!(Arc::ptr_eq(&graphs[0], g));
        }
        assert_eq!(memo.retained(), (1, graphs[0].n_tasks()));
    }
}
