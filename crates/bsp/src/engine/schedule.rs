//! Work-aware placement: chunk jobs onto a crew's lanes by estimated cost
//! instead of count-even. Every multi-lane crew round is placed here:
//! superstep rounds priced by [`superstep_cost`], build rounds by edge
//! count.
//!
//! The paper's EBV partitioner balances per-worker load *statically*; at
//! run time the engine still has to place `p` worker tasks onto `t ≤ p`
//! lanes, and a count-even split strands the hub-heavy subgraph of a
//! skewed R-MAT distribution behind light siblings on the same thread —
//! PR 7's `ebv_bsp_straggler_ratio` gauge measures exactly that barrier
//! skew. The scheduler here uses the classic LPT (longest processing time
//! first) greedy: sort tasks by estimated cost descending, repeatedly give
//! the next task to the least-loaded lane. LPT is a 4/3-approximation of
//! optimal makespan and, crucially, fully deterministic: ties break on the
//! lower task index, then the lower lane index.
//!
//! The cost estimate ([`superstep_cost`]) is the static CSR edge count of
//! a subgraph for the first superstep and, once a frontier exists, the
//! *live* per-worker `work` counter of the previous superstep plus the
//! messages waiting in the worker's inbound shards — so a worklist
//! algorithm whose frontier collapses onto one worker reschedules within
//! one superstep, and a hub subgraph with nothing to do is placed last.
//!
//! Placement never affects results: workers are independent within a
//! superstep, so values and `ExecutionStats` are bit-identical under every
//! schedule (the mode-equivalence property suites prove this across lane
//! counts).

/// The scheduler's estimate of one worker's next superstep. The first
/// superstep (`previous` is `None`) may touch every local edge; a later one
/// costs about what the worker's last one did (`previous.0`, its `work`
/// counter) plus the messages it is about to fold (`previous.1`). Programs
/// that do sweep every superstep (PageRank) report the sweep as `work`, so
/// the estimate holds for them too.
pub(crate) fn superstep_cost(edges: usize, previous: Option<(u64, usize)>) -> u64 {
    match previous {
        None => edges as u64 + 1,
        Some((work, inbound)) => 1 + work + inbound as u64,
    }
}

/// The lane placement of one superstep's worker tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Schedule {
    /// `lanes[l]` holds the task indices lane `l` runs, in the order the
    /// LPT greedy assigned them (largest first).
    pub(crate) lanes: Vec<Vec<usize>>,
    /// The largest number of tasks any lane was assigned — exported as the
    /// `ebv_bsp_pool_chunk_workers` gauge.
    pub(crate) max_lane_tasks: usize,
}

/// Assigns `costs.len()` tasks onto at most `lanes` lanes with the LPT
/// greedy. Returns one (possibly empty) task list per used lane.
pub(crate) fn lpt_schedule(costs: &[u64], lanes: usize) -> Schedule {
    let used = lanes.min(costs.len()).max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    // Largest cost first; equal costs keep ascending task order.
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then_with(|| a.cmp(&b)));

    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); used];
    let mut loads: Vec<u64> = vec![0; used];
    for task in order {
        let lane = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cmp(b.1).then_with(|| a.0.cmp(&b.0)))
            .map(|(l, _)| l)
            .expect("at least one lane");
        assigned[lane].push(task);
        loads[lane] += costs[task];
    }
    let max_lane_tasks = assigned.iter().map(Vec::len).max().unwrap_or(0);
    Schedule {
        lanes: assigned,
        max_lane_tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn makespan(costs: &[u64], schedule: &Schedule) -> u64 {
        schedule
            .lanes
            .iter()
            .map(|lane| lane.iter().map(|&t| costs[t]).sum::<u64>())
            .max()
            .unwrap_or(0)
    }

    fn count_even_makespan(costs: &[u64], lanes: usize) -> u64 {
        // PR 5's placement: contiguous count-even chunks in task order.
        let lanes = lanes.min(costs.len()).max(1);
        let chunk = costs.len().div_ceil(lanes);
        costs
            .chunks(chunk)
            .map(|c| c.iter().sum::<u64>())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn every_task_is_placed_exactly_once() {
        let costs = [5u64, 1, 9, 3, 3, 7, 2, 8];
        let schedule = lpt_schedule(&costs, 3);
        assert_eq!(schedule.lanes.len(), 3);
        let mut seen: Vec<usize> = schedule.lanes.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..costs.len()).collect::<Vec<_>>());
        assert_eq!(
            schedule.max_lane_tasks,
            schedule.lanes.iter().map(Vec::len).max().unwrap()
        );
    }

    #[test]
    fn hub_worker_gets_its_own_lane() {
        // One hub-heavy subgraph (the R-MAT skew case) plus seven light
        // ones on four lanes: LPT isolates the hub; count-even chains it
        // behind a light sibling.
        let costs = [1000u64, 10, 10, 10, 10, 10, 10, 10];
        let schedule = lpt_schedule(&costs, 4);
        let hub_lane = schedule
            .lanes
            .iter()
            .find(|lane| lane.contains(&0))
            .unwrap();
        assert_eq!(hub_lane, &vec![0], "the hub shares no lane");
        assert!(makespan(&costs, &schedule) < count_even_makespan(&costs, 4));
    }

    #[test]
    fn idle_hub_is_placed_after_every_active_worker() {
        // Worker 0 holds the hub subgraph (most edges) but has no inbound
        // shard and did nothing last superstep; the others are active.
        let edges = [9_000usize, 40, 40, 40, 40];
        let previous = [(0u64, 0usize), (12, 3), (0, 1), (700, 0), (5, 5)];
        let first: Vec<u64> = edges.iter().map(|&e| superstep_cost(e, None)).collect();
        assert_eq!(lpt_schedule(&first, 1).lanes[0][0], 0, "hub first");
        let later: Vec<u64> = edges
            .iter()
            .zip(previous)
            .map(|(&e, prev)| superstep_cost(e, Some(prev)))
            .collect();
        assert_eq!(later, vec![1, 16, 2, 701, 11]);
        // One lane lists the LPT order itself; with two lanes the idle
        // worker is still the last task of whichever lane it lands on.
        assert_eq!(lpt_schedule(&later, 1).lanes[0], vec![3, 1, 4, 2, 0]);
        let two = lpt_schedule(&later, 2);
        let lane = two.lanes.iter().find(|lane| lane.contains(&0)).unwrap();
        assert_eq!(lane.last(), Some(&0));
        assert!(lane.len() > 1, "it does not get a lane of its own");
    }

    #[test]
    fn lpt_never_loses_to_count_even_on_skewed_inputs() {
        let cases: &[(&[u64], usize)] = &[
            (&[100, 1, 1, 1], 2),
            (&[1, 100, 1, 1, 1, 100], 3),
            (&[9, 8, 7, 6, 5, 4, 3, 2, 1], 3),
            (&[5, 5, 5, 5], 2),
            (&[0, 0, 0, 7], 2),
        ];
        for (costs, lanes) in cases {
            let schedule = lpt_schedule(costs, *lanes);
            assert!(
                makespan(costs, &schedule) <= count_even_makespan(costs, *lanes),
                "LPT regressed on {costs:?} over {lanes} lanes"
            );
        }
    }

    #[test]
    fn schedule_is_deterministic_under_ties() {
        let costs = [4u64, 4, 4, 4, 4, 4];
        let a = lpt_schedule(&costs, 3);
        let b = lpt_schedule(&costs, 3);
        assert_eq!(a, b);
        // Equal costs distribute round-robin by ascending task index.
        assert_eq!(a.lanes, vec![vec![0, 3], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn degenerate_shapes_are_well_formed() {
        // No tasks: one empty lane, nothing to run.
        let empty = lpt_schedule(&[], 4);
        assert_eq!(empty.lanes, vec![Vec::<usize>::new()]);
        assert_eq!(empty.max_lane_tasks, 0);
        // More lanes than tasks: one task per lane, extra lanes unused.
        let wide = lpt_schedule(&[3, 2], 5);
        assert_eq!(wide.lanes.len(), 2);
        assert_eq!(wide.max_lane_tasks, 1);
        // Single lane: everything in cost order.
        let single = lpt_schedule(&[1, 5, 3], 1);
        assert_eq!(single.lanes, vec![vec![1, 2, 0]]);
    }
}
