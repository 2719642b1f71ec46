//! CUDA-stream latency: a deterministic time-sliced model of N in-order
//! streams sharing one device.
//!
//! Real CUDA streams give an application N independent in-order queues
//! over one device: operations within a stream execute FIFO, operations
//! in different streams may interleave. The simulator's main clock still
//! charges every launch serially (nothing here perturbs a cycle of the
//! golden-pinned accounting); this module supplies the *latency* plane a
//! multi-stream detector service needs on top of that:
//! [`SliceSchedule`], one device time-sliced round-robin across streams
//! in `slice_cycles` quanta, yielding per-item finish times and
//! per-stream busy/idle/turnaround with exact accounting (`busy + idle ==
//! turnaround` per stream, `Σ busy == makespan` for the work-conserving
//! device).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;

/// Per-stream occupancy over a [`SliceSchedule`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamLane {
    /// Device cycles spent executing this stream's items.
    pub busy: u64,
    /// Cycles the stream waited for the device while it had work in
    /// flight (`turnaround - busy`).
    pub idle: u64,
    /// Completion time of the stream's last item (0 for an idle stream).
    pub turnaround: u64,
    /// Items the stream ran.
    pub items: usize,
}

/// Result of time-slicing a batch of per-stream work over one device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SliceReport {
    /// Completion time of the whole batch. The device is
    /// work-conserving, so this equals the sum of all item cycles.
    pub makespan: u64,
    /// Finish time of each item, indexed by the id [`SliceSchedule::push`]
    /// returned (submission order).
    pub finish: Vec<u64>,
    /// Busy/idle/turnaround per stream.
    pub streams: Vec<StreamLane>,
}

/// Deterministic round-robin time-slicing of per-stream work items over
/// one shared device (see module docs). Items within a stream run FIFO;
/// across streams the device rotates in stream-index order, executing up
/// to `slice_cycles` of the head item per turn — so an item's *finish
/// time* reflects multi-tenant queueing delay, which is exactly the
/// latency a per-tenant SLO percentile should measure.
#[derive(Debug, Clone)]
pub struct SliceSchedule {
    slice: u64,
    /// Per-stream FIFO of `(item id, remaining cycles)`.
    queues: Vec<VecDeque<(usize, u64)>>,
    items: usize,
}

impl SliceSchedule {
    /// A schedule over `streams` streams with a `slice_cycles` quantum
    /// (both clamped to at least 1).
    #[must_use]
    pub fn new(streams: usize, slice_cycles: u64) -> Self {
        SliceSchedule {
            slice: slice_cycles.max(1),
            queues: (0..streams.max(1)).map(|_| VecDeque::new()).collect(),
            items: 0,
        }
    }

    /// Queues an item of `cycles` device cycles on `stream` (out-of-range
    /// streams wrap; zero-cycle items are clamped to 1 so every item has
    /// a well-defined finish time). Returns the item id.
    pub fn push(&mut self, stream: usize, cycles: u64) -> usize {
        let id = self.items;
        self.items += 1;
        let s = stream % self.queues.len();
        self.queues[s].push_back((id, cycles.max(1)));
        id
    }

    /// Number of queued items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether anything is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Plays the schedule. Pure: `&self`, so the same queue contents can
    /// be replayed (or extended and replayed) any number of times.
    #[must_use]
    pub fn run(&self) -> SliceReport {
        let mut queues = self.queues.clone();
        let mut finish = vec![0u64; self.items];
        let mut streams = vec![StreamLane::default(); queues.len()];
        let mut now = 0u64;
        loop {
            let mut progressed = false;
            for (s, q) in queues.iter_mut().enumerate() {
                let Some((id, remaining)) = q.front_mut() else {
                    continue;
                };
                progressed = true;
                let ran = self.slice.min(*remaining);
                now += ran;
                *remaining -= ran;
                streams[s].busy += ran;
                if *remaining == 0 {
                    finish[*id] = now;
                    streams[s].turnaround = now;
                    streams[s].items += 1;
                    q.pop_front();
                }
            }
            if !progressed {
                break;
            }
        }
        for lane in &mut streams {
            lane.idle = lane.turnaround - lane.busy;
        }
        SliceReport {
            makespan: now,
            finish,
            streams,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn slice_schedule_known_numbers() {
        // Two streams, 10-cycle quantum: A=25 cycles, B=10 cycles.
        //   t=10 A(10), t=20 B done, t=30 A(10), t=35 A done.
        let mut sched = SliceSchedule::new(2, 10);
        let a = sched.push(0, 25);
        let b = sched.push(1, 10);
        let r = sched.run();
        assert_eq!(r.makespan, 35);
        assert_eq!(r.finish[a], 35);
        assert_eq!(r.finish[b], 20);
        assert_eq!(
            r.streams[0],
            StreamLane {
                busy: 25,
                idle: 10,
                turnaround: 35,
                items: 1
            }
        );
        assert_eq!(
            r.streams[1],
            StreamLane {
                busy: 10,
                idle: 10,
                turnaround: 20,
                items: 1
            }
        );
    }

    #[test]
    fn slice_schedule_invariants_hold() {
        let mut sched = SliceSchedule::new(3, 7);
        let mut total = 0u64;
        for i in 0..20u64 {
            let c = 1 + (i * 13) % 97;
            total += c;
            sched.push((i % 3) as usize, c);
        }
        let r = sched.run();
        // Work-conserving single device: makespan == Σ cycles == Σ busy.
        assert_eq!(r.makespan, total);
        assert_eq!(r.streams.iter().map(|l| l.busy).sum::<u64>(), total);
        for lane in &r.streams {
            assert_eq!(lane.busy + lane.idle, lane.turnaround);
        }
        // Per-stream FIFO: finish times strictly increase within a stream.
        for s in 0..3 {
            let finishes: Vec<u64> = (0..20)
                .filter(|i| i % 3 == s)
                .map(|i| r.finish[i])
                .collect();
            assert!(finishes.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn slice_schedule_is_replayable() {
        let mut sched = SliceSchedule::new(2, 5);
        sched.push(0, 12);
        sched.push(1, 3);
        assert_eq!(sched.run(), sched.run());
        assert_eq!(sched.len(), 2);
        assert!(!sched.is_empty());
    }
}
