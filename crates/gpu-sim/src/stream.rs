//! CUDA-stream semantics: per-stream FIFO queues with cross-stream
//! concurrency, stream-ordered events, and a deterministic time-sliced
//! latency model.
//!
//! Real CUDA streams give an application N independent in-order queues
//! over one device: operations within a stream execute FIFO, operations
//! in different streams may interleave, and `cudaEvent`s impose
//! cross-stream ordering edges. The simulator's main clock still charges
//! every launch serially (nothing here perturbs a cycle of the
//! golden-pinned accounting); this module supplies the two halves a
//! multi-stream detector service needs on top of that:
//!
//! - [`StreamSet`]: the *ordering* plane. A functional set of per-stream
//!   FIFO op queues (work items, event records, event waits) drained
//!   round-robin at op granularity — the deterministic stand-in for
//!   hardware cross-stream interleaving. Event waits block a stream until
//!   the recording stream retires the event; a full pass with no progress
//!   is reported as a deadlock instead of spinning.
//! - [`SliceSchedule`]: the *latency* plane. One device time-sliced
//!   round-robin across streams in `slice_cycles` quanta, yielding
//!   per-item finish times and per-stream busy/idle/turnaround with exact
//!   accounting (`busy + idle == turnaround` per stream, `Σ busy ==
//!   makespan` for the work-conserving device).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;

/// A cross-stream ordering point returned by [`StreamSet::record_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId(usize);

/// One queued stream operation.
#[derive(Debug)]
enum StreamOp<T> {
    /// A unit of work (for the service: one launch job).
    Exec(T),
    /// Marks the event complete once every prior op on the stream retired.
    Record(EventId),
    /// Blocks the stream until the event completes.
    Wait(EventId),
}

/// Why a [`StreamSet::drain`] could not finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// Every non-empty stream is blocked on an event no stream will ever
    /// record (a wait-before-record cycle or a dangling event).
    Deadlock {
        /// Streams still holding queued ops.
        blocked_streams: Vec<usize>,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Deadlock { blocked_streams } => {
                write!(f, "stream deadlock: streams {blocked_streams:?} blocked on unrecorded events")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// N in-order op queues over one device (see module docs).
#[derive(Debug)]
pub struct StreamSet<T> {
    queues: Vec<VecDeque<StreamOp<T>>>,
    event_done: Vec<bool>,
}

impl<T> StreamSet<T> {
    /// A set of `streams` empty streams (clamped to at least 1 — the
    /// zero-stream configuration degenerates to one serial queue, keeping
    /// single-stream callers byte-identical to a plain loop).
    #[must_use]
    pub fn new(streams: usize) -> Self {
        StreamSet {
            queues: (0..streams.max(1)).map(|_| VecDeque::new()).collect(),
            event_done: Vec::new(),
        }
    }

    /// Number of streams.
    #[must_use]
    pub fn streams(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues a work item on `stream` (FIFO after everything already
    /// queued there). Out-of-range streams wrap — callers may hash
    /// tenants onto streams without bounds bookkeeping.
    pub fn push(&mut self, stream: usize, item: T) {
        let s = stream % self.queues.len();
        self.queues[s].push_back(StreamOp::Exec(item));
    }

    /// Records an event on `stream`: it completes when every op queued
    /// before it on that stream has retired.
    pub fn record_event(&mut self, stream: usize) -> EventId {
        let id = EventId(self.event_done.len());
        self.event_done.push(false);
        let s = stream % self.queues.len();
        self.queues[s].push_back(StreamOp::Record(id));
        id
    }

    /// Makes `stream` wait for `event` before running anything queued
    /// after the wait (`cudaStreamWaitEvent`).
    pub fn wait_event(&mut self, stream: usize, event: EventId) {
        let s = stream % self.queues.len();
        self.queues[s].push_back(StreamOp::Wait(event));
    }

    /// Work items still queued across all streams.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queues
            .iter()
            .flat_map(|q| q.iter())
            .filter(|op| matches!(op, StreamOp::Exec(_)))
            .count()
    }

    /// Drains every stream to empty — the deterministic analogue of
    /// `cudaDeviceSynchronize`. Streams advance round-robin, one op per
    /// stream per pass, so concurrent streams interleave at op
    /// granularity while each stream's own ops stay FIFO. `exec` receives
    /// `(stream, item)` for every work item, in the interleaved order.
    ///
    /// # Errors
    /// [`StreamError::Deadlock`] when non-empty streams remain but none
    /// can advance (every head op is a wait on an unrecorded event).
    pub fn drain<F: FnMut(usize, T)>(&mut self, mut exec: F) -> Result<u64, StreamError> {
        let mut executed = 0u64;
        loop {
            let mut progressed = false;
            let mut any_pending = false;
            for s in 0..self.queues.len() {
                match self.queues[s].front() {
                    None => continue,
                    Some(StreamOp::Wait(e)) if !self.event_done[e.0] => {
                        any_pending = true;
                        continue;
                    }
                    Some(_) => {}
                }
                // The peek above saw an op, so the `else` is never taken.
                let Some(op) = self.queues[s].pop_front() else {
                    continue;
                };
                any_pending = true;
                progressed = true;
                match op {
                    StreamOp::Exec(item) => {
                        exec(s, item);
                        executed += 1;
                    }
                    StreamOp::Record(e) => self.event_done[e.0] = true,
                    StreamOp::Wait(_) => {} // satisfied wait retires silently
                }
            }
            if !any_pending {
                return Ok(executed);
            }
            if !progressed {
                let blocked_streams = (0..self.queues.len())
                    .filter(|&s| !self.queues[s].is_empty())
                    .collect();
                return Err(StreamError::Deadlock { blocked_streams });
            }
        }
    }
}

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

    /// Queues an item of `cycles` device cycles on `stream` (wrapped like
    /// [`StreamSet::push`]; zero-cycle items are clamped to 1 so every
    /// item has a well-defined finish time). Returns the item id.
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
    fn single_stream_is_fifo() {
        let mut set = StreamSet::new(1);
        for i in 0..5 {
            set.push(0, i);
        }
        let mut seen = Vec::new();
        let n = set.drain(|_, i| seen.push(i)).unwrap();
        assert_eq!(n, 5);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(set.pending(), 0);
    }

    #[test]
    fn streams_interleave_round_robin_but_stay_fifo_within() {
        let mut set = StreamSet::new(2);
        set.push(0, "a0");
        set.push(0, "a1");
        set.push(1, "b0");
        set.push(1, "b1");
        let mut seen = Vec::new();
        set.drain(|s, i| seen.push((s, i))).unwrap();
        assert_eq!(
            seen,
            vec![(0, "a0"), (1, "b0"), (0, "a1"), (1, "b1")],
            "op-granular round-robin"
        );
    }

    #[test]
    fn zero_streams_clamp_to_one_and_out_of_range_wraps() {
        let mut set = StreamSet::new(0);
        assert_eq!(set.streams(), 1);
        set.push(7, 1);
        assert_eq!(set.pending(), 1);
    }

    #[test]
    fn events_order_across_streams() {
        // Stream 1 must not run its item before stream 0's first item.
        let mut set = StreamSet::new(2);
        set.push(0, "a0");
        let e = set.record_event(0);
        set.wait_event(1, e);
        set.push(1, "b0");
        set.push(0, "a1");
        let mut seen = Vec::new();
        set.drain(|s, i| seen.push((s, i))).unwrap();
        let pos = |item| seen.iter().position(|&(_, i)| i == item).unwrap();
        assert!(pos("a0") < pos("b0"), "event edge respected: {seen:?}");
    }

    #[test]
    fn wait_before_record_deadlocks_cleanly() {
        let mut set = StreamSet::new(2);
        // Each stream waits on an event only the other records *after* its
        // own wait: the classic cross-stream cycle.
        let e0 = EventId(0);
        let e1 = EventId(1);
        set.event_done = vec![false, false];
        set.queues[0].push_back(StreamOp::Wait(e1));
        set.queues[0].push_back(StreamOp::Record(e0));
        set.queues[1].push_back(StreamOp::Wait(e0));
        set.queues[1].push_back(StreamOp::Record(e1));
        let err = set.drain(|_, ()| {}).unwrap_err();
        assert_eq!(
            err,
            StreamError::Deadlock {
                blocked_streams: vec![0, 1]
            }
        );
        assert!(err.to_string().contains("deadlock"));
    }

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
        assert_eq!(r.streams[0], StreamLane { busy: 25, idle: 10, turnaround: 35, items: 1 });
        assert_eq!(r.streams[1], StreamLane { busy: 10, idle: 10, turnaround: 20, items: 1 });
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
