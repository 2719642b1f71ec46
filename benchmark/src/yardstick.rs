//! A fixed piece of work that depends on no code of the repository, run
//! in small chunks between members and jobs. This host's speed moves by
//! 25 % for seconds to minutes at a time; the chunk's time moves with it,
//! so host times are reported scaled to the speed at which a chunk takes
//! `REFERENCE_NS`. A change to the measured
//! program cannot move the yardstick, so it cannot hide in the scaling.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one chunk takes on the builder's host when it is undisturbed.
pub const REFERENCE_NS: f64 = 1_000_000.0;

/// At most one chunk per this much wall time: about 5 % of a run.
const INTERVAL: Duration = Duration::from_millis(20);

const MEM_WORDS: usize = 1 << 16;
const STEPS: u32 = 100_000;

pub struct Yardstick {
    mem: Vec<u32>,
    state: u64,
    last_chunk: Option<Instant>,
    /// Every chunk time of the run, for the per-layer report.
    pub all_ns: Vec<f64>,
    /// How many of them `take_scale` has already used.
    taken: usize,
    /// Host time spent in chunks so far; a caller whose timed interval
    /// contains ticks subtracts the difference.
    pub spent_ns: u64,
    scale: f64,
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick {
            mem: (0..MEM_WORDS as u32).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            last_chunk: None,
            all_ns: Vec::new(),
            taken: 0,
            spent_ns: 0,
            scale: 1.0,
        }
    }

    /// A small interpreter: an opcode picked by a generator, a register,
    /// loads and stores scattered over 256 KiB, a data-dependent branch
    /// per step. Of 32 KiB, 256 KiB, 1 MiB and 4 MiB the middle two
    /// followed the simulator's own pace best (a native `zoo_sim` pass
    /// over a chunk repeated within 3 % between runs, 5-8 % at the ends).
    fn chunk(&mut self) {
        let mut x = self.state;
        let mut acc = 0u32;
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let idx = (x >> 40) as usize & (MEM_WORDS - 1);
            match (x >> 33) & 7 {
                0 | 1 => acc = acc.wrapping_add(self.mem[idx]),
                2 => self.mem[idx] = acc,
                3 => acc = acc.rotate_left(5) ^ (x as u32),
                4 => acc = acc.wrapping_mul(31).wrapping_add(idx as u32),
                5 if acc & 1 == 0 => acc ^= self.mem[idx ^ 1],
                5 => acc = acc.wrapping_sub(7),
                6 => self.mem[idx] = self.mem[idx].wrapping_add(acc),
                _ => acc = acc.max(self.mem[idx]) >> 1,
            }
        }
        self.state = x ^ u64::from(black_box(acc));
    }

    /// Call at member and job boundaries: runs a chunk if one is due.
    pub fn tick(&mut self) {
        let now = Instant::now();
        if self.last_chunk.is_some_and(|t| now - t < INTERVAL) {
            return;
        }
        self.chunk();
        let end = Instant::now();
        let ns = (end - now).as_nanos() as f64;
        self.all_ns.push(ns);
        self.spent_ns += ns as u64;
        self.last_chunk = Some(end);
    }

    /// The factor that scales host time measured since the last call to
    /// the reference speed: `REFERENCE_NS` over the mean chunk time. With
    /// no chunk in between (a pass shorter than the interval) the last
    /// factor still holds.
    pub fn take_scale(&mut self) -> f64 {
        let fresh = &self.all_ns[self.taken..];
        if !fresh.is_empty() {
            self.scale = REFERENCE_NS * fresh.len() as f64 / fresh.iter().sum::<f64>();
            self.taken = self.all_ns.len();
        }
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_spaced_and_scale_follows_them() {
        let mut y = Yardstick::new();
        y.tick();
        y.tick(); // inside the interval: no second chunk
        assert_eq!(y.all_ns.len(), 1);
        let mean = y.all_ns[0];
        assert!((y.take_scale() - REFERENCE_NS / mean).abs() < 1e-12);
        assert!(
            (y.take_scale() - REFERENCE_NS / mean).abs() < 1e-12,
            "holds without a new chunk"
        );
    }
}
