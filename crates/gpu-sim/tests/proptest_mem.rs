//! Property tests of the scoped memory hierarchy: random operation
//! sequences against a reference model of "what a correctly synchronized
//! observer must see", in the strong and the weak mode, and — strong mode
//! — against a map-per-SM model of the hierarchy itself. The L1s keep
//! their lines in pages of 256 words, so the memory is eight pages long
//! and every address is drawn from page edges and far-apart pages.

use std::collections::HashMap;

use gpu_sim::ir::{AtomOp, Scope};
use gpu_sim::mem::GlobalMem;
use proptest::prelude::*;

const SMS: usize = 4;
const MEM_WORDS: usize = 2048;
/// First and last words of pages 0, 1, 3 and 7, and two mid-page words.
const WORDS: [u32; 10] = [0, 255, 256, 257, 511, 600, 768, 1023, 1792, 2047];

#[derive(Debug, Clone, Copy)]
enum MemOp {
    Store { sm: usize, word: usize, value: u32 },
    VolatileStore { sm: usize, word: usize, value: u32 },
    DeviceAtomicAdd { sm: usize, word: usize, value: u32 },
    BlockAtomicAdd { sm: usize, word: usize, value: u32 },
    HostWrite { word: usize, value: u32 },
    DeviceFence { sm: usize },
    BlockFence { sm: usize },
    Load { sm: usize, word: usize },
    VolatileLoad { sm: usize, word: usize },
}

/// Operations over `WORDS[..words]`.
fn op_strategy(words: usize) -> impl Strategy<Value = MemOp> {
    let sm = 0..SMS;
    let word = 0..words;
    let at = (sm.clone(), word.clone());
    let with_value = (sm.clone(), word.clone(), 1u32..1000);
    prop_oneof![
        (sm.clone(), word.clone(), any::<u32>()).prop_map(|(sm, word, value)| MemOp::Store {
            sm,
            word,
            value
        }),
        with_value
            .clone()
            .prop_map(|(sm, word, value)| MemOp::DeviceAtomicAdd { sm, word, value }),
        (sm.clone(),).prop_map(|(sm,)| MemOp::DeviceFence { sm }),
        (sm.clone(),).prop_map(|(sm,)| MemOp::BlockFence { sm }),
        at.clone().prop_map(|(sm, word)| MemOp::Load { sm, word }),
        with_value
            .clone()
            .prop_map(|(sm, word, value)| MemOp::VolatileStore { sm, word, value }),
        with_value.prop_map(|(sm, word, value)| MemOp::BlockAtomicAdd { sm, word, value }),
        (word, any::<u32>()).prop_map(|(word, value)| MemOp::HostWrite { word, value }),
        at.prop_map(|(sm, word)| MemOp::VolatileLoad { sm, word }),
    ]
}

fn memory(weak: bool) -> GlobalMem {
    let mut m = GlobalMem::new(MEM_WORDS, SMS);
    if weak {
        m.enable_weak();
    }
    m
}

/// A plain load: in weak mode the weak load choosing candidate 0, which is
/// the value the strong model would return.
fn load(m: &mut GlobalMem, sm: usize, addr: u32) -> u32 {
    if m.weak_enabled() {
        m.load_weak(sm, addr, &mut |_| 0).unwrap()
    } else {
        m.load(sm, addr, false).unwrap()
    }
}

/// The strong hierarchy with a map for each L1: `(value, dirty)` by word.
#[derive(Default)]
struct Model {
    l2: HashMap<u32, u32>,
    l1: [HashMap<u32, (u32, bool)>; SMS],
}

impl Model {
    fn l2(&self, w: u32) -> u32 {
        self.l2.get(&w).copied().unwrap_or(0)
    }

    fn flush(&mut self, sm: usize) {
        for (w, (value, dirty)) in std::mem::take(&mut self.l1[sm]) {
            if dirty {
                self.l2.insert(w, value);
            }
        }
    }

    /// Applies `op`; returns the value it observed, if it observes one.
    fn apply(&mut self, op: MemOp) -> Option<u32> {
        match op {
            MemOp::Store { sm, word, value } => {
                self.l1[sm].insert(WORDS[word], (value, true));
                None
            }
            MemOp::VolatileStore { sm, word, value } => {
                self.l1[sm].remove(&WORDS[word]);
                self.l2.insert(WORDS[word], value);
                None
            }
            MemOp::DeviceAtomicAdd { sm, word, value } => {
                let w = WORDS[word];
                if let Some((line, true)) = self.l1[sm].remove(&w) {
                    self.l2.insert(w, line);
                }
                let old = self.l2(w);
                self.l2.insert(w, old.wrapping_add(value));
                Some(old)
            }
            MemOp::BlockAtomicAdd { sm, word, value } => {
                let w = WORDS[word];
                let old = self.l1[sm].get(&w).map_or(self.l2(w), |line| line.0);
                self.l1[sm].insert(w, (old.wrapping_add(value), true));
                Some(old)
            }
            MemOp::HostWrite { word, value } => {
                self.l2.insert(WORDS[word], value);
                self.l1.iter_mut().for_each(|l1| {
                    l1.remove(&WORDS[word]);
                });
                None
            }
            MemOp::DeviceFence { sm } => {
                self.flush(sm);
                None
            }
            MemOp::BlockFence { .. } => None,
            MemOp::Load { sm, word } => {
                let w = WORDS[word];
                let l2 = self.l2(w);
                Some(self.l1[sm].entry(w).or_insert((l2, false)).0)
            }
            MemOp::VolatileLoad { sm, word } => {
                let w = WORDS[word];
                match self.l1[sm].get(&w) {
                    Some(&(value, true)) => Some(value),
                    _ => {
                        self.l1[sm].remove(&w);
                        Some(self.l2(w))
                    }
                }
            }
        }
    }
}

/// Applies `op` to the memory; returns the value it observed, if any.
fn apply(m: &mut GlobalMem, op: MemOp) -> Option<u32> {
    let addr = |word: usize| WORDS[word] * 4;
    match op {
        MemOp::Store { sm, word, value } => m.store(sm, addr(word), value, false).unwrap(),
        MemOp::VolatileStore { sm, word, value } => m.store(sm, addr(word), value, true).unwrap(),
        MemOp::DeviceAtomicAdd { sm, word, value } => {
            return Some(
                m.atomic(sm, addr(word), AtomOp::Add, value, 0, Scope::Device)
                    .unwrap(),
            )
        }
        MemOp::BlockAtomicAdd { sm, word, value } => {
            return Some(
                m.atomic(sm, addr(word), AtomOp::Add, value, 0, Scope::Block)
                    .unwrap(),
            )
        }
        MemOp::HostWrite { word, value } => m.write_coherent(addr(word), value),
        MemOp::DeviceFence { sm } => m.fence(sm, Scope::Device),
        MemOp::BlockFence { sm } => m.fence(sm, Scope::Block),
        MemOp::Load { sm, word } => return Some(load(m, sm, addr(word))),
        MemOp::VolatileLoad { sm, word } => return Some(m.load(sm, addr(word), true).unwrap()),
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Strong mode, every operation: each observed value, and the coherent
    /// view after the kernel-exit flush, equal the map-per-SM model's.
    #[test]
    fn strong_hierarchy_matches_a_map_per_sm(
        ops in prop::collection::vec(op_strategy(WORDS.len()), 1..96),
    ) {
        let mut m = memory(false);
        let mut model = Model::default();
        for (i, op) in ops.iter().enumerate() {
            prop_assert_eq!(apply(&mut m, *op), model.apply(*op), "op {} {:?}", i, op);
        }
        m.flush_all();
        (0..SMS).for_each(|sm| model.flush(sm));
        for w in WORDS {
            prop_assert_eq!(m.read_coherent(w * 4), model.l2(w), "word {}", w);
        }
    }

    /// After flushing every SM (the kernel-exit barrier), the coherent view
    /// equals a reference that applies, per word, the *last* plain store of
    /// each SM or the accumulated atomics — here simplified to: if only
    /// device atomics touched a word, the total must be exact.
    #[test]
    fn device_atomics_are_never_lost(
        weak in any::<bool>(),
        ops in prop::collection::vec(op_strategy(4), 1..64),
    ) {
        let mut m = memory(weak);
        let mut expected = [0u64; 4];
        let mut only_device_atomics = [true; 4];
        for op in &ops {
            match *op {
                MemOp::DeviceAtomicAdd { word, value, .. } => expected[word] += u64::from(value),
                MemOp::Store { word, .. }
                | MemOp::VolatileStore { word, .. }
                | MemOp::BlockAtomicAdd { word, .. }
                | MemOp::HostWrite { word, .. } => only_device_atomics[word] = false,
                _ => {}
            }
            apply(&mut m, *op);
        }
        m.flush_all();
        for w in (0..4).filter(|w| only_device_atomics[*w]) {
            prop_assert_eq!(
                u64::from(m.read_coherent(WORDS[w] * 4)),
                expected[w] & 0xFFFF_FFFF,
                "word {} touched only by device atomics", WORDS[w]
            );
        }
    }

    /// An SM always observes its own program order: a load after a store
    /// from the same SM returns that store's value (absent interleaving
    /// writes from the same SM).
    #[test]
    fn same_sm_reads_own_writes(
        weak in any::<bool>(),
        sm in 0..SMS,
        word in 0..WORDS.len(),
        value in any::<u32>(),
        noise in prop::collection::vec(op_strategy(WORDS.len()), 0..16),
    ) {
        let mut m = memory(weak);
        // Noise from *other* SMs only, and no atomics on our word (a
        // same-word device atomic on this SM would fold our store in).
        for op in &noise {
            match *op {
                MemOp::Store { sm: s, .. } | MemOp::DeviceFence { sm: s } if s != sm => {
                    apply(&mut m, *op);
                }
                _ => {}
            }
        }
        m.store(sm, WORDS[word] * 4, value, false).unwrap();
        prop_assert_eq!(load(&mut m, sm, WORDS[word] * 4), value);
    }

    /// Publication is monotonic: once a value is visible to a fresh
    /// observer after the writer's device fence, later fences by anyone
    /// cannot un-publish it (absent new writes).
    #[test]
    fn publication_is_monotonic(
        weak in any::<bool>(),
        sm in 0..SMS,
        word in 0..WORDS.len(),
        value in any::<u32>(),
    ) {
        let mut m = memory(weak);
        m.store(sm, WORDS[word] * 4, value, false).unwrap();
        m.fence(sm, Scope::Device);
        for observer in 0..SMS {
            m.fence(observer, Scope::Device);
            prop_assert_eq!(load(&mut m, observer, WORDS[word] * 4), value);
        }
    }
}
