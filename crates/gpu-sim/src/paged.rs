//! The sparse page store under every per-word shadow (DESIGN.md §8,
//! "Sparse page store"): a table of owned fixed-size pages indexed by
//! word, so a shadow costs the pages its traffic writes plus eight bytes
//! of table per page up to the highest one — not the address range.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// `T` per word, in pages of `PAGE` words. A word on a page nobody wrote
/// reads as `T::default()`, so `T`'s default must mean "nothing here".
#[derive(Debug)]
pub struct Paged<T, const PAGE: usize> {
    pages: Vec<Option<Box<[T; PAGE]>>>,
}

impl<T, const PAGE: usize> Default for Paged<T, PAGE> {
    fn default() -> Self {
        Paged { pages: Vec::new() }
    }
}

impl<T: Copy + Default, const PAGE: usize> Paged<T, PAGE> {
    /// The value at `w`; `T::default()` on an unmapped page.
    #[inline(always)]
    pub fn read(&self, w: usize) -> T {
        match self.pages.get(w / PAGE) {
            Some(Some(page)) => page[w % PAGE],
            _ => T::default(),
        }
    }

    /// `w`'s cell if its page is mapped; never maps one.
    #[inline(always)]
    pub fn get_mut(&mut self, w: usize) -> Option<&mut T> {
        let page = self.pages.get_mut(w / PAGE)?.as_mut()?;
        Some(&mut page[w % PAGE])
    }

    /// `w`'s cell, mapping its page (every cell `T::default()`) first if
    /// this is the page's first write.
    #[inline(always)]
    pub fn entry(&mut self, w: usize) -> &mut T {
        &mut self.page(w / PAGE)[w % PAGE]
    }

    /// The cells of words `first..=last` when they lie on one page (mapped
    /// on demand), indexed by `word - first`; `None` for a span that
    /// crosses a page boundary or is empty (`first > last`).
    #[inline(always)]
    pub fn row(&mut self, first: usize, last: usize) -> Option<&mut [T]> {
        if first > last || first / PAGE != last / PAGE {
            return None;
        }
        Some(&mut self.page(first / PAGE)[first % PAGE..=last % PAGE])
    }

    /// Visits every cell of every mapped page (the epoch-wrap resets).
    pub fn for_each_mapped(&mut self, mut f: impl FnMut(&mut T)) {
        for page in self.pages.iter_mut().flatten() {
            page.iter_mut().for_each(&mut f);
        }
    }

    /// Pages mapped so far.
    #[cfg(test)]
    pub(crate) fn mapped_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    #[inline(always)]
    fn page(&mut self, p: usize) -> &mut [T; PAGE] {
        if p >= self.pages.len() {
            self.grow(p);
        }
        self.pages[p].get_or_insert_with(Self::fresh)
    }

    #[cold]
    #[inline(never)]
    fn fresh() -> Box<[T; PAGE]> {
        Box::new([T::default(); PAGE])
    }

    /// Table growth doubles, so a sweep re-copies the eight-byte page
    /// pointers O(1) times each and never a page.
    #[cold]
    fn grow(&mut self, p: usize) {
        self.pages.resize_with((p + 1).next_power_of_two(), || None);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, RngExt, SeedableRng};

    /// Random `read` / `entry` / `get_mut` / `row` / `for_each_mapped`
    /// against a plain `Vec` that is simply big enough. Pages are 8 words
    /// and addresses come from three far-apart clusters, so the table
    /// grows more than once and most of it stays unmapped.
    #[test]
    fn paged_agrees_with_a_flat_vector() {
        const PAGE: usize = 8;
        const WORDS: usize = 4096;
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..64 {
            let mut paged: Paged<u32, PAGE> = Paged::default();
            let mut flat = vec![0u32; WORDS];
            let mut mapped = vec![false; WORDS / PAGE];
            for step in 1..400u32 {
                let base = [0, 40, 4000][rng.random_range(0..3)];
                let w = base + rng.random_range(0..80);
                match rng.random_range(0..6) {
                    0 => {
                        *paged.entry(w) = step;
                        flat[w] = step;
                        mapped[w / PAGE] = true;
                    }
                    1 => match paged.get_mut(w) {
                        Some(cell) => {
                            assert!(mapped[w / PAGE], "get_mut mapped a page");
                            *cell = step;
                            flat[w] = step;
                        }
                        None => assert!(!mapped[w / PAGE]),
                    },
                    2 => {
                        // Spans of up to 11 words, some reversed: longer than
                        // a page, crossing one, or empty all occur.
                        let last = (w + rng.random_range(0..13)).saturating_sub(2);
                        let row = paged.row(w, last);
                        if w > last || w / PAGE != last / PAGE {
                            assert!(row.is_none(), "row({w}, {last})");
                            continue;
                        }
                        let row = row.expect("a span inside one page");
                        assert_eq!(row, &flat[w..=last]);
                        row[last - w] = step;
                        flat[last] = step;
                        mapped[w / PAGE] = true;
                    }
                    3 if step % 16 == 3 => {
                        paged.for_each_mapped(|c| *c = c.wrapping_add(1));
                        for (p, _) in mapped.iter().enumerate().filter(|(_, m)| **m) {
                            for c in &mut flat[p * PAGE..(p + 1) * PAGE] {
                                *c = c.wrapping_add(1);
                            }
                        }
                    }
                    _ => assert_eq!(paged.read(w), flat[w], "read({w})"),
                }
            }
            for (w, v) in flat.iter().enumerate() {
                assert_eq!(paged.read(w), *v);
            }
            assert_eq!(paged.read(WORDS * 100), 0, "past the table");
            let live = mapped.iter().filter(|m| **m).count();
            assert_eq!(paged.mapped_pages(), live);
        }
    }
}
