//! Mid-campaign checkpointing for long-running sweeps.
//!
//! A campaign (differential fuzzing, chaos testing) is a deterministic
//! sequence of independent units of work. A [`Checkpoint`] snapshots the
//! campaign's cursor — arbitrary `meta` key/values naming where the
//! stream stands — plus one `row` per completed unit, in completion
//! order. Because the unit stream is a pure function of the campaign
//! seed, reloading a checkpoint and continuing from its cursor
//! reproduces exactly the results an uninterrupted campaign would have
//! produced; the chaos smoke (`bench --bin chaos`) asserts this
//! byte-for-byte.
//!
//! This module is only the record *vocabulary*:
//!
//! ```text
//! meta<TAB>seed<TAB>42
//! meta<TAB>done<TAB>64
//! row<TAB><label><TAB><value>
//! ```
//!
//! Tabs separate fields, so keys, labels and values may contain spaces
//! but not tabs or line breaks (saving such a checkpoint fails with
//! `InvalidInput`). The records are held by [`iguard::CheckpointStore`]
//! — CRC frames, generation files, atomic promote — so a campaign
//! checkpoint is a store *directory*, every save is a new generation,
//! and a damaged newest generation falls back to the one before it
//! instead of restarting the campaign.

use std::collections::BTreeMap;
use std::io;

use iguard::store::{record, CheckpointStore, RecoveryReport, Reject};

/// A resumable snapshot of campaign progress.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Campaign cursor: seed, stream position, aggregate counters.
    pub meta: BTreeMap<String, String>,
    /// One `(label, value)` per completed unit, in completion order.
    pub rows: Vec<(String, String)>,
}

impl Checkpoint {
    /// An empty checkpoint.
    #[must_use]
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// Sets a cursor field (stringified).
    pub fn set_meta(&mut self, key: &str, value: impl ToString) {
        self.meta.insert(key.to_string(), value.to_string());
    }

    /// Reads a cursor field parsed as `T`, `None` if absent or malformed.
    #[must_use]
    pub fn meta_as<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.meta.get(key).and_then(|v| v.parse().ok())
    }

    /// Appends a completed unit.
    pub fn push_row(&mut self, label: impl Into<String>, value: impl Into<String>) {
        self.rows.push((label.into(), value.into()));
    }

    /// The checkpoint as store records: every `meta`, then every `row`.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] when a key, label or value
    /// contains a tab (it could never be read back).
    pub fn records(&self) -> io::Result<Vec<String>> {
        let meta = self.meta.iter().map(|(k, v)| format!("meta\t{k}\t{v}"));
        let rows = self.rows.iter().map(|(l, v)| format!("row\t{l}\t{v}"));
        meta.chain(rows).map(|r| record(3, r)).collect()
    }

    /// Parses store records, rejecting unknown kinds and malformed
    /// records (a foreign checkpoint must not silently resume).
    fn from_records(records: &[&str]) -> Option<Self> {
        let mut ck = Checkpoint::new();
        for record in records {
            let fields: Vec<&str> = record.split('\t').collect();
            match fields[..] {
                ["meta", k, v] => ck.set_meta(k, v),
                ["row", label, value] => ck.push_row(label, value),
                _ => return None,
            }
        }
        Some(ck)
    }

    /// Saves the checkpoint as a new generation of `store`.
    ///
    /// # Errors
    /// As [`Checkpoint::records`], plus filesystem failures.
    pub fn save(&self, store: &CheckpointStore) -> io::Result<u64> {
        store.save_records(&self.records()?)
    }

    /// Loads the newest valid checkpoint in `store`. With `seed` set, a
    /// checkpoint whose `seed` meta differs belongs to another campaign
    /// and is skipped as stale.
    #[must_use]
    pub fn recover(store: &CheckpointStore, seed: Option<u64>) -> (Option<Self>, RecoveryReport) {
        store.recover_records(|records| {
            let ck = Checkpoint::from_records(records).ok_or(Reject::Invalid)?;
            match seed {
                Some(s) if ck.meta_as("seed") != Some(s) => Err(Reject::Stale),
                _ => Ok(ck),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(records: &[String]) -> Vec<&str> {
        records.iter().map(String::as_str).collect()
    }

    #[test]
    fn roundtrips_meta_and_rows() {
        let mut ck = Checkpoint::new();
        ck.set_meta("seed", 42u64);
        ck.set_meta("stream_seed", 0xDEAD_BEEFu64);
        ck.push_row("job a", "ok sites=2");
        ck.push_row("scor/append size=Test seed=7", "DNF(fault)");
        let records = ck.records().unwrap();
        assert_eq!(records[0], "meta\tseed\t42");
        let parsed = Checkpoint::from_records(&strs(&records)).unwrap();
        assert_eq!(parsed, ck);
        assert_eq!(parsed.meta_as::<u64>("seed"), Some(42));
    }

    #[test]
    fn rejects_foreign_and_truncated_records() {
        assert!(Checkpoint::from_records(&["seed\t42"]).is_none());
        assert!(Checkpoint::from_records(&["meta\tonly-two-fields"]).is_none());
        assert!(Checkpoint::from_records(&["row\ta\tb\tc"]).is_none());
    }

    #[test]
    fn tabs_and_line_breaks_fail_the_save_and_promote_nothing() {
        let dir = std::env::temp_dir().join(format!("bench-ckpt-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        for bad in ["a\tb", "a\nb", "a\rb"] {
            let (mut row, mut meta) = (Checkpoint::new(), Checkpoint::new());
            row.push_row(bad, "v");
            meta.set_meta("k", bad);
            for ck in [row, meta] {
                let err = ck.save(&store).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{ck:?}");
            }
        }
        assert!(store.generations().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_skips_other_campaigns_as_stale() {
        let dir = std::env::temp_dir().join(format!("bench-ckpt-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        for seed in [7u64, 8] {
            let mut ck = Checkpoint::new();
            ck.set_meta("seed", seed);
            ck.set_meta("done", seed * 10);
            ck.save(&store).unwrap();
        }
        let (ck, report) = Checkpoint::recover(&store, Some(7));
        assert_eq!(ck.unwrap().meta_as::<u64>("done"), Some(70));
        assert_eq!(report.recovered_generation, Some(1));
        assert_eq!(report.skipped_stale_seed, 1);
        let (ck, _) = Checkpoint::recover(&store, None);
        assert_eq!(ck.unwrap().meta_as::<u64>("done"), Some(80));
        let (ck, report) = Checkpoint::recover(&store, Some(9));
        assert!(ck.is_none());
        assert_eq!(report.skipped_stale_seed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
