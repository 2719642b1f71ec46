//! The one checkpoint container: a crash-consistent, generation-numbered
//! store of CRC-framed records (DESIGN.md §15).
//!
//! This module owns everything about how a checkpoint is *held*: the
//! header line, the `crc32-hex TAB record` frames, the leading `gen`
//! record, the `end` trailer carrying the record count, the
//! `ckpt-<generation>.v2` files, the atomic write-then-promote, and the
//! write-side fault sites. What the records *say* belongs to the caller:
//! the detector service writes `seed/tenant/site/quar` records
//! ([`crate::service`]). A caller saves a `&[String]` and recovers by handing each candidate
//! generation's records, newest first, to its own decoder, which
//! accepts the generation or rejects it as [`Reject::Invalid`] or
//! [`Reject::Stale`]. Recovery **never panics, never resurrects a stale
//! generation**, and reports nothing recovered when nothing valid
//! remains.
//!
//! Three write-side fault sites from `crates/faults` model the ways a
//! checkpoint write dies in the wild:
//!
//! - [`FaultSite::CkptShortWrite`] — the temporary file is cut short and
//!   the promote never happens: the previous generation is untouched.
//! - [`FaultSite::CkptTornWrite`] — the file is promoted but truncated:
//!   its `end` trailer is gone, so recovery rejects it.
//! - [`FaultSite::CkptCorruptWrite`] — the file is promoted complete but
//!   with a flipped byte: some CRC frame fails verification.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use faults::{FaultInjector, FaultSite};

use crate::service::{DetectorService, ServiceConfig, ServiceError};

/// First line of every generation file; each following line is a
/// CRC-framed record, the first a `gen` record and the last an `end`
/// trailer carrying the record count.
const HEADER: &str = "# iguard detector-service checkpoint v2";

/// CRC-32 (IEEE 802.3, reflected polynomial) over `bytes` — the frame
/// check sequence for every record. Hand-rolled bitwise form:
/// checkpoints are small and the store must stay dependency-free.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Frames one record for a generation body: `crc32-hex TAB record`.
fn frame_record(record: &str) -> String {
    format!("{:08x}\t{record}", crc32(record.as_bytes()))
}

/// Unframes a body line, verifying its CRC.
fn unframe_record(line: &str) -> Result<&str, String> {
    let Some((crc_hex, record)) = line.split_once('\t') else {
        return Err(format!("unframed line {line:?}"));
    };
    let Ok(crc) = u32::from_str_radix(crc_hex, 16) else {
        return Err(format!("bad crc field {crc_hex:?}"));
    };
    let actual = crc32(record.as_bytes());
    if crc != actual {
        return Err(format!(
            "crc mismatch on {record:?}: stored {crc:08x}, computed {actual:08x}"
        ));
    }
    Ok(record)
}

/// Checks that `text` is one record of exactly `arity` tab-separated
/// fields. Record vocabularies split on tabs when they decode, so a field
/// that carries a tab of its own (a tenant or kernel name, say) would
/// encode to a record no decoder can read back.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] naming the record.
pub fn record(arity: usize, text: String) -> io::Result<String> {
    if text.split('\t').count() == arity {
        Ok(text)
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("checkpoint record {text:?} is not {arity} tab-separated fields"),
        ))
    }
}

/// Renders one generation file: header, `gen` record, the caller's
/// records, `end` trailer — every line after the header CRC-framed.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] when a record contains a line break
/// (it would split into two frames and the generation could never be
/// read back).
pub fn encode(generation: u64, records: &[String]) -> io::Result<String> {
    let mut out = format!(
        "{HEADER}\n{}\n",
        frame_record(&format!("gen\t{generation}"))
    );
    for record in records {
        if record.contains(['\n', '\r']) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("checkpoint record {record:?} contains a line break"),
            ));
        }
        out.push_str(&frame_record(record));
        out.push('\n');
    }
    out.push_str(&frame_record(&format!("end\t{}", records.len() + 1)));
    out.push('\n');
    Ok(out)
}

/// Reads one generation file back to the caller's records (the `gen`
/// record and the `end` trailer are the container's and are not
/// returned; the `gen` value is informational — the file name is
/// authoritative).
///
/// # Errors
/// Describes the integrity violation: wrong header, a frame that fails
/// its CRC, a missing, miscounted or non-final `end` trailer (torn
/// write), a missing `gen` record.
pub fn decode(text: &str) -> Result<Vec<&str>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(HEADER) => {}
        other => return Err(format!("bad header: {other:?} (expected {HEADER:?})")),
    }
    let mut records = lines
        .map(unframe_record)
        .collect::<Result<Vec<&str>, String>>()?;
    let Some(count) = records.pop().and_then(|r| r.strip_prefix("end\t")) else {
        return Err("missing end trailer (torn write?)".into());
    };
    if count.parse() != Ok(records.len()) {
        return Err(format!(
            "end trailer claims {count} records, found {}",
            records.len()
        ));
    }
    let gen = records.first().and_then(|r| r.strip_prefix("gen\t"));
    if gen.and_then(|g| g.parse::<u64>().ok()).is_none() {
        return Err(format!("missing gen record, found {:?}", records.first()));
    }
    Ok(records.split_off(1))
}

/// Why a decoder turned down an intact generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The records do not parse in the caller's vocabulary.
    Invalid,
    /// A valid checkpoint of a *different* campaign (its seed does not
    /// match): it must never be resurrected into this one.
    Stale,
}

/// What a recovery scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The generation recovered from (`None`: nothing valid remains).
    pub recovered_generation: Option<u64>,
    /// Generations examined, newest first.
    pub scanned: u64,
    /// Generations rejected as unreadable/torn/corrupt/malformed.
    pub skipped_invalid: u64,
    /// Generations rejected as [`Reject::Stale`].
    pub skipped_stale_seed: u64,
}

/// A directory of generation-numbered checkpoints with atomic
/// write-then-promote saves and newest-valid-wins recovery.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    /// Propagates the directory-creation failure.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of one generation's checkpoint file.
    #[must_use]
    pub fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:08}.v2"))
    }

    /// Promoted generations, ascending. Non-checkpoint files are
    /// ignored; unreadable directories read as empty.
    #[must_use]
    pub fn generations(&self) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut gens: Vec<u64> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                let middle = name.strip_prefix("ckpt-")?.strip_suffix(".v2")?;
                middle.parse().ok()
            })
            .collect();
        gens.sort_unstable();
        gens.dedup();
        gens
    }

    /// Saves `records` as a new generation atomically (no fault plane).
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] for an unencodable record (see
    /// [`encode`]; nothing is written), else filesystem failures from
    /// the write or the promote.
    pub fn save_records(&self, records: &[String]) -> io::Result<u64> {
        self.save_records_with_faults(records, &mut FaultInjector::disabled())?
            .ok_or_else(|| io::Error::other("fault-free save cannot short-write"))
    }

    /// Saves `records` as a new generation through the write-side fault
    /// plane: write-to-temp, then promote via atomic rename. A fired
    /// `CkptShortWrite` abandons the temp file before promotion; a
    /// fired `CkptTornWrite` promotes a truncated body; a fired
    /// `CkptCorruptWrite` promotes with one byte flipped (a torn or
    /// corrupt write still promotes — its damage surfaces at recovery
    /// time; `inj.stats()` says what fired). With a disabled injector
    /// this is byte-for-byte the clean save path. Returns the generation
    /// promoted, `None` when a short write kept the temporary file from
    /// ever being promoted.
    ///
    /// # Errors
    /// As [`CheckpointStore::save_records`].
    pub fn save_records_with_faults(
        &self,
        records: &[String],
        inj: &mut FaultInjector,
    ) -> io::Result<Option<u64>> {
        let generation = self.generations().last().copied().unwrap_or(0) + 1;
        let text = encode(generation, records)?;
        let bytes = text.as_bytes();
        let tmp = self.dir.join(format!(".tmp-ckpt-{generation:08}"));

        if inj.fire(FaultSite::CkptShortWrite) {
            // The writer died mid-temp-file: whatever prefix landed is
            // left behind (a crash artifact recovery must ignore), and
            // the promote never happens.
            let cut = inj.draw(FaultSite::CkptShortWrite, bytes.len().max(2) as u64 - 1) as usize;
            fs::write(&tmp, &bytes[..cut.min(bytes.len())])?;
            return Ok(None);
        }

        let mut body = bytes.to_vec();
        if inj.fire(FaultSite::CkptTornWrite) {
            // Promoted but truncated: drop at least the final byte so
            // the `end` trailer can never survive intact.
            let cut = inj.draw(FaultSite::CkptTornWrite, body.len().max(2) as u64 - 1) as usize;
            body.truncate(cut.min(body.len().saturating_sub(1)));
        }
        if inj.fire(FaultSite::CkptCorruptWrite) && !body.is_empty() {
            let at = (inj.draw(FaultSite::CkptCorruptWrite, body.len() as u64) - 1) as usize;
            body[at] ^= 0xFF;
        }

        fs::write(&tmp, &body)?;
        fs::rename(&tmp, self.generation_path(generation))?;
        Ok(Some(generation))
    }

    /// Recovers the newest generation `decoder` accepts: scans
    /// newest-first, skipping unreadable/torn/corrupt files and the
    /// generations `decoder` rejects. Never panics, never errors.
    pub fn recover_records<T>(
        &self,
        mut decoder: impl FnMut(&[&str]) -> Result<T, Reject>,
    ) -> (Option<T>, RecoveryReport) {
        let mut report = RecoveryReport::default();
        for generation in self.generations().into_iter().rev() {
            report.scanned += 1;
            let text = fs::read_to_string(self.generation_path(generation));
            let decoded = match text.as_deref().map(decode) {
                Ok(Ok(records)) => decoder(&records),
                _ => Err(Reject::Invalid),
            };
            match decoded {
                Ok(value) => {
                    report.recovered_generation = Some(generation);
                    return (Some(value), report);
                }
                Err(Reject::Invalid) => report.skipped_invalid += 1,
                Err(Reject::Stale) => report.skipped_stale_seed += 1,
            }
        }
        (None, report)
    }

    /// Saves the service's verdict plane as a new generation.
    ///
    /// # Errors
    /// As [`CheckpointStore::save_records`]; a tenant or kernel name
    /// containing a tab or a line break is `InvalidInput`.
    pub fn save<P>(&self, svc: &DetectorService<P>) -> io::Result<u64> {
        self.save_records(&svc.checkpoint_records()?)
    }

    /// Recovers the service from the newest valid generation whose seed
    /// matches `cfg`, falling back to a fresh service when nothing valid
    /// remains.
    #[must_use]
    pub fn recover<P>(&self, cfg: &ServiceConfig) -> (DetectorService<P>, RecoveryReport) {
        let (svc, report) = self.recover_records(|records| {
            DetectorService::from_records(cfg.clone(), records).map_err(|e| match e {
                ServiceError::CheckpointStaleSeed { .. } => Reject::Stale,
                _ => Reject::Invalid,
            })
        });
        (
            svc.unwrap_or_else(|| DetectorService::new(cfg.clone())),
            report,
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_ieee_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn scratch_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("iguard-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).unwrap()
    }

    fn records(lines: &[&str]) -> Vec<String> {
        lines.iter().map(ToString::to_string).collect()
    }

    /// The on-disk bytes of one small service generation, pinned: the
    /// container (header, `gen`, CRC frames, `end` count) and the service
    /// vocabulary (`seed`, `tenant`, `site`, `quar`) both show up here, so
    /// moving either cannot silently change what a restart reads.
    #[test]
    fn service_generation_bytes_are_pinned() {
        let svc = DetectorService::<u64>::from_records(
            ServiceConfig::default(),
            &[
                "seed\t42",
                "tenant\tacme\t3\t9\t0\t1",
                "site\tacme\treduce\t17\tAS,IL\t-",
                "quar\tacme\t1\tpanic\t3",
                "tenant\tzeta\t2\t4\t1\t0",
            ],
        )
        .unwrap();
        let store = scratch_store("pinned");
        assert_eq!(store.save(&svc).unwrap(), 1);
        let text = fs::read_to_string(store.generation_path(1)).unwrap();
        assert_eq!(
            text,
            "# iguard detector-service checkpoint v2\n\
             239d0628\tgen\t1\n\
             816f8ab0\tseed\t42\n\
             aac5b165\ttenant\tacme\t3\t9\t0\t1\n\
             f25c200b\tsite\tacme\treduce\t17\tAS,IL\t-\n\
             06abb982\tquar\tacme\t1\tpanic\t3\n\
             918f5c5e\ttenant\tzeta\t2\t4\t1\t0\n\
             1dafc23c\tend\t6\n"
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn decode_round_trips_and_rejects_every_integrity_violation() {
        let body = records(&["seed\t42", "tenant\tacme\t1\t1\t0\t0", "row\tlabel\tvalue"]);
        let text = encode(3, &body).unwrap();
        assert_eq!(decode(&text).unwrap(), body);
        assert!(decode(&encode(1, &[]).unwrap()).unwrap().is_empty());

        let rejects = |text: &str, why: &str| {
            let err = decode(text).unwrap_err();
            assert!(err.contains(why), "{err} vs {why}");
        };
        let unlines = |lines: &[&str]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        let lines: Vec<&str> = text.lines().collect();
        rejects("nonsense", "bad header");
        rejects("", "bad header");
        rejects(&format!("{HEADER}\nno-tab-here\n"), "unframed");
        rejects(&format!("{HEADER}\nzzzzzzzz\tx\n"), "bad crc");
        // Torn tail: the end trailer is gone.
        rejects(&unlines(&lines[..3]), "missing end trailer");
        // Flipped byte inside a record body.
        rejects(
            &text.replacen("tenant\tacme", "tenant\tacml", 1),
            "crc mismatch",
        );
        // Record after the trailer.
        rejects(
            &format!("{text}{}\n", frame_record("seed\t0")),
            "missing end trailer",
        );
        // Miscounted trailer: a whole (well-framed) line went missing.
        rejects(
            &unlines(&[&lines[..2], &lines[3..]].concat()),
            "end trailer claims",
        );
        // No gen record in front (trailer recounted to match).
        let end = frame_record("end\t3");
        rejects(
            &unlines(&[lines[0], lines[2], lines[3], lines[4], &end]),
            "missing gen record",
        );
    }

    #[test]
    fn unencodable_records_are_invalid_input_and_promote_nothing() {
        let store = scratch_store("unencodable");
        let invalid = |r: io::Result<u64>| r.unwrap_err().kind() == io::ErrorKind::InvalidInput;
        for bad in ["row\ta\nb\tc", "row\ta\rb\tc"] {
            assert!(
                invalid(store.save_records(&records(&["meta\tk\tv", bad]))),
                "{bad:?}"
            );
        }
        assert!(invalid(record(3, "row\ta\tb\tc".into()).map(|_| 0)));
        assert_eq!(record(3, "row\ta b\tc".into()).unwrap(), "row\ta b\tc");

        // The service vocabulary end to end: a tenant named "a\tb" used
        // to promote a generation no recovery could parse.
        let mut svc: DetectorService<u64> = DetectorService::new(ServiceConfig::default());
        svc.submit("a\tb", 0, 0);
        let ran = svc.run_all(|_, _| crate::service::JobOutcome::default());
        assert_eq!(ran.unwrap().jobs_run, 1);
        assert!(invalid(store.save(&svc)));
        assert!(store.generations().is_empty());
        assert!(
            fs::read_dir(store.dir()).unwrap().next().is_none(),
            "no temp file either"
        );
        let (_, report) = store.recover::<u64>(&ServiceConfig::default());
        assert_eq!(report, RecoveryReport::default());
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Unit `i` of a synthetic campaign: a pure function of the seed and
    /// the index, as a real deterministic campaign's results are.
    fn unit(seed: u64, i: u64) -> String {
        let h = faults::splitmix64(seed ^ faults::splitmix64(i.wrapping_add(0x9e37)));
        format!("unit\t{i}\t{h:016x}")
    }

    /// Continues the campaign in `done` up to unit `n`, saving every
    /// record so far through `inj` after every `save_every` units; stops
    /// early at `stop_at`, a crash that loses the in-memory state.
    fn run_from(
        done: &mut Vec<String>,
        (seed, n, save_every): (u64, u64, u64),
        store: &CheckpointStore,
        inj: &mut FaultInjector,
        stop_at: Option<u64>,
    ) {
        for i in done.len() as u64..n.min(stop_at.unwrap_or(n)) {
            done.push(unit(seed, i));
            if (i + 1) % save_every == 0 {
                store.save_records_with_faults(done, inj).unwrap();
            }
        }
    }

    /// The newest intact generation's records, whatever they say.
    fn recover_units(store: &CheckpointStore) -> (Option<Vec<String>>, RecoveryReport) {
        store.recover_records(|records| Ok(records.iter().map(ToString::to_string).collect()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A campaign interrupted at any point and resumed from whatever
        /// its saves left behind ends on exactly the uninterrupted
        /// records, with the saves going through the write-side fault
        /// plane: a short write promotes nothing (resume replays more
        /// work), a torn or corrupt generation is skipped for the newest
        /// valid one before it, or for a fresh start when none is left.
        #[test]
        fn interrupted_campaign_equals_uninterrupted_run(
            seed in 0u64..1 << 32,
            n in 1u64..=24,
            save_every in 1u64..=5,
            crash_at in 0u64..=24,
            short_rate in 0u32..=faults::RATE_ONE / 2,
            torn_rate in 0u32..=faults::RATE_ONE / 2,
            corrupt_rate in 0u32..=faults::RATE_ONE / 2,
        ) {
            let crash_at = crash_at.min(n);
            let store = scratch_store(&format!("campaign-{seed:x}"));
            let expect: Vec<String> = (0..n).map(|i| unit(seed, i)).collect();

            let plane = faults::FaultConfig::disabled()
                .with_seed(seed)
                .with_rate(FaultSite::CkptShortWrite, short_rate)
                .with_rate(FaultSite::CkptTornWrite, torn_rate)
                .with_rate(FaultSite::CkptCorruptWrite, corrupt_rate);
            let mut inj = FaultInjector::new(&plane, "campaign-save");
            let mut done = Vec::new();
            run_from(&mut done, (seed, n, save_every), &store, &mut inj, Some(crash_at));

            let (resumed, report) = recover_units(&store);
            prop_assert_eq!(resumed.is_some(), report.recovered_generation.is_some());
            let mut resumed = resumed.unwrap_or_default();
            prop_assert!(resumed.len() as u64 <= crash_at, "ahead of the crash");
            prop_assert_eq!(&resumed[..], &expect[..resumed.len()], "not a prefix");
            run_from(&mut resumed, (seed, n, save_every), &store, &mut inj, None);
            prop_assert_eq!(&resumed, &expect, "resumed campaign diverged");
            let _ = fs::remove_dir_all(store.dir());
        }
    }

    /// A damaged newest generation costs only the work since the save
    /// before it, which is still there.
    #[test]
    fn damaged_newest_generation_resumes_from_the_previous_one() {
        let (seed, n) = (42, 12);
        let store = scratch_store("fallback");
        let mut inj = FaultInjector::disabled();
        let mut done = Vec::new();
        run_from(&mut done, (seed, n, 4), &store, &mut inj, Some(10));
        assert_eq!(store.generations(), vec![1, 2], "saves at 4 and 8 units");

        // The crash also tore the newest generation's tail off.
        let newest = store.generation_path(2);
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() - 20]).unwrap();

        let (resumed, report) = recover_units(&store);
        assert_eq!(report.recovered_generation, Some(1));
        assert_eq!((report.scanned, report.skipped_invalid), (2, 1));
        let mut resumed = resumed.expect("generation 1 is intact");
        assert_eq!(resumed.len(), 4, "it continues");
        run_from(&mut resumed, (seed, n, 4), &store, &mut inj, None);

        let expect: Vec<String> = (0..n).map(|i| unit(seed, i)).collect();
        assert_eq!(resumed, expect, "stitched records diverged");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn generations_parse_and_sort() {
        let store = scratch_store("gens");
        let dir = store.dir().to_path_buf();
        assert!(store.generations().is_empty());
        for g in [3u64, 1, 2] {
            fs::write(store.generation_path(g), "x").unwrap();
        }
        fs::write(dir.join("not-a-checkpoint.txt"), "y").unwrap();
        fs::write(dir.join(".tmp-ckpt-00000009"), "z").unwrap();
        assert_eq!(store.generations(), vec![1, 2, 3]);
        let _ = fs::remove_dir_all(&dir);
    }
}
