//! Versioned regression corpus of oracle-checked specs.
//!
//! Every spec that ever produced an interesting verdict — a race class, a
//! litmus shape at some fence scope, an explained detector divergence, a
//! shrunk campaign failure — is pinned here as one line. A tier-1 test
//! replays the whole file deterministically, so a detector, scheduler or
//! memory-model regression flips a recorded line instead of hiding behind
//! fresh random kernels.
//!
//! Line format (`|`-separated, `#` comments, blank lines ignored):
//!
//! ```text
//! # oracle-corpus v2
//! <spec> | racy|clean | assert:-|no|sc|weak | <witness or -> |
//!     iguard:flagged|clean | barracuda:flagged|clean|unsupported |
//!     <expl,expl,... or ->
//! ```
//!
//! `assert:` pins the ground-truth assertion verdict: `-` no clause, `no`
//! unreachable, `sc` reachable under a sequentially consistent run, `weak`
//! reachable only through relaxed visibility. The witness is the race
//! witness if racy, else the assertion witness if reachable. The
//! explanation list pins every divergence class
//! (`iguard:FN:fence-scope-approximation`, ...); verification fails on
//! any UNEXPLAINED entry.

use std::path::Path;

use gpu_sim::sched::{ReplayScheduler, ScheduleTrace};

use crate::diff::{diff, DiffReport, Verdict};
use crate::explore::launch;
use crate::observer::Observer;
use crate::spec::Spec;

/// First line of every corpus file; bump on format changes.
pub const CORPUS_HEADER: &str = "# oracle-corpus v2";

/// Ground-truth assertion verdict tag of a corpus entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssertionTag {
    /// Spec has no assertion clause.
    None,
    /// Forbidden state unreachable in the whole explored space.
    Unreachable,
    /// Reachable under a sequentially consistent run.
    Sc,
    /// Reachable only through relaxed visibility — a weak-memory anomaly.
    WeakOnly,
}

impl AssertionTag {
    fn as_str(self) -> &'static str {
        match self {
            AssertionTag::None => "-",
            AssertionTag::Unreachable => "no",
            AssertionTag::Sc => "sc",
            AssertionTag::WeakOnly => "weak",
        }
    }

    fn parse(s: &str) -> Option<AssertionTag> {
        match s {
            "-" => Some(AssertionTag::None),
            "no" => Some(AssertionTag::Unreachable),
            "sc" => Some(AssertionTag::Sc),
            "weak" => Some(AssertionTag::WeakOnly),
            _ => None,
        }
    }
}

/// One pinned spec + expected verdicts.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    pub spec: Spec,
    /// Ground-truth oracle verdict at record time.
    pub racy: bool,
    pub assertion: AssertionTag,
    /// Race witness if racy, else the assertion witness if reachable.
    pub witness: Option<ScheduleTrace>,
    pub iguard_flagged: bool,
    pub barracuda: Verdict,
    /// Sorted, deduplicated `detector:FN|FP:reason` strings.
    pub explanations: Vec<String>,
}

fn assertion_tag(r: &DiffReport) -> AssertionTag {
    match &r.oracle.assertion {
        None => AssertionTag::None,
        Some(a) if !a.reachable => AssertionTag::Unreachable,
        Some(a) if a.sc_reachable => AssertionTag::Sc,
        Some(_) => AssertionTag::WeakOnly,
    }
}

fn explanation_strings(r: &DiffReport) -> Vec<String> {
    let mut ex: Vec<String> = r
        .divergences
        .iter()
        .map(|d| {
            format!(
                "{}:{}:{}",
                d.detector,
                if d.false_negative { "FN" } else { "FP" },
                d.explanation.unwrap_or("UNEXPLAINED")
            )
        })
        .collect();
    ex.sort();
    ex.dedup();
    ex
}

/// Runs the full differential check and pins its outcome as a corpus entry.
#[must_use]
pub fn entry_for(spec: &Spec) -> CorpusEntry {
    let r = diff(spec);
    let witness = r
        .oracle
        .witness
        .clone()
        .or_else(|| r.oracle.assertion.as_ref().and_then(|a| a.witness.clone()));
    CorpusEntry {
        spec: spec.clone(),
        racy: r.oracle.racy,
        assertion: assertion_tag(&r),
        witness,
        iguard_flagged: r.iguard == Verdict::Flagged,
        barracuda: r.barracuda,
        explanations: explanation_strings(&r),
    }
}

/// Serializes entries to the versioned text format.
#[must_use]
pub fn format(entries: &[CorpusEntry]) -> String {
    let mut out = String::from(CORPUS_HEADER);
    out.push('\n');
    for e in entries {
        let ba = match e.barracuda {
            Verdict::Flagged => "flagged",
            Verdict::Clean => "clean",
            Verdict::Unsupported => "unsupported",
        };
        out.push_str(&format!(
            "{} | {} | assert:{} | {} | iguard:{} | barracuda:{ba} | {}\n",
            e.spec.to_compact_string(),
            if e.racy { "racy" } else { "clean" },
            e.assertion.as_str(),
            e.witness
                .as_ref()
                .map_or_else(|| "-".to_string(), ScheduleTrace::to_compact_string),
            if e.iguard_flagged { "flagged" } else { "clean" },
            if e.explanations.is_empty() {
                "-".to_string()
            } else {
                e.explanations.join(",")
            },
        ));
    }
    out
}

/// Parses a corpus file; rejects unknown versions and malformed lines.
pub fn parse(text: &str) -> Result<Vec<CorpusEntry>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h.trim() == CORPUS_HEADER => {}
        other => return Err(format!("bad corpus header: {other:?}")),
    }
    let mut entries = Vec::new();
    for (n, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", n + 2);
        let fields: Vec<&str> = line.split('|').map(str::trim).collect();
        if fields.len() != 7 {
            return Err(at(format!("expected 7 fields, got {}", fields.len())));
        }
        let spec = Spec::parse(fields[0]).map_err(|e| at(e.to_string()))?;
        let racy = match fields[1] {
            "racy" => true,
            "clean" => false,
            other => return Err(at(format!("bad verdict {other:?}"))),
        };
        let assertion = fields[2]
            .strip_prefix("assert:")
            .and_then(AssertionTag::parse)
            .ok_or_else(|| at(format!("bad assertion tag {:?}", fields[2])))?;
        let witness = if fields[3] == "-" {
            None
        } else {
            Some(ScheduleTrace::parse(fields[3]).map_err(at)?)
        };
        let iguard_flagged = match fields[4] {
            "iguard:flagged" => true,
            "iguard:clean" => false,
            other => return Err(at(format!("bad iguard verdict {other:?}"))),
        };
        let barracuda = match fields[5] {
            "barracuda:flagged" => Verdict::Flagged,
            "barracuda:clean" => Verdict::Clean,
            "barracuda:unsupported" => Verdict::Unsupported,
            other => return Err(at(format!("bad barracuda verdict {other:?}"))),
        };
        let explanations = if fields[6] == "-" {
            Vec::new()
        } else {
            fields[6].split(',').map(str::to_string).collect()
        };
        entries.push(CorpusEntry {
            spec,
            racy,
            assertion,
            witness,
            iguard_flagged,
            barracuda,
            explanations,
        });
    }
    Ok(entries)
}

/// Appends `entries` to the corpus file at `path`, creating it when it
/// is missing. An existing file that cannot be read or parsed is left
/// untouched.
///
/// # Errors
/// The existing file is unreadable or malformed, or the write failed.
pub fn append(path: impl AsRef<Path>, entries: &[CorpusEntry]) -> Result<(), String> {
    let path = path.as_ref();
    let mut all = match std::fs::read_to_string(path) {
        Ok(existing) => parse(&existing)
            .map_err(|e| format!("existing corpus {} unreadable: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("cannot read corpus {}: {e}", path.display())),
    };
    all.extend_from_slice(entries);
    std::fs::write(path, format(&all))
        .map_err(|e| format!("cannot write corpus {}: {e}", path.display()))
}

/// Replays one entry against today's code: witness replay on the
/// weak-visibility machine, then a full re-diff whose verdicts, assertion
/// tag, and divergence classes must all still hold — and none of them may
/// be UNEXPLAINED.
pub fn verify(entry: &CorpusEntry) -> Result<(), String> {
    let label = entry.spec.to_compact_string();

    if let Some(trace) = &entry.witness {
        let mut sched = ReplayScheduler::new(trace.clone());
        let (kernel, mut obs) = (entry.spec.build(), Observer::default());
        launch(&entry.spec, &kernel, true, 0, &mut obs, Some(&mut sched))
            .map_err(|e| format!("{label}: witness replay failed: {e}"))?;
        if !sched.finished() {
            return Err(format!("{label}: witness trace not fully consumed"));
        }
    }

    let r = diff(&entry.spec);
    if r.oracle.racy != entry.racy {
        return Err(format!(
            "{label}: oracle verdict changed: recorded {}, now {}",
            entry.racy, r.oracle.racy
        ));
    }
    let tag = assertion_tag(&r);
    if tag != entry.assertion {
        return Err(format!(
            "{label}: assertion verdict changed: recorded {}, now {}",
            entry.assertion.as_str(),
            tag.as_str()
        ));
    }
    let now_flagged = r.iguard == Verdict::Flagged;
    if now_flagged != entry.iguard_flagged {
        return Err(format!(
            "{label}: iguard verdict changed: recorded {}, now {}",
            entry.iguard_flagged, now_flagged
        ));
    }
    if r.barracuda != entry.barracuda {
        return Err(format!(
            "{label}: barracuda verdict changed: recorded {:?}, now {:?}",
            entry.barracuda, r.barracuda
        ));
    }
    let ex = explanation_strings(&r);
    if ex != entry.explanations {
        return Err(format!(
            "{label}: divergence classes changed: recorded [{}], now [{}]",
            entry.explanations.join(","),
            ex.join(",")
        ));
    }
    if ex.iter().any(|e| e.ends_with("UNEXPLAINED")) {
        return Err(format!("{label}: unexplained divergence pinned in corpus"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Placement;

    fn entry(s: &str) -> CorpusEntry {
        entry_for(&Spec::parse(s).unwrap())
    }

    #[test]
    fn format_parse_roundtrip() {
        let entries = vec![entry("v2;CB;Sx/Lx"), entry("v2;SW;Lx/Lx")];
        assert!(entries[0].racy && entries[0].witness.is_some());
        assert!(!entries[1].racy && entries[1].witness.is_none());
        let text = format(&entries);
        let back = parse(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].spec, entries[0].spec);
        assert_eq!(back[0].racy, entries[0].racy);
        assert_eq!(
            back[0].witness.as_ref().map(ScheduleTrace::digest),
            entries[0].witness.as_ref().map(ScheduleTrace::digest)
        );
        assert_eq!(back[1].iguard_flagged, entries[1].iguard_flagged);
    }

    #[test]
    fn append_creates_extends_and_refuses_a_malformed_corpus() {
        let dir = std::env::temp_dir().join(format!("oracle-corpus-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("append.corpus");
        let _ = std::fs::remove_file(&path);
        let first = vec![entry("v2;CB;Sx/Lx")];
        let second = vec![entry("v2;SW;Lx/Lx"), entry("v2;CB;Lx/Sx")];

        // A missing file is created with the header and the first set.
        append(&path, &first).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format(&first));

        // An existing file keeps its entries, and the new set follows them.
        append(&path, &second).unwrap();
        let specs: Vec<Spec> = parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap()
            .into_iter()
            .map(|e| e.spec)
            .collect();
        let want: Vec<Spec> = first
            .iter()
            .chain(&second)
            .map(|e| e.spec.clone())
            .collect();
        assert_eq!(specs, want);

        // A malformed existing corpus is an error and stays as it was.
        std::fs::write(&path, "not a corpus\n").unwrap();
        assert!(append(&path, &first).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "not a corpus\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recorded_entries_verify_against_current_code() {
        verify(&entry("v2;CB;Sx/Lx")).unwrap();
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("no header\n").is_err());
        assert!(parse(&format!("{CORPUS_HEADER}\nonly | three | fields\n")).is_err());
        assert!(parse(&format!(
            "{CORPUS_HEADER}\nv2;CB;Sx/Lx | maybe | assert:- | - | iguard:flagged | barracuda:clean | -\n"
        ))
        .is_err());
    }

    #[test]
    fn litmus_format_parse_roundtrip_and_verify() {
        let entries = vec![
            entry("v2;CB;Sx/Lx"),
            entry_for(&Spec::mp(Placement::CrossBlock, None)),
        ];
        assert!(entries[0].racy && entries[0].witness.is_some());
        let text = format(&entries);
        let back = parse(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].spec, entries[0].spec);
        assert_eq!(back[0].racy, entries[0].racy);
        assert_eq!(back[0].assertion, entries[0].assertion);
        assert_eq!(back[0].barracuda, entries[0].barracuda);
        assert_eq!(back[0].explanations, entries[0].explanations);
        assert_eq!(
            back[0].witness.as_ref().map(ScheduleTrace::digest),
            entries[0].witness.as_ref().map(ScheduleTrace::digest)
        );
        for e in &back {
            verify(e).unwrap();
        }
    }

    #[test]
    fn litmus_parse_rejects_garbage() {
        assert!(parse(&format!("{CORPUS_HEADER}\na | b | c\n")).is_err());
        assert!(parse(&format!(
            "{CORPUS_HEADER}\nv2;CB;Sx/Lx | racy | assert:maybe | - | iguard:clean | barracuda:clean | -\n"
        ))
        .is_err());
        assert!(parse(&format!(
            "{CORPUS_HEADER}\nv2;CB;Sx/Lx | racy | assert:- | - | iguard:clean | barracuda:odd | -\n"
        ))
        .is_err());
        // The retired v1 spec language is a typed error, not a shim.
        assert!(parse(&format!(
            "{CORPUS_HEADER}\nv1;CB;S0/L0 | racy | assert:- | - | iguard:flagged | barracuda:flagged | -\n"
        ))
        .is_err());
    }
}
