//! Crash-recoverable campaign journal: an append-only record of completed
//! [`ScenarioOutcome`]s.
//!
//! The supervision layer makes one campaign *process* robust; the journal
//! makes the campaign robust across processes. While a journaled campaign
//! runs ([`crate::campaign::CampaignRunner::run_with_journal`]), every
//! completed scenario is appended here; after a crash or `SIGKILL`,
//! [`crate::campaign::CampaignRunner::resume`] reloads the journal,
//! re-runs only the scenarios it is missing, and produces a merged report
//! **byte-identical** to an uninterrupted run at any thread count.
//!
//! # File format
//!
//! Checkpoint-style framing (see [`crate::checkpoint`]), then records:
//!
//! ```text
//! header := magic[8 = "ASCPJRNL"] version[u32 LE] campaign_digest[u64 LE]
//! record := len[u32 LE] payload[len bytes] checksum[u64 LE = FNV-1a-64(payload)]
//! payload := one "SCNO" leaf section (StateWriter encoding) holding the
//!            outcome: index, name, seed, status, metrics, series,
//!            fault classes, transitions, attempt errors, had-capture flag
//! ```
//!
//! The campaign digest covers every scenario spec (name, config digest,
//! fault plan, duration, seed, steps, and position), so a journal can
//! never be resumed against a different campaign.
//!
//! Reading is truncation-tolerant: a final record torn by a crash (short
//! length, short payload, or checksum mismatch) is discarded along with
//! anything after it, and [`JournalWriter::append_to`] truncates the file
//! back to its last valid record before appending, so a resumed journal
//! never carries a torn record in its middle. Duplicate records for one
//! scenario index resolve last-wins.
//!
//! **NOT journaled:** flight-recorder [`CaptureBundle`]s (heavyweight,
//! reproducible by re-running the scenario; the `recorder_triggered`
//! metric *is* journaled so CSV/telemetry artifacts are unaffected), span
//! traces (wall-clock bound), warm-start hit counts, and wall time — all
//! either nondeterministic or derivable.
//!
//! [`CaptureBundle`]: ascp_sim::telemetry::CaptureBundle

use crate::campaign::{Scenario, ScenarioError, ScenarioOutcome, ScenarioStatus};
use crate::checkpoint;
use ascp_sim::fault::FaultKind;
use ascp_sim::snapshot::{fnv1a64, SnapshotError, StateReader, StateWriter};
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Journal file magic.
pub const MAGIC: [u8; 8] = *b"ASCPJRNL";

/// Format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Header length: magic + version + campaign digest.
pub const HEADER_LEN: usize = 8 + 4 + 8;

/// Per-record overhead: length prefix + checksum suffix.
const RECORD_OVERHEAD: usize = 4 + 8;

/// Why a journal could not be created, read, or appended.
#[derive(Debug)]
pub enum JournalError {
    /// The file does not start with [`MAGIC`] — not a campaign journal.
    BadMagic,
    /// The journal was written by an unknown format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The journal belongs to a different campaign (scenario list or
    /// configs differ).
    CampaignMismatch {
        /// Digest of the campaign being resumed.
        expected: u64,
        /// Digest recorded in the journal header.
        found: u64,
    },
    /// A checksum-valid record failed to decode — a layout bug, not
    /// file corruption.
    Record(SnapshotError),
    /// The underlying file operation failed.
    Io(std::io::Error),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a campaign journal (bad magic)"),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "journal format version {found} unsupported (this build reads {supported})"
            ),
            Self::CampaignMismatch { expected, found } => write!(
                f,
                "journal belongs to a different campaign \
                 (expected digest {expected:#018x}, found {found:#018x})"
            ),
            Self::Record(e) => write!(f, "journal record failed to decode: {e}"),
            Self::Io(e) => write!(f, "journal I/O error: {e}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Record(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<SnapshotError> for JournalError {
    fn from(e: SnapshotError) -> Self {
        Self::Record(e)
    }
}

/// Digest of a whole campaign's scenario list: what binds a journal to
/// the exact campaign that wrote it.
///
/// Covers each platform scenario's position, name, configuration (through
/// [`checkpoint::config_digest`]), extra fault plan, duration floor, seed
/// override and step list, and each channel scenario's position, name,
/// seed, measurement and built channel's
/// [`crate::frontend::SensorChannel::config_digest`] — everything that
/// determines a scenario's deterministic outcome.
#[must_use]
pub fn campaign_digest(scenarios: &[Scenario]) -> u64 {
    let mut canon = String::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        canon.push_str(&match scenario {
            Scenario::Platform(s) => format!(
                "{i}|{}|{:#018x}|{:?}|{}|{:?}|{:?}\n",
                s.name,
                checkpoint::config_digest(&s.config),
                s.faults.specs().collect::<Vec<_>>(),
                s.duration_s,
                s.seed,
                s.steps
            ),
            Scenario::Channel(c) => format!(
                "{i}|channel|{}|{}|{:?}|{:#018x}\n",
                c.name,
                c.seed,
                c.measurement,
                (c.factory)(c.seed).config_digest()
            ),
        });
    }
    fnv1a64(canon.as_bytes())
}

fn header_bytes(digest: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..].copy_from_slice(&digest.to_le_bytes());
    h
}

fn check_header(bytes: &[u8], expected_digest: u64) -> Result<(), JournalError> {
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(JournalError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let found = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes"));
    if found != expected_digest {
        return Err(JournalError::CampaignMismatch {
            expected: expected_digest,
            found,
        });
    }
    Ok(())
}

/// Walks the record stream, returning the decoded outcomes (journal
/// order, duplicates included) and the byte length of the valid prefix —
/// header plus every intact record. A torn tail (short length, short
/// payload/checksum, or checksum mismatch) ends the walk silently; a
/// checksum-valid record that fails to decode is a hard error.
fn scan(bytes: &[u8], expected_digest: u64) -> Result<(Vec<ScenarioOutcome>, usize), JournalError> {
    check_header(bytes, expected_digest)?;
    let mut outcomes = Vec::new();
    let mut offset = HEADER_LEN;
    while let Some(len_bytes) = bytes.get(offset..offset + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        let payload_at = offset + 4;
        let checksum_at = payload_at + len;
        let next = checksum_at + 8;
        let (Some(payload), Some(checksum_bytes)) = (
            bytes.get(payload_at..checksum_at),
            bytes.get(checksum_at..next),
        ) else {
            break; // truncated mid-record
        };
        let checksum = u64::from_le_bytes(checksum_bytes.try_into().expect("8 bytes"));
        if fnv1a64(payload) != checksum {
            break; // torn or corrupt tail
        }
        outcomes.push(decode_outcome(payload)?);
        offset = next;
    }
    Ok((outcomes, offset))
}

/// Reads every intact record of the journal at `path`, resolving
/// duplicate scenario indices last-wins.
///
/// # Errors
///
/// [`JournalError`] on I/O failure, a non-journal file, a format-version
/// or campaign-digest mismatch, or a checksum-valid record that fails to
/// decode. A torn final record is **not** an error — it is discarded.
pub fn read(
    path: impl AsRef<Path>,
    expected_digest: u64,
) -> Result<Vec<ScenarioOutcome>, JournalError> {
    let bytes = std::fs::read(path)?;
    let (outcomes, _) = scan(&bytes, expected_digest)?;
    // Last-wins dedup, preserving first-appearance order (the campaign
    // re-sorts by index anyway).
    let mut by_index: HashMap<usize, usize> = HashMap::new();
    let mut deduped: Vec<ScenarioOutcome> = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match by_index.get(&outcome.index) {
            Some(&at) => deduped[at] = outcome,
            None => {
                by_index.insert(outcome.index, deduped.len());
                deduped.push(outcome);
            }
        }
    }
    Ok(deduped)
}

/// Append-only journal writer shared by the campaign's worker threads.
///
/// Each append is one contiguous `write_all` of the framed record behind
/// a mutex, so records from concurrent workers never interleave and a
/// `SIGKILL` can tear at most the final record — exactly what the reader
/// tolerates.
#[derive(Debug)]
pub struct JournalWriter {
    file: Mutex<File>,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes its header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be created or written.
    pub fn create(path: impl AsRef<Path>, digest: u64) -> Result<Self, JournalError> {
        let mut file = File::create(path)?;
        file.write_all(&header_bytes(digest))?;
        file.flush()?;
        Ok(Self {
            file: Mutex::new(file),
        })
    }

    /// Opens the journal at `path` for appending, validating its header
    /// against `digest` and truncating a torn final record first (so the
    /// resumed journal never carries a torn record in its middle).
    ///
    /// # Errors
    ///
    /// [`JournalError`] on I/O failure or a header/record mismatch, as
    /// for [`read`].
    pub fn append_to(path: impl AsRef<Path>, digest: u64) -> Result<Self, JournalError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let (_, valid_len) = scan(&bytes, digest)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Self {
            file: Mutex::new(file),
        })
    }

    /// Appends one completed scenario outcome.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the record cannot be written.
    pub fn append(&self, outcome: &ScenarioOutcome) -> Result<(), JournalError> {
        let payload = encode_outcome(outcome);
        let mut record = Vec::with_capacity(payload.len() + RECORD_OVERHEAD);
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&payload);
        record.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(&record)?;
        file.flush()?;
        Ok(())
    }
}

fn encode_outcome(o: &ScenarioOutcome) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.leaf("SCNO", |w| {
        w.put_u64(o.index as u64);
        w.put_u8_slice(o.name.as_bytes());
        w.put_u64(o.seed);
        w.put_u8(match o.status {
            ScenarioStatus::Done => 0,
            ScenarioStatus::Poisoned => 1,
        });
        w.put_u32(o.metrics.len() as u32);
        for (name, value) in &o.metrics {
            w.put_u8_slice(name.as_bytes());
            w.put_f64(*value);
        }
        w.put_u32(o.series.len() as u32);
        for (name, values) in &o.series {
            w.put_u8_slice(name.as_bytes());
            w.put_f64_slice(values);
        }
        w.put_u32(o.fault_classes.len() as u32);
        for label in &o.fault_classes {
            w.put_u8_slice(label.as_bytes());
        }
        w.put_u32(o.transitions.len() as u32);
        for (from, to) in &o.transitions {
            w.put_u8_slice(from.as_bytes());
            w.put_u8_slice(to.as_bytes());
        }
        w.put_u32(o.attempt_errors.len() as u32);
        for error in &o.attempt_errors {
            match error {
                ScenarioError::Panicked { message } => {
                    w.put_u8(1);
                    w.put_u8_slice(message.as_bytes());
                    w.put_f64(0.0);
                }
                ScenarioError::TimedOut { deadline_s } => {
                    w.put_u8(2);
                    w.put_u8_slice(b"");
                    w.put_f64(*deadline_s);
                }
                ScenarioError::Missing => {
                    w.put_u8(3);
                    w.put_u8_slice(b"");
                    w.put_f64(0.0);
                }
            }
        }
        w.put_bool(o.capture.is_some());
    });
    w.into_bytes()
}

fn take_string(r: &mut StateReader<'_>) -> Result<String, SnapshotError> {
    String::from_utf8(r.take_u8_vec()?).map_err(|_| SnapshotError::Corrupt {
        context: "journal string is not UTF-8".into(),
    })
}

/// Re-interns a fault-class label against the static catalog so decoded
/// outcomes compare equal to freshly-run ones; unknown labels (a newer
/// catalog) leak one small allocation each.
fn intern_fault_label(label: &str) -> &'static str {
    FaultKind::ALL_LABELS
        .iter()
        .find(|&&l| l == label)
        .copied()
        .unwrap_or_else(|| Box::leak(label.to_owned().into_boxed_str()))
}

/// Re-interns a supervisor-state label (see
/// [`crate::supervisor::SupervisorState::label`] and
/// [`crate::frontend::ChannelStatus::label`]).
fn intern_state_label(label: &str) -> &'static str {
    const STATES: [&str; 9] = [
        "init",
        "normal",
        "degraded",
        "safe_state",
        "recovery",
        "not_connected",
        "short_to_ground",
        "reverse_polarity",
        "out_of_range",
    ];
    STATES
        .iter()
        .find(|&&l| l == label)
        .copied()
        .unwrap_or_else(|| Box::leak(label.to_owned().into_boxed_str()))
}

fn decode_outcome(payload: &[u8]) -> Result<ScenarioOutcome, SnapshotError> {
    let mut r = StateReader::new(payload);
    r.leaf("SCNO", |r| {
        let index = r.take_u64()? as usize;
        let name = take_string(r)?;
        let seed = r.take_u64()?;
        let status = match r.take_u8()? {
            0 => ScenarioStatus::Done,
            1 => ScenarioStatus::Poisoned,
            code => {
                return Err(SnapshotError::Corrupt {
                    context: format!("unknown scenario status {code}"),
                })
            }
        };
        let n_metrics = r.take_u32()? as usize;
        let mut metrics = Vec::with_capacity(n_metrics);
        for _ in 0..n_metrics {
            let name = take_string(r)?;
            let value = r.take_f64()?;
            metrics.push((name, value));
        }
        let n_series = r.take_u32()? as usize;
        let mut series = Vec::with_capacity(n_series);
        for _ in 0..n_series {
            let name = take_string(r)?;
            let values = r.take_f64_vec()?;
            series.push((name, values));
        }
        let n_classes = r.take_u32()? as usize;
        let mut fault_classes = Vec::with_capacity(n_classes);
        for _ in 0..n_classes {
            fault_classes.push(intern_fault_label(&take_string(r)?));
        }
        let n_transitions = r.take_u32()? as usize;
        let mut transitions = Vec::with_capacity(n_transitions);
        for _ in 0..n_transitions {
            let from = intern_state_label(&take_string(r)?);
            let to = intern_state_label(&take_string(r)?);
            transitions.push((from, to));
        }
        let n_errors = r.take_u32()? as usize;
        let mut attempt_errors = Vec::with_capacity(n_errors);
        for _ in 0..n_errors {
            let tag = r.take_u8()?;
            let message = take_string(r)?;
            let deadline_s = r.take_f64()?;
            attempt_errors.push(match tag {
                1 => ScenarioError::Panicked { message },
                2 => ScenarioError::TimedOut { deadline_s },
                3 => ScenarioError::Missing,
                code => {
                    return Err(SnapshotError::Corrupt {
                        context: format!("unknown scenario error tag {code}"),
                    })
                }
            });
        }
        // Captures are not journaled; the flag records that one existed.
        let _had_capture = r.take_bool()?;
        Ok(ScenarioOutcome {
            name,
            index,
            seed,
            metrics,
            series,
            fault_classes,
            transitions,
            capture: None,
            attempt_errors,
            status,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(index: usize, name: &str) -> ScenarioOutcome {
        ScenarioOutcome {
            name: name.to_owned(),
            index,
            seed: 0xFEED + index as u64,
            metrics: vec![("m".into(), 1.25), ("recorder_triggered".into(), 1.0)],
            series: vec![("zr".into(), vec![0.5, -0.5, 0.25])],
            fault_classes: vec!["pll_unlock"],
            transitions: vec![("normal", "degraded"), ("degraded", "recovery")],
            capture: None,
            attempt_errors: vec![
                ScenarioError::Panicked {
                    message: "chaos".into(),
                },
                ScenarioError::TimedOut { deadline_s: 2.5 },
            ],
            status: ScenarioStatus::Done,
        }
    }

    #[test]
    fn outcome_round_trips_bit_exactly() {
        let original = outcome(3, "round_trip");
        let decoded = decode_outcome(&encode_outcome(&original)).expect("decodes");
        assert_eq!(original, decoded);
        // Interning must hand back the catalog's static strings.
        assert!(std::ptr::eq(
            decoded.fault_classes[0],
            intern_fault_label("pll_unlock")
        ));
    }

    #[test]
    fn write_then_read_preserves_order_and_content() {
        let dir = std::env::temp_dir().join("ascp_journal_basic");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("w.journal");
        let writer = JournalWriter::create(&path, 42).expect("create");
        writer.append(&outcome(0, "a")).expect("append");
        writer.append(&outcome(2, "c")).expect("append");
        let read_back = read(&path, 42).expect("read");
        assert_eq!(read_back.len(), 2);
        assert_eq!(read_back[0], outcome(0, "a"));
        assert_eq!(read_back[1], outcome(2, "c"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatches_are_typed() {
        let dir = std::env::temp_dir().join("ascp_journal_hdr");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("h.journal");
        let writer = JournalWriter::create(&path, 1).expect("create");
        drop(writer);
        assert!(matches!(
            read(&path, 2),
            Err(JournalError::CampaignMismatch {
                expected: 2,
                found: 1
            })
        ));
        std::fs::write(&path, b"NOTAJRNLxxxxxxxxxxxx").expect("write");
        assert!(matches!(read(&path, 1), Err(JournalError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }
}
