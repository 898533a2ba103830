//! Durable campaign execution: per-entry checkpoint manifests and resume.
//!
//! Every sweep entry run through [`run_entry_durable`] maintains a
//! checkpoint manifest at `results/.checkpoint/<entry>.jsonl`: a header line
//! binding the checkpoint to its (entry, profile, git revision, campaign
//! definition, point count), then one strict-JSON record per completed sweep
//! point — appended the moment the point finishes, each carrying the point's
//! identity key, its replication count, an FNV-1a hash of the serialised
//! result, and the full bit-exact result itself (floats persisted as IEEE-754
//! bit patterns; see `charisma::persist`).
//!
//! A run killed partway — by a crash, a CI timeout, or the deterministic
//! fault-injection hook (`CHARISMA_FAULT_POINT`, or
//! [`DurableOptions::fault_point`] in-process) — can then be resumed with
//! `campaign run --resume`: the checkpoint is validated against the current
//! spec/profile/revision (any mismatch refuses the resume, exit 2), the
//! completed points are spliced back verbatim, and only the remainder is
//! simulated.  Because the persisted results round-trip bit-exactly, the
//! rendered CSVs and the manifest of an interrupted-and-resumed campaign are
//! byte-identical to an uninterrupted run at any thread count
//! (`crates/bench/tests/durability.rs` pins this).
//!
//! Torn tails: a process killed mid-append can leave a final partial line.
//! Only an **unparsable final fragment without a trailing newline** is
//! dropped (with a warning) on resume; any complete line that fails strict
//! validation — unknown keys, a stale revision, a foreign campaign — refuses
//! the resume instead.

use crate::registry::{self, EntryKind, EntryReport};
use crate::{write_output_to, BenchProfile};
use charisma::spec::CampaignPoint;
use charisma::{
    decode_replicated_result, encode_replicated_result, fnv1a_64, Json, ReplicatedResult,
};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema tag of the checkpoint header line.
pub const CHECKPOINT_SCHEMA: &str = "charisma.checkpoint.v1";

/// Environment variable carrying the fault-injection point for CLI runs: the
/// campaign aborts (exit 3) after this many newly completed sweep points.
pub const FAULT_POINT_ENV: &str = "CHARISMA_FAULT_POINT";

/// How a durable campaign run executes.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Resume from an existing checkpoint instead of starting fresh.
    pub resume: bool,
    /// Deterministic fault injection: abort the campaign after this many
    /// *newly* completed points (replayed points do not count).  `None`
    /// disables injection.
    pub fault_point: Option<u64>,
    /// Directory artifacts, the manifest and `.checkpoint/` live under.
    pub results_dir: PathBuf,
}

impl DurableOptions {
    /// Fresh (non-resuming, fault-free) options writing under `results_dir`.
    pub fn new(results_dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            resume: false,
            fault_point: None,
            results_dir: results_dir.into(),
        }
    }
}

/// Why a durable campaign run did not complete.
#[derive(Debug)]
pub enum DurableError {
    /// `--resume` found a checkpoint that does not match the current
    /// spec/profile/revision (or is otherwise invalid).  The CLI maps this
    /// to exit code 2: resuming would silently mix incompatible runs.
    Mismatch(String),
    /// The run aborted after `completed` of `total` points — the injected
    /// fault fired (or an observer write failed).  CLI exit code 3; the
    /// checkpoint retains every completed point for a later `--resume`.
    Aborted {
        /// The entry whose campaign was aborted.
        entry: String,
        /// Points present in the checkpoint when the run stopped.
        completed: usize,
        /// Total points of the campaign.
        total: usize,
    },
    /// Any other failure (I/O, spec validation, unknown entry).  Exit 1.
    Failure(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            DurableError::Aborted {
                entry,
                completed,
                total,
            } => write!(
                f,
                "{entry}: aborted after {completed}/{total} points \
                 (checkpoint retained; finish with `campaign run {entry} --resume`)"
            ),
            DurableError::Failure(m) => write!(f, "{m}"),
        }
    }
}

impl DurableError {
    /// The process exit code the CLI reports for this error.
    pub fn exit_code(&self) -> u8 {
        match self {
            DurableError::Failure(_) => 1,
            DurableError::Mismatch(_) => 2,
            DurableError::Aborted { .. } => 3,
        }
    }
}

/// The checkpoint directory under a results directory.
pub fn checkpoint_dir(results_dir: &Path) -> PathBuf {
    results_dir.join(".checkpoint")
}

/// The checkpoint manifest path of one entry.
pub fn checkpoint_path(results_dir: &Path, entry: &str) -> PathBuf {
    checkpoint_dir(results_dir).join(format!("{entry}.jsonl"))
}

/// Parses [`FAULT_POINT_ENV`].  Unset: no fault.  Anything but a positive
/// integer is an error — a typo must not silently run fault-free.
pub fn fault_point_from_env() -> Result<Option<u64>, String> {
    match std::env::var(FAULT_POINT_ENV) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(format!("{FAULT_POINT_ENV} is not valid unicode: {e}")),
        Ok(value) => match value.parse::<u64>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!(
                "{FAULT_POINT_ENV} must be a positive integer (abort after N \
                 completed points), got \"{value}\""
            )),
        },
    }
}

/// 16-hex-digit FNV-1a 64 digest of a byte string.
fn hash_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a_64(bytes))
}

/// The stable identity of one expanded campaign point: the same seven
/// coordinates that open every row of the uniform campaign CSV.
pub fn point_key(p: &CampaignPoint) -> String {
    format!(
        "{},{},{},{},{},{:.2},{}",
        p.scenario,
        p.point.protocol.label(),
        p.point.config.request_queue,
        p.point.config.num_voice,
        p.point.config.num_data,
        p.speed_kmh,
        p.point.load
    )
}

fn header_json(
    entry: &str,
    profile: BenchProfile,
    git_revision: &str,
    campaign_hash: &str,
    points: usize,
) -> Json {
    Json::Object(vec![
        ("schema".into(), Json::Str(CHECKPOINT_SCHEMA.into())),
        ("entry".into(), Json::Str(entry.into())),
        ("profile".into(), Json::Str(profile.label().into())),
        ("git_revision".into(), Json::Str(git_revision.into())),
        ("campaign".into(), Json::Str(campaign_hash.into())),
        ("points".into(), Json::Int(points as u64)),
    ])
}

fn record_json(idx: usize, key: &str, result: &ReplicatedResult) -> (Json, String) {
    let encoded = encode_replicated_result(result);
    let hash = hash_hex(encoded.to_compact_string().as_bytes());
    (
        Json::Object(vec![
            ("point".into(), Json::Int(idx as u64)),
            ("key".into(), Json::Str(key.into())),
            ("reps".into(), Json::Int(result.stats.reps())),
            ("hash".into(), Json::Str(hash.clone())),
            ("result".into(), encoded),
        ]),
        hash,
    )
}

/// One serialised checkpoint record line (without the trailing newline).
/// Exposed so the property tests can round-trip record lines through the
/// strict codec exactly.
pub fn record_line(idx: usize, key: &str, result: &ReplicatedResult) -> String {
    record_json(idx, key, result).0.to_compact_string()
}

/// Strictly parses one checkpoint record line back into its parts,
/// validating the identity key, the replication count and the result hash.
/// `keys` maps point index -> expected identity key.
pub fn parse_record_line(line: &str, keys: &[String]) -> Result<(usize, ReplicatedResult), String> {
    let json = Json::parse(line).map_err(|e| format!("record is not valid JSON: {e}"))?;
    let pairs = json
        .as_object()
        .ok_or_else(|| format!("record must be an object, got {}", json.type_name()))?;
    let mut point: Option<u64> = None;
    let mut key: Option<&str> = None;
    let mut reps: Option<u64> = None;
    let mut hash: Option<&str> = None;
    let mut result: Option<&Json> = None;
    for (k, v) in pairs {
        match k.as_str() {
            "point" => point = Some(v.as_u64().ok_or("\"point\" must be an integer")?),
            "key" => key = Some(v.as_str().ok_or("\"key\" must be a string")?),
            "reps" => reps = Some(v.as_u64().ok_or("\"reps\" must be an integer")?),
            "hash" => hash = Some(v.as_str().ok_or("\"hash\" must be a string")?),
            "result" => result = Some(v),
            unknown => return Err(format!("unknown key \"{unknown}\" in checkpoint record")),
        }
    }
    let point = point.ok_or("record is missing \"point\"")? as usize;
    let key = key.ok_or("record is missing \"key\"")?;
    let reps = reps.ok_or("record is missing \"reps\"")?;
    let hash = hash.ok_or("record is missing \"hash\"")?;
    let result = result.ok_or("record is missing \"result\"")?;
    if point >= keys.len() {
        return Err(format!(
            "record point {point} is out of range (campaign has {} points)",
            keys.len()
        ));
    }
    if key != keys[point] {
        return Err(format!(
            "record key \"{key}\" does not match point {point}'s identity \
             \"{}\" — the campaign definition changed",
            keys[point]
        ));
    }
    let recomputed = hash_hex(result.to_compact_string().as_bytes());
    if recomputed != hash {
        return Err(format!(
            "record hash {hash} does not match the stored result ({recomputed}) \
             — the checkpoint is corrupt"
        ));
    }
    let decoded = decode_replicated_result(result).map_err(|e| e.to_string())?;
    if decoded.stats.reps() != reps {
        return Err(format!(
            "record claims {reps} replications but the stored result has {}",
            decoded.stats.reps()
        ));
    }
    Ok((point, decoded))
}

/// Validates the header line of a checkpoint against the current run.
fn validate_header(
    line: &str,
    entry: &str,
    profile: BenchProfile,
    git_revision: &str,
    campaign_hash: &str,
    points: usize,
) -> Result<(), String> {
    let json = Json::parse(line).map_err(|e| format!("header is not valid JSON: {e}"))?;
    let pairs = json
        .as_object()
        .ok_or_else(|| format!("header must be an object, got {}", json.type_name()))?;
    let mut seen = Vec::new();
    for (k, v) in pairs {
        let expect = |want: &str, what: &str| -> Result<(), String> {
            let got = v
                .as_str()
                .ok_or_else(|| format!("header {what} must be a string"))?;
            if got != want {
                return Err(format!(
                    "checkpoint {what} is \"{got}\" but this run has \"{want}\""
                ));
            }
            Ok(())
        };
        match k.as_str() {
            "schema" => expect(CHECKPOINT_SCHEMA, "schema")?,
            "entry" => expect(entry, "entry")?,
            "profile" => expect(profile.label(), "profile")?,
            "git_revision" => expect(git_revision, "git_revision")?,
            "campaign" => expect(campaign_hash, "campaign hash")?,
            "points" => {
                let got = v.as_u64().ok_or("header points must be an integer")?;
                if got != points as u64 {
                    return Err(format!(
                        "checkpoint covers {got} points but this run expands to {points}"
                    ));
                }
            }
            unknown => return Err(format!("unknown key \"{unknown}\" in checkpoint header")),
        }
        seen.push(k.as_str());
    }
    for required in [
        "schema",
        "entry",
        "profile",
        "git_revision",
        "campaign",
        "points",
    ] {
        if !seen.contains(&required) {
            return Err(format!("checkpoint header is missing \"{required}\""));
        }
    }
    Ok(())
}

/// Loads and validates an existing checkpoint, returning one slot per point
/// (`Some` = replayed verbatim) and the number of completed points.
#[allow(clippy::type_complexity)]
fn load_checkpoint(
    path: &Path,
    entry: &str,
    profile: BenchProfile,
    git_revision: &str,
    campaign_hash: &str,
    keys: &[String],
) -> Result<(Vec<Option<ReplicatedResult>>, usize), DurableError> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(DurableError::Mismatch(format!(
                "{}: nothing to resume (no checkpoint exists; run without --resume)",
                path.display()
            )));
        }
        Err(e) => {
            return Err(DurableError::Failure(format!(
                "could not read {}: {e}",
                path.display()
            )));
        }
    };
    let mismatch = |m: String| DurableError::Mismatch(format!("{}: {m}", path.display()));
    // Split into complete lines; a final fragment without a trailing newline
    // is the signature of a torn append.
    let complete_ends_with_newline = text.ends_with('\n');
    let mut lines: Vec<&str> = text.split('\n').collect();
    // split leaves a trailing "" when the text ends with '\n'; drop it.
    if complete_ends_with_newline {
        lines.pop();
    }
    let torn_tail = if !complete_ends_with_newline {
        lines.pop()
    } else {
        None
    };
    let mut iter = lines.into_iter();
    let header = iter
        .next()
        .ok_or_else(|| mismatch("checkpoint is empty".into()))?;
    validate_header(
        header,
        entry,
        profile,
        git_revision,
        campaign_hash,
        keys.len(),
    )
    .map_err(&mismatch)?;
    let mut slots: Vec<Option<ReplicatedResult>> = (0..keys.len()).map(|_| None).collect();
    let mut completed = 0usize;
    let mut restore = |line: &str| -> Result<(), DurableError> {
        let (idx, result) = parse_record_line(line, keys).map_err(&mismatch)?;
        if slots[idx].is_some() {
            return Err(mismatch(format!("duplicate record for point {idx}")));
        }
        slots[idx] = Some(result);
        completed += 1;
        Ok(())
    };
    for line in iter {
        restore(line)?;
    }
    if let Some(fragment) = torn_tail {
        // Tolerate only an *unparsable* torn tail: a complete, parseable
        // final line merely lost its newline to the kill, so it must still
        // validate like any other record.
        if Json::parse(fragment).is_ok() {
            restore(fragment)?;
        } else {
            eprintln!(
                "warning: {}: dropping torn partial record at end of checkpoint \
                 ({} bytes) — the previous run was killed mid-append",
                path.display(),
                fragment.len()
            );
        }
    }
    Ok((slots, completed))
}

/// Runs one registry entry durably: sweep entries execute through the
/// checkpoint manifest (written as points complete, resumable with
/// [`DurableOptions::resume`]); bespoke entries run exactly as before.
/// Artifacts and the checkpoint land under `opts.results_dir`.
pub fn run_entry_durable(
    name: &str,
    profile: BenchProfile,
    threads: usize,
    opts: &DurableOptions,
) -> Result<EntryReport, DurableError> {
    let entry = registry::find(name).ok_or_else(|| {
        DurableError::Failure(format!(
            "unknown scenario \"{name}\" — registered scenarios: {}",
            registry::names().join(", ")
        ))
    })?;
    let (build, render) = match entry.kind {
        EntryKind::Sweep { build, render } => (build, render),
        EntryKind::Custom { .. } => {
            // Bespoke generators have no sweep shape to checkpoint; they run
            // to completion or not at all, which is already resume-safe.
            return registry::run_entry(name, profile, &opts.results_dir)
                .map_err(DurableError::Failure);
        }
    };
    println!(
        "=== {} — {} [{} profile{}] ===",
        entry.name,
        entry.title,
        profile.label(),
        if opts.resume { ", resuming" } else { "" }
    );
    let campaign = build(profile);
    let expanded = campaign
        .expand(profile.budget())
        .map_err(|e| DurableError::Failure(e.to_string()))?;
    let total = expanded.len();
    let keys: Vec<String> = expanded.iter().map(point_key).collect();
    let campaign_hash = hash_hex(campaign.to_json_string().as_bytes());
    let git_revision = registry::git_revision();
    let path = checkpoint_path(&opts.results_dir, name);

    let (precomputed, replayed) = if opts.resume {
        let (slots, completed) =
            load_checkpoint(&path, name, profile, &git_revision, &campaign_hash, &keys)?;
        println!(
            "{}: resuming from {} — {completed}/{total} points replayed from the checkpoint",
            name,
            path.display()
        );
        (slots, completed)
    } else {
        fs::create_dir_all(checkpoint_dir(&opts.results_dir)).map_err(|e| {
            DurableError::Failure(format!("could not create {}: {e}", path.display()))
        })?;
        let header = header_json(name, profile, &git_revision, &campaign_hash, total);
        // A fresh run truncates any stale checkpoint: the header and every
        // later record describe only this run.
        fs::write(&path, format!("{}\n", header.to_compact_string())).map_err(|e| {
            DurableError::Failure(format!("could not write {}: {e}", path.display()))
        })?;
        ((0..total).map(|_| None).collect(), 0)
    };

    let file = fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(|e| DurableError::Failure(format!("could not open {}: {e}", path.display())))?;
    let writer = Mutex::new(file);
    let write_error: Mutex<Option<String>> = Mutex::new(None);
    let newly_completed = AtomicUsize::new(0);
    let fault_point = opts.fault_point;
    let keys_ref = &keys;
    // The completion observer: append the point's record (one atomic line)
    // the moment it finishes, then decide whether the campaign may keep
    // starting points — `false` after the injected fault count, or after an
    // append failure (continuing would lose completed work silently).
    let observer = |idx: usize, result: &ReplicatedResult| -> bool {
        let line = format!(
            "{}\n",
            record_json(idx, &keys_ref[idx], result)
                .0
                .to_compact_string()
        );
        {
            let mut f = writer.lock().expect("checkpoint writer poisoned");
            if let Err(e) = f.write_all(line.as_bytes()).and_then(|()| f.flush()) {
                *write_error.lock().expect("error slot poisoned") =
                    Some(format!("could not append to checkpoint: {e}"));
                return false;
            }
        }
        let n = newly_completed.fetch_add(1, Ordering::SeqCst) + 1;
        match fault_point {
            Some(k) => (n as u64) < k,
            None => true,
        }
    };

    let started = Instant::now();
    let run = campaign
        .run_observed(
            expanded,
            profile.replications(),
            threads,
            precomputed,
            &observer,
        )
        .map_err(|e| DurableError::Failure(e.to_string()))?;
    if let Some(e) = write_error.into_inner().expect("error slot poisoned") {
        return Err(DurableError::Failure(format!("{name}: {e}")));
    }
    let Some(run) = run else {
        return Err(DurableError::Aborted {
            entry: name.to_string(),
            completed: replayed + newly_completed.load(Ordering::SeqCst),
            total,
        });
    };
    let artifacts = render(&run);
    let mut outputs = Vec::new();
    for artifact in artifacts {
        outputs.push(
            write_output_to(&opts.results_dir, artifact.file, &artifact.contents)
                .map_err(|e| DurableError::Failure(e.to_string()))?,
        );
    }
    let replications: u64 = run.rows.iter().map(|r| r.reps()).sum();
    println!(
        "{}: {} sweep points ({} replications, {} replayed) in {:.1} s",
        entry.name,
        run.rows.len(),
        replications,
        replayed,
        started.elapsed().as_secs_f64()
    );
    Ok(EntryReport {
        name: entry.name,
        points: run.rows.len(),
        replications,
        seeds: campaign.seeds(),
        outputs,
        campaign_json: Some(campaign.to_json()),
    })
}

/// Runs the named entries through [`run_entry_durable`] and writes the
/// provenance manifest under `opts.results_dir` — even when an entry fails
/// or aborts partway, so the artifacts that *did* land are never described
/// by a stale manifest.
pub fn run_and_record_durable(
    run_names: &[String],
    profile: BenchProfile,
    threads: usize,
    opts: &DurableOptions,
) -> Result<Vec<EntryReport>, DurableError> {
    let mut reports = Vec::new();
    let mut failure: Option<DurableError> = None;
    for name in run_names {
        match run_entry_durable(name, profile, threads, opts) {
            Ok(report) => reports.push(report),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
        println!();
    }
    let manifest = registry::manifest_json(&reports, profile, threads);
    let manifest_written =
        write_output_to(&opts.results_dir, "MANIFEST.json", &format!("{manifest}\n"));
    match failure {
        Some(e) => Err(e),
        None => {
            manifest_written.map_err(|e| DurableError::Failure(e.to_string()))?;
            Ok(reports)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_env_parses_strictly() {
        // The env var itself is process-global, so the test exercises only
        // the parse layer the CLI feeds it through.
        for (raw, want) in [("1", Some(1)), ("7", Some(7)), ("100", Some(100))] {
            assert_eq!(raw.parse::<u64>().ok().filter(|&n| n >= 1), want);
        }
        for bad in ["0", "-3", "two", ""] {
            assert!(bad.parse::<u64>().ok().filter(|&n| n >= 1).is_none());
        }
    }

    #[test]
    fn header_round_trips_and_rejects_every_mismatch() {
        let header = header_json("fig11", BenchProfile::Quick, "abc123", "00ff", 7);
        let line = header.to_compact_string();
        validate_header(&line, "fig11", BenchProfile::Quick, "abc123", "00ff", 7).unwrap();
        // Each coordinate individually refuses.
        let e = validate_header(&line, "fig12", BenchProfile::Quick, "abc123", "00ff", 7);
        assert!(e.unwrap_err().contains("entry"));
        let e = validate_header(&line, "fig11", BenchProfile::Standard, "abc123", "00ff", 7);
        assert!(e.unwrap_err().contains("profile"));
        let e = validate_header(&line, "fig11", BenchProfile::Quick, "def456", "00ff", 7);
        assert!(e.unwrap_err().contains("git_revision"));
        let e = validate_header(&line, "fig11", BenchProfile::Quick, "abc123", "11ee", 7);
        assert!(e.unwrap_err().contains("campaign"));
        let e = validate_header(&line, "fig11", BenchProfile::Quick, "abc123", "00ff", 8);
        assert!(e.unwrap_err().contains("points"));
        // Unknown keys are rejected, missing keys are rejected.
        let extra = line.replace("}", ",\"surprise\":1}");
        let e = validate_header(&extra, "fig11", BenchProfile::Quick, "abc123", "00ff", 7);
        assert!(e.unwrap_err().contains("unknown key"));
        let e = validate_header("{}", "fig11", BenchProfile::Quick, "abc123", "00ff", 7);
        assert!(e.unwrap_err().contains("missing"));
    }

    #[test]
    fn checkpoint_paths_nest_under_the_results_dir() {
        let p = checkpoint_path(Path::new("results"), "multicell_baseline");
        assert_eq!(p, Path::new("results/.checkpoint/multicell_baseline.jsonl"));
    }
}
