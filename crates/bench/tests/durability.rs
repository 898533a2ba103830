//! Durability pin: an interrupted-and-resumed campaign is byte-identical to
//! an uninterrupted one.
//!
//! The deterministic fault hook ([`DurableOptions::fault_point`]) kills the
//! `multicell_baseline` quick campaign after 1, k/2 and n−1 completed points,
//! at 1 and 4 sweep threads; each interrupted run is resumed and its primary
//! CSV, handoff CSV and MANIFEST.json are compared byte-for-byte against a
//! clean run at the same thread count.  A second family of tests tampers
//! with a real checkpoint — stale revision, wrong profile, unknown record
//! keys, missing file — and asserts the resume *refuses* (the CLI's exit 2)
//! rather than silently mixing incompatible runs, while a torn final record
//! (a kill mid-append) is dropped and recomputed.
//!
//! The fault count is injected through [`DurableOptions`] directly, never
//! the `CHARISMA_FAULT_POINT` environment variable: the env var is
//! process-global and these tests run concurrently.

use charisma_bench::checkpoint::{
    checkpoint_path, run_and_record_durable, run_entry_durable, DurableError, DurableOptions,
};
use charisma_bench::{output_dir, BaselineWrite, BenchProfile};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const ENTRY: &str = "multicell_baseline";
/// The quick-profile campaign expands to 12 points (2 voice levels × 6
/// protocols); the fault points below are 1, k/2 and n−1 of that.
const TOTAL_POINTS: usize = 12;

/// The three artifacts whose bytes must survive an interruption.
const ARTIFACTS: [&str; 3] = [
    "multicell_baseline.csv",
    "multicell_baseline_handoff.csv",
    "MANIFEST.json",
];

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("charisma-durability-{}-{tag}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_clean(dir: &Path, threads: usize) {
    let opts = DurableOptions::new(dir);
    run_and_record_durable(
        &[ENTRY.to_string()],
        BenchProfile::Quick,
        threads,
        BaselineWrite::Sidecar,
        &opts,
    )
    .expect("clean durable run must succeed");
}

fn read_artifacts(dir: &Path) -> Vec<(String, Vec<u8>)> {
    ARTIFACTS
        .iter()
        .map(|name| {
            (
                name.to_string(),
                fs::read(dir.join(name)).unwrap_or_else(|e| panic!("missing {name}: {e}")),
            )
        })
        .collect()
}

/// The clean reference outputs at a given thread count, computed once and
/// shared by every comparison test (CSV bytes are thread-count-invariant,
/// but the manifest records the thread count, so each count keeps its own
/// reference).
fn clean_reference(threads: usize) -> &'static Vec<(String, Vec<u8>)> {
    static CLEAN1: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    static CLEAN4: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    let slot = match threads {
        1 => &CLEAN1,
        4 => &CLEAN4,
        other => panic!("no clean reference is maintained for {other} threads"),
    };
    slot.get_or_init(|| {
        let dir = scratch(&format!("clean-t{threads}"));
        run_clean(&dir, threads);
        let outputs = read_artifacts(&dir);
        fs::remove_dir_all(&dir).ok();
        outputs
    })
}

/// Interrupts the campaign after `fault` newly completed points, resumes it,
/// and asserts the final artifacts match the clean reference byte-for-byte.
fn interrupt_and_resume(fault: u64, threads: usize) {
    let dir = scratch(&format!("fault{fault}-t{threads}"));
    let mut opts = DurableOptions::new(&dir);
    opts.fault_point = Some(fault);
    let interrupted = run_and_record_durable(
        &[ENTRY.to_string()],
        BenchProfile::Quick,
        threads,
        BaselineWrite::Sidecar,
        &opts,
    );
    match interrupted {
        Err(DurableError::Aborted {
            completed, total, ..
        }) => {
            assert_eq!(total, TOTAL_POINTS);
            assert!(
                (fault as usize..total).contains(&completed),
                "abort after fault {fault} recorded {completed}/{total} points"
            );
            let mut resume = DurableOptions::new(&dir);
            resume.resume = true;
            run_and_record_durable(
                &[ENTRY.to_string()],
                BenchProfile::Quick,
                threads,
                BaselineWrite::Sidecar,
                &resume,
            )
            .expect("resume of a valid checkpoint must succeed");
        }
        // With several sweep workers the points already in flight when the
        // fault fires still complete; a fault injected near n can therefore
        // finish the campaign outright.  The byte comparison below still
        // applies.
        Ok(_) => assert!(
            threads > 1 && fault as usize >= TOTAL_POINTS - threads,
            "fault {fault} at {threads} thread(s) unexpectedly completed the campaign"
        ),
        Err(other) => panic!("unexpected durable error: {other}"),
    }
    for ((name, clean), (_, resumed)) in clean_reference(threads).iter().zip(read_artifacts(&dir)) {
        assert!(
            *clean == resumed,
            "{name} of the interrupted-and-resumed run (fault {fault}, \
             {threads} thread(s)) differs from the uninterrupted run"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_at_first_point_single_thread_resumes_byte_identically() {
    interrupt_and_resume(1, 1);
}

#[test]
fn fault_at_midpoint_single_thread_resumes_byte_identically() {
    interrupt_and_resume(TOTAL_POINTS as u64 / 2, 1);
}

#[test]
fn fault_at_last_point_single_thread_resumes_byte_identically() {
    interrupt_and_resume(TOTAL_POINTS as u64 - 1, 1);
}

#[test]
fn fault_at_first_point_four_threads_resumes_byte_identically() {
    interrupt_and_resume(1, 4);
}

#[test]
fn fault_at_midpoint_four_threads_resumes_byte_identically() {
    interrupt_and_resume(TOTAL_POINTS as u64 / 2, 4);
}

#[test]
fn fault_at_last_point_four_threads_resumes_byte_identically() {
    interrupt_and_resume(TOTAL_POINTS as u64 - 1, 4);
}

#[test]
fn thread_count_does_not_change_the_csv_bytes() {
    let one = clean_reference(1);
    let four = clean_reference(4);
    for ((name, a), (_, b)) in one.iter().zip(four) {
        if name == "MANIFEST.json" {
            // The manifest records the thread count by design; everything
            // else must match.
            assert_ne!(a, b, "manifests at different thread counts cannot be equal");
        } else {
            assert!(a == b, "{name} differs between 1 and 4 sweep threads");
        }
    }
}

// --- resume-refusal family -------------------------------------------------

/// A checkpoint interrupted after 2 points, produced once and copied into
/// each tamper scenario.
fn faulted_checkpoint_line_set() -> &'static Vec<u8> {
    static SOURCE: OnceLock<Vec<u8>> = OnceLock::new();
    SOURCE.get_or_init(|| {
        let dir = scratch("tamper-source");
        let mut opts = DurableOptions::new(&dir);
        opts.fault_point = Some(2);
        let err = run_and_record_durable(
            &[ENTRY.to_string()],
            BenchProfile::Quick,
            1,
            BaselineWrite::Sidecar,
            &opts,
        )
        .expect_err("fault after 2 of 12 points must abort");
        assert!(matches!(err, DurableError::Aborted { .. }), "{err}");
        let bytes = fs::read(checkpoint_path(&dir, ENTRY)).unwrap();
        fs::remove_dir_all(&dir).ok();
        bytes
    })
}

/// Attempts a resume against checkpoint bytes planted in a fresh directory.
fn resume_with_checkpoint(tag: &str, bytes: &[u8]) -> Result<(), DurableError> {
    let dir = scratch(tag);
    let path = checkpoint_path(&dir, ENTRY);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(&path, bytes).unwrap();
    let mut opts = DurableOptions::new(&dir);
    opts.resume = true;
    // The tampered checkpoints are refused before any simulation starts, so
    // even at the quick profile these are instant.
    let outcome = run_and_record_durable(
        &[ENTRY.to_string()],
        BenchProfile::Quick,
        1,
        BaselineWrite::Sidecar,
        &opts,
    )
    .map(|_| ());
    fs::remove_dir_all(&dir).ok();
    outcome
}

#[test]
fn resume_without_a_checkpoint_is_refused() {
    let dir = scratch("no-checkpoint");
    let mut opts = DurableOptions::new(&dir);
    opts.resume = true;
    let err = run_and_record_durable(
        &[ENTRY.to_string()],
        BenchProfile::Quick,
        1,
        BaselineWrite::Sidecar,
        &opts,
    )
    .expect_err("resume with no checkpoint must refuse");
    assert!(matches!(err, DurableError::Mismatch(_)), "{err}");
    assert_eq!(err.exit_code(), 2);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_a_stale_git_revision_is_refused() {
    let text = String::from_utf8(faulted_checkpoint_line_set().clone()).unwrap();
    let revision = charisma_bench::registry::git_revision();
    let tampered = text.replacen(&revision, "0000000000000000000000000000000000000000", 1);
    assert_ne!(tampered, text, "header must carry the revision to tamper");
    let err = resume_with_checkpoint("stale-revision", tampered.as_bytes())
        .expect_err("a checkpoint from another revision must refuse to resume");
    assert!(matches!(err, DurableError::Mismatch(_)), "{err}");
    assert!(err.to_string().contains("git_revision"), "{err}");
}

#[test]
fn resume_under_a_different_profile_is_refused() {
    let dir = scratch("wrong-profile");
    let path = checkpoint_path(&dir, ENTRY);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(&path, faulted_checkpoint_line_set()).unwrap();
    let mut opts = DurableOptions::new(&dir);
    opts.resume = true;
    let err = run_and_record_durable(
        &[ENTRY.to_string()],
        BenchProfile::Standard,
        1,
        BaselineWrite::Sidecar,
        &opts,
    )
    .expect_err("a quick-profile checkpoint must refuse a standard-profile resume");
    assert!(matches!(err, DurableError::Mismatch(_)), "{err}");
    assert!(err.to_string().contains("profile"), "{err}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_an_unknown_record_key_is_refused() {
    let text = String::from_utf8(faulted_checkpoint_line_set().clone()).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert!(lines.len() >= 2, "need at least one record to tamper");
    let record = lines.last_mut().unwrap();
    assert!(record.starts_with('{'));
    record.replace_range(0..1, "{\"smuggled\":true,");
    let tampered = format!("{}\n", lines.join("\n"));
    let err = resume_with_checkpoint("unknown-key", tampered.as_bytes())
        .expect_err("a record with an unknown key must refuse to resume");
    assert!(matches!(err, DurableError::Mismatch(_)), "{err}");
    assert!(err.to_string().contains("unknown key"), "{err}");
}

#[test]
fn resume_with_a_corrupted_result_hash_is_refused() {
    let text = String::from_utf8(faulted_checkpoint_line_set().clone()).unwrap();
    let pos = text.find("\"hash\":\"").expect("records carry a hash") + "\"hash\":\"".len();
    let mut tampered = text.clone();
    let original = &text[pos..pos + 1];
    tampered.replace_range(pos..pos + 1, if original == "0" { "1" } else { "0" });
    let err = resume_with_checkpoint("bad-hash", tampered.as_bytes())
        .expect_err("a record whose hash does not match its result must refuse");
    assert!(matches!(err, DurableError::Mismatch(_)), "{err}");
    assert!(err.to_string().contains("hash"), "{err}");
}

#[test]
fn torn_final_record_is_dropped_and_the_resume_still_matches() {
    let bytes = faulted_checkpoint_line_set().clone();
    // Cut the file mid-way through its final record, simulating a process
    // killed inside the append: no trailing newline, unparsable fragment.
    let torn = &bytes[..bytes.len() - 40];
    assert!(!torn.ends_with(b"\n"));
    let dir = scratch("torn-tail");
    let path = checkpoint_path(&dir, ENTRY);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(&path, torn).unwrap();
    let mut opts = DurableOptions::new(&dir);
    opts.resume = true;
    run_and_record_durable(
        &[ENTRY.to_string()],
        BenchProfile::Quick,
        1,
        BaselineWrite::Sidecar,
        &opts,
    )
    .expect("a torn tail is dropped, not fatal");
    for ((name, clean), (_, resumed)) in clean_reference(1).iter().zip(read_artifacts(&dir)) {
        assert!(
            *clean == resumed,
            "{name} after a torn-tail resume differs from the uninterrupted run"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

/// Every file under `dir` with its bytes, sorted by path (empty when `dir`
/// does not exist).
fn tree_snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = fs::read(&path).unwrap();
                files.push((path, bytes));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn custom_entries_write_only_into_the_results_dir() {
    // The bespoke generators (Table 1 at a non-standard profile rewrites a
    // committed baseline) must follow `--results-dir` like the sweeps do.
    let default_dir = output_dir();
    let before = tree_snapshot(&default_dir);
    let dir = scratch("custom-entries");
    let opts = DurableOptions::new(&dir);
    for (entry, file) in [
        ("table1", "table1_parameters.csv"),
        ("fig5_fading", "fig5_fading.csv"),
        ("fig7_abicm", "fig7_abicm.csv"),
    ] {
        let report =
            run_entry_durable(entry, BenchProfile::Quick, 1, BaselineWrite::Sidecar, &opts)
                .unwrap_or_else(|e| panic!("{entry}: {e}"));
        assert_eq!(report.outputs, vec![dir.join(file)], "{entry}");
        assert!(fs::metadata(dir.join(file)).unwrap().len() > 0, "{entry}");
    }
    let table1 = fs::read_to_string(dir.join("table1_parameters.csv")).unwrap();
    assert!(table1.starts_with("parameter,value\n"), "{table1}");
    assert_eq!(
        tree_snapshot(&default_dir),
        before,
        "a run with an explicit results dir changed {}",
        default_dir.display()
    );
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir(&default_dir).ok(); // only succeeds if `output_dir` just made it
}
