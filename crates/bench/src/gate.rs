//! The campaign regression gate: `campaign gate <entry>`.
//!
//! Every artifact the registry writes is a pure function of (entry,
//! profile): the files are byte-identical across repeats, machines and sweep
//! thread counts (`tests/determinism.rs`).  So the gate needs no tolerance.
//! It runs the entry through the normal durable run path
//! ([`run_entry_durable`]) into `results/GATE_fresh/<profile>/` (never a
//! committed path) and compares every file the run wrote, byte for byte,
//! against its committed copy: `results/quick/` for the quick profile,
//! `results/` for the standard profile (no full-profile copies are
//! committed).  A differing file fails the gate, and the report
//! names the file and its first differing line.  An output with no committed
//! copy is an error, never a skip.  A gate run is never resumed, so the
//! gate deletes the entry's checkpoint manifest once the run has written its
//! outputs.
//!
//! Host-time performance is not gated here: the benchmark under
//! `perfbench/`, driven by `BENCHMARK.json`, is the repository's one perf
//! instrument.

use crate::checkpoint::{checkpoint_dir, checkpoint_path, run_entry_durable, DurableOptions};
use crate::{registry, BenchProfile};
use std::fmt;
use std::fs;
use std::path::Path;

/// One gated output file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCheck {
    /// The file name, the same under the committed and the fresh directory.
    pub file: String,
    /// `None` when the fresh bytes equal the committed ones; otherwise the
    /// first differing line, committed against fresh.
    pub difference: Option<String>,
}

impl FileCheck {
    /// Whether the fresh file is byte-identical to its committed copy.
    pub fn passed(&self) -> bool {
        self.difference.is_none()
    }
}

impl fmt::Display for FileCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.difference {
            None => write!(f, "{:<34} identical", self.file),
            Some(difference) => write!(f, "{:<34} FAIL {difference}", self.file),
        }
    }
}

/// The outcome of gating one entry.
#[derive(Debug)]
pub struct GateReport {
    /// One check per file the entry wrote.
    pub files: Vec<FileCheck>,
}

impl GateReport {
    /// Whether every file matched its committed copy.
    pub fn passed(&self) -> bool {
        self.files.iter().all(FileCheck::passed)
    }

    /// Number of files that differ from their committed copy.
    pub fn failures(&self) -> usize {
        self.files.iter().filter(|c| !c.passed()).count()
    }
}

/// The first line at which `fresh` differs from `committed`, described with
/// both versions; `None` when the bytes are equal.
fn first_difference(committed: &[u8], fresh: &[u8]) -> Option<String> {
    if committed == fresh {
        return None;
    }
    let committed = String::from_utf8_lossy(committed);
    let fresh = String::from_utf8_lossy(fresh);
    let show = |line: Option<&str>| line.map_or("(no line)".to_string(), |l| format!("{l:?}"));
    let (mut c, mut f) = (committed.split('\n'), fresh.split('\n'));
    let mut number = 1;
    loop {
        match (c.next(), f.next()) {
            (Some(a), Some(b)) if a == b => number += 1,
            (a, b) => {
                return Some(format!(
                    "line {number}: committed {} | fresh {}",
                    show(a),
                    show(b)
                ))
            }
        }
    }
}

/// Gates `name` at `profile`: runs it into `results_dir/GATE_fresh/<profile>/`
/// and compares every file it writes against its committed copy under
/// `results_dir` (`quick/` for the quick profile, the directory itself for
/// the standard profile).  Returns the report, or an error for an unknown
/// entry, the full profile, a failed run or an output without a committed
/// copy.
pub fn run_gate(
    name: &str,
    profile: BenchProfile,
    threads: usize,
    results_dir: &Path,
) -> Result<GateReport, String> {
    let entry = registry::find(name).ok_or_else(|| {
        format!(
            "unknown scenario \"{name}\" — registered scenarios: {}",
            registry::names().join(", ")
        )
    })?;
    // Sweep grids, frame budgets and replication policies all depend on the
    // profile, so each profile has its own committed tree.
    let committed = match profile {
        BenchProfile::Quick => results_dir.join("quick"),
        BenchProfile::Standard => results_dir.to_path_buf(),
        BenchProfile::Full => {
            return Err("no full-profile copies are committed; \
                        gate at the quick or standard profile"
                .into())
        }
    };
    let fresh = results_dir.join("GATE_fresh").join(profile.label());
    // A stale copy from an earlier gate run must never stand in for an
    // output this run failed to write.
    for file in entry.outputs {
        let path = fresh.join(file);
        if path.exists() {
            fs::remove_file(&path)
                .map_err(|e| format!("could not remove stale {}: {e}", path.display()))?;
        }
    }
    println!(
        "gate {name}: running [{} profile] into {}, comparing against {}",
        profile.label(),
        fresh.display(),
        committed.display()
    );
    let report = run_entry_durable(name, profile, threads, &DurableOptions::new(&fresh))
        .map_err(|e| e.to_string())?;
    // A gate run is never resumed, so its checkpoint is dead weight.
    let checkpoint = checkpoint_path(&fresh, name);
    match fs::remove_file(&checkpoint) {
        Ok(()) => {
            // Only succeeds once the last entry's checkpoint is gone.
            fs::remove_dir(checkpoint_dir(&fresh)).ok();
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("could not remove {}: {e}", checkpoint.display())),
    }
    let mut files = Vec::new();
    for path in &report.outputs {
        let file = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let committed_path = committed.join(&file);
        let committed_bytes = fs::read(&committed_path).map_err(|e| {
            format!(
                "no committed copy of {file} ({}: {e}); generate it deliberately with \
                 `campaign run {name} --profile {} --results-dir <dir>` and commit it to {}",
                committed_path.display(),
                profile.label(),
                committed.display()
            )
        })?;
        let fresh_bytes =
            fs::read(path).map_err(|e| format!("could not read {}: {e}", path.display()))?;
        files.push(FileCheck {
            difference: first_difference(&committed_bytes, &fresh_bytes),
            file,
        });
    }
    Ok(GateReport { files })
}

/// How one entry fared in a [`run_gate_all`] sweep.
#[derive(Debug)]
pub enum GateOutcome {
    /// Every file matched its committed copy.
    Pass(GateReport),
    /// At least one file differs from its committed copy.
    Fail(GateReport),
    /// The gate could not compare (failed run, missing committed copy).
    Error(String),
}

impl GateOutcome {
    /// One-word status for the summary table.
    pub fn status(&self) -> &'static str {
        match self {
            GateOutcome::Pass(_) => "PASS",
            GateOutcome::Fail(_) => "FAIL",
            GateOutcome::Error(_) => "ERROR",
        }
    }
}

/// Gates every registry entry, in registry order.
pub fn run_gate_all(
    profile: BenchProfile,
    threads: usize,
    results_dir: &Path,
) -> Vec<(&'static str, GateOutcome)> {
    registry::entries()
        .into_iter()
        .map(|entry| {
            let outcome = match run_gate(entry.name, profile, threads, results_dir) {
                Ok(report) if report.passed() => GateOutcome::Pass(report),
                Ok(report) => GateOutcome::Fail(report),
                Err(e) => GateOutcome::Error(e),
            };
            (entry.name, outcome)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// The committed quick-profile tree of this checkout.
    fn committed_quick() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/quick")
    }

    /// A fresh scratch results directory whose `quick/` tree holds copies of
    /// the named committed quick-profile files.
    fn results_with(tag: &str, files: &[&str]) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("charisma-gate-test-{}-{tag}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir).unwrap();
        }
        fs::create_dir_all(dir.join("quick")).unwrap();
        for file in files {
            fs::copy(committed_quick().join(file), dir.join("quick").join(file)).unwrap();
        }
        dir
    }

    #[test]
    fn first_difference_names_the_first_differing_line() {
        assert_eq!(first_difference(b"a\nb\n", b"a\nb\n"), None);
        assert_eq!(
            first_difference(b"a\nb,0.12\nc\n", b"a\nb,0.13\nc\n").unwrap(),
            "line 2: committed \"b,0.12\" | fresh \"b,0.13\""
        );
        // A truncated or extended file differs at the first missing line.
        assert_eq!(
            first_difference(b"a\nb", b"a").unwrap(),
            "line 2: committed \"b\" | fresh (no line)"
        );
        assert!(first_difference(b"a\n", b"a\nb\n")
            .unwrap()
            .starts_with("line 2:"));
    }

    #[test]
    fn identical_bytes_pass() {
        let dir = results_with("identical", &["fig7_abicm.csv"]);
        let report = run_gate("fig7_abicm", BenchProfile::Quick, 1, &dir).unwrap();
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.files.len(), 1);
        assert_eq!(report.files[0].file, "fig7_abicm.csv");
        assert!(dir.join("GATE_fresh/quick/fig7_abicm.csv").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_gated_sweep_leaves_its_outputs_and_no_checkpoint() {
        let dir = results_with("sweep", &["speed_sweep.csv"]);
        let report = run_gate("speed_sweep", BenchProfile::Quick, 1, &dir).unwrap();
        assert!(report.passed(), "{report:?}");
        let fresh = dir.join("GATE_fresh/quick");
        assert!(fresh.join("speed_sweep.csv").exists());
        assert!(!checkpoint_path(&fresh, "speed_sweep").exists());
        assert!(!checkpoint_dir(&fresh).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_changed_digit_fails_and_names_the_file_and_line() {
        let dir = results_with("digit", &["fig7_abicm.csv"]);
        let path = dir.join("quick/fig7_abicm.csv");
        let text = fs::read_to_string(&path).unwrap();
        // Line 5 is CSI = -17 dB: change its fixed-PHY error probability's
        // last digit.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let original = lines[4].clone();
        let last = original.chars().last().unwrap();
        let bumped = if last == '9' {
            '8'
        } else {
            (last as u8 + 1) as char
        };
        lines[4] = format!("{}{bumped}", &original[..original.len() - 1]);
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let report = run_gate("fig7_abicm", BenchProfile::Quick, 1, &dir).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures(), 1);
        let shown = report.files[0].to_string();
        assert!(shown.contains("fig7_abicm.csv"), "{shown}");
        assert!(shown.contains("line 5:"), "{shown}");
        assert!(shown.contains(&original), "{shown}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_output_without_a_committed_copy_is_an_error() {
        // The committed tree holds other entries' files, but not this one's.
        let dir = results_with("no-copy", &["fig5_fading.csv", "table1_parameters.csv"]);
        let e = run_gate("fig7_abicm", BenchProfile::Quick, 1, &dir).unwrap_err();
        assert!(e.contains("no committed copy of fig7_abicm.csv"), "{e}");
        // The fresh file is still there to inspect or commit.
        assert!(dir.join("GATE_fresh/quick/fig7_abicm.csv").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_errors_on_a_missing_baseline() {
        let dir = results_with("missing", &[]);
        fs::remove_dir_all(dir.join("quick")).unwrap();
        let e = run_gate("table1", BenchProfile::Quick, 1, &dir).unwrap_err();
        assert!(e.contains("table1_parameters.csv"), "{e}");
        assert!(e.contains("campaign run table1 --profile quick"), "{e}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_rejects_unknown_entries_and_the_uncommitted_full_profile() {
        let dir = Path::new("unused");
        for name in ["fig99", "bench_frame_loop"] {
            let e = run_gate(name, BenchProfile::Quick, 1, dir).unwrap_err();
            assert!(e.contains(name), "{e}");
            assert!(e.contains("fig11"), "error should list the registry: {e}");
        }
        let e = run_gate("table1", BenchProfile::Full, 1, dir).unwrap_err();
        assert!(e.contains("no full-profile copies"), "{e}");
    }
}
