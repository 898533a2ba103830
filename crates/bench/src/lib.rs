//! # charisma-bench — the experiment campaign harness
//!
//! Every evaluation artifact of the paper — and every scenario beyond the
//! paper — is a named entry in the [`registry`]: a declarative
//! [`Campaign`](charisma::Campaign) of
//! [`ScenarioSpec`](charisma::ScenarioSpec)s for the sweep-shaped
//! experiments, or a bespoke generator ([`artifacts`]) for the handful that
//! are not sweeps (the parameter table, the fading trace, the PHY curves and
//! the frame-loop perf benchmark).  One binary drives them all:
//!
//! ```text
//! cargo run --release -p charisma_bench --bin campaign -- list
//! cargo run --release -p charisma_bench --bin campaign -- describe fig11
//! cargo run --release -p charisma_bench --bin campaign -- run fig11 --profile quick
//! cargo run --release -p charisma_bench --bin campaign -- run all --profile full
//! ```
//!
//! Each run prints aligned text tables (the rows/series the paper reports),
//! writes its artifacts under `results/`, and records provenance — spec
//! JSON, profile, seeds, git revision — in `results/MANIFEST.json`.
//! Parameter values and exact commands are recorded in `EXPERIMENTS.md` at
//! the repository root, whose generated section the `campaign` binary
//! maintains via `--write-handbook`.
//!
//! The run length per sweep point is set by the [`BenchProfile`]
//! (`--profile` or `CHARISMA_BENCH_PROFILE=quick|standard|full`; an
//! unrecognised value is an error, not a silent default).

use charisma::{FrameBudget, ReplicationPolicy, SimConfig};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

pub mod artifacts;
pub mod checkpoint;
pub mod gate;
pub mod registry;
pub mod trend;

/// Whether a run may refresh committed baseline files under `results/`.
///
/// The committed frame-loop baseline (`results/BENCH_frame_loop.json`) is
/// the reference the CI regression gate compares against, so regenerating it
/// must be a deliberate act: only an **explicitly named** standard-profile
/// run (`campaign run bench_frame_loop --profile standard`) writes it.
/// Bulk runs (`campaign run all`) and non-standard profiles are routed to
/// untracked sidecar files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineWrite {
    /// The entry was named explicitly: a standard-profile run refreshes the
    /// committed baseline.
    Allowed,
    /// The entry runs as part of a bulk `run all`: baseline output is routed
    /// to an untracked sidecar file so the committed baseline can never be
    /// clobbered incidentally.
    Sidecar,
}

/// How long each sweep point simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchProfile {
    /// ~10 simulated seconds per point: smoke-test quality, minutes overall.
    Quick,
    /// ~40 simulated seconds per point (default).
    Standard,
    /// ~100 simulated seconds per point: paper-quality curves.
    Full,
}

impl BenchProfile {
    /// Every profile, with its canonical name.
    pub const ALL: [BenchProfile; 3] = [
        BenchProfile::Quick,
        BenchProfile::Standard,
        BenchProfile::Full,
    ];

    /// The canonical (lowercase) name of the profile.
    pub fn label(self) -> &'static str {
        match self {
            BenchProfile::Quick => "quick",
            BenchProfile::Standard => "standard",
            BenchProfile::Full => "full",
        }
    }

    /// Parses a profile name (case-insensitive).  Unrecognised values are an
    /// error that lists the valid choices — never a silent fallback.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_lowercase().as_str() {
            "quick" => Ok(BenchProfile::Quick),
            "standard" => Ok(BenchProfile::Standard),
            "full" => Ok(BenchProfile::Full),
            other => Err(format!(
                "unrecognised profile \"{other}\" (valid: quick, standard, full)"
            )),
        }
    }

    /// Reads the profile from `CHARISMA_BENCH_PROFILE` (unset: `standard`).
    ///
    /// # Panics
    ///
    /// Panics with the valid choices if the variable is set to an
    /// unrecognised value, so a typo like `CHARISMA_BENCH_PROFILE=ful` fails
    /// loudly instead of silently running the standard profile.
    pub fn from_env() -> Self {
        match std::env::var("CHARISMA_BENCH_PROFILE") {
            Err(std::env::VarError::NotPresent) => BenchProfile::Standard,
            Err(e) => panic!("CHARISMA_BENCH_PROFILE is not valid unicode: {e}"),
            Ok(value) => match Self::parse(&value) {
                Ok(profile) => profile,
                Err(e) => panic!("CHARISMA_BENCH_PROFILE: {e}"),
            },
        }
    }

    /// Number of measured frames per sweep point.
    pub fn measured_frames(self) -> u64 {
        match self {
            BenchProfile::Quick => 4_000,
            BenchProfile::Standard => 16_000,
            BenchProfile::Full => 40_000,
        }
    }

    /// Number of warm-up frames per sweep point.
    pub fn warmup_frames(self) -> u64 {
        match self {
            BenchProfile::Quick => 800,
            BenchProfile::Standard => 2_000,
            BenchProfile::Full => 4_000,
        }
    }

    /// The frame budget [`DurationSpec::Profile`](charisma::DurationSpec)
    /// scenario specs expand with under this profile.
    pub fn budget(self) -> FrameBudget {
        FrameBudget {
            warmup: self.warmup_frames(),
            measured: self.measured_frames(),
        }
    }

    /// One line describing what this profile implies per sweep point — run
    /// length and replication policy.  `campaign list`/`describe` and the
    /// handbook preamble all print this string, so the CLI and the docs can
    /// never drift apart.
    pub fn describe(self) -> String {
        let budget = self.budget();
        format!(
            "{} warm-up + {} measured frames/point, {}",
            budget.warmup,
            budget.measured,
            self.replications().describe()
        )
    }

    /// The default replication policy per sweep point under this profile
    /// (specs may override it via their `replications` field).
    ///
    /// Quick runs a fixed 3 replications — enough for a confidence interval
    /// without blowing the smoke-run budget.  Standard and full enable the
    /// sequential stopping rule: replications keep accumulating (up to the
    /// cap) until every headline metric's relative 95 % CI half-width is
    /// below the target.
    pub fn replications(self) -> ReplicationPolicy {
        match self {
            BenchProfile::Quick => ReplicationPolicy::fixed(3),
            BenchProfile::Standard => ReplicationPolicy::adaptive(3, 6, 0.10),
            BenchProfile::Full => ReplicationPolicy::adaptive(5, 10, 0.05),
        }
    }
}

/// The base configuration shared by every experiment binary: the paper's
/// Table 1 parameters with the run length set by the bench profile.
pub fn base_config(profile: BenchProfile) -> SimConfig {
    let mut cfg = SimConfig::default_paper();
    cfg.warmup_frames = profile.warmup_frames();
    cfg.measured_frames = profile.measured_frames();
    cfg
}

/// The directory where CSV outputs are written (`results/`, created on
/// demand next to the workspace root or the current directory).
pub fn output_dir() -> PathBuf {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: could not create {dir:?}: {e}");
    }
    dir.to_path_buf()
}

/// Writes an arbitrary text artifact (e.g. a JSON report) under
/// [`output_dir`]; returns the path written.
///
/// Unlike [`write_csv`] (whose CSVs are redundant with the printed tables),
/// this propagates write failures: callers persisting a record that CI
/// uploads must fail loudly rather than let a stale checked-in file
/// masquerade as the run's output.
pub fn write_output(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    write_output_to(&output_dir(), name, contents)
}

/// [`write_output`] into an explicit results directory (created on demand).
///
/// The durable campaign runner ([`checkpoint`]) renders artifacts into the
/// directory its [`checkpoint::DurableOptions`] names — `results/` for real
/// runs, scratch directories for the fault-injection tests and the CI resume
/// smoke test — so everything that writes files takes the directory as data.
pub fn write_output_to(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    println!("wrote {}", path.display());
    Ok(path)
}

/// Writes a CSV file under `dir` (created on demand); returns the path
/// written.
pub fn write_csv(dir: &Path, name: &str, header: &str, rows: &[String]) -> PathBuf {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: could not create {dir:?}: {e}");
    }
    let path = dir.join(name);
    match fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{header}");
            for row in rows {
                let _ = writeln!(f, "{row}");
            }
            println!("wrote {}", path.display());
        }
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    path
}

/// The voice-user sweep used by Fig. 11 for the given profile.
pub fn fig11_voice_counts(profile: BenchProfile) -> Vec<u32> {
    match profile {
        BenchProfile::Quick => vec![20, 60, 100, 140, 180],
        _ => vec![20, 40, 60, 80, 100, 120, 140, 160, 180, 200],
    }
}

/// The data-user sweep used by Figs. 12 and 13 for the given profile.
pub fn fig12_data_counts(profile: BenchProfile) -> Vec<u32> {
    match profile {
        BenchProfile::Quick => vec![2, 6, 10, 14, 20],
        _ => vec![2, 4, 6, 8, 10, 12, 14, 16, 20, 24],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_scale_run_length() {
        assert!(BenchProfile::Quick.measured_frames() < BenchProfile::Standard.measured_frames());
        assert!(BenchProfile::Standard.measured_frames() < BenchProfile::Full.measured_frames());
    }

    #[test]
    fn profile_parsing_is_strict() {
        for p in BenchProfile::ALL {
            assert_eq!(BenchProfile::parse(p.label()), Ok(p));
            assert_eq!(BenchProfile::parse(&p.label().to_uppercase()), Ok(p));
        }
        for bad in ["", "ful", "QUICKLY", "default", "Standard "] {
            let e = BenchProfile::parse(bad).unwrap_err();
            assert!(
                e.contains("quick, standard, full"),
                "error must list the valid choices, got {e:?}"
            );
        }
    }

    #[test]
    fn profile_replication_policies_are_valid_and_scale_up() {
        for p in BenchProfile::ALL {
            p.replications().validate().unwrap();
        }
        assert_eq!(BenchProfile::Quick.replications().min_reps, 3);
        assert!(BenchProfile::Quick.replications().target_rel_ci95.is_none());
        assert!(
            BenchProfile::Full.replications().min_reps
                >= BenchProfile::Standard.replications().min_reps
        );
        let std_target = BenchProfile::Standard
            .replications()
            .target_rel_ci95
            .unwrap();
        let full_target = BenchProfile::Full.replications().target_rel_ci95.unwrap();
        assert!(full_target < std_target, "full demands tighter intervals");
    }

    #[test]
    fn budget_matches_the_frame_counts() {
        for p in BenchProfile::ALL {
            let b = p.budget();
            assert_eq!(b.warmup, p.warmup_frames());
            assert_eq!(b.measured, p.measured_frames());
        }
    }

    #[test]
    fn base_config_is_valid_for_every_profile() {
        for p in [
            BenchProfile::Quick,
            BenchProfile::Standard,
            BenchProfile::Full,
        ] {
            base_config(p).validate();
        }
    }
}
