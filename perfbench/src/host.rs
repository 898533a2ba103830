//! The host record printed with every result, the thread guard, peak
//! memory, and the small order statistics the metrics are reported as.

use charisma::{fnv1a_64, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Threads a workload asks for: `system_threads` on `city_127`, sweep
/// workers on `fig11_sweep`.
pub const REQUESTED_THREADS: u32 = 2;

/// Where and with what a result was measured.
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: u32,
    /// The thread count actually used: [`REQUESTED_THREADS`] capped at
    /// `nproc`.
    pub threads: u32,
    cpu: String,
    git_rev: String,
    source_fnv: u64,
}

impl Host {
    /// Probes the machine and the source tree the benchmark was built from.
    pub fn probe() -> Host {
        Host {
            nproc: nproc(),
            threads: guarded_threads(),
            cpu: cpu_model(),
            git_rev: git_rev(),
            source_fnv: source_fnv(),
        }
    }

    /// Whether the thread guard lowered the requested thread count; a
    /// capped result is not comparable with an uncapped one.
    pub fn capped(&self) -> bool {
        self.threads < REQUESTED_THREADS
    }

    /// The record as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("nproc".into(), Json::Int(self.nproc as u64)),
            ("cpu".into(), Json::Str(self.cpu.clone())),
            (
                "rustc".into(),
                Json::Str(env!("PERFBENCH_RUSTC_VERSION").into()),
            ),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            (
                "source_fnv".into(),
                Json::Str(format!("{:016x}", self.source_fnv)),
            ),
            (
                "threads_requested".into(),
                Json::Int(REQUESTED_THREADS as u64),
            ),
            ("threads_used".into(), Json::Int(self.threads as u64)),
            ("threads_capped".into(), Json::Bool(self.capped())),
        ])
    }
}

fn nproc() -> u32 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1)
}

/// [`REQUESTED_THREADS`] capped at `available_parallelism`.
pub fn guarded_threads() -> u32 {
    REQUESTED_THREADS.min(nproc())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The repository root: the benchmark package sits one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `git rev-parse HEAD`, or `"none"` when the sources are not a git
/// checkout (the source digest identifies them then).
fn git_rev() -> String {
    let root = repo_root();
    if !root.join(".git").exists() {
        return "none".into();
    }
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the simulator's sources (every file under `crates/` plus the
/// root manifest and lock file, in path order), so a result names the code
/// it measured even outside a git checkout.
fn source_fnv() -> u64 {
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        if let Ok(contents) = std::fs::read(file) {
            let rel = file.strip_prefix(&root).unwrap_or(file);
            bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&contents);
        }
    }
    fnv1a_64(&bytes)
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_files(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Order statistics of one metric's samples.
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (0 for every statistic when there are none; the
    /// caller has then already marked the run incorrect).
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Summary {
                n,
                median: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Summary {
            n,
            median,
            min: v[0],
            max: v[n - 1],
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("n".into(), Json::Int(self.n as u64)),
            ("median".into(), Json::Num(self.median)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
        ])
    }
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
