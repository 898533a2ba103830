//! The one CLI that drives every experiment: `campaign`.
//!
//! ```text
//! campaign list                               # the registry, one line each
//! campaign describe <name>                    # details + the exact spec JSON
//! campaign run <name>... --profile quick      # run entries, write results/ + MANIFEST.json
//! campaign run all --profile full             # regenerate every artifact
//! campaign gate all --profile quick          # byte-exact gate vs results/quick/
//! campaign write-handbook                     # refresh EXPERIMENTS.md's generated section
//! ```
//!
//! `run` accepts `--profile quick|standard|full` (default: the strict
//! `CHARISMA_BENCH_PROFILE` parse, `standard` when unset), `--threads N`
//! (default 0: one sweep worker per core) and `--write-handbook` to refresh
//! the handbook after the run.  Sweep runs checkpoint every completed point
//! to `results/.checkpoint/<entry>.jsonl`; an interrupted campaign finishes
//! from where it stopped with `campaign run <name> --resume`, byte-identical
//! to an uninterrupted run.  See `EXPERIMENTS.md` for the per-scenario
//! documentation this binary maintains.

use charisma_bench::registry::{self, EntryKind};
use charisma_bench::{checkpoint, gate, BenchProfile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: campaign <command> [options]

commands:
  list                        list every registered scenario
  describe <name>             show a scenario's details and exact spec JSON
  run <name>... | all         run scenarios (writes results/ + results/MANIFEST.json;
                              sweep progress is checkpointed per point under
                              results/.checkpoint/ — exit 3 means interrupted,
                              finish with `campaign run <name> --resume`)
  gate <name> | all           re-run a scenario into results/GATE_fresh/<profile>/
                              and compare every file it writes, byte for byte,
                              against its committed copy (results/quick/ for the
                              quick profile, results/ for standard): exit 0
                              identical, 1 a file differs, 2 no committed copy,
                              an unknown entry or a failed run; \"all\" gates
                              every entry and prints a summary table
  write-handbook              refresh the generated section of EXPERIMENTS.md

run options:
  --profile quick|standard|full   run length per sweep point
                                  (default: CHARISMA_BENCH_PROFILE, else standard)
  --threads N                     sweep worker threads (default 0 = one per core)
  --resume                        replay completed points from the entry's
                                  checkpoint (refused — exit 2 — if the spec,
                                  profile or git revision changed underneath it)
  --results-dir PATH              write artifacts + checkpoints under PATH
                                  instead of results/
  --write-handbook                also refresh EXPERIMENTS.md after the run
  (CHARISMA_FAULT_POINT=N aborts the run — exit 3 — after N newly completed
   points: the deterministic fault hook the durability tests and the CI resume
   smoke test use)

gate options:
  --profile / --threads           as for run (the bytes do not depend on --threads)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "list" => list(),
        "describe" => describe(&args[1..]),
        "run" => run(&args[1..]),
        "gate" => run_gate(&args[1..]),
        "write-handbook" => write_handbook(),
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("campaign: unknown command \"{other}\"\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn list() -> ExitCode {
    let (name_h, kind_h, output_h, paper_h) = ("name", "kind", "output", "paper artifact");
    println!("{name_h:<18} {kind_h:<10} {output_h:<34} {paper_h}");
    for entry in registry::entries() {
        let kind = match entry.kind {
            EntryKind::Sweep { .. } => "campaign",
            EntryKind::Custom { .. } => "bespoke",
        };
        println!(
            "{:<18} {:<10} {:<34} {}",
            entry.name,
            kind,
            format!("results/{}", entry.outputs[0]),
            entry.paper
        );
    }
    println!();
    println!("profiles (per sweep point):");
    for profile in BenchProfile::ALL {
        println!("  {:<10} {}", profile.label(), profile.describe());
    }
    println!();
    println!(
        "run one with: campaign run <name> --profile quick   (details: campaign describe <name>)"
    );
    ExitCode::SUCCESS
}

fn describe(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        eprintln!("campaign describe: missing scenario name\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(entry) = registry::find(name) else {
        eprintln!(
            "campaign describe: unknown scenario \"{name}\" — registered scenarios: {}",
            registry::names().join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{} — {}", entry.name, entry.title);
    println!("paper artifact: {}", entry.paper);
    println!();
    println!("{}", entry.details);
    println!();
    println!(
        "outputs: {}",
        entry
            .outputs
            .iter()
            .map(|f| format!("results/{f}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("columns: {}", entry.columns);
    println!("runtime: {}", entry.runtime);
    println!("profiles (per sweep point):");
    for profile in BenchProfile::ALL {
        println!("  {:<10} {}", profile.label(), profile.describe());
    }
    match entry.kind {
        EntryKind::Sweep { build, .. } => {
            let campaign = build(BenchProfile::Standard);
            for spec in &campaign.specs {
                if let charisma::RepsSpec::Policy(policy) = spec.replications {
                    println!(
                        "note: spec \"{}\" overrides the profile policy: {}",
                        spec.name,
                        policy.describe()
                    );
                }
            }
            let points = match campaign.expand(BenchProfile::Standard.budget()) {
                Ok(points) => points.len(),
                Err(e) => {
                    eprintln!("campaign describe: {name}: {e}");
                    return ExitCode::from(2);
                }
            };
            println!("sweep points (standard profile): {points}");
            println!();
            println!("spec (standard-profile grids):");
            println!("{}", campaign.to_json());
        }
        EntryKind::Custom { .. } => {
            println!("kind: bespoke generator (crates/bench/src/artifacts.rs)");
        }
    }
    ExitCode::SUCCESS
}

fn run(args: &[String]) -> ExitCode {
    let mut names: Vec<String> = Vec::new();
    let mut profile: Option<BenchProfile> = None;
    let mut threads = 0usize;
    let mut refresh_handbook = false;
    let mut resume = false;
    let mut results_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--resume" => {
                resume = true;
                i += 1;
            }
            "--results-dir" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("campaign run: --results-dir needs a path");
                    return ExitCode::from(2);
                };
                results_dir = Some(PathBuf::from(value));
                i += 2;
            }
            "--profile" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("campaign run: --profile needs a value (quick|standard|full)");
                    return ExitCode::from(2);
                };
                match BenchProfile::parse(value) {
                    Ok(p) => profile = Some(p),
                    Err(e) => {
                        eprintln!("campaign run: {e}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--threads" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("campaign run: --threads needs a number");
                    return ExitCode::from(2);
                };
                match value.parse::<usize>() {
                    Ok(n) => threads = n,
                    Err(_) => {
                        eprintln!("campaign run: invalid thread count \"{value}\"");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--write-handbook" => {
                refresh_handbook = true;
                i += 1;
            }
            flag if flag.starts_with('-') => {
                eprintln!("campaign run: unknown option \"{flag}\"\n\n{USAGE}");
                return ExitCode::from(2);
            }
            name => {
                names.push(name.to_string());
                i += 1;
            }
        }
    }
    if names.is_empty() {
        eprintln!("campaign run: no scenarios given (try \"all\" or `campaign list`)");
        return ExitCode::from(2);
    }
    if names.iter().any(|n| n == "all") {
        if names.len() > 1 {
            eprintln!("campaign run: \"all\" cannot be combined with explicit names");
            return ExitCode::from(2);
        }
        names = registry::names().iter().map(|s| s.to_string()).collect();
    }
    let profile = match profile.map_or_else(BenchProfile::from_env, Ok) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("campaign run: {e}");
            return ExitCode::from(2);
        }
    };
    for name in &names {
        if registry::find(name).is_none() {
            eprintln!(
                "campaign run: unknown scenario \"{name}\" — registered scenarios: {}",
                registry::names().join(", ")
            );
            return ExitCode::from(2);
        }
    }

    let mut opts =
        checkpoint::DurableOptions::new(results_dir.unwrap_or_else(charisma_bench::output_dir));
    opts.resume = resume;
    opts.fault_point = match checkpoint::fault_point_from_env() {
        Ok(fault) => fault,
        Err(e) => {
            eprintln!("campaign run: {e}");
            return ExitCode::from(2);
        }
    };

    match checkpoint::run_and_record_durable(&names, profile, threads, &opts) {
        Ok(reports) => {
            let points: usize = reports.iter().map(|r| r.points).sum();
            println!(
                "campaign: {} scenario(s), {} sweep points, profile {} — manifest in {}",
                reports.len(),
                points,
                profile.label(),
                opts.results_dir.join("MANIFEST.json").display()
            );
            if refresh_handbook {
                return write_handbook();
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign run: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run_gate(args: &[String]) -> ExitCode {
    let mut name: Option<String> = None;
    let mut profile: Option<BenchProfile> = None;
    let mut threads = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--profile" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("campaign gate: --profile needs a value (quick|standard|full)");
                    return ExitCode::from(2);
                };
                match BenchProfile::parse(value) {
                    Ok(p) => profile = Some(p),
                    Err(e) => {
                        eprintln!("campaign gate: {e}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--threads" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("campaign gate: --threads needs a number");
                    return ExitCode::from(2);
                };
                match value.parse::<usize>() {
                    Ok(n) => threads = n,
                    Err(_) => {
                        eprintln!("campaign gate: invalid thread count \"{value}\"");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            flag if flag.starts_with('-') => {
                eprintln!("campaign gate: unknown option \"{flag}\"\n\n{USAGE}");
                return ExitCode::from(2);
            }
            value => {
                if name.is_some() {
                    eprintln!("campaign gate: exactly one scenario name expected");
                    return ExitCode::from(2);
                }
                name = Some(value.to_string());
                i += 1;
            }
        }
    }
    let Some(name) = name else {
        eprintln!("campaign gate: missing scenario name (e.g. fig11, all)\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let profile = match profile.map_or_else(BenchProfile::from_env, Ok) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("campaign gate: {e}");
            return ExitCode::from(2);
        }
    };
    let results_dir = charisma_bench::output_dir();
    if name == "all" {
        return gate_all(profile, threads, &results_dir);
    }
    match gate::run_gate(&name, profile, threads, &results_dir) {
        Ok(report) => {
            println!();
            for check in &report.files {
                println!("{check}");
            }
            println!();
            if report.passed() {
                println!(
                    "gate {name}: PASS ({} file(s) byte-identical)",
                    report.files.len()
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "gate {name}: FAIL ({}/{} files differ from their committed copy)",
                    report.failures(),
                    report.files.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("campaign gate: {e}");
            ExitCode::from(2)
        }
    }
}

fn gate_all(profile: BenchProfile, threads: usize, results_dir: &Path) -> ExitCode {
    let outcomes = gate::run_gate_all(profile, threads, results_dir);
    println!();
    println!("gate all — summary [{} profile]", profile.label());
    println!("{:<20} {:<6} detail", "entry", "status");
    let (mut failures, mut errors) = (0usize, 0usize);
    for (name, outcome) in &outcomes {
        let detail = match outcome {
            gate::GateOutcome::Pass(report) => {
                format!("{} file(s) byte-identical", report.files.len())
            }
            gate::GateOutcome::Fail(report) => {
                failures += 1;
                report
                    .files
                    .iter()
                    .filter(|c| !c.passed())
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            }
            gate::GateOutcome::Error(e) => {
                errors += 1;
                e.clone()
            }
        };
        println!("{name:<20} {:<6} {detail}", outcome.status());
    }
    println!();
    let gated = outcomes.len();
    let verdict = if failures > 0 {
        "FAIL"
    } else if errors > 0 {
        "ERROR"
    } else {
        "PASS"
    };
    // The one-line machine-readable summary CI uploads as an artifact.
    let summary = format!(
        "gate all [{} profile]: {verdict} — {gated} entries, {failures} failed, {errors} errors\n",
        profile.label()
    );
    if let Err(e) = charisma_bench::write_output_to(results_dir, "GATE_summary.txt", &summary) {
        eprintln!("campaign gate: could not write GATE_summary.txt: {e}");
    }
    if failures > 0 {
        eprintln!("gate all: FAIL ({failures} of {gated} entries differ)");
        ExitCode::FAILURE
    } else if errors > 0 {
        eprintln!("gate all: {errors} entries could not be compared");
        ExitCode::from(2)
    } else {
        println!("gate all: PASS ({gated} entries byte-identical)");
        ExitCode::SUCCESS
    }
}

fn write_handbook() -> ExitCode {
    match registry::write_handbook(Path::new("EXPERIMENTS.md")) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign write-handbook: {e}");
            ExitCode::FAILURE
        }
    }
}
