//! Bespoke (non-sweep) artifact generators.
//!
//! Four of the paper's artifacts are not parameter sweeps and therefore do
//! not fit the declarative [`ScenarioSpec`](charisma::ScenarioSpec) shape:
//! the Table 1 parameter listing, the Fig. 5 fading trace, the Fig. 7 ABICM
//! curves and the frame-loop performance benchmark.  They live here as plain
//! functions so the campaign registry can drive them exactly like the sweep
//! campaigns.

use crate::{base_config, write_csv, write_output, BaselineWrite, BenchProfile};
use charisma::des::{RngStreams, SimDuration, StreamId};
use charisma::metrics::RunningStat;
use charisma::phy::{AdaptivePhy, FixedPhy, Phy};
use charisma::radio::{ChannelConfig, ChannelMode, CombinedChannel, Mobility};
use charisma::{ProtocolKind, Scenario, SimConfig};
use std::path::PathBuf;
use std::time::Instant;

/// Table 1 — prints every parameter of the common simulation platform and
/// writes `results/table1_parameters.csv`.
pub fn run_table1(profile: BenchProfile, _baseline: BaselineWrite) -> Vec<PathBuf> {
    let cfg = base_config(profile);
    let frame = &cfg.frame;

    println!("Table 1 — simulation parameters (reproduction values)");
    println!("{:-<72}", "");
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut add = |k: &str, v: String| rows.push((k.to_string(), v));

    add("transmission bandwidth", "320 kHz (paper)".into());
    add("speech source rate", "8 kbps (paper)".into());
    add("frame duration", format!("{}", frame.frame_duration));
    add(
        "information slots per frame (N_i)",
        frame.info_slots.to_string(),
    );
    add(
        "request minislots per frame (N_r)",
        frame.request_slots.to_string(),
    );
    add(
        "CSI pilot/poll slots per frame (N_b)",
        frame.pilot_slots.to_string(),
    );
    add(
        "sub-slot scheduling granularity",
        format!("1/{}", frame.subslots_per_slot),
    );
    add(
        "RAMA auction slots per frame (N_a)",
        frame.rama_auction_slots.to_string(),
    );
    add(
        "DRMA information slots per frame (N_k)",
        frame.drma_info_slots.to_string(),
    );
    add(
        "DRMA minislots per converted slot (N_x)",
        frame.drma_minislots.to_string(),
    );
    add(
        "RMAV information slots per frame",
        frame.rmav_info_slots.to_string(),
    );
    add(
        "RMAV maximum data grant (P_max)",
        frame.rmav_max_data_slots.to_string(),
    );
    add(
        "mean talkspurt duration (t_t)",
        format!("{}", cfg.voice_source.mean_talkspurt),
    );
    add(
        "mean silence duration (t_s)",
        format!("{}", cfg.voice_source.mean_silence),
    );
    add(
        "voice activity factor",
        format!("{:.3}", cfg.voice_source.activity_factor()),
    );
    add(
        "voice packet period",
        format!("{}", cfg.voice_source.packet_period),
    );
    add(
        "voice packet deadline",
        format!("{}", cfg.voice_source.deadline),
    );
    add(
        "mean data burst inter-arrival",
        format!("{}", cfg.data_source.mean_interarrival),
    );
    add(
        "mean data burst size",
        format!("{:.0} packets", cfg.data_source.mean_burst_packets),
    );
    add(
        "voice permission probability (p_v)",
        format!("{:.2}", cfg.contention.pv),
    );
    add(
        "data permission probability (p_d)",
        format!("{:.2}", cfg.contention.pd),
    );
    add(
        "mean received SNR",
        format!("{:.1} dB", cfg.channel.mean_snr_db),
    );
    add(
        "shadowing std deviation",
        format!("{:.1} dB", cfg.channel.shadowing.std_db),
    );
    add(
        "shadowing correlation time",
        format!("{}", cfg.channel.shadowing.correlation_time),
    );
    add("terminal speed profile", format!("{:?}", cfg.speed));
    add(
        "ABICM modes (normalised throughput)",
        "outage, 1/2, 1, 2, 3, 4, 5".to_string(),
    );
    add(
        "ABICM adaptation thresholds",
        format!("{:?} dB", cfg.adaptive_phy.thresholds.boundaries),
    );
    add(
        "ABICM in-range packet error rate",
        format!("{:.0e}", cfg.adaptive_phy.in_range_per),
    );
    add(
        "fixed-PHY design threshold",
        format!("{:.1} dB", cfg.fixed_phy.design_threshold_db),
    );
    add(
        "CSI estimation error std",
        format!("{:.1} dB", cfg.csi.error_std_db),
    );
    add("CSI estimate validity", format!("{}", cfg.csi.validity));
    add(
        "request queue capacity",
        cfg.request_queue_capacity.to_string(),
    );
    add(
        "warm-up / measured frames",
        format!("{} / {}", cfg.warmup_frames, cfg.measured_frames),
    );
    add("master seed", format!("0x{:X}", cfg.seed));

    let csv_rows: Vec<String> = rows.iter().map(|(k, v)| format!("{k},{v}")).collect();
    for (k, v) in &rows {
        println!("{k:<42} {v}");
    }
    vec![write_csv(
        "table1_parameters.csv",
        "parameter,value",
        &csv_rows,
    )]
}

/// Fig. 5 — a 2-second sample of the combined fading process at 50 km/h;
/// writes `results/fig5_fading.csv`.
pub fn run_fig5_fading(_profile: BenchProfile, _baseline: BaselineWrite) -> Vec<PathBuf> {
    let streams = RngStreams::new(0xF165_BEEF);
    let mut channel = CombinedChannel::new(
        ChannelConfig::default(),
        Mobility::new(50.0),
        streams.stream(StreamId::new(StreamId::DOMAIN_CHANNEL, 0)),
    );

    // 2 seconds sampled every 0.5 ms: fast fading varies within ~10 ms while
    // the shadowing component drifts over the whole trace.
    let step = SimDuration::from_micros(500);
    let samples = 4_000;
    let rows = channel.trace(step, samples);

    let mut csv = Vec::with_capacity(rows.len());
    let mut min_snr = f64::INFINITY;
    let mut max_snr = f64::NEG_INFINITY;
    let mut deep_fade_samples = 0usize;
    for &(t, short_db, long_db, snr_db) in &rows {
        csv.push(format!(
            "{:.6},{:.3},{:.3},{:.3}",
            t.as_secs_f64(),
            short_db,
            long_db,
            snr_db
        ));
        min_snr = min_snr.min(snr_db);
        max_snr = max_snr.max(snr_db);
        if short_db < -10.0 {
            deep_fade_samples += 1;
        }
    }

    println!("Fig. 5 — sample of combined channel fading (50 km/h, 2 s, 0.5 ms sampling)");
    println!("samples:                  {}", rows.len());
    println!(
        "SNR range:                {:.1} dB … {:.1} dB",
        min_snr, max_snr
    );
    println!(
        "time in >10 dB fast fade: {:.1}%  (Rayleigh theory ≈ 9.5%)",
        100.0 * deep_fade_samples as f64 / rows.len() as f64
    );
    println!(
        "shadowing drift over trace: {:.1} dB",
        (rows.last().unwrap().2 - rows[0].2).abs()
    );
    vec![write_csv(
        "fig5_fading.csv",
        "time_s,fast_fading_db,shadowing_db,snr_db",
        &csv,
    )]
}

/// Fig. 7 — ABICM throughput and error behaviour versus CSI; writes
/// `results/fig7_abicm.csv`.
pub fn run_fig7_abicm(_profile: BenchProfile, _baseline: BaselineWrite) -> Vec<PathBuf> {
    let adaptive = AdaptivePhy::default();
    let fixed = FixedPhy::default();

    println!("Fig. 7 — ABICM throughput and error behaviour vs CSI");
    println!(
        "{:>8} {:>8} {:>22} {:>22} {:>18}",
        "CSI(dB)", "mode", "normalised throughput", "adaptive packet error", "fixed packet error"
    );

    let mut rows = Vec::new();
    let mut snr = -20.0f64;
    while snr <= 35.0 + 1e-9 {
        let mode = adaptive.mode_for(snr);
        let tput = adaptive.packets_per_slot(snr);
        let per = adaptive.packet_error_probability(snr);
        let fper = fixed.packet_error_probability(snr);
        println!(
            "{snr:>8.1} {:>8} {tput:>22.1} {per:>22.2e} {fper:>18.2e}",
            mode.index()
        );
        rows.push(format!(
            "{snr:.1},{},{tput:.2},{per:.6},{fper:.6}",
            mode.index()
        ));
        snr += 1.0;
    }

    println!();
    println!("Inside the adaptation range the packet error probability is constant (the");
    println!("constant-BER operating mode of Fig. 7a) while the throughput steps from 1/2 to 5");
    println!("(Fig. 7b); below the range the scheme is in outage (mode 0).");
    vec![write_csv(
        "fig7_abicm.csv",
        "csi_db,mode,normalised_throughput,adaptive_per,fixed_per",
        &rows,
    )]
}

/// One measured (protocol, channel mode) combination of the frame-loop
/// benchmark.
pub struct Measurement {
    /// The protocol measured.
    pub protocol: ProtocolKind,
    /// The channel evaluation mode measured.
    pub mode: ChannelMode,
    /// Wall-clock repetitions taken.
    pub reps: u32,
    /// Fastest repetition, in seconds.
    pub best_elapsed_secs: f64,
    /// Frames per second of the fastest repetition.
    pub frames_per_second: f64,
    /// Per-repetition frames-per-second samples (mean/CI for the gate).
    pub fps: RunningStat,
    /// Voice loss of the (deterministic) run, as a sanity check.
    pub voice_loss_rate: f64,
}

/// The JSON label of a channel mode in the benchmark record.
pub fn mode_label(mode: ChannelMode) -> &'static str {
    match mode {
        ChannelMode::Eager => "eager",
        ChannelMode::Lazy => "lazy",
    }
}

/// The (protocol, mode) grid the frame-loop benchmark measures.
pub const BENCH_PROTOCOLS: [ProtocolKind; 2] = [ProtocolKind::Charisma, ProtocolKind::DTdmaVr];

/// The reference scenario of the frame-loop benchmark for a profile.
pub fn reference_config(profile: BenchProfile) -> SimConfig {
    let mut cfg = SimConfig::default_paper();
    cfg.num_voice = 60;
    cfg.num_data = 10;
    if profile == BenchProfile::Quick {
        cfg.warmup_frames = 500;
        cfg.measured_frames = 1_500;
    } else {
        cfg.warmup_frames = 2_000;
        cfg.measured_frames = 18_000;
    }
    cfg
}

/// Measures one (protocol, mode) combination: `reps` wall-clock repetitions
/// of the same deterministic run.
pub fn measure(
    base: &SimConfig,
    protocol: ProtocolKind,
    mode: ChannelMode,
    reps: u32,
) -> Measurement {
    let mut cfg = base.clone();
    cfg.channel_mode = mode;
    let scenario = Scenario::new(cfg);
    let total_frames = scenario.config().total_frames();
    let mut best = f64::INFINITY;
    let mut fps = RunningStat::new();
    let mut loss = 0.0;
    for _ in 0..reps {
        let start = Instant::now();
        let report = scenario.run(protocol);
        let elapsed = start.elapsed().as_secs_f64();
        best = best.min(elapsed);
        fps.push(total_frames as f64 / elapsed);
        loss = report.voice_loss_rate();
    }
    Measurement {
        protocol,
        mode,
        reps,
        best_elapsed_secs: best,
        frames_per_second: total_frames as f64 / best,
        fps,
        voice_loss_rate: loss,
    }
}

/// The file the frame-loop benchmark record is written to under `results/`.
///
/// Only an explicitly named standard-profile run writes the canonical
/// `BENCH_frame_loop.json` — the committed baseline the CI regression gate
/// compares against.  Quick and full runs (CI smoke steps, local
/// experiments) go to profile-suffixed siblings, and a bulk `run all` at the
/// standard profile goes to a `.standard.json` sidecar, so the committed
/// baseline is only ever regenerated deliberately.
pub fn bench_frame_loop_file(profile: BenchProfile, baseline: BaselineWrite) -> &'static str {
    match (profile, baseline) {
        (BenchProfile::Standard, BaselineWrite::Allowed) => "BENCH_frame_loop.json",
        (BenchProfile::Standard, BaselineWrite::Sidecar) => "BENCH_frame_loop.standard.json",
        (BenchProfile::Quick, _) => "BENCH_frame_loop.quick.json",
        (BenchProfile::Full, _) => "BENCH_frame_loop.full.json",
    }
}

/// The frame-loop throughput benchmark: the perf trajectory every PR is
/// measured against.  Runs the reference scenario (60 voice + 10 data
/// terminals) under CHARISMA and D-TDMA/VR with both the eager baseline and
/// the lazy hot path, prints frames per second, and writes the routed
/// record file (schema `charisma.bench_frame_loop.v1`, see
/// [`bench_frame_loop_file`]).
pub fn run_bench_frame_loop(profile: BenchProfile, baseline: BaselineWrite) -> Vec<PathBuf> {
    let config = reference_config(profile);
    let reps = if profile == BenchProfile::Quick { 1 } else { 3 };
    let protocols = BENCH_PROTOCOLS;
    let profile_label = profile.label();

    println!(
        "Frame-loop throughput: {} voice + {} data terminals, {} frames, best of {reps}",
        config.num_voice,
        config.num_data,
        config.total_frames()
    );
    println!(
        "{:<12}{:>8}{:>14}{:>16}{:>12}",
        "protocol", "mode", "elapsed [s]", "frames/s", "Ploss"
    );

    let mut runs: Vec<Measurement> = Vec::new();
    for protocol in protocols {
        for mode in [ChannelMode::Eager, ChannelMode::Lazy] {
            let m = measure(&config, protocol, mode, reps);
            println!(
                "{:<12}{:>8}{:>14.3}{:>16.0}{:>12.4}",
                m.protocol.label(),
                mode_label(m.mode),
                m.best_elapsed_secs,
                m.frames_per_second,
                m.voice_loss_rate
            );
            runs.push(m);
        }
    }

    let mut run_objects: Vec<String> = Vec::new();
    for m in &runs {
        run_objects.push(format!(
            concat!(
                "    {{\"protocol\": \"{}\", \"mode\": \"{}\", \"reps\": {}, ",
                "\"best_elapsed_secs\": {:.6}, \"frames_per_second\": {:.1}, ",
                "\"voice_loss_rate\": {:.6}}}"
            ),
            m.protocol.label(),
            mode_label(m.mode),
            m.reps,
            m.best_elapsed_secs,
            m.frames_per_second,
            m.voice_loss_rate
        ));
    }

    let mut speedups: Vec<String> = Vec::new();
    println!();
    for protocol in protocols {
        let fps_of = |mode: ChannelMode| {
            runs.iter()
                .find(|m| m.protocol == protocol && m.mode == mode)
                .map(|m| m.frames_per_second)
                .unwrap_or(f64::NAN)
        };
        let eager = fps_of(ChannelMode::Eager);
        let lazy = fps_of(ChannelMode::Lazy);
        let speedup = lazy / eager;
        println!("{:<12} lazy/eager speedup: {speedup:.2}x", protocol.label());
        speedups.push(format!(
            concat!(
                "    {{\"protocol\": \"{}\", \"eager_fps\": {:.1}, ",
                "\"lazy_fps\": {:.1}, \"lazy_over_eager\": {:.3}}}"
            ),
            protocol.label(),
            eager,
            lazy,
            speedup
        ));
    }

    let json = format!(
        "{{\n\
         \x20 \"schema\": \"charisma.bench_frame_loop.v1\",\n\
         \x20 \"profile\": \"{profile_label}\",\n\
         \x20 \"scenario\": {{\n\
         \x20   \"num_voice\": {},\n\
         \x20   \"num_data\": {},\n\
         \x20   \"warmup_frames\": {},\n\
         \x20   \"measured_frames\": {},\n\
         \x20   \"total_frames\": {},\n\
         \x20   \"seed\": {}\n\
         \x20 }},\n\
         \x20 \"runs\": [\n{}\n  ],\n\
         \x20 \"speedup\": [\n{}\n  ]\n\
         }}\n",
        config.num_voice,
        config.num_data,
        config.warmup_frames,
        config.measured_frames,
        config.total_frames(),
        config.seed,
        run_objects.join(",\n"),
        speedups.join(",\n"),
    );
    let path = write_output(bench_frame_loop_file(profile, baseline), &json)
        .expect("failed to persist the benchmark record");
    vec![path]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_an_explicit_standard_run_writes_the_committed_baseline() {
        assert_eq!(
            bench_frame_loop_file(BenchProfile::Standard, BaselineWrite::Allowed),
            "BENCH_frame_loop.json"
        );
        // Every other (profile, context) combination is routed elsewhere.
        for p in BenchProfile::ALL {
            for b in [BaselineWrite::Allowed, BaselineWrite::Sidecar] {
                if p == BenchProfile::Standard && b == BaselineWrite::Allowed {
                    continue;
                }
                assert_ne!(
                    bench_frame_loop_file(p, b),
                    "BENCH_frame_loop.json",
                    "{} / {b:?} must never overwrite the committed standard baseline",
                    p.label()
                );
            }
        }
    }

    #[test]
    fn measure_collects_per_repetition_fps_samples() {
        let mut cfg = SimConfig::quick_test();
        cfg.num_voice = 5;
        cfg.num_data = 1;
        cfg.warmup_frames = 50;
        cfg.measured_frames = 300;
        let m = measure(&cfg, ProtocolKind::Charisma, ChannelMode::Lazy, 3);
        assert_eq!(m.reps, 3);
        assert_eq!(m.fps.count(), 3);
        assert!(m.fps.mean() > 0.0);
        assert!(m.frames_per_second >= m.fps.mean(), "best >= mean fps");
    }
}
