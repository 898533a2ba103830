//! Bespoke (non-sweep) artifact generators.
//!
//! Three of the paper's artifacts are not parameter sweeps and therefore do
//! not fit the declarative [`ScenarioSpec`](charisma::ScenarioSpec) shape:
//! the Table 1 parameter listing, the Fig. 5 fading trace and the Fig. 7
//! ABICM curves.  They live here as plain functions so the campaign registry
//! can drive them exactly like the sweep campaigns.

use crate::{base_config, write_csv, BenchProfile};
use charisma::des::{RngStreams, SimDuration, StreamId};
use charisma::phy::{AdaptivePhy, FixedPhy, Phy};
use charisma::radio::{ChannelConfig, CombinedChannel, Mobility};
use std::path::{Path, PathBuf};

/// Table 1 — prints every parameter of the common simulation platform and
/// writes `table1_parameters.csv` under `dir`.
pub fn run_table1(profile: BenchProfile, dir: &Path) -> Vec<PathBuf> {
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
        dir,
        "table1_parameters.csv",
        "parameter,value",
        &csv_rows,
    )]
}

/// Fig. 5 — a 2-second sample of the combined fading process at 50 km/h;
/// writes `fig5_fading.csv` under `dir`.
pub fn run_fig5_fading(_profile: BenchProfile, dir: &Path) -> Vec<PathBuf> {
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
        dir,
        "fig5_fading.csv",
        "time_s,fast_fading_db,shadowing_db,snr_db",
        &csv,
    )]
}

/// Fig. 7 — ABICM throughput and error behaviour versus CSI; writes
/// `fig7_abicm.csv` under `dir`.
pub fn run_fig7_abicm(_profile: BenchProfile, dir: &Path) -> Vec<PathBuf> {
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
        dir,
        "fig7_abicm.csv",
        "csi_db,mode,normalised_throughput,adaptive_per,fixed_per",
        &rows,
    )]
}
