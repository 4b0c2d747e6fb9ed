//! The traced run: spans around the benchmark's own calls into the
//! simulator, per-scenario spans from the campaign observer, and batched
//! replays of the sub-tick layer kernels.
//!
//! Nothing here switches on the simulator's in-run tracing
//! (`CampaignOptions::tracing` moves Monte-Carlo lanes off the fleet) or
//! reads its in-sim `stage.*` profile (its clock overhead is uncalibrated).
//! Layer costs inside the tick come from replaying each layer's public
//! kernel on its own, in batches timed with one clock read per batch, fed
//! with inputs captured from the workload's configuration.

use crate::workloads::{
    self, check, execute, fault_cases, fault_config, montecarlo_config, setup, table_config,
    Checked, Family, Scale, Workload, GYRO_TICK_HZ,
};
use crate::RunOutput;
use ascp_afe::adc::{AdcConfig, SarAdc};
use ascp_afe::amp::{ChargeAmplifier, Pga};
use ascp_afe::dac::{Dac, DacConfig};
use ascp_afe::filter::AntiAliasFilter;
use ascp_core::campaign::{derive_seed, CampaignObserver, ScenarioProgress, ScenarioStatus};
use ascp_core::chain::ChainDrive;
use ascp_core::checkpoint;
use ascp_core::firmware;
use ascp_core::prelude::*;
use ascp_core::supervisor::{MonitorSample, SafetySupervisor};
use ascp_dsp::fixed::Q15;
use ascp_mcu8051::cpu::Cpu;
use ascp_mcu8051::periph::SystemBus;
use ascp_mems::gyro::RingGyro;
use ascp_sim::noise::{PinkNoise, WhiteNoise};
use ascp_sim::telemetry::trace::{TraceCollector, TraceLog, TraceSpan};
use ascp_sim::telemetry::{Telemetry, TelemetryConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-layer metrics printed by the traced run, with their units.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("campaign.scenario_ms_p50", "ms"),
    ("campaign.scenario_ms_p90", "ms"),
    ("campaign.busy_frac", "ratio"),
    ("campaign.engine_self_s", "s"),
    ("campaign.warm_hit_frac", "ratio"),
    ("campaign.retries", "count"),
    ("campaign.poisoned", "count"),
    ("platform.tick_ns", "ns"),
    ("platform.fleet_lane_ns", "ns"),
    ("platform.ticks", "count"),
    ("platform.unattributed_ns", "ns"),
    ("mems.gyro_step_ns", "ns"),
    ("afe.acquire_ns", "ns"),
    ("afe.dac_ns", "ns"),
    ("afe.adc_clips", "count"),
    ("noise.white_ns", "ns"),
    ("noise.pink_ns", "ns"),
    ("dsp.chain_ns", "ns"),
    ("dsp.saturations", "count"),
    ("mcu8051.slice_ns", "ns"),
    ("mcu8051.instructions_per_tick", "count"),
    ("mcu8051.xlate_hit_frac", "ratio"),
    ("supervisor.poll_ns", "ns"),
    ("supervisor.transitions", "count"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("checkpoint.bytes", "B"),
    ("frontend.step_ns", "ns"),
    ("frontend.outputs", "count"),
    ("report.render_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Gaussian draws per gyro tick: gyro drive + sense (2), charge amps (2),
/// PGA white (2), SAR ADCs (2), drive/rebalance/rate DACs (3).
const GYRO_WHITE_DRAWS_PER_TICK: f64 = 11.0;
/// Flicker draws per gyro tick: one per PGA.
const GYRO_PINK_DRAWS_PER_TICK: f64 = 2.0;
/// Gaussian draws per channel sample: front-end sense, excitation
/// reference, PGA white, signal and monitor ADCs.
const CHANNEL_WHITE_DRAWS_PER_TICK: f64 = 5.0;
/// Flicker draws per channel sample: the PGA.
const CHANNEL_PINK_DRAWS_PER_TICK: f64 = 1.0;

/// Ticks per replay batch (one clock read per batch).
const BATCH: usize = 20_000;
/// Batches per replay; the median batch is reported.
const BATCHES: usize = 7;

/// 8051 machine cycles per DSP tick: 20 MHz / 12 at the 250 kHz tick.
const CPU_CYCLES_PER_TICK: f64 = 20.0e6 / 12.0 / GYRO_TICK_HZ;
/// DSP ticks per supervisor poll (1 kHz monitoring cadence).
const TICKS_PER_POLL: f64 = GYRO_TICK_HZ / 1000.0;

/// One finished scenario as the observer saw it.
#[derive(Debug, Clone)]
struct Finish {
    thread: std::thread::ThreadId,
    /// Traced iteration the scenario belongs to.
    iteration: usize,
    end_ns: u64,
    wall_ms: f64,
    index: usize,
    name: String,
    warm: Option<bool>,
    retries: usize,
    poisoned: bool,
}

/// Collects `scenario_finished` callbacks, stamped against the trace
/// epoch.
struct SpanObserver {
    epoch: Instant,
    iteration: AtomicUsize,
    finished: Mutex<Vec<Finish>>,
}

impl CampaignObserver for SpanObserver {
    fn scenario_finished(&self, p: &ScenarioProgress) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.finished
            .lock()
            .expect("no observer callback panics while holding the lock")
            .push(Finish {
                thread: std::thread::current().id(),
                iteration: self.iteration.load(Ordering::Relaxed),
                end_ns,
                wall_ms: p.wall_ms,
                index: p.index,
                name: p.name.clone(),
                warm: p.warm,
                retries: p.retries,
                poisoned: p.status == ScenarioStatus::Poisoned,
            });
    }
}

/// Output of a traced run: the per-layer metrics and the spans.
pub struct Traced {
    pub out: RunOutput,
    pub trace: TraceLog,
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Times `f` over [`BATCHES`] batches of `n` calls; median ns per call.
fn replay(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for i in 0..n {
            f(i);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&per_call)
}

/// Runs the workload traced: alternating untraced and traced iterations
/// for three quarters of the budget, then the sub-tick replays and work
/// counts.
pub fn traced_run(workload: Workload, seed: u64, seconds: f64, threads: usize) -> Traced {
    let start = Instant::now();
    let collector = TraceCollector::new();
    // The collector's epoch is private; this one is taken right after it,
    // so observer timestamps line up with recorder spans to well under a
    // microsecond.
    let epoch = Instant::now();
    let run_id = format!("{:016x}", derive_seed(seed, workload as u64 + 1));
    let mut rec = collector.recorder(0);
    let observer = Arc::new(SpanObserver {
        epoch,
        iteration: AtomicUsize::new(0),
        finished: Mutex::new(Vec::new()),
    });

    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut render_ms = Vec::new();
    let mut campaign_spans: Vec<u64> = Vec::new();
    let mut checked = Checked::default();
    let mut digests = Vec::new();
    let mut busy = Vec::new();
    let campaign_budget = seconds * 0.75;
    while traced_walls.len() < 2 || start.elapsed().as_secs_f64() < campaign_budget {
        // Untraced and traced iterations alternate which goes first, so
        // neither side always runs on a colder process.
        let untraced_first = traced_walls.len() % 2 == 0;
        if untraced_first {
            untraced_walls.push(untraced_wall(workload, seed, threads));
        }
        // Relaxed suffices: the store happens before the campaign spawns
        // the worker threads that load it.
        observer
            .iteration
            .store(traced_walls.len(), Ordering::Relaxed);
        let it = rec.begin("iteration", 0.0);
        let s = rec.begin("setup", 0.0);
        let prepared = setup(
            workload,
            seed,
            Scale::Full,
            threads,
            Some(observer.clone() as Arc<dyn CampaignObserver>),
        );
        rec.end(s, 0.0);
        let ex = execute(prepared, Some(&mut rec));
        campaign_spans.push(ex.campaign_span);
        traced_walls.push(ex.wall_s);
        render_ms.push(ex.render_s * 1.0e3);
        let c = check(workload, seed, Scale::Full, &ex.report);
        rec.end(it, c.sim_s);
        digests.push(workloads::digest(&ex.csv));
        busy.push(ex.run_s);
        checked.merge(c);
        if !untraced_first {
            untraced_walls.push(untraced_wall(workload, seed, threads));
        }
    }

    let finished = std::mem::take(
        &mut *observer
            .finished
            .lock()
            .expect("no observer callback panics while holding the lock"),
    );
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // Campaign layer: scenario spans from the observer.
    let gyro = workload.is_gyro();
    let scenario_ms: Vec<f64> = finished.iter().map(|f| f.wall_ms).collect();
    let warm: Vec<bool> = finished.iter().filter_map(|f| f.warm).collect();
    let iterations = traced_walls.len();
    m.push(("campaign.scenario_ms_p50", quantile(&scenario_ms, 0.5)));
    m.push(("campaign.scenario_ms_p90", quantile(&scenario_ms, 0.9)));
    let total_busy_ms: f64 = scenario_ms.iter().sum();
    let total_wall: f64 = busy.iter().sum();
    m.push((
        "campaign.busy_frac",
        if gyro {
            total_busy_ms / 1.0e3 / (threads as f64 * total_wall)
        } else {
            0.0
        },
    ));
    rec.finish(0.0);
    collector.merge(rec);
    let mut log = collector.into_log();
    let scenario_spans = scenario_spans(&finished, &campaign_spans);
    let engine_self: Vec<f64> = campaign_spans
        .iter()
        .filter_map(|id| log.spans.iter().find(|s| s.id == *id))
        .map(|campaign| {
            let children: Vec<&TraceSpan> = scenario_spans
                .iter()
                .filter(|s| s.parent == campaign.id)
                .collect();
            self_time_ns(campaign, &children) as f64 / 1.0e9
        })
        .collect();
    m.push((
        "campaign.engine_self_s",
        if gyro { median(&engine_self) } else { 0.0 },
    ));
    m.push((
        "campaign.warm_hit_frac",
        if warm.is_empty() {
            0.0
        } else {
            warm.iter().filter(|&&h| h).count() as f64 / warm.len() as f64
        },
    ));
    m.push((
        "campaign.retries",
        finished.iter().map(|f| f.retries).sum::<usize>() as f64,
    ));
    m.push((
        "campaign.poisoned",
        finished.iter().filter(|f| f.poisoned).count() as f64,
    ));
    log.spans.extend(scenario_spans);
    for span in &mut log.spans {
        span.args.push(("run_id".into(), run_id.clone()));
    }

    // Sub-tick layers and work counts.
    let layers = if gyro {
        gyro_layers(workload, seed, &checked)
    } else {
        channel_layers(seed, &checked)
    };
    m.extend(layers);
    m.push(("report.render_ms", median(&render_ms)));
    m.push((
        "trace.overhead_frac",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
    ));
    // Keep the printed order identical to `PER_LAYER`.
    let metrics = PER_LAYER
        .iter()
        .map(|(name, _)| {
            let v = m.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
            (*name, v)
        })
        .collect();
    Traced {
        out: RunOutput {
            metrics,
            checked,
            digests,
            iterations,
        },
        trace: log,
    }
}

/// `campaign_wall_s` of one untraced iteration.
fn untraced_wall(workload: Workload, seed: u64, threads: usize) -> f64 {
    execute(setup(workload, seed, Scale::Full, threads, None), None).wall_s
}

/// Synthesizes one span per finished scenario: the end is the callback
/// time and the start the end minus the reported wall time. Lanes of one
/// fleet group report back-to-back with an amortized wall time, so on
/// each worker track a span is shifted to end where the next one starts;
/// the group's lanes then tile its duration instead of overlapping.
fn scenario_spans(finished: &[Finish], campaign_spans: &[u64]) -> Vec<TraceSpan> {
    let mut threads: Vec<std::thread::ThreadId> = Vec::new();
    for f in finished {
        if !threads.contains(&f.thread) {
            threads.push(f.thread);
        }
    }
    let mut spans: Vec<TraceSpan> = Vec::with_capacity(finished.len());
    for (t, thread) in threads.iter().enumerate() {
        let track = 1 + t as u64;
        let mine: Vec<usize> = (0..finished.len())
            .filter(|&i| finished[i].thread == *thread)
            .collect();
        let mut next_start = u64::MAX;
        for &i in mine.iter().rev() {
            let f = &finished[i];
            let end = f.end_ns.min(next_start);
            let start = end.saturating_sub((f.wall_ms * 1.0e6) as u64);
            next_start = start;
            spans.push(TraceSpan {
                id: (track << 32) | (f.index as u64 + 1),
                parent: campaign_spans.get(f.iteration).copied().unwrap_or(0),
                label: format!("scenario:{}", f.name),
                track,
                wall_start_ns: start,
                wall_end_ns: end,
                sim_start_s: 0.0,
                sim_end_s: 0.0,
                args: vec![(
                    "warm".into(),
                    match f.warm {
                        Some(true) => "hit",
                        Some(false) => "miss",
                        None => "off",
                    }
                    .into(),
                )],
            });
        }
    }
    spans
}

/// A span's self time: its duration minus the part of it its children
/// cover (children may overlap one another on parallel tracks).
fn self_time_ns(span: &TraceSpan, children: &[&TraceSpan]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.wall_start_ns.max(span.wall_start_ns),
                c.wall_end_ns.min(span.wall_end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (span.wall_end_ns - span.wall_start_ns).saturating_sub(covered)
}

/// Work counts read from a probe platform's telemetry snapshot.
#[derive(Default)]
struct Counts {
    adc_clips: u64,
    saturations: u64,
    transitions: u64,
    cpu_ticks: u64,
    instructions: u64,
    xlate_hits: u64,
    xlate_misses: u64,
}

impl Counts {
    fn add(&mut self, p: &mut Platform) {
        let cpu = p.config().cpu_enabled;
        let transitions = p.supervisor().transitions();
        let snap = p.telemetry_snapshot();
        let ticks = snap.counter("sim.ticks");
        self.adc_clips += snap.counter("adc.clips");
        self.saturations += snap.counter("dsp.filter_saturations");
        self.transitions += transitions;
        if cpu {
            self.cpu_ticks += ticks;
            self.instructions += snap.counter("cpu.instructions");
            self.xlate_hits += snap.counter("cpu.xlate_block_hits");
            self.xlate_misses += snap.counter("cpu.xlate_block_misses");
        }
    }
}

/// A probe platform brought up to lock, then stepped while its tick is
/// timed and its `ChainDrive` words recorded.
struct TickProbe {
    platform: Platform,
    tick_ns: f64,
    drives: Vec<ChainDrive>,
}

fn probe_tick(config: PlatformConfig) -> TickProbe {
    let mut p = Platform::new(config);
    let _ = p.wait_for_ready(2.0);
    let mut drives = Vec::with_capacity(BATCH * BATCHES);
    let mut per_tick = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..BATCH {
            drives.push(p.step());
        }
        per_tick.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    TickProbe {
        platform: p,
        tick_ns: median(&per_tick),
        drives,
    }
}

/// Sub-tick replays, fleet and checkpoint costs, and work counts of a
/// gyro workload.
fn gyro_layers(workload: Workload, seed: u64, checked: &Checked) -> Vec<(&'static str, f64)> {
    let image = firmware::monitor_image().expect("monitor firmware assembles");
    // The tick the workload spends most of its time in: the rate table's
    // CPU-on default platform, else the quiet CPU-off platform (12 of the
    // 14 fault scenarios, every Monte-Carlo lane).
    let config = match workload {
        Workload::RateTableWarm => table_config(&image),
        _ => montecarlo_config(),
    };
    let runs_cpu = matches!(workload, Workload::FaultSweep | Workload::RateTableWarm);
    let mut probe = probe_tick(config.clone());
    let n = probe.drives.len();
    let mut m: Vec<(&'static str, f64)> = vec![("platform.tick_ns", probe.tick_ns)];

    // DACs, fed with the recorded drive words.
    let mk_dac = |cfg: DacConfig, s: u64| Dac::new(DacConfig { seed: s, ..cfg });
    let mut drive_dac = mk_dac(config.drive_dac, config.seed ^ 0x77);
    let mut rebalance_dac = mk_dac(config.rebalance_dac, config.seed ^ 0x88);
    let mut rate_dac = mk_dac(config.rate_dac, config.seed ^ 0x99);
    let vref = config.drive_dac.vref.0;
    let mut forces = vec![(0.0, 0.0); n];
    let dac_ns = replay(n, |i| {
        let d = probe.drives[i];
        forces[i] = (
            drive_dac.write_q15(d.primary).0 / vref,
            rebalance_dac.write_q15(d.secondary).0 / vref,
        );
        let _ = rate_dac.write_q15(d.rate_out);
    });
    let dt = 1.0 / config.dsp_rate.0;

    // MEMS: the gyro driven by the DAC forces.
    let mut gyro = RingGyro::new(config.gyro);
    let mut pick = vec![(0.0, 0.0); n];
    let gyro_ns = replay(n, |i| {
        let (fd, fr) = forces[i];
        let p = gyro.step(fd, fr, dt);
        pick[i] = (p.primary, p.secondary);
    });

    // AFE acquisition: charge amp → AAF → PGA → SAR, both channels.
    let s = config.seed;
    let mut charge = [
        ChargeAmplifier::new(config.charge_gain, 50.0e-6, s ^ 0x11),
        ChargeAmplifier::new(config.charge_gain, 50.0e-6, s ^ 0x22),
    ];
    let mut aaf = [
        AntiAliasFilter::butterworth(config.aaf_corner),
        AntiAliasFilter::butterworth(config.aaf_corner),
    ];
    let mut pga = [
        Pga::new(200_000.0, 100.0e-6, 2.0e-6, 20.0e-6, s ^ 0x33),
        Pga::new(200_000.0, 100.0e-6, 2.0e-6, 20.0e-6, s ^ 0x44),
    ];
    pga[1].set_gain_code(config.secondary_pga_code);
    let mut adc = [
        SarAdc::new(AdcConfig {
            seed: s ^ 0x55,
            ..config.adc
        }),
        SarAdc::new(AdcConfig {
            seed: s ^ 0x66,
            ..config.adc
        }),
    ];
    let mut words = vec![(Q15::ZERO, Q15::ZERO); n];
    let acquire_ns = replay(n, |i| {
        let (pp, ps) = pick[i];
        let mut q = [Q15::ZERO; 2];
        for (c, x) in [pp, ps].into_iter().enumerate() {
            let v = aaf[c].process(charge[c].convert(x), dt);
            q[c] = adc[c].convert_q15(pga[c].process(v, dt));
        }
        words[i] = (q[0], q[1]);
    });

    // DSP chain, from the probe's locked chain state.
    let mut chain = probe.platform.chain().clone();
    let chain_ns = replay(n, |i| {
        let (a, b) = words[i];
        let _ = chain.process(a, b);
    });

    // 8051 monitor slice over a bare system bus.
    let slice_ns = if runs_cpu {
        let mut cpu = Cpu::new();
        cpu.load_code(&image);
        let mut bus = SystemBus::new();
        let mut debt = 0.0;
        replay(n, |_| {
            debt += CPU_CYCLES_PER_TICK;
            while debt >= 1.0 {
                let out = cpu.run_slice(debt, &mut bus);
                debt -= out.executed as f64;
                if !out.stopped {
                    break;
                }
                cpu.reset();
            }
        })
    } else {
        0.0
    };

    // Supervisor: one healthy poll per monitoring period.
    let mut sup = SafetySupervisor::new(config.supervisor.clone());
    let mut tel = Telemetry::new(TelemetryConfig::default());
    let setpoint = probe.platform.chain().config().agc.setpoint;
    let polls = n / 10;
    let poll_ns = replay(polls, |i| {
        let sample = MonitorSample {
            t: i as f64 * 1.0e-3,
            locked: true,
            settled: true,
            envelope: setpoint,
            setpoint,
            adc_clips_delta: 0,
            adc_pri_pp: 1.0,
            adc_pri_mid: 0.0,
            adc_sec_pp: 0.2,
            adc_sec_mid: 0.0,
            rate_dps: 0.0,
            rate_raw: 0,
            closed_loop: false,
            watchdog_resets_delta: 0,
            spi_errors_delta: 0,
            uart_errors_delta: 0,
            jtag_errors_delta: 0,
        };
        sup.poll(&sample, &mut tel);
    });

    let (white_ns, pink_ns) = noise_costs(n);
    let attributed = gyro_ns
        + acquire_ns
        + dac_ns
        + chain_ns
        + if config.cpu_enabled { slice_ns } else { 0.0 }
        + poll_ns / TICKS_PER_POLL;
    m.push(("platform.unattributed_ns", probe.tick_ns - attributed));
    m.push(("mems.gyro_step_ns", gyro_ns));
    m.push(("afe.acquire_ns", acquire_ns));
    m.push(("afe.dac_ns", dac_ns));
    m.push(("noise.white_ns", white_ns * GYRO_WHITE_DRAWS_PER_TICK));
    m.push(("noise.pink_ns", pink_ns * GYRO_PINK_DRAWS_PER_TICK));
    m.push(("dsp.chain_ns", chain_ns));
    m.push(("mcu8051.slice_ns", slice_ns));
    m.push(("supervisor.poll_ns", poll_ns));
    m.push(("platform.ticks", (checked.sim_s * GYRO_TICK_HZ).round()));

    // Checkpoint layer: the warm-start save and restore, on the probe.
    if workload == Workload::RateTableWarm {
        let mut save_ms = Vec::new();
        let mut restore_ms = Vec::new();
        let mut bytes = Vec::new();
        for _ in 0..BATCHES {
            let t = Instant::now();
            bytes = checkpoint::save(&probe.platform);
            save_ms.push(t.elapsed().as_secs_f64() * 1.0e3);
            let t = Instant::now();
            checkpoint::restore_into(&mut probe.platform, &bytes).expect("checkpoint restores");
            restore_ms.push(t.elapsed().as_secs_f64() * 1.0e3);
        }
        m.push(("checkpoint.save_ms", median(&save_ms)));
        m.push(("checkpoint.restore_ms", median(&restore_ms)));
        m.push(("checkpoint.bytes", bytes.len() as f64));
    }

    // Fleet: one 16-lane group stepping in lockstep.
    if workload == Workload::MonteCarloFleet {
        m.push(("platform.fleet_lane_ns", fleet_lane_ns(seed)));
    }

    // Work counts from probe platforms built from the workload's configs.
    let mut counts = Counts::default();
    counts.add(&mut probe.platform);
    if workload == Workload::FaultSweep {
        for case in fault_cases(seed, Scale::Full) {
            let mut p = Platform::new(fault_config(&case, &image));
            p.run(case.t_inject_s + case.duration_s);
            counts.add(&mut p);
        }
    }
    m.push(("afe.adc_clips", counts.adc_clips as f64));
    m.push(("dsp.saturations", counts.saturations as f64));
    m.push(("supervisor.transitions", counts.transitions as f64));
    if counts.cpu_ticks > 0 {
        m.push((
            "mcu8051.instructions_per_tick",
            counts.instructions as f64 / counts.cpu_ticks as f64,
        ));
        let lookups = counts.xlate_hits + counts.xlate_misses;
        m.push((
            "mcu8051.xlate_hit_frac",
            counts.xlate_hits as f64 / lookups.max(1) as f64,
        ));
    }
    m
}

/// ns per Gaussian draw and per flicker draw.
fn noise_costs(n: usize) -> (f64, f64) {
    let mut white = WhiteNoise::new(1.0, 0x5eed);
    let mut pink = PinkNoise::new(1.0, 14, 0x5eed);
    let mut sink = 0.0;
    let white_ns = replay(n, |_| sink += white.sample());
    let pink_ns = replay(n, |_| sink += pink.sample());
    std::hint::black_box(sink);
    (white_ns, pink_ns)
}

/// ns per lane-tick of a 16-lane fleet on the Monte-Carlo config.
fn fleet_lane_ns(seed: u64) -> f64 {
    let base = montecarlo_config();
    let platforms: Vec<Platform> = (0..workloads::MC_LANES as u64)
        .map(|i| {
            let mut cfg = base.clone();
            cfg.seed = derive_seed(seed, i);
            Platform::new(cfg)
        })
        .collect();
    let Ok(mut fleet) = PlatformFleet::new(platforms) else {
        return 0.0;
    };
    let lanes = fleet.lanes() as f64;
    // Warm the lanes past bring-up before timing.
    fleet.step_block(25_000);
    let mut per_lane = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        fleet.step_block(BATCH as u64 / 4);
        per_lane.push(t.elapsed().as_nanos() as f64 / (BATCH as f64 / 4.0) / lanes);
    }
    median(&per_lane)
}

/// Channel workload: front-end step cost, noise draws, output counts.
fn channel_layers(seed: u64, checked: &Checked) -> Vec<(&'static str, f64)> {
    let mut step_ns = Vec::new();
    let mut outputs = 0.0;
    for (i, family) in Family::ALL.into_iter().enumerate() {
        let mut ch = family.channel(derive_seed(seed, i as u64));
        ch.settle(0.02);
        step_ns.push(replay(BATCH, |_| {
            let _ = ch.step();
        }));
        outputs += checked_family_outputs(checked, family, ch.output_rate());
    }
    let (white_ns, pink_ns) = noise_costs(BATCH);
    vec![
        (
            "frontend.step_ns",
            step_ns.iter().sum::<f64>() / step_ns.len() as f64,
        ),
        ("frontend.outputs", outputs),
        ("noise.white_ns", white_ns * CHANNEL_WHITE_DRAWS_PER_TICK),
        ("noise.pink_ns", pink_ns * CHANNEL_PINK_DRAWS_PER_TICK),
    ]
}

/// Decimated outputs a family produced over the workload.
fn checked_family_outputs(checked: &Checked, family: Family, output_rate: f64) -> f64 {
    checked
        .family_sim_s
        .iter()
        .filter(|(f, _)| *f == family)
        .map(|(_, s)| (s * output_rate).floor())
        .sum()
}
