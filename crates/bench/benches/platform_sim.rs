//! Benchmarks of the platform co-simulation and 8051 subsystem: how many
//! simulated DSP ticks / CPU instructions per wall second the reproduction
//! sustains (the practical cost of every table/figure run).
//!
//! Flags: `--short` shrinks the measurement protocol (gate/CI smoke);
//! `--check <path>` compares the run against a committed
//! `BENCH_platform_sim.json` and exits non-zero if any benchmark's min
//! ns/iter regressed by more than 50% (noise-tolerant perf guard). Full
//! (non-`--short`) runs rewrite `BENCH_platform_sim.json` at the
//! repository root; smoke runs only read it.

use ascp_bench::harness::{
    bench, black_box, check_against, repo_root_path, write_bench_json, Args, BenchStats,
};
use ascp_core::platform::{Platform, PlatformConfig, PlatformFleet};
use ascp_core::system::{SystemModel, SystemModelConfig};
use ascp_mcu8051::asm::assemble;
use ascp_mcu8051::cpu::{Cpu, NullBus};
use ascp_mems::gyro::{GyroParams, RingGyro};
use ascp_mems::resonator::Resonator;
use ascp_sim::telemetry::TelemetryConfig;

/// Benchmarks the batched translation-cache replay on `cpu`, reporting
/// nanoseconds **per retired instruction** (the raw harness numbers are
/// per `run_cycles` call). The firmware loops are periodic, so the
/// instructions retired per fixed-cycle chunk are constant once the
/// warm-up chunk has reached steady state — measured once, then used to
/// scale the per-call stats.
fn bench_replay(name: &str, cpu: &mut Cpu, bus: &mut NullBus) -> BenchStats {
    const CHUNK_CYCLES: u64 = 50_000;
    cpu.run_cycles(CHUNK_CYCLES, bus); // warm the cache, reach steady state
    let warm = cpu.instructions();
    cpu.run_cycles(CHUNK_CYCLES, bus);
    let per_chunk = (cpu.instructions() - warm).max(1);
    let raw = bench(&format!("{name}/chunk_50k"), || {
        cpu.run_cycles(CHUNK_CYCLES, bus)
    });
    #[allow(clippy::cast_precision_loss)]
    let n = per_chunk as f64;
    let stats = BenchStats {
        name: name.to_owned(),
        iters_per_sample: raw.iters_per_sample.saturating_mul(per_chunk),
        ns_per_iter: raw.ns_per_iter / n,
        min_ns_per_iter: raw.min_ns_per_iter / n,
    };
    println!("{stats}");
    stats
}

fn main() {
    println!("== platform_sim ==");
    let mut all: Vec<BenchStats> = Vec::new();

    let mut res = Resonator::new(15_000.0, 2_000.0);
    all.push(bench("mems/resonator_zoh_step", || {
        res.step(black_box(0.1), 1.0e-6);
    }));
    let mut res = Resonator::new(15_000.0, 2_000.0);
    all.push(bench("mems/resonator_rk4_step", || {
        res.step_rk4(black_box(0.1), 1.0e-6);
    }));

    let mut gyro = RingGyro::new(GyroParams::default());
    all.push(bench("mems/gyro_step", || {
        gyro.step(black_box(0.1), 0.0, 1.0e-6)
    }));

    let mut model = SystemModel::new(SystemModelConfig::default());
    all.push(bench("system_model/float_step", || model.step()));

    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    all.push(bench("platform/dsp_tick_no_cpu", || p.step()));

    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    all.push(bench("platform/block_1k_ticks_no_cpu", || {
        p.step_block(1000)
    }));

    let cfg = PlatformConfig::builder()
        .cpu_enabled(true)
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    all.push(bench("platform/dsp_tick_with_cpu", || p.step()));

    // Telemetry overhead: the enabled (default) path vs the no-op path.
    // The acceptance bar for the observability layer is <= 5% on the
    // default sim loop; sampled profiling (1 in 64 ticks) and scrape-at-
    // monitoring-cadence keep the hot path nearly free.
    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid");
    let mut p_on = Platform::new(cfg);
    let on = bench("platform/tick_telemetry_on", || p_on.step());

    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .telemetry(TelemetryConfig::disabled())
        .build()
        .expect("valid");
    let mut p_off = Platform::new(cfg);
    let off = bench("platform/tick_telemetry_off", || p_off.step());

    // Compare minima: the fastest sample of each is the least polluted by
    // scheduler noise, which otherwise swamps a few-ns-per-tick delta.
    let overhead_pct = (on.min_ns_per_iter - off.min_ns_per_iter) / off.min_ns_per_iter * 100.0;
    println!(
        "telemetry overhead: {overhead_pct:+.2}% per tick ({} <= 5% budget)",
        if overhead_pct <= 5.0 {
            "within"
        } else {
            "OVER"
        }
    );
    all.push(on);

    // Full observability: span tracing attached *and* the flight recorder
    // armed (but never triggered — the config is healthy). This is the
    // per-tick cost of running a campaign with `--tracing` + recorder on:
    // one `Option` branch plus a handful of `f64` stores for the ring.
    // Acceptance bar: <= 5% versus the plain default tick.
    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .recorder(ascp_sim::telemetry::RecorderConfig::fault_triggers(2048))
        .build()
        .expect("valid");
    let mut p_obs = Platform::new(cfg);
    let collector = ascp_sim::telemetry::trace::TraceCollector::new();
    p_obs.attach_trace(collector.recorder(1));
    let observed = bench("platform/dsp_tick_observed", || p_obs.step());
    let plain = all
        .iter()
        .find(|s| s.name == "platform/dsp_tick_no_cpu")
        .expect("baseline bench ran")
        .clone();
    let obs_pct =
        (observed.min_ns_per_iter - plain.min_ns_per_iter) / plain.min_ns_per_iter * 100.0;
    println!(
        "trace+recorder overhead: {obs_pct:+.2}% per tick ({} <= 5% budget)",
        if obs_pct <= 5.0 { "within" } else { "OVER" }
    );
    all.push(observed);
    all.push(off);

    // Fault-injection + supervisor overhead: with an empty fault plan the
    // injection hook is one branch per tick, and the supervisor runs only
    // at the 1 kHz monitoring cadence. Acceptance bar: <= 2% on the
    // default sim loop versus the supervisor disabled outright.
    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid");
    let mut p_sup = Platform::new(cfg);
    let sup_on = bench("platform/tick_supervisor_on", || p_sup.step());

    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .supervisor_enabled(false)
        .build()
        .expect("valid");
    let mut p_nosup = Platform::new(cfg);
    let sup_off = bench("platform/tick_supervisor_off", || p_nosup.step());

    let sup_pct =
        (sup_on.min_ns_per_iter - sup_off.min_ns_per_iter) / sup_off.min_ns_per_iter * 100.0;
    println!(
        "fault/supervisor overhead: {sup_pct:+.2}% per tick ({} <= 2% budget)",
        if sup_pct <= 2.0 { "within" } else { "OVER" }
    );
    all.push(sup_on);
    all.push(sup_off);

    // Batched fleet throughput: N platforms stepped in lockstep through
    // the structure-of-arrays lane kernels versus the same N stepped
    // independently — the hot path under the `monte_carlo` campaign axis.
    // The original acceptance bar was > 4x aggregate ticks/sec at
    // N = 8–16; the honest measured result on this class of host is
    // ~2x (see DESIGN.md §14: the per-lane Gaussian noise draws are
    // inherently serial under the bit-exactness contract and dominate
    // the tick), so the print reports against the 4x bar truthfully
    // rather than moving the goalposts.
    const FLEET_N: usize = 16;
    let make_members = || -> Vec<Platform> {
        (0..FLEET_N)
            .map(|i| {
                Platform::new(
                    PlatformConfig::builder()
                        .cpu_enabled(false)
                        .seed(0x5eed_0000 + i as u64)
                        .build()
                        .expect("valid"),
                )
            })
            .collect()
    };
    let mut independents = make_members();
    let scalar_x16 = bench("platform/fleet_scalar_x16", || {
        for p in &mut independents {
            p.step();
        }
    });
    let mut fleet = PlatformFleet::new(make_members()).expect("fleet eligible");
    let fleet_x16 = bench("platform/fleet_tick_x16", || fleet.step());
    let fleet_speedup = scalar_x16.min_ns_per_iter / fleet_x16.min_ns_per_iter;
    println!(
        "fleet speedup at N={FLEET_N}: {fleet_speedup:.2}x aggregate ({} > 4x bar)",
        if fleet_speedup > 4.0 {
            "meets"
        } else {
            "MISSES"
        }
    );
    all.push(scalar_x16);
    all.push(fleet_x16);

    // ISS throughput. The headline `mcu8051/instruction_step` number is
    // the batched translation-cache replay (`Cpu::run_cycles` over hot
    // cached blocks), normalised per retired instruction; the uncached
    // comparator runs the same firmware through the per-step fetch/decode
    // interpreter. The acceptance bar (DESIGN.md §15) is >= 2x per
    // instruction. `block_replay` is the same path over a denser
    // compensation-style loop (MOVC table lookup, MUL scaling, nested
    // DJNZ) — closer to the monitor firmware's arithmetic mix.
    let rom = assemble("start: mov a, #1\nadd a, #2\nmov r0, a\ndjnz r0, start\nsjmp start\n")
        .expect("assembles");
    let mut bus = NullBus;
    let mut cached = Cpu::new();
    cached.load_code(&rom);
    let step_cached = bench_replay("mcu8051/instruction_step", &mut cached, &mut bus);
    let mut uncached = Cpu::new();
    uncached.load_code(&rom);
    uncached.set_xlate_enabled(false);
    let step_uncached = bench("mcu8051/instruction_step_uncached", || {
        uncached.step(&mut bus)
    });
    let iss_speedup = step_uncached.min_ns_per_iter / step_cached.min_ns_per_iter;
    println!(
        "translation-cache speedup: {iss_speedup:.2}x per instruction ({} >= 2x bar)",
        if iss_speedup >= 2.0 {
            "meets"
        } else {
            "MISSES"
        }
    );
    let dense = assemble(concat!(
        "start:\n",
        "    mov dptr, #table\n",
        "    mov a, r3\n",
        "    anl a, #0x0f\n",
        "    movc a, @a+dptr\n",
        "    mov r2, a\n",
        "    mov a, r4\n",
        "    mov b, #37\n",
        "    mul ab\n",
        "    add a, r2\n",
        "    mov r4, a\n",
        "    inc r3\n",
        "    mov r0, #8\n",
        "inner:\n",
        "    rlc a\n",
        "    xrl a, r2\n",
        "    djnz r0, inner\n",
        "    djnz r5, start\n",
        "    mov r5, #200\n",
        "    sjmp start\n",
        "table:\n",
        "    db 3, 14, 15, 92, 65, 35, 89, 79, 32, 38, 46, 26, 43, 38, 32, 7\n",
    ))
    .expect("assembles");
    let mut dense_cpu = Cpu::new();
    dense_cpu.load_code(&dense);
    let block_replay = bench_replay("mcu8051/block_replay", &mut dense_cpu, &mut bus);
    all.push(step_cached);
    all.push(step_uncached);
    all.push(block_replay);

    // Perf guard first (against the committed baseline), then rewrite the
    // trajectory file with this run. Short (smoke) runs never rewrite the
    // baseline: their shrunken protocol is too noisy to commit, and the
    // gate would otherwise dirty the checked-in file on every run.
    let args = Args::parse("platform_sim");
    let regressed = args.check.map(|path| {
        check_against(&path, &all, 0.5)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()))
    });
    if !args.short {
        write_bench_json(repo_root_path("BENCH_platform_sim.json"), &all)
            .expect("write bench trajectory");
    }
    if let Some(regressed) = regressed {
        assert!(
            regressed.is_empty(),
            "perf smoke failed — regressed >50%: {regressed:?}"
        );
        println!("perf check passed (no benchmark regressed >50%)");
    }
}
