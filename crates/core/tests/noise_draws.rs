//! Gaussian draws per tick — the deterministic work counter behind the
//! noise layer's cost. A gyro tick draws 11 white and 2 flicker samples,
//! a sensor-channel sample 5 white and 1 flicker; per-layer cost models
//! weight the measured ns/draw by these counts.

use ascp_core::frontend::{ChannelConfig, SensorChannel};
use ascp_core::platform::{Platform, PlatformConfig};
use ascp_mems::pressure::MapSensorFrontEnd;
use ascp_sim::noise::DrawCount;

const TICKS: u64 = 5_000;

#[test]
fn quiet_platform_draws_11_white_and_2_pink_per_tick() {
    let config = PlatformConfig::builder()
        .quiet()
        .cpu_enabled(false)
        .seed(7)
        .build()
        .expect("valid config");
    let mut p = Platform::new(config);
    p.step_block(1_000);
    let before = p.noise_draws();
    p.step_block(TICKS);
    let after = p.noise_draws();
    assert_eq!(
        DrawCount {
            white: after.white - before.white,
            pink: after.pink - before.pink,
        },
        DrawCount {
            white: 11 * TICKS,
            pink: 2 * TICKS,
        }
    );
}

#[test]
fn map_channel_draws_5_white_and_1_pink_per_sample() {
    let mut cfg = ChannelConfig::new("map", 7);
    cfg.adc_vref = 5.0;
    let mut ch = SensorChannel::new(cfg, Box::new(MapSensorFrontEnd::automotive(7)));
    for _ in 0..1_000 {
        ch.step();
    }
    let before = ch.noise_draws();
    for _ in 0..TICKS {
        ch.step();
    }
    let after = ch.noise_draws();
    assert_eq!(
        DrawCount {
            white: after.white - before.white,
            pink: after.pink - before.pink,
        },
        DrawCount {
            white: 5 * TICKS,
            pink: TICKS,
        }
    );
}
