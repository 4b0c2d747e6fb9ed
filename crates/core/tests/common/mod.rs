//! Fixtures shared by the campaign integration tests.

use ascp_core::campaign::{Scenario, ScenarioSpec};
use ascp_core::frontend::{ChannelConfig, ChannelMeasurement, ChannelScenario, SensorChannel};
use ascp_mems::frontend::WireFault;
use ascp_mems::pressure::MapSensorFrontEnd;
use std::sync::Arc;

/// A MAP-sensor channel scenario performing `measurement`.
pub fn map_scenario(name: &str, measurement: ChannelMeasurement) -> ChannelScenario {
    ChannelScenario {
        name: name.into(),
        factory: Arc::new(|seed| {
            let mut cfg = ChannelConfig::new("map", seed);
            cfg.adc_vref = 5.0;
            SensorChannel::new(cfg, Box::new(MapSensorFrontEnd::automotive(seed)))
        }),
        measurement,
        seed: 7,
    }
}

/// `specs` followed by two cheap MAP-channel scenarios — a static
/// transfer and a not-connected fault that is detected and recovers —
/// as one mixed gyro + channel campaign.
pub fn with_channels(specs: Vec<ScenarioSpec>) -> Vec<Scenario> {
    let transfer = map_scenario(
        "map/transfer",
        ChannelMeasurement::StaticTransfer {
            points: vec![50.0, 150.0, 250.0],
            avg: 16,
        },
    );
    let fault = map_scenario(
        "map/fault/nc",
        ChannelMeasurement::WireFaultResponse {
            fault: WireFault::NotConnected,
            at_s: 0.05,
            duration_s: 0.05,
        },
    );
    specs
        .into_iter()
        .map(Scenario::from)
        .chain([transfer, fault].map(Scenario::from))
        .collect()
}
