//! Failure classes of each cooling architecture.
//!
//! §2's qualitative comparison made quantitative: every architecture gets
//! a list of failure classes with annual rates and repair consequences,
//! derived from its component counts. The immersion architecture's rates
//! omit the conductive-leak and condensation classes entirely — the
//! paper's core reliability argument — while keeping pump wear, chiller
//! trips and sensor faults.

use crate::designs::CoolingArchitecture;

/// Consequence of one failure event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Consequence {
    /// Repair downtime in hours (module offline).
    pub downtime_hours: f64,
    /// Probability the event also destroys hardware (boards/chips).
    pub hardware_loss_probability: f64,
}

/// One failure class with its annual rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureClass {
    /// Descriptive name (stable across releases; used by experiments).
    pub name: String,
    /// Expected events per module-year.
    pub rate_per_year: f64,
    /// What one event costs.
    pub consequence: Consequence,
}

/// Annual leak probability per pressure-tight connection.
///
/// Industry fittings leak rarely, but §2's point is that the count
/// multiplies: hundreds of fittings make leaks an annual affair.
pub(crate) const LEAK_RATE_PER_CONNECTION_YEAR: f64 = 0.004;

/// Annual failure rate of one external (shaft-sealed) pump.
pub(crate) const EXTERNAL_PUMP_RATE_YEAR: f64 = 0.10;

/// Annual failure rate of one immersed (seal-less, oil-lubricated) pump.
pub(crate) const IMMERSED_PUMP_RATE_YEAR: f64 = 0.05;

/// Annual rate of fan failures per fan.
pub(crate) const FAN_RATE_YEAR: f64 = 0.05;

/// Builds the failure-class list of an architecture.
#[must_use]
pub fn failure_classes(arch: &CoolingArchitecture) -> Vec<FailureClass> {
    let mut classes = Vec::new();

    // Common to everything with a chiller or machine-room support.
    classes.push(FailureClass {
        name: "facility cooling trip (chiller/CRAC)".into(),
        rate_per_year: 0.20,
        consequence: Consequence {
            downtime_hours: 4.0,
            hardware_loss_probability: 0.0,
        },
    });
    classes.push(FailureClass {
        name: "sensor or control fault".into(),
        rate_per_year: 0.15,
        consequence: Consequence {
            downtime_hours: 2.0,
            hardware_loss_probability: 0.0,
        },
    });

    match arch {
        CoolingArchitecture::Air(air) => {
            classes.push(FailureClass {
                name: "fan failure".into(),
                rate_per_year: FAN_RATE_YEAR * air.fan_count as f64,
                consequence: Consequence {
                    downtime_hours: 1.0,
                    hardware_loss_probability: 0.01,
                },
            });
            classes.push(FailureClass {
                name: "dust fouling of heat sinks".into(),
                rate_per_year: 0.5,
                consequence: Consequence {
                    downtime_hours: 3.0,
                    hardware_loss_probability: 0.0,
                },
            });
        }
        CoolingArchitecture::ColdPlate(loop_) => {
            let connections = loop_.pressure_tight_connections() as f64;
            if arch.conductive_leak_possible() {
                classes.push(FailureClass {
                    name: "conductive coolant leak onto electronics".into(),
                    rate_per_year: LEAK_RATE_PER_CONNECTION_YEAR * connections,
                    consequence: Consequence {
                        downtime_hours: 72.0,
                        hardware_loss_probability: 0.5,
                    },
                });
            } else {
                // negative pressure: breaches admit air instead
                classes.push(FailureClass {
                    name: "air ingress (negative-pressure breach)".into(),
                    rate_per_year: LEAK_RATE_PER_CONNECTION_YEAR * connections,
                    consequence: Consequence {
                        downtime_hours: 8.0,
                        hardware_loss_probability: 0.0,
                    },
                });
            }
            if arch.dew_point_exposure() {
                classes.push(FailureClass {
                    name: "dew-point condensation on cold plates".into(),
                    rate_per_year: 0.8,
                    consequence: Consequence {
                        downtime_hours: 24.0,
                        hardware_loss_probability: 0.2,
                    },
                });
            }
            classes.push(FailureClass {
                name: "external pump failure".into(),
                rate_per_year: EXTERNAL_PUMP_RATE_YEAR,
                consequence: Consequence {
                    downtime_hours: 6.0,
                    hardware_loss_probability: 0.0,
                },
            });
            classes.push(FailureClass {
                name: "quick-disconnect wear during board service".into(),
                rate_per_year: 0.3,
                consequence: Consequence {
                    downtime_hours: 2.0,
                    hardware_loss_probability: 0.02,
                },
            });
        }
        CoolingArchitecture::Immersion(bath) => {
            let per_pump = if bath.immersed_pumps {
                IMMERSED_PUMP_RATE_YEAR
            } else {
                EXTERNAL_PUMP_RATE_YEAR
            };
            // redundant pumps: an outage needs all of them down; approximate
            // the class rate as rate^n per year
            let pump_outage_rate = per_pump.powi(bath.pump_count as i32);
            classes.push(FailureClass {
                name: "circulation pump outage".into(),
                rate_per_year: pump_outage_rate,
                consequence: Consequence {
                    downtime_hours: 6.0,
                    hardware_loss_probability: 0.0,
                },
            });
            classes.push(FailureClass {
                name: "secondary water fitting leak (outside the bath)".into(),
                rate_per_year: LEAK_RATE_PER_CONNECTION_YEAR
                    * bath.pressure_tight_connections() as f64,
                consequence: Consequence {
                    downtime_hours: 4.0,
                    hardware_loss_probability: 0.0,
                },
            });
            classes.push(FailureClass {
                name: "coolant degradation / top-up service".into(),
                rate_per_year: 0.25,
                consequence: Consequence {
                    downtime_hours: 3.0,
                    hardware_loss_probability: 0.0,
                },
            });
        }
    }

    classes
}

/// Expected downtime hours per module-year (rate-weighted sum).
#[must_use]
pub fn expected_annual_downtime_hours(classes: &[FailureClass]) -> f64 {
    classes
        .iter()
        .map(|c| c.rate_per_year * c.consequence.downtime_hours)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{AirCooling, ColdPlateLoop, ImmersionBath};

    fn air() -> CoolingArchitecture {
        CoolingArchitecture::Air(AirCooling::machine_room_default())
    }

    fn cold_plate() -> CoolingArchitecture {
        CoolingArchitecture::ColdPlate(ColdPlateLoop::per_chip_plates(96))
    }

    fn immersion() -> CoolingArchitecture {
        CoolingArchitecture::Immersion(ImmersionBath::skat_default())
    }

    #[test]
    fn immersion_has_no_conductive_leak_class() {
        let names: Vec<String> = failure_classes(&immersion())
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert!(!names.iter().any(|n| n.contains("onto electronics")));
        assert!(!names.iter().any(|n| n.contains("dew-point")));
    }

    #[test]
    fn cold_plates_carry_the_leak_burden() {
        let classes = failure_classes(&cold_plate());
        let leak = classes
            .iter()
            .find(|c| c.name.contains("onto electronics"))
            .expect("leak class present");
        // 96 chips -> 222 connections -> ~0.9 leaks/year
        assert!(leak.rate_per_year > 0.5, "rate = {}", leak.rate_per_year);
        assert!(leak.consequence.hardware_loss_probability > 0.0);
    }

    #[test]
    fn negative_pressure_removes_hardware_loss() {
        let mut loop_ = ColdPlateLoop::per_chip_plates(96);
        loop_.negative_pressure = true;
        let classes = failure_classes(&CoolingArchitecture::ColdPlate(loop_));
        assert!(classes.iter().any(|c| c.name.contains("air ingress")));
        assert!(!classes.iter().any(|c| c.name.contains("onto electronics")));
    }

    #[test]
    fn immersion_downtime_beats_cold_plates_and_hardware_losses_are_nil() {
        let im = failure_classes(&immersion());
        let cp = failure_classes(&cold_plate());
        assert!(
            expected_annual_downtime_hours(&im) < expected_annual_downtime_hours(&cp),
            "immersion {} h vs cold plate {} h",
            expected_annual_downtime_hours(&im),
            expected_annual_downtime_hours(&cp)
        );
        // Expected hardware-loss events per module-year.
        let losses = |cs: &[FailureClass]| -> f64 {
            cs.iter()
                .map(|c| c.rate_per_year * c.consequence.hardware_loss_probability)
                .sum()
        };
        assert_eq!(losses(&im), 0.0);
        assert!(losses(&cp) > 0.2);
    }

    #[test]
    fn skat_plus_redundant_immersed_pumps_cut_the_outage_rate() {
        let skat = failure_classes(&CoolingArchitecture::Immersion(
            ImmersionBath::skat_default(),
        ));
        let plus = failure_classes(&CoolingArchitecture::Immersion(
            ImmersionBath::skat_plus_default(),
        ));
        let rate = |cs: &[FailureClass]| {
            cs.iter()
                .find(|c| c.name.contains("pump outage"))
                .unwrap()
                .rate_per_year
        };
        assert!(rate(&plus) < 0.1 * rate(&skat));
    }

    #[test]
    fn air_cooling_wears_fans_and_clogs() {
        let classes = failure_classes(&air());
        assert!(classes.iter().any(|c| c.name.contains("fan")));
        assert!(classes.iter().any(|c| c.name.contains("dust")));
    }
}
