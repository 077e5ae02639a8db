//! The three cooling architectures the paper compares.

use rcs_fluids::Coolant;
use rcs_hydraulics::PumpCurve;
use rcs_thermal::{Chiller, FlowArrangement, PinFinSink, PlateFinSink, PlateHeatExchanger};
use rcs_units::{
    Celsius, Length, Pressure, ThermalCapacityRate, ThermalResistance, Velocity, VolumeFlow,
};

/// How a closed-loop system allocates cold plates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlateGranularity {
    /// "One cooling plate, one (heated) chip" — IBM Aquasar style (§2).
    PerChip,
    /// "One cooling plate, one printed circuit board" — SKIF-Avrora style
    /// (§2).
    PerBoard,
}

/// Forced-air cooling of a module: plate-fin towers in a front-to-back
/// stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AirCooling {
    /// Air temperature entering the module.
    pub inlet: Celsius,
    /// Free-stream velocity over the sinks.
    pub velocity: Velocity,
    /// The per-chip sink.
    pub sink: PlateFinSink,
    /// Fraction of upstream chip heat that preheats downstream chips'
    /// local air (dense boards recirculate; the reason the paper's
    /// measured overheats exceed a lone-sink estimate).
    pub recirculation: f64,
    /// Fans per module.
    pub fan_count: usize,
}

impl AirCooling {
    /// The machine-room default: 25 °C inlet (the paper's reference
    /// ambient), 3 m/s over the sinks, six fans.
    #[must_use]
    pub fn machine_room_default() -> Self {
        Self {
            inlet: Celsius::new(25.0),
            velocity: Velocity::from_meters_per_second(3.0),
            sink: PlateFinSink::air_tower_default(),
            recirculation: 0.45,
            fan_count: 6,
        }
    }
}

/// Closed-loop cold-plate liquid cooling (§2's first alternative).
#[derive(Debug, Clone, PartialEq)]
pub struct ColdPlateLoop {
    /// The (electrically conductive) coolant — water or glycol.
    pub coolant: Coolant,
    /// Plate allocation.
    pub granularity: PlateGranularity,
    /// Number of cooled chips.
    pub chip_count: usize,
    /// Number of boards (for per-board plates and connection counting).
    pub board_count: usize,
    /// Conductive resistance of one plate's contact with its chip(s).
    pub plate_resistance: ThermalResistance,
    /// Supply coolant temperature.
    pub supply: Celsius,
    /// `true` if the loop runs below atmospheric pressure so breaches suck
    /// air in instead of leaking coolant out (§2's negative-pressure
    /// mitigation — at the price of a more complex hydraulic system).
    pub negative_pressure: bool,
}

impl ColdPlateLoop {
    /// Aquasar-style per-chip plates over `chip_count` chips
    /// (8 chips per board).
    #[must_use]
    pub fn per_chip_plates(chip_count: usize) -> Self {
        Self {
            coolant: Coolant::water(),
            granularity: PlateGranularity::PerChip,
            chip_count,
            board_count: chip_count.div_ceil(8),
            plate_resistance: ThermalResistance::from_kelvin_per_watt(0.06),
            supply: Celsius::new(20.0),
            negative_pressure: false,
        }
    }

    /// SKIF-Avrora-style one-plate-per-board over `board_count` boards of
    /// 8 chips.
    #[must_use]
    pub fn per_board_plates(board_count: usize) -> Self {
        Self {
            coolant: Coolant::water(),
            granularity: PlateGranularity::PerBoard,
            chip_count: board_count * 8,
            board_count,
            // a shared plate contacts each chip less intimately
            plate_resistance: ThermalResistance::from_kelvin_per_watt(0.09),
            supply: Celsius::new(20.0),
            negative_pressure: false,
        }
    }

    /// Pressure-tight connections in the loop: two per plate (supply and
    /// return) plus manifold joints — the §2 "large number of
    /// pressure-tight connections".
    #[must_use]
    pub fn pressure_tight_connections(&self) -> usize {
        let plates = match self.granularity {
            PlateGranularity::PerChip => self.chip_count,
            PlateGranularity::PerBoard => self.board_count,
        };
        2 * plates + 2 * self.board_count + 6
    }
}

/// The paper's open-loop immersion bath (§3): boards submerged in
/// dielectric coolant, circulated through a plate heat exchanger by one
/// or two pumps, rejecting heat to a chilled-water loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ImmersionBath {
    /// The dielectric heat-transfer agent.
    pub coolant: Coolant,
    /// Circulation pump curve (per pump).
    pub pump: PumpCurve,
    /// Number of circulation pumps.
    pub pump_count: usize,
    /// `true` if pumps sit inside the bath (SKAT+, §4: fewer components,
    /// no shaft seals, higher reliability).
    pub immersed_pumps: bool,
    /// The oil-to-water plate exchanger in the heat-exchange section.
    pub exchanger: PlateHeatExchanger,
    /// The external chiller supplying secondary cooling water.
    pub chiller: Chiller,
    /// Secondary (water) loop flow through the exchanger.
    pub water_flow: VolumeFlow,
    /// The per-chip pin-fin turbulator sink.
    pub sink: PinFinSink,
    /// Free flow cross-section of the bath across the board stack, which
    /// converts pump flow into approach velocity at the sinks.
    pub bath_cross_section: rcs_units::Area,
}

impl ImmersionBath {
    /// The SKAT computational module's cooling system: SRC dielectric
    /// coolant, one external circulation pump, a 2.5 kW/K-class plate
    /// exchanger and a 20 °C chilled-water supply.
    #[must_use]
    pub fn skat_default() -> Self {
        Self {
            coolant: Coolant::src_dielectric(),
            pump: PumpCurve::new(
                Pressure::kilopascals(80.0),
                VolumeFlow::liters_per_minute(900.0),
            ),
            pump_count: 1,
            immersed_pumps: false,
            exchanger: PlateHeatExchanger::new(
                ThermalCapacityRate::new(1150.0),
                FlowArrangement::Counterflow,
            ),
            chiller: Chiller::new(Celsius::new(20.0), rcs_units::Power::kilowatts(150.0), 4.5),
            water_flow: VolumeFlow::liters_per_minute(120.0),
            sink: PinFinSink::skat_default(),
            bath_cross_section: Length::from_meters(0.42) * Length::from_meters(0.10),
        }
    }

    /// The SKAT+ variant (§4): immersed pumps (two, for redundancy and no
    /// shaft seal), only the heat exchanger left in the heat-exchange
    /// section, and a higher-flow pump for the hotter UltraScale+ parts.
    #[must_use]
    pub fn skat_plus_default() -> Self {
        let mut bath = Self::skat_default();
        bath.pump = PumpCurve::new(
            Pressure::kilopascals(95.0),
            VolumeFlow::liters_per_minute(1100.0),
        );
        bath.pump_count = 2;
        bath.immersed_pumps = true;
        bath.exchanger = PlateHeatExchanger::new(
            ThermalCapacityRate::new(1500.0),
            FlowArrangement::Counterflow,
        );
        bath
    }

    /// Pressure-tight connections: the bath itself needs only the two
    /// secondary-loop fittings plus pump unions — "simplicity of manifolds
    /// and liquid connectors" (§2).
    #[must_use]
    pub fn pressure_tight_connections(&self) -> usize {
        let pump_unions = if self.immersed_pumps {
            0
        } else {
            2 * self.pump_count
        };
        2 + pump_unions
    }

    /// Approach velocity at the board sinks for a given circulated flow.
    #[must_use]
    pub fn approach_velocity(&self, flow: VolumeFlow) -> Velocity {
        flow / self.bath_cross_section
    }
}

/// Any of the three architectures, for APIs that compare them.
#[derive(Debug, Clone, PartialEq)]
pub enum CoolingArchitecture {
    /// Forced air.
    Air(AirCooling),
    /// Closed-loop cold plates.
    ColdPlate(ColdPlateLoop),
    /// Open-loop immersion.
    Immersion(ImmersionBath),
}

impl CoolingArchitecture {
    /// Short human-readable name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Air(_) => "air cooling",
            Self::ColdPlate(_) => "closed-loop cold plates",
            Self::Immersion(_) => "open-loop immersion",
        }
    }

    /// Number of pressure-tight liquid connections (zero for air).
    #[must_use]
    pub fn pressure_tight_connections(&self) -> usize {
        match self {
            Self::Air(_) => 0,
            Self::ColdPlate(c) => c.pressure_tight_connections(),
            Self::Immersion(i) => i.pressure_tight_connections(),
        }
    }

    /// `true` if a coolant breach can destroy electronics.
    #[must_use]
    pub(crate) fn conductive_leak_possible(&self) -> bool {
        match self {
            Self::Air(_) => false,
            Self::ColdPlate(c) => c.coolant.safety().conductive_leak_hazard && !c.negative_pressure,
            Self::Immersion(i) => i.coolant.safety().conductive_leak_hazard,
        }
    }

    /// `true` if the design can condense room moisture onto cold surfaces
    /// in a standard machine room (24 °C, 55 % RH) — §2's dew-point
    /// problem, via the Magnus psychrometric model.
    #[must_use]
    pub fn dew_point_exposure(&self) -> bool {
        match self {
            // cold plates sit in open air at the coolant supply temperature
            Self::ColdPlate(c) => {
                rcs_fluids::humidity::RoomAir::machine_room_default().condenses_on(c.supply)
            }
            // the immersion bath's cold surfaces are inside the oil volume
            Self::Immersion(_) | Self::Air(_) => false,
        }
    }
}

impl core::fmt::Display for CoolingArchitecture {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_counts_tell_the_papers_story() {
        // 96 chips: per-chip plates need hundreds of pressure-tight
        // connections; immersion needs a handful.
        let per_chip = ColdPlateLoop::per_chip_plates(96);
        let per_board = ColdPlateLoop::per_board_plates(12);
        let bath = ImmersionBath::skat_default();
        assert!(per_chip.pressure_tight_connections() > 200);
        assert!(per_board.pressure_tight_connections() < per_chip.pressure_tight_connections());
        assert!(bath.pressure_tight_connections() <= 6);
    }

    #[test]
    fn skat_plus_sheds_external_connections() {
        let skat = ImmersionBath::skat_default();
        let plus = ImmersionBath::skat_plus_default();
        assert!(plus.pressure_tight_connections() < skat.pressure_tight_connections());
        assert!(plus.immersed_pumps);
        assert_eq!(plus.pump_count, 2);
    }

    #[test]
    fn leak_and_dew_point_exposure() {
        let water_plates = CoolingArchitecture::ColdPlate(ColdPlateLoop::per_chip_plates(96));
        assert!(water_plates.conductive_leak_possible());
        // a 20 °C supply stays above the room dew point...
        assert!(!water_plates.dew_point_exposure());
        // ...but chasing performance with colder water crosses it (§2)
        let mut cold_supply = ColdPlateLoop::per_chip_plates(96);
        cold_supply.supply = Celsius::new(12.0);
        assert!(CoolingArchitecture::ColdPlate(cold_supply).dew_point_exposure());

        let bath = CoolingArchitecture::Immersion(ImmersionBath::skat_default());
        assert!(!bath.conductive_leak_possible());
        assert!(!bath.dew_point_exposure());

        let mut negative = ColdPlateLoop::per_chip_plates(96);
        negative.negative_pressure = true;
        assert!(!CoolingArchitecture::ColdPlate(negative).conductive_leak_possible());
    }

    #[test]
    fn approach_velocity_scales_with_flow() {
        let bath = ImmersionBath::skat_default();
        let slow = bath.approach_velocity(VolumeFlow::liters_per_minute(300.0));
        let fast = bath.approach_velocity(VolumeFlow::liters_per_minute(600.0));
        assert!((fast.meters_per_second() / slow.meters_per_second() - 2.0).abs() < 1e-9);
        // SKAT-scale flow gives a reasonable board-channel velocity
        assert!(slow.meters_per_second() > 0.05 && fast.meters_per_second() < 1.0);
    }
}
