//! Industrial chiller supplying the secondary cooling water.
//!
//! "As the secondary cooling liquid, it is possible to use water cooled by
//! an industrial chiller. The chiller can be placed outside the server
//! room" (§3). The model is deliberately simple: a temperature setpoint
//! held up to a rated capacity, a linear supply-temperature rise under
//! overload, and a coefficient of performance for the electrical overhead.

use rcs_units::{Celsius, Power, TempDelta};

/// An industrial water chiller.
///
/// # Examples
///
/// ```
/// use rcs_thermal::Chiller;
/// use rcs_units::{Celsius, Power};
///
/// let chiller = Chiller::new(Celsius::new(20.0), Power::kilowatts(150.0), 4.0);
/// // At SKAT rack load the setpoint holds:
/// assert_eq!(chiller.supply_temperature(Power::kilowatts(105.0)),
///            Celsius::new(20.0));
/// // Cooling 105 kW costs ~26 kW of electricity at COP 4:
/// assert!((chiller.electrical_power(Power::kilowatts(105.0)).as_kilowatts()
///          - 26.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chiller {
    setpoint: Celsius,
    capacity: Power,
    cop: f64,
}

impl Chiller {
    /// Creates a chiller with a supply setpoint, rated cooling capacity and
    /// coefficient of performance.
    ///
    /// # Panics
    ///
    /// Panics if capacity or COP is not positive.
    #[must_use]
    pub fn new(setpoint: Celsius, capacity: Power, cop: f64) -> Self {
        assert!(capacity.watts() > 0.0, "chiller capacity must be positive");
        assert!(cop > 0.0, "chiller COP must be positive");
        Self {
            setpoint,
            capacity,
            cop,
        }
    }

    /// Supply-water setpoint.
    #[must_use]
    pub fn setpoint(&self) -> Celsius {
        self.setpoint
    }

    /// Coefficient of performance (heat moved per electrical watt).
    #[must_use]
    pub fn cop(&self) -> f64 {
        self.cop
    }

    /// Supply-water temperature at the given heat load.
    ///
    /// Holds the setpoint up to rated capacity; past it, the supply
    /// temperature rises 1 K for every additional 10 % of rated load (the
    /// compressor is maxed out and the loop equilibrates hotter).
    #[must_use]
    pub fn supply_temperature(&self, load: Power) -> Celsius {
        if load <= self.capacity {
            self.setpoint
        } else {
            let overload_fraction = (load - self.capacity) / self.capacity;
            self.setpoint + TempDelta::from_kelvins(10.0 * overload_fraction)
        }
    }

    /// `true` if the load is within rated capacity.
    #[must_use]
    pub fn within_capacity(&self, load: Power) -> bool {
        load <= self.capacity
    }

    /// A degraded copy with its rated capacity scaled by
    /// `capacity_factor` (refrigerant loss, a failed compressor stage).
    ///
    /// The setpoint and COP are untouched: a derated chiller still
    /// *tries* to hold its setpoint, it just overloads — and therefore
    /// supplies warmer water — at a lower heat load. The factor is
    /// clamped to a small positive floor to keep the overload model
    /// well-defined.
    #[must_use]
    pub fn derated(&self, capacity_factor: f64) -> Self {
        Self {
            setpoint: self.setpoint,
            capacity: Power::from_watts(self.capacity.watts() * capacity_factor.max(1e-3)),
            cop: self.cop,
        }
    }

    /// A copy with the supply setpoint shifted by `offset` (a drifting
    /// or mis-commanded setpoint — the controller fault, as opposed to
    /// the compressor fault modeled by [`Chiller::derated`]).
    #[must_use]
    pub fn with_setpoint_offset(&self, offset: TempDelta) -> Self {
        Self {
            setpoint: self.setpoint + offset,
            capacity: self.capacity,
            cop: self.cop,
        }
    }

    /// Electrical power drawn to move the given heat load.
    #[must_use]
    pub fn electrical_power(&self, load: Power) -> Power {
        Power::from_watts(load.watts().max(0.0) / self.cop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chiller() -> Chiller {
        Chiller::new(Celsius::new(20.0), Power::kilowatts(100.0), 4.0)
    }

    #[test]
    fn holds_setpoint_within_capacity() {
        let c = chiller();
        assert_eq!(
            c.supply_temperature(Power::kilowatts(99.0)),
            Celsius::new(20.0)
        );
        assert_eq!(
            c.supply_temperature(Power::kilowatts(100.0)),
            Celsius::new(20.0)
        );
        assert!(c.within_capacity(Power::kilowatts(100.0)));
    }

    #[test]
    fn overload_raises_supply_temperature() {
        let c = chiller();
        let t = c.supply_temperature(Power::kilowatts(120.0));
        // 20 % overload -> +2 K
        assert!((t.degrees() - 22.0).abs() < 1e-9);
        assert!(!c.within_capacity(Power::kilowatts(120.0)));
    }

    #[test]
    fn electrical_power_scales_with_load() {
        let c = chiller();
        assert!((c.electrical_power(Power::kilowatts(80.0)).as_kilowatts() - 20.0).abs() < 1e-12);
        assert_eq!(c.electrical_power(Power::from_watts(-5.0)).watts(), 0.0);
    }

    #[test]
    #[should_panic(expected = "COP must be positive")]
    fn zero_cop_panics() {
        let _ = Chiller::new(Celsius::new(20.0), Power::kilowatts(1.0), 0.0);
    }

    #[test]
    fn derated_chiller_overloads_sooner() {
        let c = chiller();
        let half = c.derated(0.5);
        assert_eq!(half.capacity, Power::kilowatts(50.0));
        assert_eq!(half.setpoint(), c.setpoint());
        // the same 80 kW load is within capacity when healthy, an
        // overload (warmer supply) when derated
        assert_eq!(c.supply_temperature(Power::kilowatts(80.0)), c.setpoint());
        assert!(half.supply_temperature(Power::kilowatts(80.0)) > c.setpoint());
        // the floor keeps a "fully failed" chiller well-defined
        assert!(c.derated(0.0).capacity.watts() > 0.0);
    }

    #[test]
    fn setpoint_offset_shifts_supply() {
        let c = chiller().with_setpoint_offset(TempDelta::from_kelvins(7.0));
        assert_eq!(c.setpoint(), Celsius::new(27.0));
        assert_eq!(
            c.supply_temperature(Power::kilowatts(10.0)),
            Celsius::new(27.0)
        );
    }
}
