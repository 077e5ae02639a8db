//! Hydraulic branch elements: pipes, minor losses, valves and pumps.

use rcs_fluids::FluidState;
use rcs_units::{Length, Pressure, VolumeFlow};

/// A straight circular pipe with Darcy-Weisbach friction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pipe {
    /// Pipe length.
    pub length: Length,
    /// Internal diameter.
    pub diameter: Length,
    /// Absolute wall roughness (commercial steel ≈ 45 µm, smooth plastic
    /// and drawn copper ≈ 1.5 µm).
    pub roughness: Length,
}

impl Pipe {
    /// A smooth-walled pipe of the given length and diameter.
    #[must_use]
    pub fn smooth(length: Length, diameter: Length) -> Self {
        Self {
            length,
            diameter,
            roughness: Length::from_meters(1.5e-6),
        }
    }

    /// Cross-sectional flow area.
    #[must_use]
    pub(crate) fn area_m2(&self) -> f64 {
        core::f64::consts::PI * self.diameter.meters().powi(2) / 4.0
    }

    /// The Darcy friction factor at `re` and its logarithmic slope
    /// `Re · df/dRe`, both in closed form: the Swamee-Jain explicit
    /// approximation of the Colebrook equation above the transition band
    /// and `64/Re` below it. Below Re = 1 the curve is
    /// clamped, so its slope there is that of `64/Re` at Re = 1.
    fn friction(&self, re: f64) -> (f64, f64) {
        let re = re.max(1.0);
        let rel_rough = self.roughness.meters() / self.diameter.meters();
        let turbulent = |re: f64| {
            // f = 0.25 / lg², lg = log10(ε/3.7D + t), t = 5.74 Re^-0.9,
            // so Re · df/dRe = 1.8 f t / (arg · ln 10 · lg)
            let t = 5.74 / re.powf(0.9);
            let arg = rel_rough / 3.7 + t;
            let lg = arg.log10();
            let f = 0.25 / lg.powi(2);
            (f, 1.8 * f * t / (arg * core::f64::consts::LN_10 * lg))
        };
        if re < 2300.0 {
            (64.0 / re, -64.0 / re)
        } else if re > 4000.0 {
            turbulent(re)
        } else {
            let w = (re - 2300.0) / 1700.0;
            let (f_4000, _) = turbulent(4000.0);
            (
                (64.0 / 2300.0) * (1.0 - w) + f_4000 * w,
                (f_4000 - 64.0 / 2300.0) * re / 1700.0,
            )
        }
    }

    /// Pressure loss at flow `q` together with its derivative with
    /// respect to flow, in Pa/(m³/s), from one evaluation of the friction
    /// curve.
    ///
    /// Below the transition band the slope is the Hagen-Poiseuille one,
    /// `32 μ L / (D² A)`, all the way down to zero flow: there the
    /// clamped friction curve is quadratic and its own slope vanishes,
    /// which would hand a stagnant branch a near-infinite conductance.
    /// The slope never drops below a small positive floor, keeping the
    /// Newton matrix well conditioned.
    #[must_use]
    pub(crate) fn loss_and_slope(&self, q: VolumeFlow, fluid: &FluidState) -> (Pressure, f64) {
        let area = self.area_m2();
        let d = self.diameter.meters();
        let length = self.length.meters();
        let v = q.cubic_meters_per_second() / area;
        let rho = fluid.density.kg_per_cubic_meter();
        let mu = fluid.viscosity.pascal_seconds();
        let re = rho * v.abs() * d / mu;
        let (f, re_df) = self.friction(re);
        let dp = f * length / d * rho * v * v.abs() / 2.0;
        let slope = if re < 2300.0 {
            32.0 * mu * length / (d * d * area)
        } else {
            // d/dq of f(Re) L/D ρ v|v|/2 with Re ∝ |q|
            length / d * rho * v.abs() / (2.0 * area) * (2.0 * f + re_df)
        };
        (Pressure::from_pascals(dp), slope.max(1e-3))
    }
}

/// Drop and slope of a quadratic minor loss `K ρ v|v| / 2` referred to
/// `diameter`, the slope floored like every element's.
fn quadratic_loss(k: f64, diameter: Length, q: VolumeFlow, fluid: &FluidState) -> (Pressure, f64) {
    let area = core::f64::consts::PI * diameter.meters().powi(2) / 4.0;
    let v = q.cubic_meters_per_second() / area;
    let rho = fluid.density.kg_per_cubic_meter();
    (
        Pressure::from_pascals(k * rho * v * v.abs() / 2.0),
        (k * rho * q.cubic_meters_per_second().abs() / (area * area)).max(1e-3),
    )
}

/// A trim or balancing valve modeled as an adjustable minor loss.
///
/// The loss coefficient of the fully open valve is `k_open`; partially
/// closing scales the coefficient by `1/opening²` (a standard equal-area
/// orifice model). `opening == 0` means shut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Valve {
    /// Loss coefficient K when fully open.
    pub k_open: f64,
    /// Reference diameter defining the velocity for the K value.
    pub diameter: Length,
    /// Opening fraction in `(0, 1]`.
    pub opening: f64,
}

impl Valve {
    /// A fully open balancing valve.
    #[must_use]
    pub fn balancing(diameter: Length) -> Self {
        Self {
            k_open: 2.5,
            diameter,
            opening: 1.0,
        }
    }

    /// Effective loss coefficient at the current opening.
    #[must_use]
    pub(crate) fn k_effective(&self) -> f64 {
        let opening = self.opening.clamp(1e-3, 1.0);
        self.k_open / (opening * opening)
    }

    /// Pressure loss at flow `q` together with its derivative with
    /// respect to flow, in Pa/(m³/s).
    #[must_use]
    pub(crate) fn loss_and_slope(&self, q: VolumeFlow, fluid: &FluidState) -> (Pressure, f64) {
        quadratic_loss(self.k_effective(), self.diameter, q, fluid)
    }
}

/// A centrifugal pump with a quadratic head curve
/// `ΔP(Q) = p0 · (1 − (Q/q_max)²)` for forward flow.
///
/// Backflow is blocked by an integral check valve (modeled as shutoff head
/// plus a steep resistive slope), matching how the paper's circulation
/// pumps behave when a parallel loop tries to reverse them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PumpCurve {
    /// Shutoff (zero-flow) pressure rise.
    pub shutoff: Pressure,
    /// Flow at which the delivered head reaches zero.
    pub max_flow: VolumeFlow,
}

impl PumpCurve {
    /// Creates a pump from its shutoff head and zero-head flow.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive.
    #[must_use]
    pub fn new(shutoff: Pressure, max_flow: VolumeFlow) -> Self {
        assert!(
            shutoff.pascals() > 0.0,
            "pump shutoff head must be positive"
        );
        assert!(
            max_flow.cubic_meters_per_second() > 0.0,
            "pump max flow must be positive"
        );
        Self { shutoff, max_flow }
    }

    /// Pressure *gain* delivered at flow `q` (negative for `q > max_flow`).
    #[must_use]
    pub(crate) fn pressure_gain(&self, q: VolumeFlow) -> Pressure {
        -self.loss_and_slope(q).0
    }

    /// The *loss* contribution (`−gain`) at flow `q` together with its
    /// derivative with respect to flow, which is non-negative by
    /// construction.
    #[must_use]
    pub(crate) fn loss_and_slope(&self, q: VolumeFlow) -> (Pressure, f64) {
        let p0 = self.shutoff.pascals();
        let q_max = self.max_flow.cubic_meters_per_second();
        let qn = q.cubic_meters_per_second() / q_max;
        if qn >= 0.0 {
            (
                Pressure::from_pascals(-(p0 * (1.0 - qn * qn))),
                (2.0 * p0 * qn / q_max).max(1e-3),
            )
        } else {
            // check valve: steeply resist reverse flow
            (
                Pressure::from_pascals(-(p0 * (1.0 + 1e3 * qn.abs()))),
                1e3 * p0 / q_max,
            )
        }
    }

    /// Hydraulic power delivered to the fluid at flow `q`.
    #[must_use]
    pub(crate) fn hydraulic_power(&self, q: VolumeFlow) -> rcs_units::Power {
        self.pressure_gain(q) * q
    }

    /// A degraded copy of this pump: shutoff head scaled by
    /// `head_factor` and zero-head flow by `flow_factor`.
    ///
    /// This is the fault-injection hook for impeller wear (both factors
    /// decay together by the affinity laws, ∝ speed² and ∝ speed) and
    /// for air entrainment when the bath level uncovers the suction.
    /// Factors are clamped to a small positive floor so a "seized" pump
    /// stays a valid curve — callers model full seizure by removing the
    /// branch, not by a zero-head pump.
    #[must_use]
    pub fn derated(&self, head_factor: f64, flow_factor: f64) -> Self {
        const FLOOR: f64 = 1e-3;
        Self {
            shutoff: Pressure::from_pascals(self.shutoff.pascals() * head_factor.max(FLOOR)),
            max_flow: VolumeFlow::from_cubic_meters_per_second(
                self.max_flow.cubic_meters_per_second() * flow_factor.max(FLOOR),
            ),
        }
    }
}

/// One element of a hydraulic branch. A branch's total pressure drop is
/// the sum over its elements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Element {
    /// A straight pipe segment.
    Pipe(Pipe),
    /// A lumped minor loss (bends, tees, fittings, heat-exchanger passages)
    /// expressed as a K factor at a reference diameter.
    MinorLoss {
        /// Loss coefficient.
        k: f64,
        /// Reference diameter defining the velocity.
        diameter: Length,
    },
    /// An adjustable valve.
    Valve(Valve),
    /// A pump (adds pressure instead of dropping it).
    Pump(PumpCurve),
}

impl Element {
    /// Signed pressure drop across the element at flow `q` (pumps return
    /// negative drops, i.e. gains).
    #[must_use]
    pub(crate) fn pressure_drop(&self, q: VolumeFlow, fluid: &FluidState) -> Pressure {
        self.drop_and_slope(q, fluid).0
    }

    /// Signed pressure drop at flow `q` together with its derivative with
    /// respect to flow (positive), from one evaluation of the element's
    /// loss curve.
    #[must_use]
    pub(crate) fn drop_and_slope(&self, q: VolumeFlow, fluid: &FluidState) -> (Pressure, f64) {
        match self {
            Self::Pipe(p) => p.loss_and_slope(q, fluid),
            Self::MinorLoss { k, diameter } => quadratic_loss(*k, *diameter, q, fluid),
            Self::Valve(v) => v.loss_and_slope(q, fluid),
            Self::Pump(p) => p.loss_and_slope(q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_fluids::Coolant;
    use rcs_units::Celsius;

    fn water() -> FluidState {
        Coolant::water().state(Celsius::new(20.0))
    }

    fn pipe() -> Pipe {
        Pipe::smooth(Length::from_meters(10.0), Length::millimeters(25.0))
    }

    #[test]
    fn friction_factor_laminar_and_turbulent() {
        let p = pipe();
        assert!((p.friction(1000.0).0 - 0.064).abs() < 1e-12);
        // smooth pipe at Re = 1e5: f ~ 0.018
        let f = p.friction(1e5).0;
        assert!((f - 0.018).abs() < 0.002, "f = {f}");
    }

    #[test]
    fn pressure_loss_hand_checked() {
        // 25 mm smooth pipe, 10 m, 2 m/s water: Re ~ 5e4, f ~ 0.021
        // dp = f L/D rho v^2/2 ~ 0.021 * 400 * 998 * 2 = ~16.7 kPa
        let p = pipe();
        let q = VolumeFlow::from_cubic_meters_per_second(2.0 * p.area_m2());
        let dp = p.loss_and_slope(q, &water()).0.as_kilopascals();
        assert!(dp > 12.0 && dp < 22.0, "dp = {dp} kPa");
    }

    #[test]
    fn pressure_loss_is_odd_in_flow() {
        let p = pipe();
        let q = VolumeFlow::liters_per_minute(40.0);
        let fwd = p.loss_and_slope(q, &water()).0.pascals();
        let rev = p.loss_and_slope(-q, &water()).0.pascals();
        assert!((fwd + rev).abs() < 1e-9);
        assert!(fwd > 0.0);
    }

    /// Water at 5, 20 and 45 °C and both immersion oils at 40 °C.
    fn fluids() -> Vec<FluidState> {
        let mut fluids: Vec<FluidState> = [5.0, 20.0, 45.0]
            .iter()
            .map(|&t| Coolant::water().state(Celsius::new(t)))
            .collect();
        for oil in [Coolant::src_dielectric(), Coolant::mineral_oil_md45()] {
            fluids.push(oil.state(Celsius::new(40.0)));
        }
        fluids
    }

    /// One element of every kind: a smooth and a rough pipe, a minor
    /// loss, a half-shut valve and a pump.
    fn elements() -> Vec<Element> {
        vec![
            Element::Pipe(pipe()),
            Element::Pipe(Pipe {
                roughness: Length::from_meters(45e-6),
                ..pipe()
            }),
            Element::MinorLoss {
                k: 4.0,
                diameter: Length::millimeters(25.0),
            },
            Element::Valve(Valve {
                opening: 0.5,
                ..Valve::balancing(Length::millimeters(25.0))
            }),
            Element::Pump(PumpCurve::new(
                Pressure::kilopascals(50.0),
                VolumeFlow::liters_per_minute(120.0),
            )),
        ]
    }

    /// The flow through `p` at Reynolds number `re`.
    fn flow_at_re(p: &Pipe, re: f64, fluid: &FluidState) -> f64 {
        re * fluid.viscosity.pascal_seconds() * p.area_m2()
            / (fluid.density.kg_per_cubic_meter() * p.diameter.meters())
    }

    /// Flows to probe `e` at, both signs, away from the seams of its
    /// loss curve: Re ≈ 1, 2300 and 4000 for a pipe, zero flow for the
    /// others.
    fn probe_flows(e: &Element, fluid: &FluidState) -> Vec<f64> {
        let magnitudes: Vec<f64> = match e {
            Element::Pipe(p) => [5.0, 300.0, 1500.0, 2800.0, 3500.0, 6000.0, 3e4, 2e5]
                .iter()
                .map(|&re| flow_at_re(p, re, fluid))
                .collect(),
            _ => [5.0, 30.0, 90.0, 150.0]
                .iter()
                .map(|&lpm| VolumeFlow::liters_per_minute(lpm).cubic_meters_per_second())
                .collect(),
        };
        magnitudes.iter().flat_map(|&q| [q, -q]).collect()
    }

    /// The drop of element `e` at flow `q`, written out term by term.
    fn closed_form_drop(e: &Element, q: f64, fluid: &FluidState) -> f64 {
        let rho = fluid.density.kg_per_cubic_meter();
        let quadratic = |k: f64, diameter: Length| {
            let v = q / (core::f64::consts::PI * diameter.meters().powi(2) / 4.0);
            k * rho * v * v.abs() / 2.0
        };
        match e {
            Element::Pipe(p) => {
                let v = q / p.area_m2();
                let re = rho * v.abs() * p.diameter.meters() / fluid.viscosity.pascal_seconds();
                p.friction(re).0 * p.length.meters() / p.diameter.meters() * rho * v * v.abs() / 2.0
            }
            Element::MinorLoss { k, diameter } => quadratic(*k, *diameter),
            Element::Valve(v) => quadratic(v.k_effective(), v.diameter),
            Element::Pump(p) => {
                let p0 = p.shutoff.pascals();
                let qn = q / p.max_flow.cubic_meters_per_second();
                -(if qn >= 0.0 {
                    p0 * (1.0 - qn * qn)
                } else {
                    p0 * (1.0 + 1e3 * qn.abs())
                })
            }
        }
    }

    #[test]
    fn fused_drop_is_bitwise_the_pressure_drop() {
        for fluid in &fluids() {
            for e in &elements() {
                let mut flows = probe_flows(e, fluid);
                flows.extend([0.0, -0.0, 1e-12, -1e-12]);
                for q in flows {
                    let expected = closed_form_drop(e, q, fluid).to_bits();
                    let q = VolumeFlow::from_cubic_meters_per_second(q);
                    let (drop, _) = e.drop_and_slope(q, fluid);
                    assert_eq!(drop.pascals().to_bits(), expected, "{e:?} at {q:?}");
                    assert_eq!(
                        e.pressure_drop(q, fluid).pascals().to_bits(),
                        expected,
                        "{e:?} at {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn slopes_match_a_central_difference_of_the_drop() {
        for fluid in &fluids() {
            for e in &elements() {
                for q in probe_flows(e, fluid) {
                    let h = q.abs() * 1e-6;
                    let drop = |q: f64| {
                        e.pressure_drop(VolumeFlow::from_cubic_meters_per_second(q), fluid)
                            .pascals()
                    };
                    let numeric = (drop(q + h) - drop(q - h)) / (2.0 * h);
                    let (_, slope) =
                        e.drop_and_slope(VolumeFlow::from_cubic_meters_per_second(q), fluid);
                    assert!(
                        ((slope - numeric) / numeric).abs() < 1e-5,
                        "{e:?} at {q} m³/s: slope {slope} vs central difference {numeric}"
                    );
                }
            }
        }
    }

    #[test]
    fn laminar_slope_is_hagen_poiseuille_down_to_zero_flow() {
        for fluid in &fluids() {
            let p = pipe();
            let mu = fluid.viscosity.pascal_seconds();
            let d = p.diameter.meters();
            let hagen_poiseuille = 32.0 * mu * p.length.meters() / (d * d * p.area_m2());
            for re in [0.0, 1e-6, 0.01, 0.5, 0.99, 1.5, 100.0, 2000.0] {
                for q in [flow_at_re(&p, re, fluid), -flow_at_re(&p, re, fluid)] {
                    let (_, slope) =
                        p.loss_and_slope(VolumeFlow::from_cubic_meters_per_second(q), fluid);
                    assert!(
                        ((slope - hagen_poiseuille) / hagen_poiseuille).abs() < 1e-12,
                        "Re {re}: slope {slope} vs Hagen-Poiseuille {hagen_poiseuille}"
                    );
                }
            }
            // Below Re = 1 the clamped curve is quadratic, and its own
            // slope is 2·Re times the Hagen-Poiseuille one and vanishes
            // with the flow.
            let q = flow_at_re(&p, 0.01, fluid);
            let h = q * 1e-6;
            let numeric = (p
                .loss_and_slope(VolumeFlow::from_cubic_meters_per_second(q + h), fluid)
                .0
                .pascals()
                - p.loss_and_slope(VolumeFlow::from_cubic_meters_per_second(q - h), fluid)
                    .0
                    .pascals())
                / (2.0 * h);
            assert!(
                ((numeric / hagen_poiseuille) - 0.02).abs() < 1e-6,
                "{numeric}"
            );
        }
    }

    #[test]
    fn slope_positive_even_at_zero() {
        for e in &elements() {
            let (_, slope) = e.drop_and_slope(VolumeFlow::ZERO, &water());
            assert!(slope > 0.0, "{e:?}");
        }
    }

    #[test]
    fn valve_closing_raises_loss() {
        let mut v = Valve::balancing(Length::millimeters(25.0));
        let q = VolumeFlow::liters_per_minute(40.0);
        let open = v.loss_and_slope(q, &water()).0.pascals();
        v.opening = 0.5;
        let half = v.loss_and_slope(q, &water()).0.pascals();
        assert!((half / open - 4.0).abs() < 1e-9); // 1/0.5² = 4
    }

    #[test]
    fn pump_curve_endpoints() {
        let p = PumpCurve::new(
            Pressure::kilopascals(50.0),
            VolumeFlow::liters_per_minute(120.0),
        );
        assert!((p.pressure_gain(VolumeFlow::ZERO).as_kilopascals() - 50.0).abs() < 1e-12);
        let at_max = p.pressure_gain(VolumeFlow::liters_per_minute(120.0));
        assert!(at_max.pascals().abs() < 1e-9);
        // reverse flow is strongly resisted
        assert!(
            p.pressure_gain(VolumeFlow::liters_per_minute(-10.0))
                .pascals()
                > p.shutoff.pascals()
        );
    }

    #[test]
    fn pump_hydraulic_power_peaks_mid_curve() {
        let p = PumpCurve::new(
            Pressure::kilopascals(50.0),
            VolumeFlow::liters_per_minute(120.0),
        );
        let mid = p
            .hydraulic_power(VolumeFlow::liters_per_minute(60.0))
            .watts();
        let low = p
            .hydraulic_power(VolumeFlow::liters_per_minute(5.0))
            .watts();
        let high = p
            .hydraulic_power(VolumeFlow::liters_per_minute(118.0))
            .watts();
        assert!(mid > low && mid > high);
    }

    #[test]
    fn derated_pump_scales_both_curve_endpoints() {
        let p = PumpCurve::new(
            Pressure::kilopascals(80.0),
            VolumeFlow::liters_per_minute(900.0),
        );
        let worn = p.derated(0.25, 0.5);
        assert!((worn.shutoff.as_kilopascals() - 20.0).abs() < 1e-12);
        assert!((worn.max_flow.as_liters_per_minute() - 450.0).abs() < 1e-9);
        // unit factors are the identity
        let same = p.derated(1.0, 1.0);
        assert_eq!(same, p);
        // non-positive factors clamp to a valid (tiny) curve
        let dead = p.derated(0.0, -1.0);
        assert!(dead.shutoff.pascals() > 0.0);
        assert!(dead.max_flow.cubic_meters_per_second() > 0.0);
    }

    #[test]
    fn minor_loss_quadratic() {
        let e = Element::MinorLoss {
            k: 4.0,
            diameter: Length::millimeters(25.0),
        };
        let q1 = VolumeFlow::liters_per_minute(20.0);
        let q2 = VolumeFlow::liters_per_minute(40.0);
        let r = e.pressure_drop(q2, &water()).pascals() / e.pressure_drop(q1, &water()).pascals();
        assert!((r - 4.0).abs() < 1e-9);
    }
}
