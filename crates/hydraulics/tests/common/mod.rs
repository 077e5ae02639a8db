//! Networks shared by the hydraulic solver's integration tests.

use rcs_hydraulics::{Element, HydraulicNetwork, Pipe, PumpCurve};
use rcs_units::{Length, Pressure, VolumeFlow};

/// The SKAT+ immersion bath's circulation network: the bath + exchanger
/// loss path against `pumps` parallel immersed pumps, the first derated
/// to `head` of its shutoff head (and √`head` of its flow, the affinity
/// laws' speed scaling; `head = 1.0` leaves it healthy).
pub(crate) fn bath_circulation(pumps: usize, head: f64) -> HydraulicNetwork {
    let mut net = HydraulicNetwork::new();
    let inlet = net.add_junction("bath inlet");
    let outlet = net.add_junction("bath outlet");
    let d50 = Length::millimeters(50.0);
    let path = [2.0, 4.0, 2.0, 6.0]
        .into_iter()
        .map(|k| Element::MinorLoss { k, diameter: d50 })
        .chain([Element::Pipe(Pipe::smooth(Length::from_meters(1.5), d50))])
        .collect();
    net.add_branch("bath + exchanger path", inlet, outlet, path)
        .unwrap();
    let healthy = PumpCurve::new(
        Pressure::kilopascals(95.0),
        VolumeFlow::liters_per_minute(1100.0),
    );
    for i in 0..pumps {
        let curve = if i == 0 {
            healthy.derated(head, head.sqrt())
        } else {
            healthy
        };
        net.add_branch(
            format!("pump {i}"),
            outlet,
            inlet,
            vec![Element::Pump(curve)],
        )
        .unwrap();
    }
    net
}
