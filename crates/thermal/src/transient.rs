//! Transient integration of thermal networks with nodal capacitances.
//!
//! The integration loop itself lives on the `rcs-kernel` stepping
//! kernel: [`TransientSession`] owns the integrator state, advances it
//! one [`rcs_kernel::Clock`] tick at a time, and can be checkpointed to
//! bytes and resumed with bitwise-identical results.
//! [`ThermalNetwork::solve_transient_from`] is a thin
//! run-to-completion wrapper over a session, so the public API (and
//! every golden number it produces) is unchanged.

use rcs_kernel::{Clock, Codec, SnapshotError};
use rcs_numeric::ode::{rk4_step, Rk4Scratch};
use rcs_obs::Sinks;
use rcs_units::{Celsius, Seconds};

use crate::error::ThermalError;
use crate::network::{NodeId, NodeKind, ThermalNetwork};

/// Snapshot kind tag for [`TransientSession`] checkpoints.
pub(crate) const TRANSIENT_SNAPSHOT_KIND: &str = "thermal.transient";

/// Time series produced by [`ThermalNetwork::solve_transient`]: node
/// temperatures sampled after every integration step.
#[derive(Debug, Clone)]
pub struct TransientTrace {
    times: Vec<Seconds>,
    /// `temperatures[sample][node]`
    temperatures: Vec<Vec<Celsius>>,
}

impl TransientTrace {
    /// Sample times, starting at zero.
    #[must_use]
    pub fn times(&self) -> &[Seconds] {
        &self.times
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the trace holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Temperature of `node` at sample `sample`, or `None` if either the
    /// sample index or the node id is out of range — the checked
    /// counterpart of [`TransientTrace::temperature`].
    #[must_use]
    pub(crate) fn get(&self, sample: usize, node: NodeId) -> Option<Celsius> {
        self.temperatures.get(sample)?.get(node.0).copied()
    }

    /// Temperature of `node` at sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if the sample index or node id is out of range; use
    /// `TransientTrace::get` to handle that case.
    #[must_use]
    pub fn temperature(&self, i: usize, node: NodeId) -> Celsius {
        self.get(i, node)
            .expect("sample index and node id in range")
    }

    /// Final temperature of `node`, or `None` on an empty trace or a
    /// foreign node id.
    #[must_use]
    pub fn last(&self, node: NodeId) -> Option<Celsius> {
        self.get(self.temperatures.len().checked_sub(1)?, node)
    }

    /// Final temperature of `node`.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace or foreign node id; use
    /// [`TransientTrace::last`] to handle that case.
    #[must_use]
    pub fn final_temperature(&self, node: NodeId) -> Celsius {
        self.last(node).expect("non-empty trace and known node id")
    }

    /// The full time series of one node; empty for a foreign node id.
    #[must_use]
    pub fn series(&self, node: NodeId) -> Vec<(Seconds, Celsius)> {
        self.times
            .iter()
            .zip(&self.temperatures)
            .filter_map(|(&t, temps)| Some((t, *temps.get(node.0)?)))
            .collect()
    }

    /// Time at which `node` first reaches within `tolerance` kelvins of
    /// its final value and stays there, i.e. the settling time; `None`
    /// on an empty trace or foreign node id.
    #[must_use]
    pub fn settling_time(&self, node: NodeId, tolerance_k: f64) -> Option<Seconds> {
        let target = self.last(node)?.degrees();
        let mut settled_at = *self.times.last()?;
        for i in (0..self.len()).rev() {
            if (self.get(i, node)?.degrees() - target).abs() > tolerance_k {
                break;
            }
            settled_at = self.times[i];
        }
        Some(settled_at)
    }
}

impl ThermalNetwork {
    /// Integrates the network in time from a uniform initial temperature.
    ///
    /// Every internal node must carry a heat capacitance
    /// (see [`ThermalNetwork::add_node_with_capacitance`]); boundary nodes
    /// hold their imposed temperatures. Heat sources are constant over the
    /// window; chain multiple calls for step changes.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::MissingCapacitance`] if any internal node has
    /// no capacitance, and [`ThermalError::NonPositiveParameter`] for a
    /// non-positive duration or step.
    pub fn solve_transient(
        &self,
        initial: Celsius,
        duration: Seconds,
        max_step: Seconds,
    ) -> Result<TransientTrace, ThermalError> {
        self.solve_transient_from(
            &self.uniform_initial(initial),
            duration,
            max_step,
            Sinks::disabled(),
        )
    }

    /// The per-node initial state of a uniform cold start: boundary
    /// nodes at their fixed temperatures, every internal node at
    /// `initial`. This is the state [`ThermalNetwork::solve_transient`]
    /// starts from; exposed so resumable callers (e.g. warm-up
    /// sessions) can seed a [`TransientSession`] identically.
    #[must_use]
    pub fn uniform_initial(&self, initial: Celsius) -> Vec<Celsius> {
        self.nodes
            .iter()
            .map(|n| match n.kind {
                NodeKind::Boundary { temperature } => temperature,
                NodeKind::Internal { .. } => initial,
            })
            .collect()
    }

    /// Integrates the network from an explicit per-node initial state
    /// (e.g. the final sample of a previous window, enabling step-change
    /// experiments such as pump-failure transients), recording into
    /// `sinks.obs` — all golden-channel integers:
    ///
    /// - `thermal.transient.calls` / `.errors` counters;
    /// - `thermal.transient.steps` — integration samples produced (a
    ///   function of duration and step size only);
    /// - `thermal.transient.nodes` histogram of network size.
    ///
    /// # Errors
    ///
    /// As [`ThermalNetwork::solve_transient`], plus a dimension check on
    /// `initial`.
    pub fn solve_transient_from(
        &self,
        initial: &[Celsius],
        duration: Seconds,
        max_step: Seconds,
        sinks: Sinks<'_>,
    ) -> Result<TransientTrace, ThermalError> {
        sinks.obs.inc("thermal.transient.calls");
        match TransientSession::new(self, initial, duration, max_step) {
            Ok(mut session) => {
                while session.step(self) {}
                Ok(session.finish(self, sinks))
            }
            Err(e) => {
                sinks.obs.inc("thermal.transient.errors");
                Err(e)
            }
        }
    }
}

/// Derived integrator structure, rebuilt from the network on resume —
/// pure functions of the [`ThermalNetwork`], so they are not part of
/// the checkpointed state.
#[derive(Debug, Clone)]
struct TransientEnv {
    /// Node count of the network, boundary nodes included.
    nodes: usize,
    /// Node indices of the internal (capacitive) nodes, in node order.
    internal: Vec<usize>,
    /// Heat capacitance per internal row, J/K.
    capacitance: Vec<f64>,
    /// node index → internal row.
    index_of: std::collections::HashMap<usize, usize>,
    scratch: Rk4Scratch,
}

impl TransientEnv {
    fn build(net: &ThermalNetwork) -> Result<Self, ThermalError> {
        let internal: Vec<usize> = net
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Internal { .. }))
            .map(|(i, _)| i)
            .collect();
        let mut capacitance = vec![0.0; internal.len()];
        for (row, &node) in internal.iter().enumerate() {
            match net.nodes[node].kind {
                NodeKind::Internal {
                    capacitance_j_per_k: Some(c),
                } if c > 0.0 => {
                    capacitance[row] = c;
                }
                _ => {
                    return Err(ThermalError::MissingCapacitance {
                        node: net.nodes[node].name.clone(),
                    })
                }
            }
        }
        let index_of: std::collections::HashMap<usize, usize> = internal
            .iter()
            .enumerate()
            .map(|(row, &node)| (node, row))
            .collect();
        let scratch = Rk4Scratch::new(internal.len());
        Ok(Self {
            nodes: net.nodes.len(),
            internal,
            capacitance,
            index_of,
            scratch,
        })
    }
}

/// A resumable transient integration: the thermal network's RK4 loop
/// hoisted onto the `rcs-kernel` stepping kernel.
///
/// The session owns everything the loop mutates — the internal-node
/// state vector, the accumulated sample trace and the kernel
/// [`Clock`] — while the network itself is passed into every call as
/// the immutable environment. [`TransientSession::checkpoint`] seals
/// the mutable state (plus the observability sinks) into versioned
/// bytes; [`TransientSession::resume`] reconstructs a session that
/// finishes **bitwise** identically to one that was never interrupted.
#[derive(Debug, Clone)]
pub struct TransientSession {
    clock: Clock,
    /// Internal-node temperatures, °C, in internal-row order.
    state: Vec<f64>,
    /// Per-node observation baseline: boundary temperatures for
    /// boundary nodes, the initial temperature for internal ones
    /// (overwritten by `state` in every sample).
    boundary_temp: Vec<f64>,
    times: Vec<Seconds>,
    temperatures: Vec<Vec<Celsius>>,
    env: TransientEnv,
}

impl TransientSession {
    /// Validates the problem and records the initial sample, exactly as
    /// the uninterrupted solver does before its first step.
    ///
    /// # Errors
    ///
    /// Same contract as [`ThermalNetwork::solve_transient_from`].
    pub fn new(
        net: &ThermalNetwork,
        initial: &[Celsius],
        duration: Seconds,
        max_step: Seconds,
    ) -> Result<Self, ThermalError> {
        if duration.seconds() < 0.0 || max_step.seconds() <= 0.0 {
            return Err(ThermalError::NonPositiveParameter {
                parameter: "duration/step",
            });
        }
        if initial.len() != net.nodes.len() {
            return Err(ThermalError::UnknownNode {
                index: initial.len(),
            });
        }
        let env = TransientEnv::build(net)?;
        let state: Vec<f64> = env
            .internal
            .iter()
            .map(|&node| initial[node].degrees())
            .collect();
        let boundary_temp: Vec<f64> = net
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| match n.kind {
                NodeKind::Boundary { temperature } => temperature.degrees(),
                NodeKind::Internal { .. } => initial[i].degrees(),
            })
            .collect();

        // The legacy step-count arithmetic, preserved bitwise: a zero
        // span observes the initial state once and schedules nothing.
        let span = duration.seconds();
        let clock = if span == 0.0 {
            Clock::counted(0)
        } else {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let steps = (span / max_step.seconds()).ceil().max(1.0) as u64;
            #[allow(clippy::cast_precision_loss)]
            let dt = span / steps as f64;
            Clock::uniform(0.0, dt, steps)
        };

        let mut session = Self {
            clock,
            state,
            boundary_temp,
            times: Vec::new(),
            temperatures: Vec::new(),
            env,
        };
        session.observe(0.0);
        Ok(session)
    }

    fn observe(&mut self, t: f64) {
        self.times.push(Seconds::new(t));
        let mut sample: Vec<Celsius> = self
            .boundary_temp
            .iter()
            .map(|&b| Celsius::new(b))
            .collect();
        for (row, &node) in self.env.internal.iter().enumerate() {
            sample[node] = Celsius::new(self.state[row]);
        }
        self.temperatures.push(sample);
    }

    /// Advances one RK4 step. Returns `false` once the horizon is
    /// reached (the call is then a no-op).
    pub fn step(&mut self, net: &ThermalNetwork) -> bool {
        let Some(tick) = self.clock.tick() else {
            return false;
        };
        let TransientEnv {
            internal,
            capacitance,
            index_of,
            scratch,
            ..
        } = &mut self.env;
        let boundary_temp = &self.boundary_temp;
        let mut derivative = |_t: f64, y: &[f64], dy: &mut [f64]| {
            for (row, &node) in internal.iter().enumerate() {
                dy[row] = net.nodes[node].heat.watts();
            }
            for r in &net.resistors {
                let g = 1.0 / r.resistance.kelvin_per_watt();
                let ta = index_of
                    .get(&r.a.0)
                    .map_or(boundary_temp[r.a.0], |&row| y[row]);
                let tb = index_of
                    .get(&r.b.0)
                    .map_or(boundary_temp[r.b.0], |&row| y[row]);
                let q = g * (ta - tb);
                if let Some(&row) = index_of.get(&r.a.0) {
                    dy[row] -= q;
                }
                if let Some(&row) = index_of.get(&r.b.0) {
                    dy[row] += q;
                }
            }
            for (row, c) in capacitance.iter().enumerate() {
                dy[row] /= c;
            }
        };
        rk4_step(&mut self.state, tick.t, tick.dt, &mut derivative, scratch);
        let t_after = self.clock.now();
        self.observe(t_after);
        true
    }

    /// Advances at most `max_steps` steps; returns how many ran.
    pub fn run(&mut self, net: &ThermalNetwork, max_steps: u64) -> u64 {
        let mut taken = 0;
        while taken < max_steps && self.step(net) {
            taken += 1;
        }
        taken
    }

    /// `true` once the horizon is reached.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.clock.is_finished()
    }

    /// Consumes the session, yielding the trace accumulated so far.
    #[must_use]
    pub(crate) fn into_trace(self) -> TransientTrace {
        TransientTrace {
            times: self.times,
            temperatures: self.temperatures,
        }
    }

    /// `TransientSession::into_trace` plus the end-of-run golden
    /// accounting the uninterrupted solver records on success:
    /// `thermal.transient.steps`, the `thermal.transient.nodes`
    /// histogram and the `thermal.ode_steps` / `thermal.ode_node_steps`
    /// work profile.
    #[must_use]
    pub fn finish(self, net: &ThermalNetwork, sinks: Sinks<'_>) -> TransientTrace {
        let obs = sinks.obs;
        let trace = self.into_trace();
        obs.add("thermal.transient.steps", trace.len() as u64);
        obs.record_golden("thermal.transient.nodes", net.nodes.len() as u64);
        // work profile: RK4 samples, and samples × nodes (the figure
        // the right-hand-side evaluation scales with)
        obs.work("thermal.ode_steps", trace.len() as u64);
        obs.work(
            "thermal.ode_node_steps",
            trace.len() as u64 * net.nodes.len() as u64,
        );
        trace
    }

    /// Seals the session — clock, state vector, accumulated samples —
    /// plus the current contents of `sinks` (the span sink's **open
    /// stack** included, so a span bracketing this session survives the
    /// checkpoint and closes on the restored sink exactly where the
    /// straight run closes it) into versioned snapshot bytes.
    #[must_use]
    pub fn checkpoint(&self, sinks: Sinks<'_>) -> Vec<u8> {
        let mut session = self.clone();
        rcs_kernel::seal_session(TRANSIENT_SNAPSHOT_KIND, sinks, |c| session.layout(c))
    }

    /// Reconstructs a session from [`TransientSession::checkpoint`]
    /// bytes, restoring the captured telemetry into the (fresh) `sinks`.
    /// The resumed session finishes bitwise identically to the
    /// uninterrupted one.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on corrupted or truncated bytes, a snapshot of
    /// a different kind, or a snapshot inconsistent with `net` (node
    /// counts must match).
    pub fn resume(
        net: &ThermalNetwork,
        bytes: &[u8],
        sinks: Sinks<'_>,
    ) -> Result<Self, SnapshotError> {
        let env = TransientEnv::build(net)
            .map_err(|e| SnapshotError::Malformed(format!("network rejected on resume: {e}")))?;
        let mut session = Self {
            clock: Clock::counted(0),
            state: Vec::new(),
            boundary_temp: Vec::new(),
            times: Vec::new(),
            temperatures: Vec::new(),
            env,
        };
        rcs_kernel::open_session(TRANSIENT_SNAPSHOT_KIND, bytes, sinks, |c| session.layout(c))?;
        Ok(session)
    }

    /// The one wire layout of a session — clock, state vector, boundary
    /// baseline, then the samples (a count, the times, and one
    /// temperature per node for each) — run by both checkpoint and
    /// resume. Decoding rejects a state sized for another network.
    fn layout(&mut self, c: &mut Codec<'_>) -> Result<(), SnapshotError> {
        self.clock.layout(c)?;
        c.vec(&mut self.state, Codec::f64)?;
        c.vec(&mut self.boundary_temp, Codec::f64)?;
        // (internal, total) node counts
        let nodes = (self.state.len(), self.boundary_temp.len());
        let net = (self.env.internal.len(), self.env.nodes);
        c.ensure(nodes == net, || {
            format!("snapshot is for another network: {nodes:?} nodes, the network has {net:?}")
        })?;
        let mut samples = self.times.len();
        c.count(&mut samples)?;
        c.items(&mut self.times, samples, |c, t| {
            c.f64_as(t, Seconds::seconds, Seconds::new)
        })?;
        c.items(&mut self.temperatures, samples, |c, sample| {
            c.items(sample, net.1, |c, temp| {
                c.f64_as(temp, Celsius::degrees, Celsius::new)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_obs::Registry;
    use rcs_units::{Power, ThermalResistance};

    /// RC step response: T(t) = T_inf (1 - exp(-t/RC)) with T_inf = P*R.
    #[test]
    fn rc_step_response_matches_analytic() {
        let mut net = ThermalNetwork::new();
        let j = net.add_node_with_capacitance("j", 50.0); // 50 J/K
        let amb = net.add_boundary("amb", Celsius::new(0.0));
        net.connect(j, amb, ThermalResistance::from_kelvin_per_watt(0.5))
            .unwrap();
        net.add_heat(j, Power::from_watts(100.0)).unwrap();

        let tau: f64 = 0.5 * 50.0; // RC = 25 s
        let trace = net
            .solve_transient(Celsius::new(0.0), Seconds::new(50.0), Seconds::new(0.05))
            .unwrap();
        let analytic = 50.0 * (1.0 - (-50.0 / tau).exp());
        let got = trace.final_temperature(j).degrees();
        assert!((got - analytic).abs() < 1e-3, "got {got}, want {analytic}");
    }

    #[test]
    fn transient_settles_to_steady_state() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node_with_capacitance("a", 10.0);
        let b = net.add_node_with_capacitance("b", 20.0);
        let amb = net.add_boundary("amb", Celsius::new(25.0));
        net.connect(a, b, ThermalResistance::from_kelvin_per_watt(0.4))
            .unwrap();
        net.connect(b, amb, ThermalResistance::from_kelvin_per_watt(0.6))
            .unwrap();
        net.add_heat(a, Power::from_watts(30.0)).unwrap();

        let steady = net.solve_steady().unwrap();
        let trace = net
            .solve_transient(Celsius::new(25.0), Seconds::new(400.0), Seconds::new(0.1))
            .unwrap();
        for node in [a, b] {
            let t_inf = steady.temperature(node).degrees();
            let t_end = trace.final_temperature(node).degrees();
            assert!((t_end - t_inf).abs() < 1e-3, "{t_end} vs {t_inf}");
        }
    }

    #[test]
    fn missing_capacitance_is_reported() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("no-cap");
        let amb = net.add_boundary("amb", Celsius::new(0.0));
        net.connect(a, amb, ThermalResistance::from_kelvin_per_watt(1.0))
            .unwrap();
        let err = net
            .solve_transient(Celsius::new(0.0), Seconds::new(1.0), Seconds::new(0.1))
            .unwrap_err();
        assert!(matches!(err, ThermalError::MissingCapacitance { node } if node == "no-cap"));
    }

    #[test]
    fn chained_windows_continue_smoothly() {
        let mut net = ThermalNetwork::new();
        let j = net.add_node_with_capacitance("j", 30.0);
        let amb = net.add_boundary("amb", Celsius::new(20.0));
        net.connect(j, amb, ThermalResistance::from_kelvin_per_watt(1.0))
            .unwrap();
        net.add_heat(j, Power::from_watts(10.0)).unwrap();

        let first = net
            .solve_transient(Celsius::new(20.0), Seconds::new(30.0), Seconds::new(0.05))
            .unwrap();
        let handoff: Vec<Celsius> = (0..net.nodes.len())
            .map(|i| first.temperature(first.len() - 1, crate::NodeId(i)))
            .collect();
        let second = net
            .solve_transient_from(
                &handoff,
                Seconds::new(400.0),
                Seconds::new(0.05),
                Sinks::disabled(),
            )
            .unwrap();
        let steady = net.solve_steady().unwrap().temperature(j).degrees();
        assert!((second.final_temperature(j).degrees() - steady).abs() < 1e-3);
        // continuity at the seam
        assert!(
            (second.temperature(0, j).degrees() - first.final_temperature(j).degrees()).abs()
                < 1e-12
        );
    }

    #[test]
    fn settling_time_is_monotone_in_capacitance() {
        let settle = |cap: f64| {
            let mut net = ThermalNetwork::new();
            let j = net.add_node_with_capacitance("j", cap);
            let amb = net.add_boundary("amb", Celsius::new(0.0));
            net.connect(j, amb, ThermalResistance::from_kelvin_per_watt(1.0))
                .unwrap();
            net.add_heat(j, Power::from_watts(10.0)).unwrap();
            net.solve_transient(Celsius::new(0.0), Seconds::new(500.0), Seconds::new(0.1))
                .unwrap()
                .settling_time(j, 0.1)
                .unwrap()
                .seconds()
        };
        assert!(settle(40.0) > settle(10.0));
    }

    #[test]
    fn observed_transient_counts_calls_steps_and_errors() {
        let obs = Registry::new();
        let mut net = ThermalNetwork::new();
        let j = net.add_node_with_capacitance("j", 50.0);
        let amb = net.add_boundary("amb", Celsius::new(0.0));
        net.connect(j, amb, ThermalResistance::from_kelvin_per_watt(0.5))
            .unwrap();
        net.add_heat(j, Power::from_watts(100.0)).unwrap();
        let initial = net.uniform_initial(Celsius::new(0.0));
        let trace = net
            .solve_transient_from(
                &initial,
                Seconds::new(10.0),
                Seconds::new(0.1),
                Sinks::counters(&obs),
            )
            .unwrap();
        // a bad step records an error, not steps
        let _ = net
            .solve_transient_from(
                &initial,
                Seconds::new(10.0),
                Seconds::new(0.0),
                Sinks::counters(&obs),
            )
            .unwrap_err();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("thermal.transient.calls"), 2);
        assert_eq!(snap.counter("thermal.transient.errors"), 1);
        assert_eq!(snap.counter("thermal.transient.steps"), trace.len() as u64);
        assert_eq!(
            snap.histogram("thermal.transient.nodes").unwrap().total(),
            1
        );
    }

    #[test]
    fn session_checkpoint_resume_is_bitwise_identical() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node_with_capacitance("a", 10.0);
        let b = net.add_node_with_capacitance("b", 20.0);
        let amb = net.add_boundary("amb", Celsius::new(25.0));
        net.connect(a, b, ThermalResistance::from_kelvin_per_watt(0.4))
            .unwrap();
        net.connect(b, amb, ThermalResistance::from_kelvin_per_watt(0.6))
            .unwrap();
        net.add_heat(a, Power::from_watts(30.0)).unwrap();

        let initial: Vec<Celsius> = vec![Celsius::new(25.0); net.nodes.len()];
        let straight = net
            .solve_transient_from(
                &initial,
                Seconds::new(40.0),
                Seconds::new(0.1),
                Sinks::disabled(),
            )
            .unwrap();

        for k in [0u64, 1, 7, 399, 400] {
            let obs = Registry::new();
            let trace = rcs_obs::trace::TraceRecorder::new();
            let sinks = Sinks {
                obs: &obs,
                trace: &trace,
                ..Sinks::disabled()
            };
            let mut front =
                TransientSession::new(&net, &initial, Seconds::new(40.0), Seconds::new(0.1))
                    .unwrap();
            front.run(&net, k);
            let bytes = front.checkpoint(sinks);

            let obs2 = Registry::new();
            let trace2 = rcs_obs::trace::TraceRecorder::new();
            let mut back = TransientSession::resume(
                &net,
                &bytes,
                Sinks {
                    obs: &obs2,
                    trace: &trace2,
                    ..Sinks::disabled()
                },
            )
            .unwrap();
            while back.step(&net) {}
            let resumed = back.into_trace();

            assert_eq!(resumed.len(), straight.len(), "split at {k}");
            for i in 0..straight.len() {
                assert_eq!(
                    resumed.times[i].seconds().to_bits(),
                    straight.times[i].seconds().to_bits(),
                    "time {i}, split {k}"
                );
                for node in 0..net.nodes.len() {
                    assert_eq!(
                        resumed.temperatures[i][node].degrees().to_bits(),
                        straight.temperatures[i][node].degrees().to_bits(),
                        "sample {i} node {node}, split {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_session_bytes_are_a_structured_error() {
        let mut net = ThermalNetwork::new();
        let j = net.add_node_with_capacitance("j", 50.0);
        let amb = net.add_boundary("amb", Celsius::new(0.0));
        net.connect(j, amb, ThermalResistance::from_kelvin_per_watt(0.5))
            .unwrap();
        net.add_heat(j, Power::from_watts(100.0)).unwrap();
        let initial = vec![Celsius::new(0.0); net.nodes.len()];
        let session =
            TransientSession::new(&net, &initial, Seconds::new(5.0), Seconds::new(0.1)).unwrap();
        let obs = Registry::new();
        let trace = rcs_obs::trace::TraceRecorder::new();
        let sinks = Sinks {
            obs: &obs,
            trace: &trace,
            ..Sinks::disabled()
        };
        let bytes = session.checkpoint(sinks);

        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        assert!(TransientSession::resume(&net, &corrupt, sinks).is_err());
        assert!(TransientSession::resume(&net, &bytes[..bytes.len() - 9], sinks).is_err());

        // A valid snapshot against the wrong network is rejected too.
        let mut other = ThermalNetwork::new();
        let x = other.add_node_with_capacitance("x", 1.0);
        let y = other.add_node_with_capacitance("y", 1.0);
        let oamb = other.add_boundary("amb", Celsius::new(0.0));
        other
            .connect(x, y, ThermalResistance::from_kelvin_per_watt(1.0))
            .unwrap();
        other
            .connect(y, oamb, ThermalResistance::from_kelvin_per_watt(1.0))
            .unwrap();
        assert!(TransientSession::resume(&other, &bytes, sinks).is_err());
    }

    #[test]
    fn boundary_nodes_hold_their_temperature() {
        let mut net = ThermalNetwork::new();
        let j = net.add_node_with_capacitance("j", 5.0);
        let amb = net.add_boundary("amb", Celsius::new(33.0));
        net.connect(j, amb, ThermalResistance::from_kelvin_per_watt(1.0))
            .unwrap();
        let trace = net
            .solve_transient(Celsius::new(80.0), Seconds::new(10.0), Seconds::new(0.1))
            .unwrap();
        for i in 0..trace.len() {
            assert_eq!(trace.temperature(i, amb).degrees(), 33.0);
        }
        // the hot unheated node cools toward the boundary
        assert!(trace.final_temperature(j) < Celsius::new(80.0));
        assert!(trace.final_temperature(j) > Celsius::new(33.0));
    }
}
