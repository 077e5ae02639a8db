//! Sensor plausibility filtering: running supervision on lying sensors.
//!
//! The §2 control subsystem assumes its level/flow/temperature sensors
//! tell the truth. Real transmitters stick, drift and drop out, and a
//! supervisor that believes a lying sensor either misses a real
//! excursion or shuts a healthy module down. This module provides the
//! per-channel defense: range checks, rate-of-change checks, last-good
//! hold with a timeout, and median voting across redundant probes.
//!
//! The contract: an implausible sample never reaches the control logic.
//! The filter substitutes the last plausible value ([`ChannelStatus::Held`])
//! until the hold times out, after which the channel is declared
//! [`ChannelStatus::Failed`] — a maintenance condition reported alongside
//! the drill results, not a thermal alarm.

use rcs_units::Seconds;

/// Physical plausibility bounds for one sensor channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelLimits {
    /// Smallest physically plausible reading.
    pub min: f64,
    /// Largest physically plausible reading.
    pub max: f64,
    /// Largest plausible rate of change, channel units per second.
    pub max_rate_per_s: f64,
}

impl ChannelLimits {
    /// Bath level (fraction of nominal fill): a sealed bath cannot gain
    /// coolant, and even a catastrophic leak drains slowly.
    #[must_use]
    pub fn coolant_level() -> Self {
        Self {
            min: 0.0,
            max: 1.05,
            max_rate_per_s: 0.01,
        }
    }

    /// Circulation flow in L/min. Step *drops* are real (a pump trip is
    /// instant), so the rate bound is deliberately generous — the range
    /// check does the work on this channel.
    #[must_use]
    pub fn coolant_flow_lpm() -> Self {
        Self {
            min: 0.0,
            max: 2000.0,
            max_rate_per_s: 500.0,
        }
    }

    /// Agent (oil) temperature in °C: tens of kilograms of oil cannot
    /// change temperature faster than ~3 K/min.
    #[must_use]
    pub fn agent_temperature_c() -> Self {
        Self {
            min: -10.0,
            max: 80.0,
            max_rate_per_s: 0.05,
        }
    }

    /// Component (FPGA) temperature in °C: the chip field heats at well
    /// under 1 K/s even with circulation lost entirely.
    #[must_use]
    pub fn component_temperature_c() -> Self {
        Self {
            min: -10.0,
            max: 120.0,
            max_rate_per_s: 1.0,
        }
    }

    /// `true` if `value` lies inside the plausible range.
    #[must_use]
    pub(crate) fn in_range(&self, value: f64) -> bool {
        value.is_finite() && value >= self.min && value <= self.max
    }
}

/// Health of one filtered channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelStatus {
    /// The latest sample passed every check.
    #[default]
    Valid,
    /// The latest sample was implausible; the last good value is being
    /// substituted while the hold timeout runs.
    Held,
    /// The channel has delivered no plausible sample for longer than the
    /// hold timeout (or never) — treat it as broken hardware.
    Failed,
}

/// One filtered sample: the value the control logic should use and the
/// channel health that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilteredSample {
    /// The plausible value to act on; `None` only when the channel has
    /// never delivered a plausible sample.
    pub value: Option<f64>,
    /// Channel health after this sample.
    pub status: ChannelStatus,
}

/// A stateful per-channel plausibility filter.
///
/// # Examples
///
/// ```
/// use rcs_cooling::plausibility::{ChannelLimits, ChannelStatus, PlausibilityFilter};
/// use rcs_units::Seconds;
///
/// let mut filter = PlausibilityFilter::new(ChannelLimits::agent_temperature_c());
/// let good = filter.accept(Seconds::new(0.0), Some(29.0));
/// assert_eq!(good.status, ChannelStatus::Valid);
/// // a 20 K jump in 2 s is not physics — hold the last good value
/// let lie = filter.accept(Seconds::new(2.0), Some(49.0));
/// assert_eq!(lie.status, ChannelStatus::Held);
/// assert_eq!(lie.value, Some(29.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlausibilityFilter {
    limits: ChannelLimits,
    hold_timeout: Seconds,
    last_good: Option<(Seconds, f64)>,
    /// Time of the previous sample, plausible or not. The rate check
    /// measures against the last good *value* over the time since the
    /// last *scan*: if it measured over the time since the last good
    /// sample, any stuck value would become "plausible" again once
    /// enough time had passed to dilute the jump below the rate limit.
    last_scan: Option<Seconds>,
    held_since: Option<Seconds>,
    /// Delivered-but-implausible samples seen (range or rate check).
    rejected: u64,
    /// Dropouts seen (`accept` called with `None`).
    dropouts: u64,
}

/// Default hold timeout: a channel implausible for a full minute is
/// broken hardware, not a glitch.
pub(crate) const DEFAULT_HOLD_TIMEOUT: Seconds = Seconds::new(60.0);

impl PlausibilityFilter {
    /// A filter with the given limits and the default hold timeout.
    #[must_use]
    pub fn new(limits: ChannelLimits) -> Self {
        Self {
            limits,
            hold_timeout: DEFAULT_HOLD_TIMEOUT,
            last_good: None,
            last_scan: None,
            held_since: None,
            rejected: 0,
            dropouts: 0,
        }
    }

    /// Overrides the hold timeout.
    #[must_use]
    pub fn with_hold_timeout(mut self, timeout: Seconds) -> Self {
        self.hold_timeout = timeout;
        self
    }

    /// Feeds one raw sample (or a dropout, `None`) taken at time `t`;
    /// returns the value the control logic should act on.
    pub fn accept(&mut self, t: Seconds, raw: Option<f64>) -> FilteredSample {
        let plausible = raw.filter(|&v| self.limits.in_range(v)).filter(|&v| {
            match (self.last_good, self.last_scan) {
                (Some((_, good)), Some(t_scan)) => {
                    let dt = (t - t_scan).seconds();
                    dt <= 0.0 || (v - good).abs() / dt <= self.limits.max_rate_per_s
                }
                _ => true,
            }
        });
        self.last_scan = Some(t);
        match raw {
            None => self.dropouts += 1,
            Some(_) if plausible.is_none() => self.rejected += 1,
            Some(_) => {}
        }

        match plausible {
            Some(v) => {
                self.last_good = Some((t, v));
                self.held_since = None;
                FilteredSample {
                    value: Some(v),
                    status: ChannelStatus::Valid,
                }
            }
            None => {
                let since = *self.held_since.get_or_insert(t);
                let value = self.last_good.map(|(_, v)| v);
                let expired = (t - since).seconds() >= self.hold_timeout.seconds();
                FilteredSample {
                    value,
                    status: if value.is_none() || expired {
                        ChannelStatus::Failed
                    } else {
                        ChannelStatus::Held
                    },
                }
            }
        }
    }

    /// Captures the filter's full mutable state for a simulation-kernel
    /// checkpoint. [`PlausibilityFilter::restore_state`] with this value
    /// makes the filter's future decisions bit-identical to one that was
    /// never interrupted. The limits and hold timeout are configuration,
    /// not state — the restoring caller reconstructs those.
    #[must_use]
    pub fn state(&self) -> FilterState {
        FilterState {
            last_good: self.last_good.map(|(t, v)| (t.seconds(), v)),
            last_scan: self.last_scan.map(|t| t.seconds()),
            held_since: self.held_since.map(|t| t.seconds()),
            rejected: self.rejected,
            dropouts: self.dropouts,
        }
    }

    /// Overwrites the mutable state with a checkpoint captured by
    /// [`PlausibilityFilter::state`].
    pub fn restore_state(&mut self, state: &FilterState) {
        self.last_good = state.last_good.map(|(t, v)| (Seconds::new(t), v));
        self.last_scan = state.last_scan.map(Seconds::new);
        self.held_since = state.held_since.map(Seconds::new);
        self.rejected = state.rejected;
        self.dropouts = state.dropouts;
    }

    /// How many delivered samples failed the range or rate check over
    /// this filter's lifetime. A monotonic counter: one implausible
    /// sample is one rejection, so tests can assert the count against
    /// the number of injected lies.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// How many scans delivered no sample at all (`None`).
    #[must_use]
    pub fn dropouts(&self) -> u64 {
        self.dropouts
    }
}

/// The mutable state of one [`PlausibilityFilter`], captured by
/// [`PlausibilityFilter::state`] for simulation-kernel checkpoints.
/// Times are plain seconds so the snapshot layer can serialize the
/// struct without knowing about unit types.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterState {
    /// Time and value of the last plausible sample.
    pub last_good: Option<(f64, f64)>,
    /// Time of the previous sample, plausible or not.
    pub last_scan: Option<f64>,
    /// When the current hold window opened, if one is open.
    pub held_since: Option<f64>,
    /// Delivered-but-implausible samples seen.
    pub rejected: u64,
    /// Dropouts seen.
    pub dropouts: u64,
}

/// Median vote across redundant probes: the middle of the delivered
/// values (mean of the two middles for an even count), `None` when no
/// probe delivered anything. With three probes, one arbitrary liar
/// cannot move the vote outside the span of the two honest probes.
///
/// This is a public entry point, so it cannot assume its inputs came
/// through a [`PlausibilityFilter`]: a non-finite reading (NaN, ±inf —
/// a broken ADC, a poisoned upstream fold) is treated like a dropout
/// and excluded from the vote rather than panicking the supervisor or
/// poisoning the median. The surviving finite values are ordered with
/// `total_cmp`, which is a total order even if this filter ever changes.
#[must_use]
pub fn median_vote(values: &[Option<f64>]) -> Option<f64> {
    let mut live: Vec<f64> = values
        .iter()
        .copied()
        .flatten()
        .filter(|v| v.is_finite())
        .collect();
    if live.is_empty() {
        return None;
    }
    live.sort_by(f64::total_cmp);
    let mid = live.len() / 2;
    if live.len() % 2 == 1 {
        Some(live[mid])
    } else {
        Some(0.5 * (live[mid - 1] + live[mid]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent_filter() -> PlausibilityFilter {
        PlausibilityFilter::new(ChannelLimits::agent_temperature_c())
    }

    #[test]
    fn plausible_samples_pass_through() {
        let mut f = agent_filter();
        let s = f.accept(Seconds::new(0.0), Some(29.0));
        assert_eq!(
            s,
            FilteredSample {
                value: Some(29.0),
                status: ChannelStatus::Valid
            }
        );
        // slow physical warming passes the rate check
        let s = f.accept(Seconds::new(60.0), Some(30.5));
        assert_eq!(s.status, ChannelStatus::Valid);
        assert_eq!(s.value, Some(30.5));
    }

    #[test]
    fn out_of_range_samples_are_held() {
        let mut f = agent_filter();
        f.accept(Seconds::new(0.0), Some(29.0));
        let s = f.accept(Seconds::new(2.0), Some(500.0));
        assert_eq!(s.status, ChannelStatus::Held);
        assert_eq!(s.value, Some(29.0));
    }

    #[test]
    fn rate_violations_are_held() {
        let mut f = agent_filter();
        f.accept(Seconds::new(0.0), Some(29.0));
        // 10 K in 2 s = 5 K/s, fifty times the plausible oil rate
        let s = f.accept(Seconds::new(2.0), Some(39.0));
        assert_eq!(s.status, ChannelStatus::Held);
        assert_eq!(s.value, Some(29.0));
    }

    #[test]
    fn dropout_holds_then_fails_after_the_timeout() {
        let mut f = agent_filter().with_hold_timeout(Seconds::new(10.0));
        f.accept(Seconds::new(0.0), Some(29.0));
        let held = f.accept(Seconds::new(2.0), None);
        assert_eq!(held.status, ChannelStatus::Held);
        assert_eq!(held.value, Some(29.0));
        let failed = f.accept(Seconds::new(13.0), None);
        assert_eq!(failed.status, ChannelStatus::Failed);
        // the last good value is still offered for conservative control
        assert_eq!(failed.value, Some(29.0));
    }

    #[test]
    fn recovery_clears_the_hold() {
        let mut f = agent_filter().with_hold_timeout(Seconds::new(10.0));
        f.accept(Seconds::new(0.0), Some(29.0));
        f.accept(Seconds::new(2.0), None);
        let back = f.accept(Seconds::new(4.0), Some(29.05));
        assert_eq!(back.status, ChannelStatus::Valid);
        // a later glitch starts a fresh hold window
        let held = f.accept(Seconds::new(6.0), None);
        assert_eq!(held.status, ChannelStatus::Held);
    }

    #[test]
    fn never_good_channel_fails_immediately() {
        let mut f = agent_filter();
        let s = f.accept(Seconds::new(0.0), None);
        assert_eq!(
            s,
            FilteredSample {
                value: None,
                status: ChannelStatus::Failed
            }
        );
    }

    #[test]
    fn rejection_and_dropout_counters_tally_exactly() {
        let mut f = agent_filter();
        f.accept(Seconds::new(0.0), Some(29.0)); // valid
        f.accept(Seconds::new(2.0), Some(500.0)); // range lie
        f.accept(Seconds::new(4.0), Some(45.0)); // rate lie
        f.accept(Seconds::new(6.0), None); // dropout
        f.accept(Seconds::new(8.0), Some(29.05)); // recovery
        assert_eq!(f.rejected(), 2);
        assert_eq!(f.dropouts(), 1);
    }

    #[test]
    fn median_vote_outvotes_one_liar() {
        // one probe stuck high: the median stays with the honest pair
        assert_eq!(
            median_vote(&[Some(55.0), Some(90.0), Some(55.4)]),
            Some(55.4)
        );
        // a dropout leaves the mean of the two survivors
        assert_eq!(median_vote(&[Some(55.0), None, Some(55.4)]), Some(55.2));
        assert_eq!(median_vote(&[None, None, None]), None);
        assert_eq!(median_vote(&[]), None);
    }

    #[test]
    fn median_vote_survives_poisoned_probes() {
        // A NaN probe from a caller outside the PlausibilityFilter
        // pipeline used to panic the vote; now it counts as a dropout.
        assert_eq!(
            median_vote(&[Some(f64::NAN), Some(55.0), Some(55.4)]),
            Some(55.2)
        );
        // infinities are equally non-physical readings
        assert_eq!(
            median_vote(&[Some(f64::INFINITY), Some(55.0), Some(55.4)]),
            Some(55.2)
        );
        assert_eq!(
            median_vote(&[Some(f64::NEG_INFINITY), Some(f64::NAN), Some(61.0)]),
            Some(61.0)
        );
        // nothing finite delivered: no vote, not a NaN vote
        assert_eq!(median_vote(&[Some(f64::NAN), Some(f64::NAN)]), None);
    }
}
