//! Seeded input generators for the three workloads.
//!
//! Every generator is a pure function of its seed and of how many
//! inputs were drawn before, so a workload can pre-generate a pool during
//! set-up and keep drawing from the same stream if a run outlasts it.

use rcs_cooling::faults::{FaultKind, FaultTimeline, SensorChannel, SensorFault};
use rcs_core::FaultDrill;
use rcs_hydraulics::layout::ReturnStyle;
use rcs_numeric::rng::Rng;
use rcs_units::Seconds;

/// Requests per `run_batch` call and drills per `par_map_indexed` group.
pub const GROUP: usize = 16;

/// Share of `query_mix` requests drawn from the Zipf-popular hot set.
const HOT_SHARE: f64 = 0.8;

const FAMILIES: [&str; 4] = ["rigel2", "taygeta", "skat", "skat_plus"];
const COOLANTS: [&str; 2] = ["src_dielectric", "mineral_oil_md45"];
const BATHS: [&str; 2] = ["skat", "skat_plus"];
const TRIALS: [u32; 3] = [64, 256, 1024];
/// Utilization grid 0.40, 0.45, …, 1.00.
const UTIL_STEPS: usize = 13;
/// Monte-Carlo seed of every hot point; sweeper seeds start far above it.
const HOT_MC_SEED: u64 = 42;
const SWEEP_MC_SEED_BASE: u64 = 1_000_000;

/// Drill length: 600 supervisor scans of 2 s.
const DRILL_MINUTES: f64 = 20.0;

/// Module counts a rack design is drawn from (inclusive).
pub const RACK_MODULES_MAX: usize = 32;
/// Designs per `rack_sweep` deck: every count × return style × family.
pub const RACK_DECK: usize = RACK_MODULES_MAX * 4;

// Distinct salts keep the per-workload streams apart for one seed.
const QUERY_SALT: u64 = 0x5155_4552_595f_4d49;
const DRILL_SALT: u64 = 0x4452_494c_4c5f_464c;
const NOISE_SALT: u64 = 0x4e4f_4953_455f_5354;
const RACK_SALT: u64 = 0x5241_434b_5f53_5745;

fn util_at(step: usize) -> f64 {
    0.40 + 0.05 * step as f64
}

fn spec(
    family: &str,
    coolant: &str,
    bath: &str,
    util_step: usize,
    trials: u32,
    seed: u64,
) -> String {
    format!(
        "family={family} coolant={coolant} bath={bath} util={:.2} trials={trials} seed={seed}",
        util_at(util_step)
    )
}

/// The 624 hot design points: 4 families × 2 coolants × 2 baths × 13
/// utilizations × 3 trial budgets, in a fixed enumeration order.
#[must_use]
pub fn hot_points() -> Vec<String> {
    let mut points = Vec::with_capacity(624);
    for family in FAMILIES {
        for coolant in COOLANTS {
            for bath in BATHS {
                for step in 0..UTIL_STEPS {
                    for trials in TRIALS {
                        points.push(spec(family, coolant, bath, step, trials, HOT_MC_SEED));
                    }
                }
            }
        }
    }
    points
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// `query_mix` request specs: 80 % Zipf(s = 1) over the hot points and
/// 20 % from a sweeper whose points never repeat. The popularity ranking
/// is one fixed shuffle, the same for every seed: which points are hot
/// decides the miss cost (trial budgets differ 2.3× in solve time), so a
/// per-seed ranking would change the workload's cost from seed to seed.
pub struct QueryMixGen {
    rng: Rng,
    hot: Vec<String>,
    cdf: Vec<f64>,
    swept: u64,
}

impl QueryMixGen {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut hot = hot_points();
        shuffle(&mut hot, &mut Rng::seed_from_u64(QUERY_SALT));
        let rng = Rng::seed_from_u64(seed ^ QUERY_SALT);
        let mut total = 0.0;
        let cdf = (1..=hot.len())
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Self {
            rng,
            hot,
            cdf,
            swept: 0,
        }
    }

    /// The next request spec.
    pub fn next_spec(&mut self) -> String {
        if self.rng.next_f64() < HOT_SHARE {
            let total = self.cdf[self.cdf.len() - 1];
            let u = self.rng.next_f64() * total;
            let rank = self
                .cdf
                .partition_point(|&c| c <= u)
                .min(self.hot.len() - 1);
            self.hot[rank].clone()
        } else {
            let family = FAMILIES[self.rng.gen_range(0..FAMILIES.len())];
            let coolant = COOLANTS[self.rng.gen_range(0..COOLANTS.len())];
            let bath = BATHS[self.rng.gen_range(0..BATHS.len())];
            let step = self.rng.gen_range(0..UTIL_STEPS);
            let trials = TRIALS[self.rng.gen_range(0..TRIALS.len())];
            self.swept += 1;
            spec(
                family,
                coolant,
                bath,
                step,
                trials,
                SWEEP_MC_SEED_BASE + self.swept,
            )
        }
    }

    /// The next `n` request specs.
    pub fn specs(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.next_spec()).collect()
    }
}

/// One generated drill: the script plus its own sensor-noise stream.
pub struct DrillInput {
    /// The drill (design, fault timeline, 20-minute horizon).
    pub drill: FaultDrill,
    /// The drill's jumped noise stream.
    pub noise: Rng,
    /// `true` when every scripted event is a sensor fault, so the plant
    /// itself stays healthy and the drill must end clean.
    pub nominal_plant: bool,
}

/// `drill_fleet` drills: SKAT or SKAT+ (50/50), each with 1–3 events of
/// distinct kinds from the full `FaultKind` taxonomy, with onsets in the
/// first 5 minutes and magnitudes drawn below the E17 scripts'.
pub struct DrillGen {
    rng: Rng,
    noise: Rng,
    drawn: u64,
}

/// Number of `FaultKind` variants the generator draws from.
pub const FAULT_KINDS: usize = 8;

impl DrillGen {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::seed_from_u64(seed ^ DRILL_SALT),
            noise: Rng::seed_from_u64(seed ^ NOISE_SALT),
            drawn: 0,
        }
    }

    /// A severity in `[0.2, 0.6]` of the E17 script's magnitude. Near
    /// E17's own magnitudes, fouling or capacity loss combined with a
    /// second fault stalls the coupled fixed point in rare drills, and a
    /// benchmark op must not fail. A drift's cost comes from how often
    /// the plant is relinearized, not from its rate, so milder faults
    /// keep the cost profile.
    fn severity(&mut self) -> f64 {
        self.rng.gen_range(0.2..=0.6)
    }

    fn sensor_fault(&mut self) -> FaultKind {
        let channel = match self.rng.gen_range(0..4usize) {
            0 => SensorChannel::CoolantLevel,
            1 => SensorChannel::CoolantFlow,
            2 => SensorChannel::AgentTemperature,
            _ => SensorChannel::ComponentTemperature(self.rng.gen_range(0..3usize)),
        };
        let stuck = match channel {
            SensorChannel::CoolantLevel => 1.0,
            SensorChannel::CoolantFlow => 40.0,
            _ => 45.0,
        };
        let fault = match self.rng.gen_range(0..3usize) {
            0 => SensorFault::StuckAt(stuck),
            1 => SensorFault::Drift {
                rate_per_s: 0.2 * self.severity(),
            },
            _ => SensorFault::Dropout,
        };
        FaultKind::SensorFault { channel, fault }
    }

    /// Event `kind` (index into the taxonomy) with a randomised onset
    /// and severity; `pumps` is the design's pump count.
    fn event(&mut self, kind: usize, pumps: usize) -> (Seconds, FaultKind) {
        let fault = match kind {
            0 => FaultKind::PumpSeizure {
                pump: self.rng.gen_range(0..pumps),
            },
            1 => FaultKind::ImpellerWear {
                head_decay_per_hour: 2.0 * self.severity(),
            },
            // Fouling gets half that: from about 0.0047 K/W/h, fouling on
            // SKAT+ with a chiller fault, leak or stuck valve plus a sensor
            // fault stalls the coupled fixed point late in the drill.
            2 => FaultKind::ExchangerFouling {
                rate_k_per_w_per_hour: 0.005 * self.severity(),
            },
            3 => FaultKind::ChillerSetpointDrift {
                rate_k_per_hour: 45.0 * self.severity(),
            },
            // E17 keeps 3 % of capacity; here 40–80 % remains.
            4 => FaultKind::ChillerCapacityLoss {
                capacity_factor: 1.0 - self.severity(),
            },
            5 => FaultKind::CoolantLeak {
                level_per_hour: 1.2 * self.severity(),
            },
            6 => FaultKind::ValveStuckPartial {
                opening: 0.15 / self.severity(),
            },
            _ => self.sensor_fault(),
        };
        // E17 onsets sit between 0 and 5 minutes.
        let at = Seconds::new(self.rng.gen_range(0.0..300.0));
        (at, fault)
    }

    /// The next group of [`GROUP`] drills; their noise streams come from
    /// one `split_streams` call, so stream `i` is one jump past `i − 1`.
    pub fn group(&mut self) -> Vec<DrillInput> {
        let mut streams = self.noise.split_streams(GROUP + 1);
        self.noise = streams.pop().expect("GROUP + 1 streams");
        streams
            .into_iter()
            .map(|noise| {
                let plus = self.rng.gen_bool(0.5);
                let pumps = if plus { 2 } else { 1 };
                // 1–3 events of distinct kinds: the first `events` of a
                // partial shuffle of the taxonomy.
                let events = self.rng.gen_range(1..=3usize);
                let mut kinds: [usize; FAULT_KINDS] = core::array::from_fn(|k| k);
                let mut timeline = FaultTimeline::new();
                let mut nominal_plant = true;
                for i in 0..events {
                    kinds.swap(i, self.rng.gen_range(i..FAULT_KINDS));
                    let kind = kinds[i];
                    nominal_plant &= kind == FAULT_KINDS - 1;
                    let (at, fault) = self.event(kind, pumps);
                    timeline = timeline.with_event(at, fault);
                }
                self.drawn += 1;
                let name = format!("drill-{}", self.drawn);
                let duration = Seconds::minutes(DRILL_MINUTES);
                let drill = if plus {
                    FaultDrill::skat_plus(&name, timeline, duration)
                } else {
                    FaultDrill::skat(&name, timeline, duration)
                };
                DrillInput {
                    drill,
                    noise,
                    nominal_plant,
                }
            })
            .collect()
    }
}

/// One `rack_sweep` design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackDesign {
    /// SKAT+ modules instead of SKAT.
    pub plus: bool,
    /// Modules in the rack.
    pub modules: usize,
    /// Manifold return style.
    pub style: ReturnStyle,
    /// Sustained FPGA utilization.
    pub utilization: f64,
}

/// `rack_sweep` designs, dealt from decks of 128 that the seed shuffles:
/// each deck holds every module count 1–32 × return style × module
/// family once, at a utilization fixed per card. Solve cost jumps where
/// a rack outgrows its chiller, around 16 modules, which is where the
/// median design sits; a random family or utilization per design would
/// move the median across that jump from seed to seed, so every seed
/// deals the same designs and only their order differs.
pub struct RackGen {
    rng: Rng,
    deck: Vec<RackDesign>,
}

/// The fixed utilization of a card: steps of 0.05 over 0.5–1.0, spread
/// over counts, styles and families so that each combination sees a
/// different load.
fn card_utilization(modules: usize, style: usize, plus: usize) -> f64 {
    0.5 + 0.05 * ((5 * modules + 3 * style + 7 * plus) % 11) as f64
}

impl RackGen {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::seed_from_u64(seed ^ RACK_SALT),
            deck: Vec::new(),
        }
    }

    /// The next design.
    pub fn next_design(&mut self) -> RackDesign {
        if self.deck.is_empty() {
            for modules in 1..=RACK_MODULES_MAX {
                for (s, style) in [ReturnStyle::Direct, ReturnStyle::Reverse]
                    .into_iter()
                    .enumerate()
                {
                    for plus in [false, true] {
                        self.deck.push(RackDesign {
                            plus,
                            modules,
                            style,
                            utilization: card_utilization(modules, s, usize::from(plus)),
                        });
                    }
                }
            }
            shuffle(&mut self.deck, &mut self.rng);
        }
        self.deck.pop().expect("deck refilled above")
    }

    /// The next `n` designs.
    pub fn designs(&mut self, n: usize) -> Vec<RackDesign> {
        (0..n).map(|_| self.next_design()).collect()
    }
}
