//! Input generation: every scenario spec and request frame a run sends
//! is drawn here from the `--seed` argument, so the same seed always
//! yields the same inputs and the program sees only the generated JSON.

/// Sensor nodes of a city workload (the sink included).
pub const CITY_NODES: u32 = 100_000;
/// Rounds per city request: enough that the per-round traffic pass,
/// not the one route build per request, dominates the request.
pub const CITY_ROUNDS: u64 = 10;
/// F15's fault mix.
pub const F15_FAULTS: &str = "death=0.1,outage=0.2:10,link=0.1:8";
/// Compile-cache capacity of the `ami_svcd` daemon.
pub const CACHE_CAPACITY: usize = 64;

/// Distinct cached specs per `svc_mix` kind.
const HOT_SEEDS: usize = 3;
/// Length of the `svc_mix` frame sequence; runs that outlast it cycle.
/// A fifth of its frames are misses, so more than `CACHE_CAPACITY`
/// distinct misses separate two sends of one miss spec and it misses
/// again on every cycle.
const MIX_FRAMES: usize = 1000;
/// One frame in every `MISS_EVERY` carries a never-seen spec.
pub const MISS_EVERY: usize = 5;
/// One frame in every `BATCH_EVERY` is a batch `[x, x, y]`.
pub const BATCH_EVERY: usize = 10;

/// What a spec runs; `svc_mix` kinds are sent round-robin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    CitySteady,
    CityChurn,
    CityLossy,
    /// F6-style replicated small gathering under F6's fault mix.
    Replicated,
    /// F13's 5×5 lossy grid.
    LossyGrid,
    /// F3's CS1 duty-cycle sweep.
    Cs1,
    /// F15 at n = 1600 under F15's fault mix.
    City1600,
}

impl Kind {
    pub const MIX: [Kind; 4] = [Kind::Replicated, Kind::LossyGrid, Kind::Cs1, Kind::City1600];

    pub fn label(self) -> &'static str {
        match self {
            Kind::CitySteady => "city_steady",
            Kind::CityChurn => "city_churn",
            Kind::CityLossy => "city_lossy",
            Kind::Replicated => "replicated",
            Kind::LossyGrid => "lossy_grid",
            Kind::Cs1 => "cs1",
            Kind::City1600 => "city1600",
        }
    }
}

/// One generated scenario.
#[derive(Clone, Debug)]
pub struct Input {
    pub kind: Kind,
    /// The scenario spec as JSON text, as sent on the wire.
    pub text: String,
    /// Simulated node-rounds one run of the spec covers.
    pub node_rounds: u64,
}

/// What a run sends: distinct specs, the frames that reference them,
/// and how they are sent.
pub struct Plan {
    pub pool: Vec<Input>,
    /// Pool indices per frame; more than one makes a batch frame.
    pub frames: Vec<Vec<usize>>,
    /// Pool indices sent once before timing starts.
    pub warmup: Vec<usize>,
    /// The request's `"threads"` member.
    pub threads: usize,
    /// Closed-loop client connections.
    pub connections: usize,
}

/// SplitMix64: a small, fixed generator, so inputs never depend on a
/// library's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A scenario seed; scenario files carry integers below 2^53.
    fn scenario_seed(&mut self) -> u64 {
        self.next_u64() >> 24
    }
}

fn gathering() -> &'static str {
    r#"{"kind":"gathering","strategy":"minimum_energy"}"#
}

fn lossy() -> &'static str {
    r#"{"kind":"lossy","ber":0.001,"arq_attempts":4}"#
}

/// The spec of `kind` at scenario seed `seed`.
pub fn input(kind: Kind, seed: u64) -> Input {
    let name = kind.label().replace('_', "-");
    let city = |workload: &str, faults: &str| {
        let field = 25.0 * f64::from(CITY_NODES).sqrt();
        format!(
            r#"{{"name":"bench-{name}","seed":{seed},"rounds":{CITY_ROUNDS},"topology":{{"kind":"random","nodes":{CITY_NODES},"field_m":{field}}},"workload":{workload}{faults}}}"#
        )
    };
    let city_faults = format!(r#","faults":"{F15_FAULTS}""#);
    let city_node_rounds = u64::from(CITY_NODES) * CITY_ROUNDS;
    let (text, node_rounds) = match kind {
        Kind::CitySteady => (city(gathering(), ""), city_node_rounds),
        Kind::CityChurn => (city(gathering(), &city_faults), city_node_rounds),
        Kind::CityLossy => (city(lossy(), ""), city_node_rounds),
        Kind::Replicated => (
            format!(
                r#"{{"name":"bench-{name}","seed":{seed},"rounds":200,"replications":8,"topology":{{"kind":"random","nodes":40,"field_m":400.0}},"network":{{"node_energy_j":20.0}},"workload":{},"faults":"death=0.08,outage=0.15:60,fade=0.25:0.5"}}"#,
                gathering()
            ),
            40 * 200 * 8,
        ),
        Kind::LossyGrid => (
            format!(
                r#"{{"name":"bench-{name}","seed":{seed},"rounds":300,"topology":{{"kind":"grid","side":5,"spacing_m":30.0}},"workload":{}}}"#,
                lossy()
            ),
            25 * 300,
        ),
        Kind::Cs1 => (
            format!(
                r#"{{"name":"bench-{name}","seed":{seed},"workload":{{"kind":"cs1_duty_cycle","ledger_days":3.0}},"sweeps":[{{"name":"check_interval_s","values":[0.02,0.05,0.1,0.25,0.5,1.0,2.0,4.0,8.0]}}]}}"#
            ),
            0,
        ),
        Kind::City1600 => (
            format!(
                r#"{{"name":"bench-{name}","seed":{seed},"rounds":30,"topology":{{"kind":"random","nodes":1600,"field_m":1000.0}},"workload":{}{city_faults}}}"#,
                gathering()
            ),
            1600 * 30,
        ),
    };
    Input {
        kind,
        text,
        node_rounds,
    }
}

/// A city workload: one spec, re-sent by one connection at the host's
/// thread count.
pub fn city_plan(kind: Kind, seed: u64, threads: usize) -> Plan {
    let mut rng = Rng::new(seed);
    Plan {
        pool: vec![input(kind, rng.scenario_seed())],
        frames: vec![vec![0]],
        warmup: vec![0],
        threads,
        connections: 1,
    }
}

/// The hot `svc_mix` specs: `HOT_SEEDS` per kind, pool indices
/// `0..Kind::MIX.len() * HOT_SEEDS`, kind-major.
fn hot_inputs(rng: &mut Rng) -> Vec<Input> {
    Kind::MIX
        .iter()
        .flat_map(|&kind| (0..HOT_SEEDS).map(move |_| kind))
        .map(|kind| input(kind, rng.scenario_seed()))
        .collect()
}

/// One hot spec per `svc_mix` kind at `seed` — the same specs the
/// `svc_mix` run of that seed sends first.
pub fn mix_probe(seed: u64) -> Vec<Input> {
    let hot = hot_inputs(&mut Rng::new(seed));
    hot.into_iter().step_by(HOT_SEEDS).collect()
}

/// The `svc_mix` traffic: kinds round-robin; in every block of
/// `MISS_EVERY` frames one (at a drawn position) carries a fresh seed
/// and misses the cache, the rest draw one of the kind's hot seeds; in
/// every block of `BATCH_EVERY` frames one is a batch that repeats its
/// spec and adds a hot spec of the next kind. Two connections, one
/// worker thread per request.
pub fn mix_plan(seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let mut pool = hot_inputs(&mut rng);
    let warmup: Vec<usize> = (0..pool.len()).collect();
    let kinds = Kind::MIX.len();
    let mut frames = Vec::with_capacity(MIX_FRAMES);
    let (mut miss_at, mut batch_at) = (0, 0);
    for f in 0..MIX_FRAMES {
        if f % MISS_EVERY == 0 {
            miss_at = f + rng.below(MISS_EVERY);
        }
        if f % BATCH_EVERY == 0 {
            batch_at = f + rng.below(BATCH_EVERY);
        }
        let k = f % kinds;
        let spec = if f == miss_at {
            pool.push(input(Kind::MIX[k], rng.scenario_seed()));
            pool.len() - 1
        } else {
            k * HOT_SEEDS + rng.below(HOT_SEEDS)
        };
        let frame = if f == batch_at {
            let next = (k + 1) % kinds;
            vec![spec, spec, next * HOT_SEEDS + rng.below(HOT_SEEDS)]
        } else {
            vec![spec]
        };
        frames.push(frame);
    }
    Plan {
        pool,
        frames,
        warmup,
        threads: 1,
        connections: 2,
    }
}
