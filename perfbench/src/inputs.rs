//! Seeded inputs: which intents each workload sends, and when.
//!
//! Everything here is a pure function of the workload seed. The request
//! choice and the Poisson arrival schedule use the benchmark's own
//! generator (SplitMix64), so a later change to the program's random
//! number code cannot change what a given seed sends. The `live`
//! workload's sessions and catalog mutations come from the program's own
//! seeded generators (`generate_sessions`, `mutation_batches`), which the
//! workload is defined by.

use qrw_data::{generate_sessions, ClickLog, SessionConfig};

/// SplitMix64: small, fast and stable across platforms.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Independent streams derived from one workload seed.
const ARRIVAL_STREAM: u64 = 0xa11e_5eed;
const REQUEST_STREAM: u64 = 0x5e9_0e57;
const BURST_STREAM: u64 = 0xb0_857;
const CHURN_STREAM: u64 = 0xc4_0e11;

fn stream(seed: u64, which: u64) -> u64 {
    Rng::new(seed ^ which.rotate_left(17)).next_u64()
}

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Only the cached (top 20%) intents, weighted by log frequency.
    Head,
    /// Only the uncached intents, drawn uniformly.
    Tail,
    /// Frequency-weighted sessions on the session path while a writer
    /// commits catalog mutations and publishes model epochs.
    Live,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Head, Workload::Tail, Workload::Live];

    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "head" => Some(Workload::Head),
            "tail" => Some(Workload::Tail),
            "live" => Some(Workload::Live),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Head => "head",
            Workload::Tail => "tail",
            Workload::Live => "live",
        }
    }

    /// The fixed offered rate of the open-loop phase, in requests per
    /// second. Set once, at roughly 10-20% of the drain throughput the
    /// stack reached when the benchmark was defined, and never derived
    /// per run or per host: a later gain shows as lower latency at the
    /// same load.
    pub fn offered_rps(self) -> f64 {
        match self {
            Workload::Head => 3000.0,
            Workload::Tail => 2000.0,
            Workload::Live => 1500.0,
        }
    }

    /// Requests per drain burst of the `peak_rps` phase.
    pub fn burst_requests(self) -> usize {
        match self {
            Workload::Head => 8_000,
            Workload::Tail => 5_000,
            Workload::Live => 4_000,
        }
    }
}

/// One request as the benchmark sends it: an intent (index into
/// `ClickLog::queries`) plus, on the session path, the intents of the
/// session's earlier queries (oldest first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub intent: usize,
    pub context: Vec<usize>,
}

/// Intents split by frequency rank: the top 20% are prefilled into the
/// rewrite cache, the rest are not. Ties break by index, so the split is
/// a pure function of the log.
pub fn split_by_frequency(log: &ClickLog) -> (Vec<usize>, Vec<usize>) {
    let mut order: Vec<usize> = (0..log.queries.len()).collect();
    order.sort_by(|&a, &b| {
        log.queries[b]
            .frequency
            .cmp(&log.queries[a].frequency)
            .then(a.cmp(&b))
    });
    let head = (log.queries.len() / 5).max(1);
    let uncached = order.split_off(head);
    (order, uncached)
}

/// Poisson arrival offsets in nanoseconds from the phase start: `n`
/// exponential gaps at `rate` per second.
pub fn arrivals(seed: u64, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(stream(seed, ARRIVAL_STREAM));
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // 1 - u is in (0, 1], so the log is finite.
            t += -(1.0 - rng.next_f64()).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// Frequency-weighted draws from `pool`.
fn weighted(log: &ClickLog, pool: &[usize], n: usize, rng: &mut Rng) -> Vec<Request> {
    let mut cumulative = Vec::with_capacity(pool.len());
    let mut total = 0u64;
    for &qi in pool {
        total += u64::from(log.queries[qi].frequency.max(1));
        cumulative.push(total);
    }
    (0..n)
        .map(|_| {
            let x = rng.next_u64() % total;
            let slot = cumulative.partition_point(|&c| c <= x);
            Request {
                intent: pool[slot],
                context: Vec::new(),
            }
        })
        .collect()
}

/// The request sequence of one phase. `burst` selects an independent
/// stream for the drain bursts, so they never replay the open-loop
/// phase's sequence.
pub fn requests(
    workload: Workload,
    log: &ClickLog,
    cached: &[usize],
    uncached: &[usize],
    seed: u64,
    n: usize,
    burst: u64,
) -> Vec<Request> {
    let which = if burst == 0 {
        REQUEST_STREAM
    } else {
        BURST_STREAM.wrapping_add(burst)
    };
    let mut rng = Rng::new(stream(seed, which));
    match workload {
        Workload::Head => weighted(log, cached, n, &mut rng),
        Workload::Tail => (0..n)
            .map(|_| Request {
                intent: uncached[rng.below(uncached.len())],
                context: Vec::new(),
            })
            .collect(),
        Workload::Live => {
            // Sessions average 3.5 queries (2..=5); generate enough and
            // flatten them in order, each query carrying its prefix.
            let sessions = generate_sessions(
                log,
                &SessionConfig {
                    sessions: n / 2 + 1,
                    min_len: 2,
                    max_len: 5,
                    drift: 0.3,
                    seed: rng.next_u64(),
                },
            );
            let mut out = Vec::with_capacity(n);
            'fill: for s in &sessions {
                for (i, &qi) in s.iter().enumerate() {
                    if out.len() == n {
                        break 'fill;
                    }
                    out.push(Request {
                        intent: qi,
                        context: s[..i].to_vec(),
                    });
                }
            }
            out
        }
    }
}

/// Seed of the `live` writer's mutation stream.
pub fn churn_seed(seed: u64) -> u64 {
    stream(seed, CHURN_STREAM)
}
