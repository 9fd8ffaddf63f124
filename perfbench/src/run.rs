//! One benchmark run: set-up, the phases of one workload, the output
//! checks, and the metrics.
//!
//! Untraced (`--trace 0`): set-up (several builds), then [`ROUNDS`]
//! rounds, each of drain bursts (`peak_rps`, relevance), commit bursts on
//! an unread catalog (`head`, `tail`) and a slice of the open-loop phase at
//! the workload's fixed rate (`p50_ms`, `p99_ms`; on `live` the writer's
//! commits). Spreading every measurement over the whole run keeps a noisy
//! stretch of a shared host from moving one metric wholesale.
//!
//! Traced (`--trace 1`): set-up, an untraced open-loop half, the same
//! requests again through an engine carrying the runtime's tracer, then
//! the layer replay. Every per-layer metric comes from this run.

use std::collections::{BTreeMap, HashSet};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use qrw_obs::{ObsClock, Tracer};
use qrw_search::{CatalogWriter, RewriteSource, SearchEngine, SwapStats};
use qrw_serve::{ServeStack, ServedRecord};

use crate::check::{live_failures, relevance_at10, rewrite_relevance, Phase, Reference};
use crate::deploy::{build_repeated, us, Deployment, SetupTimes};
use crate::drive::{
    burst, open_loop, Churn, OpenLoop, Sent, Writer, WriterLog, WriterPlan, COMPACT_EVERY,
};
use crate::inputs::{arrivals, requests, Request, Workload};
use crate::stats::{median, quantile, ratio, Metrics};
use crate::trace::{replay, retrieval_cost, scheduler};

/// Deployments built per run; `setup_s` is their median.
pub const SETUP_BUILDS: usize = 3;
/// Rounds of an untraced run, and drain bursts per round.
pub const ROUNDS: usize = 5;
pub const BURSTS_PER_ROUND: usize = 4;
/// The `live` writer: one feed burst of `COMPACT_EVERY` commits every
/// `COMMIT_PERIOD`, one model publish every `PUBLISH_EVERY` commits
/// (after every burst).
pub const COMMIT_PERIOD: Duration = Duration::from_millis(500);
pub const PUBLISH_EVERY: usize = COMPACT_EVERY;
/// Requests the traced run replays layer by layer.
pub const REPLAY_REQUESTS: usize = 1500;
/// Latency percentiles are taken per window of this length of open-loop
/// traffic, in send order. Every window holds at least 1500 requests at
/// every workload's rate, so more than 10 lie beyond its p99.
pub const LATENCY_WINDOW_S: f64 = 1.0;
/// Which quantile over the windows (or bursts) a timing reports.
/// Interference from other tenants of a shared host only ever adds time,
/// so the quarter of the windows on the fast side is the steadier
/// estimate of what the stack itself costs: latencies report the first
/// quartile over their windows, commit times the first quartile over the
/// writer's feed bursts (each burst's percentile taken over its
/// `COMPACT_EVERY` commits), `peak_rps` the third quartile over its drain
/// bursts.
pub const QUIET_QUARTILE: f64 = 0.25;
/// Commits on the unread catalog (`head`, `tail`): feed bursts per round,
/// and the pause before each burst.
pub const COMMIT_BURSTS_PER_ROUND: usize = 10;
pub const COMMIT_BURST_GAP: Duration = Duration::from_millis(20);

/// Every end-to-end metric: name, unit, and which way is better.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("peak_rps", "req/s", "higher"),
    ("relevance_at10", "score", "higher"),
    ("rewrite_relevance", "score", "higher"),
    ("commit_p50_ms", "ms", "lower"),
    ("commit_p90_ms", "ms", "lower"),
];

/// Every per-layer metric of the traced run: name, unit, and which way
/// is better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("serve.queue_wait_us.p50", "us", "lower"),
    ("serve.queue_wait_us.p99", "us", "lower"),
    ("serve.batch_size.mean", "count", "higher"),
    ("serve.decode_slots_per_batch", "count", "lower"),
    ("serve.coalesced_share", "share", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("serve.teacher_slots", "count", "lower"),
    ("kv.hit_share", "share", "higher"),
    ("kv.get_us.p50", "us", "lower"),
    ("student.rewrite_us.p50", "us", "lower"),
    ("student.rewrite_us.p99", "us", "lower"),
    ("student.tokens_per_req", "count", "lower"),
    ("student.tokens_per_s", "1/s", "higher"),
    ("tree.nodes_per_req", "count", "lower"),
    ("tree.postings_scanned_per_req", "count", "lower"),
    ("tree.merge_ops_per_req", "count", "lower"),
    ("tree.evaluate_us.p50", "us", "lower"),
    ("shard.traverse_us.p50", "us", "lower"),
    ("shard.scatter_us.p50", "us", "lower"),
    ("shard.dispatch_us.p50", "us", "lower"),
    ("shard.partial", "count", "lower"),
    ("shard.rebuild_us.p50", "us", "lower"),
    ("rank.us.p50", "us", "lower"),
    ("rank.candidates_per_req", "count", "higher"),
    ("snapshot.commit_us.p50", "us", "lower"),
    ("snapshot.commit_us.p90", "us", "lower"),
    ("snapshot.pin_us.p50", "us", "lower"),
    ("snapshot.epochs_published", "count", "higher"),
    ("snapshot.epochs_reclaimed", "count", "higher"),
    ("snapshot.pin_retries", "count", "lower"),
    ("models.pin_us.p50", "us", "lower"),
    ("models.publish_us.p50", "us", "lower"),
    ("models.swaps", "count", "higher"),
    ("models.swap_failures", "count", "lower"),
    ("setup.corpus_s", "s", "lower"),
    ("setup.train_s", "s", "lower"),
    ("setup.train_steps_per_s", "1/s", "higher"),
    ("setup.distill_s", "s", "lower"),
    ("setup.q2q_s", "s", "lower"),
    ("setup.prefill_s", "s", "lower"),
    ("setup.index_s", "s", "lower"),
    ("baseline.calls", "count", "lower"),
    ("gen.late_us.p99", "us", "lower"),
    ("obs.overhead_share", "share", "lower"),
    ("trace.coverage_share", "share", "higher"),
    ("trace.replay_mismatches", "count", "lower"),
    ("rung.served_cache", "share", "higher"),
    ("rung.served_student", "share", "higher"),
    ("rung.served_online", "share", "lower"),
    ("rung.served_baseline", "share", "lower"),
    ("rung.served_raw", "share", "lower"),
];

fn push_from(
    table: &[(&'static str, &'static str, &'static str)],
    m: &mut Metrics,
    name: &str,
    v: f64,
) {
    let &(name, unit, better) = table
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("unlisted metric {name}"));
    m.push(name, unit, better, v);
}

fn push_e2e(m: &mut Metrics, name: &str, v: f64) {
    push_from(END_TO_END, m, name, v);
}

fn push_layer(m: &mut Metrics, name: &str, v: f64) {
    push_from(PER_LAYER, m, name, v);
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub metrics: Metrics,
    pub phases: Vec<Phase>,
    /// Human-readable lines (rung shares, prediction checks).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }
}

fn materialise(dep: &Deployment, reqs: &[Request]) -> Vec<Sent> {
    reqs.iter()
        .map(|r| Sent {
            query: dep.tokens(r.intent).to_vec(),
            context: r.context.iter().map(|&c| dep.tokens(c).to_vec()).collect(),
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The open-loop request count for `seconds` at the workload's rate.
fn open_loop_requests(w: Workload, seconds: f64) -> usize {
    (w.offered_rps() * seconds).ceil().max(1.0) as usize
}

/// Each full window's `q`-quantile, for consecutive windows of `window`
/// samples; a trailing partial window counts only when it is the only one.
fn per_window(values: &[f64], window: usize, q: f64) -> Vec<f64> {
    let window = window.max(1);
    if values.len() < window {
        return vec![quantile(values, q)];
    }
    values
        .chunks_exact(window)
        .map(|w| quantile(w, q))
        .collect()
}

/// Served-request latencies of an open-loop slice, in ms, in send order.
fn latencies(records: &[ServedRecord]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.response().is_some())
        .map(|r| ms(r.latency))
        .collect()
}

/// The rewrite source (ladder rung) of each served response.
fn sources(records: &[ServedRecord]) -> impl Iterator<Item = RewriteSource> + '_ {
    records
        .iter()
        .filter_map(|r| r.response().map(|resp| resp.rewrite_source))
}

/// Rung shares of served responses, by their rewrite source.
fn rung_shares(sources: &[RewriteSource]) -> [(&'static str, f64); 5] {
    let share = |s: RewriteSource| {
        ratio(
            sources.iter().filter(|&&x| x == s).count() as f64,
            sources.len() as f64,
        )
    };
    [
        ("served_cache", share(RewriteSource::Cache)),
        ("served_student", share(RewriteSource::Student)),
        ("served_online", share(RewriteSource::Fallback)),
        ("served_baseline", share(RewriteSource::Baseline)),
        ("served_raw", share(RewriteSource::None)),
    ]
}

fn rung_line(label: &str, shares: &[(&'static str, f64)]) -> String {
    let parts: Vec<String> = shares.iter().map(|(n, v)| format!("{n} {v:.4}")).collect();
    format!("rung shares ({label}): {}", parts.join(", "))
}

/// Everything a workload run shares between its phases.
struct Ctx {
    dep: Deployment,
    builds: Vec<SetupTimes>,
    workload: Workload,
    seed: u64,
    /// Catalog and model epochs published so far (the `live` check).
    catalog_epochs: HashSet<u64>,
    model_epochs: HashSet<u64>,
    /// The `live` writer thread.
    writer: Option<Writer>,
    /// The sequential reference of `head`/`tail`, built once the first
    /// phase has served.
    reference: Option<Reference>,
    phases: Vec<Phase>,
    notes: Vec<String>,
}

impl Ctx {
    fn new(workload: Workload, seed: u64) -> Self {
        let (mut dep, builds) = build_repeated(SETUP_BUILDS);
        let catalog_epochs = HashSet::from([dep.store.current_epoch()]);
        let model_epochs = HashSet::from([dep.models.current_epoch()]);
        let writer = (workload == Workload::Live).then(|| {
            let plan = WriterPlan {
                period: COMMIT_PERIOD,
                publish_every: PUBLISH_EVERY,
                models: Arc::clone(&dep.models),
                alternates: dep.alternates.clone(),
            };
            let catalog = dep
                .writer
                .take()
                .expect("a fresh deployment has its writer");
            Writer::start(catalog, Churn::new(Arc::clone(&dep.vocab), seed), plan)
        });
        let phases = vec![Phase {
            name: "setup".into(),
            attempted: builds.len() as u64,
            failed: 0,
        }];
        Ctx {
            dep,
            builds,
            workload,
            seed,
            catalog_epochs,
            model_epochs,
            writer,
            reference: None,
            phases,
            notes: Vec::new(),
        }
    }

    fn live(&self) -> bool {
        self.workload == Workload::Live
    }

    fn stack(&self, engine: &Arc<SearchEngine>) -> ServeStack {
        self.dep.stack(engine, self.live())
    }

    fn requests(&self, n: usize, burst: u64) -> (Vec<Request>, Vec<Sent>) {
        let d = &self.dep;
        let reqs = requests(
            self.workload,
            &d.log,
            &d.cached,
            &d.uncached,
            self.seed,
            n,
            burst,
        );
        let sent = materialise(d, &reqs);
        (reqs, sent)
    }

    /// Adds operations to the phase called `name`, opening it if new.
    fn add_phase(&mut self, name: &str, attempted: u64, failed: u64) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.attempted += attempted;
                p.failed += failed;
            }
            None => self.phases.push(Phase {
                name: name.into(),
                attempted,
                failed,
            }),
        }
    }

    /// Checks a serving phase's records: on `live` against the epochs
    /// published so far, on `head`/`tail` against the sequential
    /// reference of every intent the workload can send.
    fn check(&mut self, name: &str, records: &[ServedRecord]) {
        let failed = if self.live() {
            live_failures(records, &self.catalog_epochs, &self.model_epochs)
        } else {
            let dep = &self.dep;
            let pool = if self.workload == Workload::Head {
                &dep.cached
            } else {
                &dep.uncached
            };
            let reference = self
                .reference
                .get_or_insert_with(|| Reference::build(dep, pool.iter().map(|&i| dep.tokens(i))));
            reference.failures(records)
        };
        self.add_phase(name, records.len() as u64, failed);
    }

    /// Records what the writer did and the epochs it published.
    fn writer_phase(&mut self, label: &str, log: &WriterLog) {
        let writes = log.commit_results.iter().chain(&log.compactions);
        let failed = writes.clone().filter(|r| r.is_err()).count() as u64;
        self.catalog_epochs.extend(writes.flatten().copied());
        self.model_epochs.extend(log.model_epochs.iter().copied());
        let attempted = (log.commit_results.len() + log.compactions.len()) as u64;
        self.add_phase(&format!("{label} commits"), attempted, failed);
        self.add_phase(
            &format!("{label} model publishes"),
            log.model_epochs.len() as u64,
            0,
        );
    }

    /// An open-loop phase over `sent`; `live` runs the writer beside it.
    /// The writer's epochs are recorded before the records are checked.
    fn open_loop(
        &mut self,
        label: &str,
        engine: &Arc<SearchEngine>,
        sent: &[Sent],
        arr: &[u64],
    ) -> OpenLoop {
        let ol = open_loop(&self.stack(engine), sent, arr, self.writer.as_ref());
        if let Some(log) = &ol.writer {
            self.writer_phase(label, log);
        }
        self.check(label, &ol.records);
        ol
    }

    fn setup_metric(&self, f: impl Fn(&SetupTimes) -> f64) -> f64 {
        median(&self.builds.iter().map(f).collect::<Vec<_>>())
    }
}

/// Quality of served responses, per intent: the sums of relevance@10 and
/// of rewrite relevance, and the responses counted.
#[derive(Default)]
struct Quality(BTreeMap<usize, (f64, f64, f64)>);

impl Quality {
    fn add(&mut self, dep: &Deployment, reqs: &[Request], records: &[ServedRecord]) {
        for (r, rec) in reqs.iter().zip(records) {
            if let Some(resp) = rec.response() {
                let e = self.0.entry(r.intent).or_default();
                e.0 += relevance_at10(dep, r.intent, resp);
                e.1 += rewrite_relevance(dep, r.intent, resp);
                e.2 += 1.0;
            }
        }
    }

    /// `relevance_at10` and `rewrite_relevance`: each intent's mean over
    /// its served responses, weighted by the intent's share of `offered`
    /// (the run's open-loop requests). Serving is a pure function of the
    /// query on the deployed catalog, so the scores follow the traffic mix
    /// the run offered, not which requests its bursts happened to draw.
    fn weighted(&self, offered: &[Request]) -> (f64, f64) {
        let mut weights: BTreeMap<usize, f64> = BTreeMap::new();
        for r in offered {
            *weights.entry(r.intent).or_default() += 1.0;
        }
        let (mut rel, mut rw, mut total) = (0.0, 0.0, 0.0);
        for (intent, w) in weights {
            if let Some(&(r, x, n)) = self.0.get(&intent) {
                rel += w * r / n;
                rw += w * x / n;
                total += w;
            }
        }
        (ratio(rel, total), ratio(rw, total))
    }
}

/// Commit latency with nothing serving (`head` and `tail` have no
/// writer): the workload's mutation stream committed to a fresh copy of
/// the catalog that no reader uses, in feed bursts of [`COMPACT_EVERY`]
/// commits (the `live` writer's shape), each after a [`COMMIT_BURST_GAP`]
/// pause. The writer lives on a thread of its own for the whole run, so
/// its allocations come from a heap arena serving never touches.
struct UnreadCatalog {
    jobs: mpsc::Sender<usize>,
    done: mpsc::Receiver<()>,
    thread: std::thread::JoinHandle<WriterLog>,
}

impl UnreadCatalog {
    fn start(dep: &Deployment, seed: u64) -> Self {
        let docs: Vec<Vec<String>> = dep
            .log
            .catalog
            .items
            .iter()
            .map(|i| i.title_tokens.clone())
            .collect();
        let vocab = Arc::clone(&dep.vocab);
        let (jobs, bursts) = mpsc::channel::<usize>();
        let (finished, done) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let (_, mut writer) = CatalogWriter::bootstrap(docs);
            let mut churn = Churn::new(vocab, seed);
            let mut log = WriterLog::default();
            for n in bursts {
                for _ in 0..n {
                    std::thread::sleep(COMMIT_BURST_GAP);
                    for _ in 0..COMPACT_EVERY {
                        churn.commit(&mut writer, &mut log);
                    }
                }
                if finished.send(()).is_err() {
                    break;
                }
            }
            log
        });
        UnreadCatalog { jobs, done, thread }
    }

    /// Runs `n` feed bursts and waits for them.
    fn bursts(&self, n: usize) {
        self.jobs
            .send(n)
            .expect("the unread-catalog writer is running");
        self.done
            .recv()
            .expect("the unread-catalog writer is running");
    }

    fn finish(self) -> WriterLog {
        drop(self.jobs);
        self.thread
            .join()
            .expect("the unread-catalog writer panicked")
    }
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(opts: &Options) -> Outcome {
    let w = opts.workload;
    let rate = w.offered_rps();
    let mut ctx = Ctx::new(w, opts.seed);
    let engine = Arc::clone(&ctx.dep.engine);
    let mut m = Metrics::default();
    push_e2e(&mut m, "setup_s", ctx.setup_metric(|t| t.total_s));
    let unread = (!ctx.live()).then(|| UnreadCatalog::start(&ctx.dep, ctx.seed));

    // One untimed burst warms the stack. Burst streams are numbered from
    // 1; the warm-up takes the one after the last timed burst.
    let bursts = (ROUNDS * BURSTS_PER_ROUND) as u64;
    let (_, sent) = ctx.requests(w.burst_requests(), bursts + 1);
    let (_, records) = burst(&ctx.stack(&engine), &sent);
    ctx.check("warm-up burst", &records);
    drop(records);

    let n = open_loop_requests(w, opts.seconds);
    let (offered, sent) = ctx.requests(n, 0);
    let arr = arrivals(opts.seed, rate, n);
    let window = (rate * LATENCY_WINDOW_S) as usize;
    let mut rps = Vec::new();
    let mut quality = Quality::default();
    let (mut p50s, mut p99s, mut late, mut commits) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut shares = Vec::new();
    for round in 0..ROUNDS {
        // Drain bursts: a whole phase admitted at once.
        for b in 0..BURSTS_PER_ROUND {
            let (reqs, sent) = ctx.requests(
                w.burst_requests(),
                (round * BURSTS_PER_ROUND + b + 1) as u64,
            );
            let (wall, records) = burst(&ctx.stack(&engine), &sent);
            rps.push(sent.len() as f64 / wall.as_secs_f64());
            // Relevance is scored against the catalog as deployed, before
            // a `live` writer has touched it.
            if ctx.dep.store.current_epoch() == 0 {
                quality.add(&ctx.dep, &reqs, &records);
            }
            ctx.check("bursts", &records);
        }
        if let Some(unread) = &unread {
            unread.bursts(COMMIT_BURSTS_PER_ROUND);
        }

        // This round's slice of the open-loop phase, its schedule rebased
        // to start with the gap before its first request.
        let (lo, hi) = (round * n / ROUNDS, (round + 1) * n / ROUNDS);
        let base = if lo == 0 { 0 } else { arr[lo - 1] };
        let slice: Vec<u64> = arr[lo..hi].iter().map(|a| a - base).collect();
        let ol = ctx.open_loop("open loop", &engine, &sent[lo..hi], &slice);
        let lat = latencies(&ol.records);
        p50s.extend(per_window(&lat, window, 0.5));
        p99s.extend(per_window(&lat, window, 0.99));
        late.extend(ol.late_ns.iter().map(|&ns| ns as f64 / 1e3));
        shares.extend(sources(&ol.records));
        if let Some(log) = &ol.writer {
            commits.extend_from_slice(&log.commit);
        }
    }
    if let Some(unread) = unread {
        let log = unread.finish();
        let writes = log.commit_results.iter().chain(&log.compactions);
        let failed = writes.clone().filter(|r| r.is_err()).count() as u64;
        ctx.add_phase("commits (unread catalog)", writes.count() as u64, failed);
        commits = log.commit;
    }
    let commit_ms: Vec<f64> = commits.iter().map(|&d| ms(d)).collect();
    ctx.notes
        .push(rung_line("open loop", &rung_shares(&shares)));
    ctx.notes.push(format!(
        "open loop: {n} requests at {rate} req/s in {ROUNDS} slices, generator late p50 {:.1} us, p99 {:.1} us",
        median(&late),
        quantile(&late, 0.99)
    ));

    push_e2e(&mut m, "p50_ms", quantile(&p50s, QUIET_QUARTILE));
    push_e2e(&mut m, "p99_ms", quantile(&p99s, QUIET_QUARTILE));
    push_e2e(&mut m, "peak_rps", quantile(&rps, 1.0 - QUIET_QUARTILE));
    let (rel10, rw_rel) = quality.weighted(&offered);
    push_e2e(&mut m, "relevance_at10", rel10);
    push_e2e(&mut m, "rewrite_relevance", rw_rel);
    push_e2e(
        &mut m,
        "commit_p50_ms",
        quantile(&per_window(&commit_ms, COMPACT_EVERY, 0.5), QUIET_QUARTILE),
    );
    push_e2e(
        &mut m,
        "commit_p90_ms",
        quantile(&per_window(&commit_ms, COMPACT_EVERY, 0.9), QUIET_QUARTILE),
    );
    Outcome {
        metrics: m,
        phases: ctx.phases,
        notes: ctx.notes,
    }
}

fn swap_delta(before: &SwapStats, after: &SwapStats) -> (f64, f64) {
    (
        (after.epochs_published - before.epochs_published) as f64,
        (after.swap_failures - before.swap_failures) as f64,
    )
}

/// The traced run: every per-layer metric.
pub fn run_traced(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut ctx = Ctx::new(w, opts.seed);
    let live = ctx.live();
    let mut m = Metrics::default();

    // The same requests twice: untraced, then through the traced engine.
    let rate = w.offered_rps();
    let n = open_loop_requests(w, opts.seconds / 2.0);
    let (_, sent) = ctx.requests(n, 0);
    let arr = arrivals(opts.seed, rate, n);
    let window = (rate * LATENCY_WINDOW_S) as usize;
    let engine = Arc::clone(&ctx.dep.engine);
    let plain = ctx.open_loop("untraced open loop", &engine, &sent, &arr);
    let p50_plain = median(&per_window(&latencies(&plain.records), window, 0.5));
    let late: Vec<f64> = plain.late_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    drop(plain);

    // Room for every span the traced phase records (about a dozen per
    // request), so none is evicted.
    let tracer = Tracer::with_capacity(ObsClock::monotonic(), 8, 1 << 16);
    let traced = ctx.dep.traced_engine(tracer.clone());
    let before = traced.health_report();
    let swaps_before = ctx.dep.models.swap_stats();
    let (hits0, misses0) = (ctx.dep.cache.hits(), ctx.dep.cache.misses());
    let baseline0 = ctx.dep.baseline.calls();
    let ol = ctx.open_loop("traced open loop", &traced, &sent, &arr);
    let after = traced.health_report();
    let swaps_after = ctx.dep.models.swap_stats();
    let (hits, misses) = (
        ctx.dep.cache.hits() - hits0,
        ctx.dep.cache.misses() - misses0,
    );
    let baseline_calls = ctx.dep.baseline.calls() - baseline0;
    let spans = tracer.snapshot();
    let sched = scheduler(&spans);
    let p50_traced = median(&per_window(&latencies(&ol.records), window, 0.5));
    let (postings, merges, candidates) = {
        let served: Vec<_> = ol
            .records
            .iter()
            .filter_map(ServedRecord::response)
            .collect();
        retrieval_cost(&served)
    };
    let failed_outcomes = ol
        .records
        .iter()
        .filter(|r| matches!(r.outcome, qrw_serve::Outcome::Failed(_)))
        .count();
    let requests = (after.requests - before.requests) as f64;
    let student_tokens = (after.student_tokens - before.student_tokens) as f64;
    let shares = rung_shares(&sources(&ol.records).collect::<Vec<_>>());
    ctx.notes.push(rung_line("traced open loop", &shares));
    ctx.notes.push(format!(
        "tracer: {} spans, {} dropped",
        spans.len(),
        tracer.dropped()
    ));
    let (commit_us, publish_us) = match &ol.writer {
        Some(log) => (
            log.commit.iter().map(|&d| us(d)).collect::<Vec<_>>(),
            log.publish.iter().map(|&d| us(d)).collect::<Vec<_>>(),
        ),
        None => (Vec::new(), Vec::new()),
    };

    // The layer replay of the first requests.
    let r = replay(&ctx.dep, &sent[..sent.len().min(REPLAY_REQUESTS)], live);

    let churn = (before.churn, after.churn);
    let (swaps, swap_failures) = swap_delta(&swaps_before, &swaps_after);
    push_layer(&mut m, "serve.queue_wait_us.p50", sched.queue_wait_us_p50);
    push_layer(&mut m, "serve.queue_wait_us.p99", sched.queue_wait_us_p99);
    push_layer(&mut m, "serve.batch_size.mean", sched.batch_size_mean);
    push_layer(
        &mut m,
        "serve.decode_slots_per_batch",
        sched.decode_slots_per_batch,
    );
    push_layer(&mut m, "serve.coalesced_share", sched.coalesced_share);
    push_layer(
        &mut m,
        "serve.rejected",
        (after.queue_rejections - before.queue_rejections) as f64,
    );
    push_layer(
        &mut m,
        "serve.shed",
        (after.queue_sheds - before.queue_sheds) as f64,
    );
    push_layer(&mut m, "serve.failed", failed_outcomes as f64);
    push_layer(&mut m, "serve.teacher_slots", sched.teacher_slots);
    push_layer(
        &mut m,
        "kv.hit_share",
        ratio(hits as f64, (hits + misses) as f64),
    );
    push_layer(&mut m, "kv.get_us.p50", r.kv_get_us_p50);
    push_layer(&mut m, "student.rewrite_us.p50", r.student_us_p50);
    push_layer(&mut m, "student.rewrite_us.p99", r.student_us_p99);
    push_layer(
        &mut m,
        "student.tokens_per_req",
        ratio(student_tokens, requests),
    );
    push_layer(&mut m, "student.tokens_per_s", r.student_tokens_per_s);
    push_layer(&mut m, "tree.nodes_per_req", r.tree_nodes_per_req);
    push_layer(&mut m, "tree.postings_scanned_per_req", postings);
    push_layer(&mut m, "tree.merge_ops_per_req", merges);
    push_layer(&mut m, "tree.evaluate_us.p50", r.tree_evaluate_us_p50);
    push_layer(&mut m, "shard.traverse_us.p50", r.traverse_us_p50);
    push_layer(&mut m, "shard.scatter_us.p50", r.scatter_us_p50);
    push_layer(&mut m, "shard.dispatch_us.p50", r.dispatch_us_p50);
    push_layer(
        &mut m,
        "shard.partial",
        (after.partial_results - before.partial_results) as f64,
    );
    push_layer(&mut m, "shard.rebuild_us.p50", r.rebuild_us_p50);
    push_layer(&mut m, "rank.us.p50", r.rank_us_p50);
    push_layer(&mut m, "rank.candidates_per_req", candidates);
    push_layer(&mut m, "snapshot.commit_us.p50", median(&commit_us));
    push_layer(&mut m, "snapshot.commit_us.p90", quantile(&commit_us, 0.9));
    push_layer(&mut m, "snapshot.pin_us.p50", r.pin_us_p50);
    push_layer(
        &mut m,
        "snapshot.epochs_published",
        (churn.1.epochs_published - churn.0.epochs_published) as f64,
    );
    push_layer(
        &mut m,
        "snapshot.epochs_reclaimed",
        (churn.1.epochs_reclaimed - churn.0.epochs_reclaimed) as f64,
    );
    push_layer(
        &mut m,
        "snapshot.pin_retries",
        (churn.1.pin_retries - churn.0.pin_retries) as f64,
    );
    push_layer(&mut m, "models.pin_us.p50", r.models_pin_us_p50);
    push_layer(&mut m, "models.publish_us.p50", median(&publish_us));
    push_layer(&mut m, "models.swaps", swaps);
    push_layer(&mut m, "models.swap_failures", swap_failures);
    push_layer(&mut m, "setup.corpus_s", ctx.setup_metric(|t| t.corpus_s));
    push_layer(&mut m, "setup.train_s", ctx.setup_metric(|t| t.train_s));
    push_layer(
        &mut m,
        "setup.train_steps_per_s",
        ctx.setup_metric(|t| ratio(t.train_steps as f64, t.train_s)),
    );
    push_layer(&mut m, "setup.distill_s", ctx.setup_metric(|t| t.distill_s));
    push_layer(&mut m, "setup.q2q_s", ctx.setup_metric(|t| t.q2q_s));
    push_layer(&mut m, "setup.prefill_s", ctx.setup_metric(|t| t.prefill_s));
    push_layer(&mut m, "setup.index_s", ctx.setup_metric(|t| t.index_s));
    push_layer(&mut m, "baseline.calls", baseline_calls as f64);
    push_layer(&mut m, "gen.late_us.p99", quantile(&late, 0.99));
    push_layer(
        &mut m,
        "obs.overhead_share",
        ratio(p50_traced, p50_plain) - 1.0,
    );
    push_layer(&mut m, "trace.coverage_share", r.coverage_share);
    push_layer(&mut m, "trace.replay_mismatches", r.mismatches as f64);
    for (name, v) in shares {
        push_layer(&mut m, &format!("rung.{name}"), v);
    }

    // Self times on the request path, largest first.
    let table: Vec<String> = r
        .self_us
        .iter()
        .map(|(l, v)| format!("{l} {v:.1}"))
        .collect();
    ctx.notes.push(format!(
        "self time per request (us, replay of {} requests): {}",
        r.requests,
        table.join(", ")
    ));
    ctx.notes.extend(predictions(w, &m, &r.self_us));
    Outcome {
        metrics: m,
        phases: ctx.phases,
        notes: ctx.notes,
    }
}

/// The stated layer predictions, each confirmed or reported wrong.
fn predictions(w: Workload, m: &Metrics, self_us: &[(&'static str, f64)]) -> Vec<String> {
    let get = |n: &str| m.get(n).unwrap_or(f64::NAN);
    let verdict = |ok: bool| if ok { "confirmed" } else { "WRONG" };
    let mut out = Vec::new();
    match w {
        Workload::Head => {
            let hit = get("kv.hit_share");
            out.push(format!(
                "prediction kv.hit_share == 1 on head: {} ({hit})",
                verdict(hit == 1.0)
            ));
            let tok = get("student.tokens_per_req");
            out.push(format!(
                "prediction student tokens == 0 on head: {} ({tok})",
                verdict(tok == 0.0)
            ));
            let top = self_us.first().map_or("none", |(l, _)| l);
            out.push(format!(
                "prediction shard.dispatch is the largest self time on head: {} (largest: {top})",
                verdict(top == "shard.dispatch")
            ));
        }
        Workload::Tail => {
            let hit = get("kv.hit_share");
            out.push(format!(
                "prediction kv.hit_share == 0 on tail: {} ({hit})",
                verdict(hit == 0.0)
            ));
        }
        Workload::Live => {}
    }
    if w != Workload::Live {
        let commits = get("snapshot.epochs_published");
        let swaps = get("models.swaps");
        out.push(format!(
            "prediction commits and swaps are 0 outside live: {} (commits {commits}, swaps {swaps})",
            verdict(commits == 0.0 && swaps == 0.0)
        ));
    }
    out
}
