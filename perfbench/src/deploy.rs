//! The deployment every workload serves through, built from scratch.
//!
//! Set-up is part of what the benchmark measures (`setup_s`): the seeded
//! click log, the cyclic joint teacher, the distilled i8 student, the q2q
//! fallback, the rewrite-cache prefill and the two-shard live catalog.
//! Nothing here depends on the workload seed; the program only ever sees
//! the requests the workload generates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qrw_baseline::RuleBasedRewriter;
use qrw_bench::experiment::{train_joint_model, train_q2q_model, ExperimentData, Scale};
use qrw_core::{distill_student, DistillConfig, QueryRewriter, RewritePipeline, TrainMode};
use qrw_data::{ClickLog, LogConfig, SynonymDict};
use qrw_nmt::{ComponentKind, DecodeStats};
use qrw_obs::Tracer;
use qrw_search::{
    CatalogWriter, ModelStore, RewriteCache, RewriteLadder, SearchEngine, ServingConfig,
    SharedRewriter, SnapshotStore,
};
use qrw_serve::{BatchedQ2Q, RuntimeConfig, ServeStack, StudentOnline};
use qrw_text::Vocab;

use crate::inputs::split_by_frequency;

/// Index shards of the catalog-title index.
pub const INDEX_SHARDS: usize = 2;
/// Distinct training-side queries the student is distilled from.
const DISTILL_QUERIES: usize = 24;
/// Rewrites the prefill asks the two-hop pipeline for per intent.
const PREFILL_K: usize = 3;
/// Seeds of the serving rewriters (fixed: part of the deployment).
const STUDENT_SEED: u64 = 7;
const Q2Q_SEED: u64 = 11;
const ALT_Q2Q_SEED: u64 = 13;
const PREFILL_SEED: u64 = 103;

/// The runtime every workload serves through. The admission budget is
/// large enough to admit a whole drain burst, so admission never rejects
/// at the benchmark's offered rates.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        workers: 2,
        shards: 2,
        max_batch: 16,
        queue_capacity: 1 << 15,
        ..RuntimeConfig::default()
    }
}

/// Wall time of each set-up step, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub corpus_s: f64,
    pub train_s: f64,
    pub train_steps: u64,
    pub distill_s: f64,
    pub q2q_s: f64,
    pub prefill_s: f64,
    pub index_s: f64,
    pub total_s: f64,
}

/// The rule-based rung behind a call counter, so the traced run can
/// report how often traffic reached the last rewriting rung. Counting is
/// one relaxed add per call and changes no output.
pub struct CountedBaseline {
    inner: RuleBasedRewriter,
    calls: AtomicU64,
}

impl CountedBaseline {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl QueryRewriter for CountedBaseline {
    fn rewrite(&self, query: &[String], k: usize) -> Vec<Vec<String>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.rewrite(query, k)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decode_stats(&self) -> Option<DecodeStats> {
        self.inner.decode_stats()
    }
}

/// Everything the workloads serve through.
pub struct Deployment {
    pub log: ClickLog,
    pub vocab: Arc<Vocab>,
    /// Intents prefilled into the cache (top 20% by frequency) and the rest.
    pub cached: Vec<usize>,
    pub uncached: Vec<usize>,
    pub cache: Arc<RewriteCache>,
    pub student: Arc<StudentOnline>,
    pub online: Arc<BatchedQ2Q>,
    pub baseline: Arc<CountedBaseline>,
    pub store: Arc<SnapshotStore>,
    /// The catalog's writer; the `live` writer thread takes it.
    pub writer: Option<CatalogWriter>,
    pub engine: Arc<SearchEngine>,
    /// The hot-swappable session-model store (`live` attaches it) and the
    /// two prebuilt epochs its writer alternates between.
    pub models: Arc<ModelStore>,
    pub alternates: [SharedRewriter; 2],
    pub serving: ServingConfig,
    pub times: SetupTimes,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Deployment {
    /// Builds the whole deployment and times each step.
    pub fn build() -> Self {
        let start = Instant::now();
        let mut times = SetupTimes::default();

        let t = Instant::now();
        let scale = Scale {
            log: LogConfig::default(),
            ..Scale::smoke()
        };
        let data = ExperimentData::build(&scale);
        let vocab = Arc::new(data.dataset.vocab.clone());
        times.corpus_s = secs(t);

        let t = Instant::now();
        let (teacher, _) = train_joint_model(&data, &scale, TrainMode::Joint, scale.seed);
        times.train_s = secs(t);
        times.train_steps = scale.train.steps;

        let t = Instant::now();
        let mut queries: Vec<Vec<usize>> = Vec::new();
        for p in &data.dataset.q2t {
            if !queries.contains(&p.src) {
                queries.push(p.src.clone());
            }
            if queries.len() == DISTILL_QUERIES {
                break;
            }
        }
        let distilled =
            distill_student(&teacher, &vocab, &queries, &DistillConfig::default(), None)
                .expect("distillation produced a student");
        let student = Arc::new(StudentOnline::new(
            Arc::new(distilled.student),
            Arc::clone(&vocab),
            scale.train.top_n,
            STUDENT_SEED,
        ));
        times.distill_s = secs(t);

        let t = Instant::now();
        let (q2q, _) = train_q2q_model(
            &data,
            &scale,
            ComponentKind::Transformer,
            ComponentKind::Rnn,
            scale.seed,
        );
        let q2q = Arc::new(q2q);
        let online = Arc::new(BatchedQ2Q::new(
            Arc::clone(&q2q),
            Arc::clone(&vocab),
            scale.train.top_n,
            Q2Q_SEED,
        ));
        let alternate: SharedRewriter = Arc::new(
            BatchedQ2Q::new(
                Arc::clone(&q2q),
                Arc::clone(&vocab),
                scale.train.top_n,
                ALT_Q2Q_SEED,
            )
            .with_name("q2q-alternate"),
        );
        let models = ModelStore::new(Arc::clone(&online) as SharedRewriter);
        times.q2q_s = secs(t);

        let t = Instant::now();
        let log = data.log;
        let (cached, uncached) = split_by_frequency(&log);
        let cache = Arc::new(RewriteCache::new());
        let pipeline =
            RewritePipeline::new(&teacher, &vocab, PREFILL_K, scale.train.top_n, PREFILL_SEED);
        for &qi in &cached {
            let q = &log.queries[qi].tokens;
            cache.insert(q, pipeline.rewrite(q, PREFILL_K));
        }
        times.prefill_s = secs(t);

        let t = Instant::now();
        let (store, writer) =
            CatalogWriter::bootstrap(log.catalog.items.iter().map(|i| i.title_tokens.clone()));
        let engine = Arc::new(SearchEngine::sharded_live(Arc::clone(&store), INDEX_SHARDS));
        // The shard set is built lazily at the first pin; build it here.
        drop(engine.pin());
        let baseline = Arc::new(CountedBaseline {
            inner: RuleBasedRewriter::new(SynonymDict::from_catalog(&log.catalog)),
            calls: AtomicU64::new(0),
        });
        times.index_s = secs(t);
        times.total_s = secs(start);

        Deployment {
            log,
            vocab,
            cached,
            uncached,
            cache,
            student,
            online: Arc::clone(&online),
            baseline,
            store,
            writer: Some(writer),
            engine,
            models,
            alternates: [alternate, online as SharedRewriter],
            serving: ServingConfig::default(),
            times,
        }
    }

    /// A second engine over the same live catalog with the runtime's
    /// monotonic tracer attached (the traced run reads its `queue_wait`
    /// and `batch_form` spans).
    pub fn traced_engine(&self, tracer: Tracer) -> Arc<SearchEngine> {
        Arc::new(
            SearchEngine::sharded_live(Arc::clone(&self.store), INDEX_SHARDS).with_tracer(tracer),
        )
    }

    /// The serving stack over `engine`; `live` attaches the model store.
    pub fn stack(&self, engine: &Arc<SearchEngine>, with_models: bool) -> ServeStack {
        ServeStack {
            engine: Arc::clone(engine),
            cache: Some(Arc::clone(&self.cache)),
            student: Some(Arc::clone(&self.student)),
            online: Some(Arc::clone(&self.online)),
            baseline: Some(Arc::clone(&self.baseline) as Arc<dyn QueryRewriter + Send + Sync>),
            models: with_models.then(|| Arc::clone(&self.models)),
        }
    }

    /// The full ladder as a standalone caller builds it.
    pub fn ladder(&self) -> RewriteLadder<'_> {
        RewriteLadder {
            cache: Some(&*self.cache),
            student: Some(&*self.student),
            online: Some(&*self.online),
            baseline: Some(&*self.baseline),
        }
    }

    pub fn tokens(&self, intent: usize) -> &[String] {
        &self.log.queries[intent].tokens
    }
}

/// Builds the deployment `times` times and keeps the last one; returns
/// the per-build times too, so `setup_s` is a median over builds.
pub fn build_repeated(times: usize) -> (Deployment, Vec<SetupTimes>) {
    let mut all = Vec::with_capacity(times);
    let mut last: Option<Deployment> = None;
    for _ in 0..times.max(1) {
        // One deployment in memory at a time.
        drop(last.take());
        let d = Deployment::build();
        all.push(d.times);
        last = Some(d);
    }
    (last.expect("at least one build"), all)
}

/// A duration in fractional microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
