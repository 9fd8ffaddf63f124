//! Load generation: the open-loop phase, the drain bursts, and the
//! `live` writer thread.
//!
//! The open loop is one generator thread sending on a fixed Poisson
//! schedule whatever the system's state. Each request's deadline budget
//! starts at its *scheduled* send time, so the latency the runtime stamps
//! on its record runs from when the request was due to its outcome: time
//! a request spends waiting behind a late generator counts.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use qrw_search::{CatalogWriter, Clock, DeadlineBudget, ModelStore, MutationBatch, SharedRewriter};
use qrw_serve::{mutation_batches, ChurnMix, Runtime, ServeStack, ServedRecord};
use qrw_text::Vocab;

use crate::deploy::runtime_config;
use crate::inputs::{churn_seed, Rng};

/// Commits between two compactions of the catalog.
pub const COMPACT_EVERY: usize = 20;

/// Operations per committed batch, inclusive range.
const BATCH_OPS: (usize, usize) = (1, 4);
/// Expected operations in a chunk of [`COMPACT_EVERY`] batches.
const CHUNK_OPS: f64 = COMPACT_EVERY as f64 * (BATCH_OPS.0 + BATCH_OPS.1) as f64 / 2.0;
/// Share of a chunk's operations that add or delist a document (the rest
/// are updates), split between the two by [`Churn`]'s size control.
const ADD_OR_REMOVE: f64 = 0.8;
/// Largest shift of that split away from half and half.
const MAX_TILT: f64 = 0.3;

/// The writer's mutation stream: seeded `mutation_batches` in chunks of
/// [`COMPACT_EVERY`] commits, the catalog compacted between chunks. Each
/// chunk splits its adds and delistings so that it is expected to bring
/// the live catalog back to its starting size, and compaction drops the
/// tombstones, so the catalog — and with it the cost of a commit and of
/// the shard-set rebuild after it — stays the same size however long a
/// run lasts and whatever the seed (a plain balanced mix would let the
/// size random-walk, and commit cost with it).
pub struct Churn {
    vocab: Arc<Vocab>,
    seed: u64,
    chunks: u64,
    /// Live documents of the catalog the stream started on.
    target: Option<usize>,
    pending: VecDeque<MutationBatch>,
}

impl Churn {
    pub fn new(vocab: Arc<Vocab>, seed: u64) -> Self {
        Churn {
            vocab,
            seed: churn_seed(seed),
            chunks: 0,
            target: None,
            pending: VecDeque::new(),
        }
    }

    /// Applies the next batch, compacting first when a chunk is used up.
    pub fn commit(&mut self, writer: &mut CatalogWriter, log: &mut WriterLog) {
        if self.pending.is_empty() {
            if self.chunks > 0 {
                let compacted = writer.compact(None).map(|(epoch, _)| epoch);
                log.compactions.push(compacted.map_err(|e| e.to_string()));
            }
            // A compacted catalog has dense ids 0..len, which is exactly
            // what `mutation_batches` assumes of its starting catalog.
            let docs = writer.store().pin().index().len();
            let target = *self.target.get_or_insert(docs);
            // Expected net change of the chunk: CHUNK_OPS * (2 * add -
            // ADD_OR_REMOVE), which this makes `target - docs`.
            let tilt = (target as f64 - docs as f64) / (2.0 * CHUNK_OPS);
            let add = ADD_OR_REMOVE / 2.0 + tilt.clamp(-MAX_TILT, MAX_TILT);
            let mix = ChurnMix {
                batch_ops: BATCH_OPS,
                add_fraction: add,
                remove_fraction: ADD_OR_REMOVE - add,
                ..ChurnMix::feed(COMPACT_EVERY, Rng::new(self.seed ^ self.chunks).next_u64())
            };
            self.pending = mutation_batches(&self.vocab, docs, &mix).into();
            self.chunks += 1;
        }
        let batch = self
            .pending
            .pop_front()
            .expect("a chunk holds COMPACT_EVERY batches");
        let t = Instant::now();
        let result = writer.apply(batch);
        log.commit.push(t.elapsed());
        log.commit_results.push(result.map_err(|e| e.to_string()));
    }
}

/// One request with its tokens materialised.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sent {
    pub query: Vec<String>,
    pub context: Vec<Vec<String>>,
}

/// What the open-loop phase observed.
pub struct OpenLoop {
    /// One record per request, in send order.
    pub records: Vec<ServedRecord>,
    /// How late the generator sent each request, in nanoseconds.
    pub late_ns: Vec<u64>,
    /// What the writer did, when one ran.
    pub writer: Option<WriterLog>,
}

/// The `live` writer's schedule.
pub struct WriterPlan {
    /// One feed burst of [`COMPACT_EVERY`] commits, applied back to back,
    /// is due every `period`.
    pub period: Duration,
    /// A model epoch is published after every `publish_every` commits.
    pub publish_every: usize,
    pub models: Arc<ModelStore>,
    pub alternates: [SharedRewriter; 2],
}

/// The `live` writer: one thread for the whole run that owns the catalog
/// writer and its mutation stream, so every commit runs on the same thread
/// (and heap arena) whichever open-loop slice it falls in. Each slice
/// starts it with the slice's schedule and stops it at the slice's end.
pub struct Writer {
    slices: Option<mpsc::Sender<(Instant, Arc<AtomicBool>)>>,
    logs: mpsc::Receiver<WriterLog>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Writer {
    pub fn start(mut writer: CatalogWriter, mut churn: Churn, plan: WriterPlan) -> Self {
        let (slices, slice_rx) = mpsc::channel::<(Instant, Arc<AtomicBool>)>();
        let (log_tx, logs) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for (start, done) in slice_rx {
                let log = run_writer(&mut writer, &mut churn, &plan, start, &done);
                if log_tx.send(log).is_err() {
                    break;
                }
            }
        });
        Writer {
            slices: Some(slices),
            logs,
            thread: Some(thread),
        }
    }

    fn begin(&self, start: Instant, done: Arc<AtomicBool>) {
        let slices = self.slices.as_ref().expect("open until dropped");
        slices
            .send((start, done))
            .expect("the writer thread is running");
    }

    fn end(&self) -> WriterLog {
        self.logs.recv().expect("the writer thread is running")
    }
}

impl Drop for Writer {
    /// Closes the schedule channel and waits for the thread to end.
    fn drop(&mut self) {
        drop(self.slices.take());
        if let Some(thread) = self.thread.take() {
            // A panic on the writer thread has already failed `end`.
            let _ = thread.join();
        }
    }
}

/// What the writer did.
#[derive(Default, Debug)]
pub struct WriterLog {
    /// `CatalogWriter::apply` wall time per commit.
    pub commit: Vec<Duration>,
    /// Catalog epochs the commits published; a failed commit is an error
    /// string instead.
    pub commit_results: Vec<Result<u64, String>>,
    /// Catalog epochs the compactions between chunks published.
    pub compactions: Vec<Result<u64, String>>,
    /// `ModelStore::publish` wall time per model swap.
    pub publish: Vec<Duration>,
    /// Model epochs published.
    pub model_epochs: Vec<u64>,
}

fn submit(rt: &Runtime, sent: &Sent, budget: DeadlineBudget) {
    // A rejection is recorded by the runtime itself (a `Rejected`
    // record), which the checks count as a failed request.
    let _ = if sent.context.is_empty() {
        rt.submit(sent.query.clone(), budget)
    } else {
        rt.submit_session(sent.query.clone(), sent.context.clone(), budget)
    };
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs the writer from `start` until `done` is set: one burst of
/// [`COMPACT_EVERY`] commits (one chunk of the mutation stream, so each
/// burst opens with its compaction) every `period`, the way a merchant
/// feed delivers its updates. Model publishes alternate between the two
/// prebuilt epochs.
fn run_writer(
    writer: &mut CatalogWriter,
    churn: &mut Churn,
    plan: &WriterPlan,
    start: Instant,
    done: &AtomicBool,
) -> WriterLog {
    let mut log = WriterLog::default();
    let WriterPlan {
        period,
        publish_every,
        models,
        alternates,
    } = plan;
    let (period, publish_every) = (*period, *publish_every);
    let mut bursts = 0u32;
    let mut commits = 0usize;
    loop {
        // Half a period in, so even a short slice sees a burst.
        let due = start + period / 2 + period * bursts;
        // Sleep in short slices so the writer stops promptly at the end.
        while Instant::now() < due {
            if done.load(Ordering::Relaxed) {
                return log;
            }
            sleep_until(due.min(Instant::now() + Duration::from_millis(5)));
        }
        if done.load(Ordering::Relaxed) {
            return log;
        }
        for _ in 0..COMPACT_EVERY {
            churn.commit(writer, &mut log);
            commits += 1;
            if publish_every > 0 && commits.is_multiple_of(publish_every) {
                let published = models.swap_stats().epochs_published as usize;
                let next = Arc::clone(&alternates[published % 2]);
                let t = Instant::now();
                let epoch = models.publish(next);
                log.publish.push(t.elapsed());
                log.model_epochs.push(epoch);
            }
        }
        bursts += 1;
    }
}

/// The open-loop phase: sends `sent[i]` at `start + arrivals[i]` from one
/// generator thread while the runtime's workers serve, with the writer
/// (if any) committing on its own thread meanwhile.
pub fn open_loop(
    stack: &ServeStack,
    sent: &[Sent],
    arrivals: &[u64],
    writer: Option<&Writer>,
) -> OpenLoop {
    assert_eq!(sent.len(), arrivals.len());
    let rt = Runtime::new(stack.clone(), runtime_config());
    rt.reserve_results(sent.len());
    let mut late_ns = Vec::with_capacity(sent.len());
    let mut writer_log = None;
    let records = rt.run(|rt| {
        // A short lead lets the workers park before the first send.
        let start = Instant::now() + Duration::from_millis(5);
        let done = Arc::new(AtomicBool::new(false));
        if let Some(w) = writer {
            w.begin(start, Arc::clone(&done));
        }
        for (s, &offset) in sent.iter().zip(arrivals) {
            let due = start + Duration::from_nanos(offset);
            sleep_until(due);
            late_ns.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            submit(
                rt,
                s,
                DeadlineBudget::with_clock(Clock::Monotonic(due), None),
            );
        }
        done.store(true, Ordering::Relaxed);
        writer_log = writer.map(Writer::end);
    });
    assert_eq!(
        records.len(),
        sent.len(),
        "every request has exactly one record"
    );
    OpenLoop {
        records,
        late_ns,
        writer: writer_log,
    }
}

/// One drain burst: the whole phase is admitted before any worker starts,
/// then the pool drains it. Returns the drain wall time and the records.
pub fn burst(stack: &ServeStack, sent: &[Sent]) -> (Duration, Vec<ServedRecord>) {
    let rt = Runtime::new(stack.clone(), runtime_config());
    rt.reserve_results(sent.len());
    for s in sent {
        submit(&rt, s, DeadlineBudget::unlimited());
    }
    let t = Instant::now();
    let records = rt.run(|_| {});
    let wall = t.elapsed();
    assert_eq!(
        records.len(),
        sent.len(),
        "every request has exactly one record"
    );
    (wall, records)
}
