//! The traced replay: the layers timed from outside.
//!
//! Each replayed request first runs whole (`SearchEngine::search_resilient`,
//! or the session path on `live`: the enclosing span). Its layers are
//! then called one by one through their public functions, each call
//! wrapped in a benchmark-side span carrying the request id, the layer,
//! start, end and parent:
//!
//! * `snapshot.pin` — `SearchEngine::pin`; `models.pin` — `ModelStore::pin`;
//! * `kv.get` — `RewriteCache::get` (scoped by session on `live`);
//! * the rewriting rungs the request actually walked — `student.rewrite`
//!   (`StudentOnline::rewrite`), `q2q.rewrite` (`BatchedQ2Q::rewrite_batch`
//!   or, on `live`, the pinned model epoch), `baseline.rewrite`;
//! * `shard.scatter` — retrieve and rank through the sharded engine with
//!   the request's rewrites fixed, with its parts replayed beneath it on a
//!   benchmark-built `ShardedIndex` of the same epoch: `tree.merge`
//!   (`QueryTree::merge_factored`), one `shard.traverse` (`Shard::traverse`)
//!   and one `rank` (`Shard::rank_candidates`) per shard.
//!
//! Two reference spans sit outside any request: `tree.evaluate` (the same
//! trees evaluated on the monolithic index of the epoch) and
//! `shard.rebuild` (`ShardedIndex::build` of the epoch).
//!
//! Self time: a span's duration minus what its children cover. The
//! scatter call ran its shards in parallel while the replay runs them one
//! after another, so the part of `shard.scatter` its children cover is
//! `tree.merge` plus the slowest shard's traverse and rank; the rest is
//! `shard.dispatch` (thread hand-off, gather and merge).

use std::collections::HashMap;
use std::time::Instant;

use qrw_core::QueryRewriter;
use qrw_obs::SpanRecord;
use qrw_search::index::union_sorted;
use qrw_search::shard::idf;
use qrw_search::{
    CacheScope, DeadlineBudget, QueryTree, RewriteLadder, RewriteSource, RoutingPlan,
    SearchResponse, SessionState, ShardedIndex,
};

use crate::deploy::{Deployment, INDEX_SHARDS};
use crate::drive::Sent;
use crate::stats::{mean, median, quantile, ratio};

/// One benchmark-side span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Replayed request index (`None` for reference spans).
    pub req: Option<usize>,
    pub layer: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the recorder.
    pub parent: Option<usize>,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span; returns its output and the span's index.
    pub fn time<T>(
        &mut self,
        req: Option<usize>,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            req,
            layer,
            start_ns: start,
            end_ns: end,
            parent,
        });
        (out, self.spans.len() - 1)
    }

    fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::us)
            .collect()
    }
}

/// Rewrites handed to the engine verbatim: the scatter replay retrieves
/// and ranks with exactly the rewrites the request was served with.
struct Fixed(Vec<Vec<String>>);

impl QueryRewriter for Fixed {
    fn rewrite(&self, _query: &[String], k: usize) -> Vec<Vec<String>> {
        self.0.iter().take(k).cloned().collect()
    }

    fn name(&self) -> &str {
        "fixed"
    }
}

/// Per-layer numbers from the replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub requests: usize,
    pub kv_get_us_p50: f64,
    pub student_us_p50: f64,
    pub student_us_p99: f64,
    pub student_tokens_per_s: f64,
    pub tree_nodes_per_req: f64,
    pub tree_evaluate_us_p50: f64,
    pub traverse_us_p50: f64,
    pub scatter_us_p50: f64,
    pub dispatch_us_p50: f64,
    pub rebuild_us_p50: f64,
    pub rank_us_p50: f64,
    pub pin_us_p50: f64,
    pub models_pin_us_p50: f64,
    pub coverage_share: f64,
    /// Requests whose replayed ranking differs from the served one.
    pub mismatches: u64,
    /// Mean self time per request of each layer on the request's path,
    /// largest first.
    pub self_us: Vec<(&'static str, f64)>,
}

/// Shard-set rebuilds timed per replay (reference spans).
const REBUILDS: usize = 5;

/// Replays `sent` (with the intents they came from) through the layers.
pub fn replay(dep: &Deployment, sent: &[Sent], live: bool) -> Replay {
    let mut rec = Recorder::default();
    let engine = &dep.engine;
    let cfg = &dep.serving;
    let k = cfg.max_rewrites;

    // The benchmark's own shard set of the epoch the replay serves from.
    let mut sharded: Option<ShardedIndex> = None;
    {
        let pinned = engine.pin();
        for _ in 0..REBUILDS {
            let (built, _) = rec.time(None, "shard.rebuild", None, || {
                ShardedIndex::build(
                    pinned.epoch(),
                    pinned.index(),
                    RoutingPlan::fnv(INDEX_SHARDS),
                    0,
                )
            });
            sharded = Some(built);
        }
    }
    let sharded = sharded.expect("built at least once");

    let mut student_tokens = 0u64;
    let mut student_ns = 0u64;
    let mut nodes = Vec::with_capacity(sent.len());
    let mut dispatch = Vec::with_capacity(sent.len());
    let mut rank_total = Vec::with_capacity(sent.len());
    let mut coverage = Vec::with_capacity(sent.len());
    let mut self_sum: HashMap<&'static str, f64> = HashMap::new();
    let mut mismatches = 0u64;

    for (i, s) in sent.iter().enumerate() {
        let req = Some(i);
        let q = s.query.as_slice();
        let ctx = s.context.as_slice();

        // The enclosing span: the request served whole.
        let first = rec.spans.len();
        let (resp, root) = rec.time(req, "search_resilient", None, || {
            if live {
                let pin = dep.models.pin();
                let ladder = RewriteLadder {
                    cache: Some(&*dep.cache),
                    student: Some(&*dep.student),
                    online: None,
                    baseline: Some(&*dep.baseline),
                };
                engine.search_session_traced(
                    q,
                    SessionState {
                        context: ctx,
                        model: Some(&pin),
                    },
                    ladder,
                    cfg,
                    &DeadlineBudget::unlimited(),
                    None,
                    None,
                )
            } else {
                engine.search_resilient(q, dep.ladder(), cfg, &DeadlineBudget::unlimited(), None)
            }
        });
        let parent = Some(root);

        // The layers, one call each.
        let (pinned, _) = rec.time(req, "snapshot.pin", parent, || engine.pin());
        let model = live.then(|| rec.time(req, "models.pin", parent, || dep.models.pin()).0);
        rec.time(req, "kv.get", parent, || match &model {
            Some(m) => dep
                .cache
                .get_scoped(CacheScope::for_session(m.epoch(), ctx), q),
            None => dep.cache.get(q),
        });
        // Each rung the request actually walked, in ladder order.
        let depth = match resp.rewrite_source {
            RewriteSource::Cache => 0,
            RewriteSource::Student => 1,
            RewriteSource::Fallback => 2,
            RewriteSource::Baseline | RewriteSource::None => 3,
        };
        if depth >= 1 {
            let before = dep.student.student().decode_stats();
            let (_, span) = rec.time(req, "student.rewrite", parent, || {
                dep.student.rewrite_with_context(ctx, q, k)
            });
            student_tokens += dep.student.student().decode_stats().since(&before).tokens;
            student_ns += rec.spans[span].end_ns - rec.spans[span].start_ns;
        }
        if depth >= 2 {
            rec.time(req, "q2q.rewrite", parent, || match &model {
                Some(m) => m.rewriter().rewrite_with_context(ctx, q, k),
                None => dep.online.rewrite_batch(&[q], k).pop().unwrap_or_default(),
            });
        }
        if depth >= 3 {
            rec.time(req, "baseline.rewrite", parent, || {
                dep.baseline.rewrite(q, k)
            });
        }

        // Retrieve and rank through the sharded engine, rewrites fixed.
        let fixed = Fixed(resp.rewrites_used.clone());
        let (_, scatter) = rec.time(req, "shard.scatter", parent, || {
            engine.search_with_rewrites(q, None, Some(&fixed), cfg)
        });
        let rewrites = &resp.rewrites_used;
        let (trees, merge) = rec.time(req, "tree.merge", Some(scatter), || {
            let mut trees = vec![QueryTree::and_of_tokens(q)];
            if !rewrites.is_empty() {
                let mut all = vec![q.to_vec()];
                all.extend(rewrites.iter().cloned());
                trees.push(QueryTree::merge_factored(&all));
            }
            trees
        });
        nodes.push(trees.iter().map(QueryTree::node_count).sum::<usize>() as f64);
        let mut rank_query: Vec<String> = q.to_vec();
        for tok in rewrites.iter().flatten() {
            if !rank_query.contains(tok) {
                rank_query.push(tok.clone());
            }
        }
        let mut traversals = Vec::with_capacity(INDEX_SHARDS);
        let mut shard_ns = [0u64; INDEX_SHARDS];
        for (sh, ns) in shard_ns.iter_mut().enumerate() {
            let (tr, span) = rec.time(req, "shard.traverse", Some(scatter), || {
                sharded.shard(sh).traverse(&trees, &rank_query)
            });
            *ns += rec.spans[span].end_ns - rec.spans[span].start_ns;
            traversals.push(tr);
        }
        // Gather exactly as the engine does: union per tree, global BM25
        // statistics, then per-shard top-k streams.
        let per_tree: Vec<Vec<usize>> = (0..trees.len())
            .map(|t| {
                traversals
                    .iter()
                    .fold(Vec::new(), |acc, tr| union_sorted(&acc, &tr.evals[t].0))
            })
            .collect();
        let base = &per_tree[0];
        let mut candidates = base.clone();
        if let Some(merged) = per_tree.get(1) {
            let mut extra: Vec<usize> = merged
                .iter()
                .copied()
                .filter(|d| !base.contains(d))
                .collect();
            extra.truncate(cfg.max_extra_candidates * rewrites.len());
            candidates.extend(extra);
        }
        let n_live: u64 = traversals.iter().map(|t| t.alive_docs).sum();
        let tok_live: u64 = traversals.iter().map(|t| t.alive_tokens).sum();
        let avg = (if n_live == 0 {
            0.0
        } else {
            tok_live as f64 / n_live as f64
        })
        .max(1e-9);
        let terms: Vec<(String, f64)> = rank_query
            .iter()
            .enumerate()
            .map(|(t, tok)| {
                let df: u64 = traversals.iter().map(|tr| tr.dfs[t]).sum();
                (tok.clone(), idf(n_live as f64, df as f64))
            })
            .collect();
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); INDEX_SHARDS];
        for &d in &candidates {
            parts[sharded.route(d)].push(d);
        }
        let mut scored: Vec<(f64, usize)> = Vec::new();
        let mut rank_sum = 0.0;
        for (sh, ns) in shard_ns.iter_mut().enumerate() {
            if parts[sh].is_empty() {
                continue;
            }
            let (stream, span) = rec.time(req, "rank", Some(scatter), || {
                sharded
                    .shard(sh)
                    .rank_candidates(&terms, avg, &parts[sh], cfg.top_k)
            });
            *ns += rec.spans[span].end_ns - rec.spans[span].start_ns;
            rank_sum += rec.spans[span].us();
            scored.extend(stream);
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let ranked: Vec<usize> = scored.into_iter().take(cfg.top_k).map(|(_, d)| d).collect();
        if !candidates.is_empty() && ranked != resp.ranked {
            mismatches += 1;
        }
        rank_total.push(rank_sum);

        // Reference: the same trees on the monolithic index.
        rec.time(None, "tree.evaluate", None, || {
            trees
                .iter()
                .map(|t| t.evaluate(pinned.index()).1)
                .collect::<Vec<_>>()
        });
        drop(model);
        drop(pinned);

        // Self times and coverage of this request.
        let scatter_us = rec.spans[scatter].us();
        let merge_us = rec.spans[merge].us();
        let slowest = shard_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3;
        let d = (scatter_us - merge_us - slowest).max(0.0);
        dispatch.push(d);
        let mut covered = 0.0;
        for sp in rec.spans[first..].iter().filter(|sp| sp.parent == parent) {
            covered += sp.us();
            if sp.layer != "shard.scatter" {
                *self_sum.entry(sp.layer).or_default() += sp.us();
            }
        }
        *self_sum.entry("tree.merge").or_default() += merge_us;
        *self_sum.entry("shard.dispatch").or_default() += d;
        // The slowest shard's traverse and rank are the critical path.
        let critical = shard_ns
            .iter()
            .enumerate()
            .max_by_key(|(_, ns)| **ns)
            .map(|(sh, _)| sh);
        if let Some(sh) = critical {
            let mine = |layer: &str| {
                rec.spans[first..]
                    .iter()
                    .filter(|sp| sp.parent == Some(scatter) && sp.layer == layer)
                    .nth(sh)
                    .map_or(0.0, Span::us)
            };
            *self_sum.entry("shard.traverse").or_default() += mine("shard.traverse");
            *self_sum.entry("rank").or_default() += mine("rank");
        }
        coverage.push(ratio(covered, rec.spans[root].us()));
    }

    let n = sent.len().max(1) as f64;
    let mut self_us: Vec<(&'static str, f64)> = self_sum
        .into_iter()
        .map(|(layer, total)| (layer, total / n))
        .collect();
    self_us.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    let student = rec.durations("student.rewrite");
    Replay {
        requests: sent.len(),
        kv_get_us_p50: median(&rec.durations("kv.get")),
        student_us_p50: median(&student),
        student_us_p99: quantile(&student, 0.99),
        student_tokens_per_s: ratio(student_tokens as f64, student_ns as f64 / 1e9),
        tree_nodes_per_req: mean(&nodes),
        tree_evaluate_us_p50: median(&rec.durations("tree.evaluate")),
        traverse_us_p50: median(&rec.durations("shard.traverse")),
        scatter_us_p50: median(&rec.durations("shard.scatter")),
        dispatch_us_p50: median(&dispatch),
        rebuild_us_p50: median(&rec.durations("shard.rebuild")),
        rank_us_p50: median(&rank_total),
        pin_us_p50: median(&rec.durations("snapshot.pin")),
        models_pin_us_p50: median(&rec.durations("models.pin")),
        coverage_share: median(&coverage),
        mismatches,
        self_us,
    }
}

/// Scheduler numbers read from the runtime's own `queue_wait` and
/// `batch_form` spans (the two stages with no public boundary).
#[derive(Debug, Default)]
pub struct Scheduler {
    pub queue_wait_us_p50: f64,
    pub queue_wait_us_p99: f64,
    pub batch_size_mean: f64,
    pub decode_slots_per_batch: f64,
    pub coalesced_share: f64,
    pub teacher_slots: f64,
}

pub fn scheduler(spans: &[SpanRecord]) -> Scheduler {
    let int = |s: &SpanRecord, key: &str| s.attr(key).and_then(|v| v.as_int()).unwrap_or(0);
    let waits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "queue_wait")
        .map(|s| s.end_us.saturating_sub(s.start_us) as f64)
        .collect();
    let batches: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "batch_form").collect();
    let sizes: Vec<f64> = batches.iter().map(|s| int(s, "size") as f64).collect();
    let slots: i64 = batches.iter().map(|s| int(s, "decode_slots")).sum();
    let requests: i64 = batches.iter().map(|s| int(s, "decode_requests")).sum();
    let teacher: i64 = spans
        .iter()
        .filter(|s| s.name == "decode")
        .map(|s| int(s, "slots"))
        .sum();
    Scheduler {
        queue_wait_us_p50: median(&waits),
        queue_wait_us_p99: quantile(&waits, 0.99),
        batch_size_mean: mean(&sizes),
        decode_slots_per_batch: ratio(slots as f64, batches.len() as f64),
        coalesced_share: if requests == 0 {
            0.0
        } else {
            1.0 - slots as f64 / requests as f64
        },
        teacher_slots: teacher as f64,
    }
}

/// Mean retrieval cost of served responses (host-independent units).
pub fn retrieval_cost(responses: &[&SearchResponse]) -> (f64, f64, f64) {
    let postings: Vec<f64> = responses
        .iter()
        .map(|r| r.cost.postings_scanned as f64)
        .collect();
    let merges: Vec<f64> = responses.iter().map(|r| r.cost.merge_ops as f64).collect();
    let candidates: Vec<f64> = responses
        .iter()
        .map(|r| r.candidates.len() as f64)
        .collect();
    (mean(&postings), mean(&merges), mean(&candidates))
}
