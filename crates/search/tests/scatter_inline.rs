//! The scatter-gather tier runs on the thread that serves the request.
//!
//! Per-shard work is a plain loop in shard order, not a spawn per shard:
//! an injected shard panic must therefore be raised — and caught — on
//! the caller's own thread, and the request still degrades to ranked
//! partial results. A binary of its own because it installs a
//! process-global panic hook.

use std::panic;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

use qrw_search::{
    DeadlineBudget, InvertedIndex, RewriteCache, RewriteLadder, RoutingPlan, SearchEngine,
    SearchResponse, ServeError, ServingConfig, ShardFaultInjector,
};

/// Threads that raised an injected shard panic, in order.
static INJECTED_ON: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

const WORDS: [&str; 8] = ["red", "shoes", "men", "dress", "phone", "case", "sale", "new"];

fn word(i: usize) -> String {
    WORDS[i % WORDS.len()].to_string()
}

fn serve(engine: &SearchEngine, cache: &RewriteCache, query: &[String]) -> SearchResponse {
    let ladder = RewriteLadder { cache: Some(cache), ..RewriteLadder::default() };
    engine.search_resilient(
        query,
        ladder,
        &ServingConfig::default(),
        &DeadlineBudget::unlimited(),
        None,
    )
}

#[test]
fn shard_panic_is_raised_on_the_callers_thread() {
    let previous = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.starts_with("injected shard panic") {
            INJECTED_ON.lock().unwrap().push(thread::current().id());
        } else {
            previous(info);
        }
    }));

    let (shards, victim) = (4, 2);
    let corpus: Vec<Vec<String>> =
        (0..24).map(|i| vec![word(i), word(i + 1), word(i * 2 + 3)]).collect();
    let idx = InvertedIndex::build(corpus);
    let query = vec![word(0), word(2)];
    let cache = RewriteCache::new();
    cache.insert(&query, vec![vec![word(3), word(5)]]);

    // The partial-results oracle: the monolith with the victim's
    // documents tombstoned.
    let plan = RoutingPlan::fnv(shards);
    let mut tombstoned = idx.clone();
    for doc in 0..idx.len() {
        if plan.route(doc) == victim {
            tombstoned.remove_doc(doc);
        }
    }
    let want = serve(&SearchEngine::new(tombstoned), &cache, &query);
    assert!(!want.ranked.is_empty(), "fixture: the query has survivors off the victim");

    let engine = SearchEngine::sharded(idx, shards);
    engine.set_shard_faults(Some(ShardFaultInjector::panic_on_shard(victim)));
    let got = serve(&engine, &cache, &query);

    assert_eq!(
        *INJECTED_ON.lock().unwrap(),
        vec![thread::current().id()],
        "the shard panic fired once, on the serving thread"
    );
    assert_eq!((got.shards_ok, got.shards_total), (shards - 1, shards));
    assert!(got.degradations.iter().any(|e| matches!(
        e,
        ServeError::PartialResults { shards_ok, shards_total }
            if (*shards_ok, *shards_total) == (shards - 1, shards)
    )));
    assert_eq!(got.ranked, want.ranked, "ranked partial results");
    assert_eq!(got.candidates, want.candidates);
}
