//! Self-tests of the benchmark itself: seeded inputs, the layer
//! predictions the workloads are built on, and the metric list.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use perfbench::inputs::{arrivals, requests, split_by_frequency, Workload};
use perfbench::run::{run_traced, run_untraced, Options, END_TO_END, PER_LAYER};
use qrw_data::{ClickLog, LogConfig};

fn sequences(log: &ClickLog, w: Workload, seed: u64) -> String {
    let (cached, uncached) = split_by_frequency(log);
    let reqs = requests(w, log, &cached, &uncached, seed, 500, 0);
    let burst = requests(w, log, &cached, &uncached, seed, 500, 1);
    format!(
        "{reqs:?}|{burst:?}|{:?}",
        arrivals(seed, w.offered_rps(), 500)
    )
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let log = ClickLog::generate(&LogConfig::default());
    for w in Workload::ALL {
        let a = sequences(&log, w, 42);
        assert_eq!(
            a,
            sequences(&log, w, 42),
            "{w:?}: same seed must give identical inputs"
        );
        assert_ne!(
            a,
            sequences(&log, w, 43),
            "{w:?}: another seed must give other inputs"
        );
    }
}

#[test]
fn head_and_tail_draw_from_their_halves_of_the_intents() {
    let log = ClickLog::generate(&LogConfig::default());
    let (cached, uncached) = split_by_frequency(&log);
    assert_eq!(cached.len(), log.queries.len() / 5);
    let head = requests(Workload::Head, &log, &cached, &uncached, 7, 2000, 0);
    let tail = requests(Workload::Tail, &log, &cached, &uncached, 7, 2000, 0);
    assert!(head
        .iter()
        .all(|r| cached.contains(&r.intent) && r.context.is_empty()));
    assert!(tail
        .iter()
        .all(|r| uncached.contains(&r.intent) && r.context.is_empty()));
    let live = requests(Workload::Live, &log, &cached, &uncached, 7, 2000, 0);
    assert_eq!(live.len(), 2000);
    assert!(
        live.iter().any(|r| !r.context.is_empty()),
        "live sends session follow-ups"
    );
}

fn traced(w: Workload) -> perfbench::run::Outcome {
    let out = run_traced(&Options {
        workload: w,
        seed: 5,
        seconds: 1.0,
        trace: true,
    });
    assert_eq!(out.failed(), 0, "{w:?}: {:?}", out.phases);
    out
}

#[test]
fn head_always_hits_the_cache_and_never_decodes() {
    let out = traced(Workload::Head);
    assert_eq!(out.metrics.get("kv.hit_share"), Some(1.0));
    assert_eq!(out.metrics.get("student.tokens_per_req"), Some(0.0));
}

#[test]
fn tail_never_hits_the_cache() {
    let out = traced(Workload::Tail);
    assert_eq!(out.metrics.get("kv.hit_share"), Some(0.0));
    assert!(out.metrics.get("student.tokens_per_req").unwrap() > 0.0);
}

#[test]
fn live_publishes_catalog_and_model_epochs_while_serving() {
    let out = traced(Workload::Live);
    assert!(out.metrics.get("snapshot.epochs_published").unwrap() >= 1.0);
    assert!(out.metrics.get("models.swaps").unwrap() >= 1.0);
}

#[test]
fn runs_report_exactly_the_listed_metrics() {
    let out = run_untraced(&Options {
        workload: Workload::Head,
        seed: 3,
        seconds: 0.5,
        trace: false,
    });
    assert_eq!(out.failed(), 0, "{:?}", out.phases);
    let names: Vec<&str> = out.metrics.0.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(names, want);
    let traced = traced(Workload::Head);
    let names: Vec<&str> = traced.metrics.0.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(names, want);
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = text.matches("\"better\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists extra metrics"
    );
}
