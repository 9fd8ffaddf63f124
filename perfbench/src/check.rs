//! Output checks and result-quality scores.
//!
//! On `head` and `tail` every served response must render (`Debug`)
//! byte-identically to a sequential `search_resilient` of the same query
//! on the same stack: batching, coalescing and scheduling are meant to be
//! transparent. On `live` the catalog and the model change under traffic,
//! so instead every response must carry a catalog epoch and a model epoch
//! that were actually published. Anything else — a rejected, shed or
//! failed request, a mismatch — is a failed operation, never a skipped one.

use std::collections::{HashMap, HashSet};

use qrw_data::intent_relevance;
use qrw_search::{DeadlineBudget, SearchResponse};
use qrw_serve::{Outcome, ServedRecord};

use crate::deploy::Deployment;

/// Attempted and failed operations of one phase.
#[derive(Clone, Debug)]
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
}

/// Sequential reference responses, one per distinct query, rendered with
/// `Debug`. Serving is a pure function of the query on a frozen catalog,
/// so one reference per distinct query covers every repeat.
pub struct Reference(HashMap<Vec<String>, String>);

impl Reference {
    pub fn build<'a>(dep: &Deployment, queries: impl IntoIterator<Item = &'a [String]>) -> Self {
        let mut map = HashMap::new();
        for q in queries {
            if !map.contains_key(q) {
                let resp = dep.engine.search_resilient(
                    q,
                    dep.ladder(),
                    &dep.serving,
                    &DeadlineBudget::unlimited(),
                    None,
                );
                map.insert(q.to_vec(), format!("{resp:?}"));
            }
        }
        Reference(map)
    }

    /// Failed requests among `records`: not served, or served with bytes
    /// other than the sequential reference's.
    pub fn failures(&self, records: &[ServedRecord]) -> u64 {
        records
            .iter()
            .filter(|r| match &r.outcome {
                Outcome::Served(resp) => self
                    .0
                    .get(&r.query)
                    .is_none_or(|want| *want != format!("{resp:?}")),
                _ => true,
            })
            .count() as u64
    }
}

/// Failed requests of a `live` phase: not served, or stamped with a
/// catalog or model epoch that was never published.
pub fn live_failures(
    records: &[ServedRecord],
    catalog_epochs: &HashSet<u64>,
    model_epochs: &HashSet<u64>,
) -> u64 {
    records
        .iter()
        .filter(|r| match &r.outcome {
            Outcome::Served(resp) => {
                !catalog_epochs.contains(&resp.epoch) || !model_epochs.contains(&resp.model_epoch)
            }
            _ => true,
        })
        .count() as u64
}

/// Summed ground-truth relevance (`Catalog::relevance`) of the top-10
/// ranked items against the request's intent slots. Documents a writer
/// added (ids past the original catalog) score 0.
pub fn relevance_at10(dep: &Deployment, intent: usize, resp: &SearchResponse) -> f64 {
    let q = &dep.log.queries[intent];
    let items = &dep.log.catalog.items;
    resp.ranked
        .iter()
        .take(10)
        .filter(|&&d| d < items.len())
        .map(|&d| {
            f64::from(dep.log.catalog.relevance(
                &items[d],
                q.category,
                q.brand,
                q.audience,
                q.attr.as_deref(),
            ))
        })
        .sum()
}

/// Mean `intent_relevance` (the oracle labeler) of the rewrites a
/// response used; 0 when it used none.
pub fn rewrite_relevance(dep: &Deployment, intent: usize, resp: &SearchResponse) -> f64 {
    let q = &dep.log.queries[intent].tokens;
    let scores: Vec<f64> = resp
        .rewrites_used
        .iter()
        .map(|rw| f64::from(intent_relevance(&dep.log.catalog, q, rw)))
        .collect();
    crate::stats::mean(&scores)
}
