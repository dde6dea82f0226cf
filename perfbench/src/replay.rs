//! Serial replay of traced ops through the layers' public functions.
//!
//! The engine scans in worker threads, where the benchmark cannot put
//! spans. So after the traced phase, each sampled op is replayed on one
//! thread, call by call, to split its time: parse, plan, a fresh HTM
//! cover, the storage cover mask, the compiled predicate, the compiled
//! projection, and for MATCH the zone build and probes.

use crate::oracle::{Obj, Oracle};
use crate::spec::{Op, Query, Src};
use crate::trace::{span, SpanLog};
use sdss_catalog::TagObject;
use sdss_htm::Region;
use sdss_query::parser::parse_statement;
use sdss_query::plan::{plan, ScanSpec};
use sdss_query::{compile_predicate, compile_projection, BatchScratch, PlanNode, QuerySource};
use sdss_storage::{
    ColumnBatch, CoverCache, ResultSetBuilder, SelectionMask, TagStore, ZoneIndex, BATCH_ROWS,
    RESULT_SET_CHUNK_ROWS,
};
use std::hint::black_box;

/// Probe caps per MATCH op whose covers are timed on a fresh cache.
const COVER_PROBES: usize = 64;

/// Counts gathered by the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    pub probes: u64,
    pub comparisons: u64,
    pub pairs: u64,
}

fn scan_leaves(node: &PlanNode, out: &mut Vec<ScanSpec>) {
    match node {
        PlanNode::Scan(s) => out.push(s.clone()),
        PlanNode::Sort { child, .. }
        | PlanNode::Limit { child, .. }
        | PlanNode::Aggregate { child, .. } => scan_leaves(child, out),
        PlanNode::Set { left, right, .. } => {
            scan_leaves(left, out);
            scan_leaves(right, out);
        }
    }
}

/// Replay one op under request id `req`; tag-store covers are
/// computed at `cover_level`, the store's scan cover level.
pub fn replay(
    op: &Op,
    req: u64,
    tags: &TagStore,
    cover_level: u8,
    oracle: &Oracle,
    log: &mut Option<SpanLog>,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let Some(sql) = op.query.sql() else {
        return Ok(());
    };
    if let Some(l) = log.as_mut() {
        l.set_request(req);
    }
    let root = log.as_mut().map(|l| l.begin("replay"));
    let result = replay_sql(op, &sql, tags, cover_level, oracle, log, counts);
    if let (Some(l), Some(id)) = (log.as_mut(), root) {
        l.end(id);
    }
    result
}

fn replay_sql(
    op: &Op,
    sql: &str,
    tags: &TagStore,
    cover_level: u8,
    oracle: &Oracle,
    log: &mut Option<SpanLog>,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let (query, _into) =
        span(log, "parser.parse_statement", || parse_statement(sql)).map_err(|e| e.to_string())?;
    let query_plan = span(log, "plan.plan", || plan(&query, true)).map_err(|e| e.to_string())?;
    let mut leaves = Vec::new();
    scan_leaves(&query_plan.root, &mut leaves);
    let set_cut = match op.query {
        Query::Rows {
            src: Src::Set(c), ..
        }
        | Query::Agg {
            src: Src::Set(c), ..
        }
        | Query::Sorted {
            src: Src::Set(c), ..
        }
        | Query::SetOp {
            src: Src::Set(c), ..
        } => Some(c),
        Query::MatchPairs { set, .. } | Query::MatchCount { set, .. } => Some(set),
        _ => None,
    };
    for leaf in &leaves {
        match &leaf.source {
            QuerySource::Tag => replay_tag_scan(leaf, tags, cover_level, log)?,
            QuerySource::Set(_) => {
                let cut = set_cut.ok_or("set scan without a set")?;
                replay_set_scan(leaf, &oracle.members(&cut), log)?;
            }
            QuerySource::Match(m) => {
                let cut = set_cut.ok_or("MATCH without a set")?;
                replay_match(&oracle.members(&cut), m.radius_arcsec, log, counts)?;
            }
            QuerySource::Full => {}
        }
    }
    Ok(())
}

/// Cover, cover mask, predicate and projection of one tag-store leaf.
fn replay_tag_scan(
    leaf: &ScanSpec,
    tags: &TagStore,
    level: u8,
    log: &mut Option<SpanLog>,
) -> Result<(), String> {
    if let Some(domain) = &leaf.domain {
        // A fresh cache: the cost of computing this cover, not of a hit.
        span(log, "htm.cover", || {
            CoverCache::new().get_or_compute(domain, level)
        })
        .map_err(|e| e.to_string())?;
    }
    let plan = span(log, "storage.cover_mask", || {
        let plan = tags.plan_batch_scan(leaf.domain.as_ref(), None)?;
        for idx in 0..plan.morsels().len() {
            black_box(tags.scan_morsel(&plan, idx, |_, _| true));
        }
        Ok::<_, sdss_storage::StorageError>(plan)
    })
    .map_err(|e| e.to_string())?;
    let mut masks = Vec::new();
    for idx in 0..plan.morsels().len() {
        tags.scan_morsel(&plan, idx, |_, sel| {
            masks.push(sel.clone());
            true
        });
    }
    let batches: Vec<ColumnBatch<'_>> = plan
        .morsels()
        .iter()
        .filter_map(|m| tags.column_chunk(m.container))
        .flat_map(|chunk| chunk.batches(BATCH_ROWS))
        .collect();
    replay_compiled(leaf, &batches, masks, log)
}

/// The set analog: chunk scan with all-set masks, then predicate and
/// projection over the same rows the session set holds.
fn replay_set_scan(
    leaf: &ScanSpec,
    members: &[&Obj],
    log: &mut Option<SpanLog>,
) -> Result<(), String> {
    let mut builder = ResultSetBuilder::new(RESULT_SET_CHUNK_ROWS);
    for o in members {
        builder.push(&o.tag, o.htm20);
    }
    let set = builder.finish();
    span(log, "storage.cover_mask", || {
        for idx in 0..set.n_chunks() {
            black_box(set.scan_chunk(idx, |_, _| true));
        }
    });
    let batches: Vec<ColumnBatch<'_>> = set
        .chunks()
        .iter()
        .flat_map(|chunk| chunk.batches(BATCH_ROWS))
        .collect();
    let masks = batches
        .iter()
        .map(|b| SelectionMask::all_set(b.len()))
        .collect();
    replay_compiled(leaf, &batches, masks, log)
}

fn replay_compiled(
    leaf: &ScanSpec,
    batches: &[ColumnBatch<'_>],
    mut masks: Vec<SelectionMask>,
    log: &mut Option<SpanLog>,
) -> Result<(), String> {
    let mut scratch = BatchScratch::new();
    if let Some(expr) = &leaf.predicate {
        let pred = compile_predicate(expr).ok_or("predicate does not compile")?;
        span(log, "compile.predicate", || {
            for (batch, mask) in batches.iter().zip(masks.iter_mut()) {
                let sel = pred.eval_hinted(batch, &mut scratch, Some(&*mask));
                mask.and_with(sel);
            }
        });
    }
    if let Some(proj) = compile_projection(&leaf.columns) {
        span(log, "compile.projection", || {
            for (batch, mask) in batches.iter().zip(&masks) {
                black_box(proj.eval_batch(batch, mask, &mut scratch));
            }
        });
    }
    Ok(())
}

/// Zone build over the set, one probe per member, and fresh covers of
/// the first probe caps.
fn replay_match(
    members: &[&Obj],
    radius_arcsec: f64,
    log: &mut Option<SpanLog>,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let reference: Vec<TagObject> = members.iter().map(|o| o.tag).collect();
    let deep: Vec<u64> = members.iter().map(|o| o.htm20).collect();
    let level = ZoneIndex::level_for_radius(radius_arcsec);
    let index = span(log, "zone.build", || {
        ZoneIndex::build_from_deep(&deep, level)
    });
    let (mut comparisons, mut pairs) = (0u64, 0u64);
    span(log, "zone.probe", || {
        for probe in &reference {
            let n =
                index.neighbors_within(&reference, probe.unit_vec(), radius_arcsec, |ri, _| {
                    if reference[ri as usize].obj_id != probe.obj_id {
                        pairs += 1;
                    }
                })?;
            comparisons += n as u64;
        }
        Ok::<_, sdss_storage::StorageError>(())
    })
    .map_err(|e| e.to_string())?;
    counts.probes += reference.len() as u64;
    counts.comparisons += comparisons;
    counts.pairs += pairs;
    for probe in reference.iter().take(COVER_PROBES) {
        let cap = Region::circle_vec(probe.unit_vec(), radius_arcsec / 3600.0)
            .map_err(|e| e.to_string())?;
        span(log, "htm.cover", || {
            CoverCache::new().get_or_compute(&cap, level)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}
