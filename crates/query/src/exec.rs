//! Multithreaded QET execution with ASAP push streaming of *batches*.
//!
//! Every plan node runs on its own thread; results flow upward through
//! bounded crossbeam channels as [`ResultBatch`]es. Scan/Limit nodes
//! stream; Sort/Aggregate/Set nodes are the paper's blocking nodes ("at
//! least one of the child nodes must be complete before results can be
//! sent further up the tree"). The channel fabric gives the ASAP
//! property: the first matching object reaches the consumer while scans
//! are still running.
//!
//! Tag and stored-set scans run **columnar**: the scan leaf pulls
//! [`sdss_storage::ColumnBatch`]es from struct-of-arrays chunks,
//! evaluates the compiled predicate ([`crate::compile`]) over each batch
//! into a selection bitmap, and ships the projected columns onward as a
//! [`ColumnarBatch`] — typed column vectors, **not** `Vec<Row>`. Rows
//! materialize only at the edge, when a consumer calls
//! [`ResultBatch::rows`]; row-at-a-time interpretation remains as the
//! fallback for whatever the compiler can't express (and the full store).
//!
//! Every columnar shape runs on **one morsel driver** (`MorselRun`):
//! it resolves the source, applies the one compile gate's predicate and
//! the sample, and builds the byte-balanced [`MorselQueue`] once;
//! `MorselRun::drain` is the only morsel loop (cancel checks per morsel
//! and per batch, row selection, per-worker accounting), and `fan_out`
//! runs workers 1..n on scoped threads with worker 0 inline. The
//! projection scan, the in-scan aggregate, the direct INTO path (at one
//! worker) and the MATCH probe (pairs, and aggregates through the same
//! partial-merge helper as scans) are closures over it. The driver's docs
//! carry the slot-accounting contract with admission.
//!
//! A query without ORDER BY has an **unspecified row order**: parallel
//! workers push into one channel in scheduling order. Only the multiset
//! of rows is part of the result contract.
//!
//! Execution is owned, not scoped: stores travel as `Arc`s and node
//! threads are detached, so a [`BatchHandle`] can outlive the call that
//! launched it (the pull-based `ResultStream` of [`crate::archive`]).
//! Producers observe consumer disappearance through channel send errors
//! and cooperative cancellation through the shared [`TicketCore`].

use crate::ast::{AggFn, Expr, Value};
use crate::compile::{
    compile_agg_inputs, compile_predicate, compile_projection, BatchScratch, CompiledAggInputs,
    CompiledPredicate, CompiledProjection,
};
use crate::ops::{eval, AttrSource};
use crate::plan::{AggSpec, MatchInput, MatchSpec, PlanNode, QuerySource, ScanSpec};
use crate::QueryError;
use crossbeam::channel::{bounded, Receiver, Sender};
use sdss_catalog::{ObjClass, TagObject};
use sdss_storage::{
    sample_hash_keep, ColumnBatch, MorselQueue, ObjectStore, RegionScan, ResultSet, SelectionMask,
    TagScanPlan, TagStore, ZoneIndex,
};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One output row.
pub type Row = Vec<Value>;

/// Rows travel in batches to amortize channel overhead (row-path).
const BATCH: usize = 128;
/// Columnar scans coalesce projected output up to this many rows before
/// a send — selective predicates would otherwise push one tiny batch
/// per input chunk and pay a channel round-trip each time.
const COALESCE_ROWS: usize = 512;
/// Channel depth: enough to decouple producer/consumer without buffering
/// the whole result (that would break the ASAP property).
const CHANNEL_DEPTH: usize = 8;

/// Whether scans may use the compiled columnar path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Compile tag scans to columnar bytecode when possible (default).
    #[default]
    Auto,
    /// Force the row-at-a-time interpreter everywhere (the benchmark
    /// baseline, and the equivalence oracle in tests).
    Interpreted,
}

// ---------------------------------------------------------------------
// Result batches
// ---------------------------------------------------------------------

/// One projected output column of a [`ColumnarBatch`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Numeric lane (`Value::Num` at the edge).
    Num(Vec<f64>),
    /// Exact object ids (`Value::Id` at the edge).
    Id(Vec<u64>),
    /// Raw class bytes; decoded to class-name strings only at the edge.
    Class(Vec<u8>),
}

impl ColumnData {
    fn truncate(&mut self, n: usize) {
        match self {
            ColumnData::Num(v) => v.truncate(n),
            ColumnData::Id(v) => v.truncate(n),
            ColumnData::Class(v) => v.truncate(n),
        }
    }

    /// The value of row `i`, materialized.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnData::Num(v) => Value::Num(v[i]),
            ColumnData::Id(v) => Value::Id(v[i]),
            ColumnData::Class(v) => Value::Str(
                ObjClass::from_u8(v[i])
                    .expect("valid stored class")
                    .as_str()
                    .to_string(),
            ),
        }
    }

    /// Numeric view of row `i` (same semantics as [`Value::as_num`]).
    pub fn num_at(&self, i: usize) -> Option<f64> {
        match self {
            ColumnData::Num(v) => Some(v[i]),
            ColumnData::Id(v) => Some(v[i] as f64),
            ColumnData::Class(_) => None,
        }
    }

    /// Exact id view of row `i` (same semantics as [`Value::as_id`]).
    pub fn id_at(&self, i: usize) -> Option<u64> {
        match self {
            ColumnData::Id(v) => Some(v[i]),
            ColumnData::Num(v) => {
                let x = v[i];
                (x.fract() == 0.0 && (0.0..9.0e15).contains(&x)).then_some(x as u64)
            }
            ColumnData::Class(_) => None,
        }
    }
}

/// A batch of projected results in struct-of-arrays form — what the
/// columnar scan path ships through the channel fabric instead of
/// materialized rows.
#[derive(Debug, Clone, Default)]
pub struct ColumnarBatch {
    columns: Vec<ColumnData>,
    len: usize,
}

impl ColumnarBatch {
    /// Build from typed columns (all must share `len`).
    pub fn new(columns: Vec<ColumnData>, len: usize) -> ColumnarBatch {
        ColumnarBatch { columns, len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    pub fn truncate(&mut self, n: usize) {
        if n < self.len {
            for c in &mut self.columns {
                c.truncate(n);
            }
            self.len = n;
        }
    }

    /// Append another batch of the same projection (column kinds must
    /// line up — they do, coming from one compiled projection).
    pub fn append(&mut self, other: ColumnarBatch) {
        debug_assert_eq!(self.columns.len(), other.columns.len());
        for (dst, src) in self.columns.iter_mut().zip(other.columns) {
            match (dst, src) {
                (ColumnData::Num(d), ColumnData::Num(s)) => d.extend(s),
                (ColumnData::Id(d), ColumnData::Id(s)) => d.extend(s),
                (ColumnData::Class(d), ColumnData::Class(s)) => d.extend(s),
                _ => unreachable!("one projection produces one column layout"),
            }
        }
        self.len += other.len;
    }

    /// Materialize every row — the edge adapter. Column-major fill: one
    /// dispatch per column, not per cell.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = (0..self.len)
            .map(|_| Vec::with_capacity(self.columns.len()))
            .collect();
        self.append_columns(&mut rows);
        rows
    }

    fn append_columns(&self, rows: &mut [Row]) {
        for col in &self.columns {
            match col {
                ColumnData::Num(v) => {
                    for (row, &x) in rows.iter_mut().zip(v) {
                        row.push(Value::Num(x));
                    }
                }
                ColumnData::Id(v) => {
                    for (row, &x) in rows.iter_mut().zip(v) {
                        row.push(Value::Id(x));
                    }
                }
                ColumnData::Class(v) => {
                    for (row, &b) in rows.iter_mut().zip(v) {
                        row.push(Value::Str(
                            ObjClass::from_u8(b)
                                .expect("valid stored class")
                                .as_str()
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }
}

/// What travels through the channel fabric: columnar batches from the
/// compiled scan path, row batches from everything else.
#[derive(Debug, Clone)]
pub enum ResultBatch {
    Columnar(ColumnarBatch),
    Rows(Vec<Row>),
}

impl ResultBatch {
    pub fn len(&self) -> usize {
        match self {
            ResultBatch::Columnar(b) => b.len(),
            ResultBatch::Rows(r) => r.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn truncate(&mut self, n: usize) {
        match self {
            ResultBatch::Columnar(b) => b.truncate(n),
            ResultBatch::Rows(r) => r.truncate(n),
        }
    }

    /// Is this batch still in columnar (non-materialized) form?
    pub fn is_columnar(&self) -> bool {
        matches!(self, ResultBatch::Columnar(_))
    }

    /// Materialize into rows — the edge adapter. Columnar batches decode
    /// here and nowhere earlier.
    pub fn rows(self) -> Vec<Row> {
        match self {
            ResultBatch::Columnar(b) => b.rows(),
            ResultBatch::Rows(r) => r,
        }
    }

    /// Materialize into an existing row buffer (no intermediate vector).
    pub fn append_rows(self, out: &mut Vec<Row>) {
        match self {
            ResultBatch::Columnar(b) => {
                let start = out.len();
                out.extend((0..b.len()).map(|_| Vec::with_capacity(b.columns.len())));
                b.append_columns(&mut out[start..]);
            }
            ResultBatch::Rows(r) => out.extend(r),
        }
    }

    /// Numeric view of `(col, row)` without materializing.
    pub fn num_at(&self, col: usize, row: usize) -> Option<f64> {
        match self {
            ResultBatch::Columnar(b) => b.columns[col].num_at(row),
            ResultBatch::Rows(r) => r[row][col].as_num(),
        }
    }

    /// Exact-id view of `(col, row)` without materializing.
    pub fn id_at(&self, col: usize, row: usize) -> Option<u64> {
        match self {
            ResultBatch::Columnar(b) => b.columns[col].id_at(row),
            ResultBatch::Rows(r) => r[row][col].as_id(),
        }
    }
}

// ---------------------------------------------------------------------
// Tickets: cancellation + live progress
// ---------------------------------------------------------------------

/// Shared per-execution state: the cancel token checked between batches
/// and live progress counters the scan leaves update as they go. Wrapped
/// by [`crate::archive::QueryTicket`] for the public API.
#[derive(Debug, Default)]
pub struct TicketCore {
    cancelled: AtomicBool,
    rows_scanned: AtomicU64,
    /// Rows pushed into the channel fabric by producers (scan workers
    /// and the fused aggregate's result row), counted at the batch edge.
    /// Per-worker safe: every worker bumps the same atomic on its own
    /// sends. Differs from the consumer-side row count under LIMIT or
    /// cancellation (producers may emit more than is delivered).
    rows_emitted: AtomicU64,
    batches_emitted: AtomicU64,
    bytes_scanned: AtomicU64,
    containers_full: AtomicU64,
    containers_partial: AtomicU64,
    exact_tests: AtomicU64,
    cover_hits: AtomicU64,
    cover_misses: AtomicU64,
    /// One entry per scan worker that ran (parallel workers, the serial
    /// columnar driver, and the row fallback each register here).
    worker_scans: Mutex<Vec<WorkerScan>>,
    /// First node-thread panic, surfaced instead of silently truncating
    /// the result (detached threads have no join to propagate through).
    failure: std::sync::Mutex<Option<String>>,
}

/// What one scan worker did — the per-worker accounting behind
/// `QueryStats` (`workers_used`, per-worker bytes, morsel counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerScan {
    /// Bytes this worker read.
    pub bytes_scanned: u64,
    /// Container morsels this worker claimed from the queue (0 on the
    /// row-interpreted fallback, which has no morsel queue).
    pub morsels: u64,
    /// Rows that survived selection in this worker.
    pub rows_selected: u64,
}

/// A snapshot of the scan-side counters (the totals behind
/// [`crate::archive::QueryStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanTotals {
    /// Rows that survived predicates at the scan leaves.
    pub rows_scanned: u64,
    /// Batches the scan leaves pushed into the fabric.
    pub batches_emitted: u64,
    pub bytes_scanned: u64,
    pub containers_full: u64,
    pub containers_partial: u64,
    pub objects_exact_tested: u64,
    pub cover_cache_hits: u64,
    pub cover_cache_misses: u64,
}

impl TicketCore {
    /// Request cooperative cancellation: scan leaves stop between
    /// batches; blocking nodes drain out through closed channels.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Live scan-side totals (valid mid-flight; final once the stream
    /// has drained).
    pub fn totals(&self) -> ScanTotals {
        ScanTotals {
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            batches_emitted: self.batches_emitted.load(Ordering::Relaxed),
            bytes_scanned: self.bytes_scanned.load(Ordering::Relaxed),
            containers_full: self.containers_full.load(Ordering::Relaxed),
            containers_partial: self.containers_partial.load(Ordering::Relaxed),
            objects_exact_tested: self.exact_tests.load(Ordering::Relaxed),
            cover_cache_hits: self.cover_hits.load(Ordering::Relaxed),
            cover_cache_misses: self.cover_misses.load(Ordering::Relaxed),
        }
    }

    /// The first execution-thread failure, if any (checked by consumers
    /// once the stream drains — a closed channel alone looks identical
    /// to a clean finish).
    pub fn failure(&self) -> Option<String> {
        self.failure.lock().unwrap().clone()
    }

    fn record_failure(&self, msg: String) {
        let mut slot = self.failure.lock().unwrap();
        if slot.is_none() {
            *slot = Some(msg);
        }
    }

    fn note_batch(&self, rows: usize) {
        self.rows_scanned.fetch_add(rows as u64, Ordering::Relaxed);
        self.rows_emitted.fetch_add(rows as u64, Ordering::Relaxed);
        self.batches_emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Scan-survivor rows that never ship as batches (in-scan aggregate
    /// folding counts the rows it folded here).
    fn note_rows(&self, rows: u64) {
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
    }

    /// The fused aggregate's single result row entering the fabric.
    fn note_emitted(&self) {
        self.rows_emitted.fetch_add(1, Ordering::Relaxed);
        self.batches_emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Rows producers pushed into the fabric so far (batch-edge count).
    pub fn rows_emitted(&self) -> u64 {
        self.rows_emitted.load(Ordering::Relaxed)
    }

    /// Record the plan-time cover lookup of a morsel-driven scan (the
    /// per-morsel stats deliberately carry no cover counters).
    fn note_cover(&self, hit: bool) {
        if hit {
            self.cover_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cover_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_worker(&self, ws: WorkerScan) {
        self.worker_scans.lock().unwrap().push(ws);
    }

    /// Scan workers that ran so far (final once the stream drains).
    pub fn workers_used(&self) -> usize {
        self.worker_scans.lock().unwrap().len()
    }

    /// Per-worker scan accounting, in completion order.
    pub fn worker_scans(&self) -> Vec<WorkerScan> {
        self.worker_scans.lock().unwrap().clone()
    }

    /// Container morsels dispatched across all workers.
    pub fn morsels_dispatched(&self) -> u64 {
        self.worker_scans
            .lock()
            .unwrap()
            .iter()
            .map(|w| w.morsels)
            .sum()
    }

    fn absorb_scan(&self, s: &RegionScan) {
        self.bytes_scanned
            .fetch_add(s.bytes_scanned as u64, Ordering::Relaxed);
        self.containers_full
            .fetch_add(s.containers_full as u64, Ordering::Relaxed);
        self.containers_partial
            .fetch_add(s.containers_partial as u64, Ordering::Relaxed);
        self.exact_tests
            .fetch_add(s.objects_exact_tested as u64, Ordering::Relaxed);
        self.cover_hits
            .fetch_add(s.cover_cache_hits, Ordering::Relaxed);
        self.cover_misses
            .fetch_add(s.cover_cache_misses, Ordering::Relaxed);
    }

    fn absorb_sweep(&self, bytes: usize, containers: usize) {
        self.bytes_scanned
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.containers_full
            .fetch_add(containers as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// The execution environment and fabric
// ---------------------------------------------------------------------

/// Everything a query execution needs, owned: any number of concurrent
/// executions share the stores through `Arc`.
#[derive(Debug, Clone)]
pub struct ExecEnv {
    pub store: Arc<ObjectStore>,
    pub tags: Option<Arc<TagStore>>,
    /// Stored result sets pinned at prepare time (session workspaces):
    /// `QuerySource::Set` leaves resolve their snapshot here by name.
    pub sets: Arc<HashMap<String, Arc<ResultSet>>>,
    /// Cover level override for scans.
    pub cover_level: Option<u8>,
    pub mode: ExecMode,
    /// Scan workers each columnar scan leaf may use (≥ 1). The caller
    /// holds this many admission slots per leaf — see the morsel
    /// driver's (`MorselRun`) docs for the slot-accounting contract.
    pub workers: usize,
}

/// A handle to a running (sub)tree: the receiving end of its output.
pub struct BatchHandle {
    /// Output column names (shared, not re-cloned per node).
    pub columns: Arc<Vec<String>>,
    pub rx: Receiver<ResultBatch>,
}

/// Is this scan's source columnar-capable? Tag scans need the tag store
/// present; stored sets are columnar by construction (the workspace
/// materialized them into SoA chunks); the full store has no SoA image.
fn columnar_source(spec: &ScanSpec, tags_available: bool) -> bool {
    match &spec.source {
        QuerySource::Tag => tags_available,
        QuerySource::Set(_) => true,
        // MATCH joins probe through the morsel driver too, but their
        // pairs evaluate row-wise (see `spawn_match`).
        QuerySource::Full | QuerySource::Match(_) => false,
    }
}

/// The one compile gate of the morsel driver: `Some(pred)` iff the mode
/// allows compiled execution, the source is columnar-capable (tag store
/// or stored set), and the predicate (when present) compiles. Each shape
/// adds its own output program on top — a projection for scans,
/// aggregate inputs for in-scan folds, nothing for INTO (which
/// materializes whole tag records). The stats flag
/// (`plan_uses_columnar`) and the executor both go through here, so the
/// gate and the execution path cannot drift.
pub(crate) fn compile_gate(
    spec: &ScanSpec,
    tags_available: bool,
    mode: ExecMode,
) -> Option<Option<CompiledPredicate>> {
    if mode != ExecMode::Auto || !columnar_source(spec, tags_available) {
        return None;
    }
    match &spec.predicate {
        None => Some(None),
        Some(p) => compile_predicate(p).map(Some),
    }
}

/// The projection scan's lowering: the gate plus a compiled projection.
fn compile_scan(
    spec: &ScanSpec,
    tags_available: bool,
    mode: ExecMode,
) -> Option<(Option<CompiledPredicate>, CompiledProjection)> {
    let pred = compile_gate(spec, tags_available, mode)?;
    Some((pred, compile_projection(&spec.columns)?))
}

/// Would this scan run on the columnar compiled path?
pub fn scan_uses_columnar(spec: &ScanSpec, tags_available: bool, mode: ExecMode) -> bool {
    compile_scan(spec, tags_available, mode).is_some()
}

/// Do *all* scan leaves of the plan run columnar?
pub fn plan_uses_columnar(plan: &PlanNode, tags_available: bool, mode: ExecMode) -> bool {
    match plan {
        PlanNode::Scan(s) => scan_uses_columnar(s, tags_available, mode),
        PlanNode::Sort { child, .. }
        | PlanNode::Limit { child, .. }
        | PlanNode::Aggregate { child, .. } => plan_uses_columnar(child, tags_available, mode),
        PlanNode::Set { left, right, .. } => {
            plan_uses_columnar(left, tags_available, mode)
                && plan_uses_columnar(right, tags_available, mode)
        }
    }
}

/// Launch a plan on detached node threads and return the root's handle.
/// The caller pulls batches at its own pace; dropping the handle
/// cascades channel-disconnect shutdown through the tree, and
/// `ticket.cancel()` stops scans between batches.
pub fn launch(env: &ExecEnv, plan: PlanNode, ticket: &Arc<TicketCore>) -> BatchHandle {
    spawn_node(env, plan, ticket)
}

/// Run `body`, recording a panic into the ticket instead of unwinding
/// further — a silently dead producer would read as a clean (truncated)
/// result.
fn guarded<T>(ticket: &TicketCore, body: impl FnOnce() -> T) -> Option<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(v) => Some(v),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic payload".to_string());
            ticket.record_failure(format!("execution thread panicked: {msg}"));
            None
        }
    }
}

/// Spawn a detached node thread that records panics into the ticket —
/// detached threads have no scope join to propagate through.
fn spawn_guarded(ticket: Arc<TicketCore>, body: impl FnOnce() + Send + 'static) {
    std::thread::spawn(move || {
        guarded(&ticket, body);
    });
}

/// Ship a full row buffer into the fabric; `false` once the consumer
/// has hung up.
fn send_rows(ticket: &TicketCore, tx: &Sender<ResultBatch>, out: &mut Vec<Row>) -> bool {
    ticket.note_batch(out.len());
    tx.send(ResultBatch::Rows(std::mem::take(out))).is_ok()
}

fn spawn_node(env: &ExecEnv, node: PlanNode, ticket: &Arc<TicketCore>) -> BatchHandle {
    match node {
        PlanNode::Scan(spec) => spawn_scan(env, spec, ticket),
        PlanNode::Limit { child, n } => {
            let child_handle = spawn_node(env, *child, ticket);
            let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
            let columns = child_handle.columns.clone();
            spawn_guarded(ticket.clone(), move || {
                let mut remaining = n;
                for mut batch in child_handle.rx.iter() {
                    if remaining == 0 {
                        break; // dropping rx cancels the child
                    }
                    batch.truncate(remaining);
                    remaining -= batch.len();
                    if tx.send(batch).is_err() {
                        break;
                    }
                }
            });
            BatchHandle { columns, rx }
        }
        PlanNode::Sort { child, key, desc } => {
            let child_handle = spawn_node(env, *child, ticket);
            let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
            let columns = child_handle.columns.clone();
            let key_idx = columns.iter().position(|c| c == &key);
            spawn_guarded(ticket.clone(), move || {
                // Blocking node: drain the child completely first. Sort
                // needs random access, so this is where columnar batches
                // materialize.
                let mut rows: Vec<Row> = Vec::new();
                for batch in child_handle.rx.iter() {
                    batch.append_rows(&mut rows);
                }
                if let Some(idx) = key_idx {
                    rows.sort_by(|a, b| {
                        let ord = compare_values(&a[idx], &b[idx]);
                        if desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    });
                }
                for chunk in rows.chunks(BATCH) {
                    if tx.send(ResultBatch::Rows(chunk.to_vec())).is_err() {
                        break;
                    }
                }
            });
            BatchHandle { columns, rx }
        }
        PlanNode::Aggregate { child, aggs } => {
            // In-scan folding fast path: an aggregate directly over a
            // compilable scan (or a MATCH) folds inside the morsel
            // workers — no `__agg_i` columns, no per-row channel traffic.
            let child = *child;
            if let PlanNode::Scan(spec) = child {
                if let QuerySource::Match(m) = spec.source.clone() {
                    return spawn_match(env, spec, m, Some(aggs), ticket);
                }
                let args: Vec<Option<&Expr>> = aggs.iter().map(|a| a.arg.as_ref()).collect();
                let lowered = compile_gate(&spec, env.tags.is_some(), env.mode)
                    .and_then(|pred| Some((pred, compile_agg_inputs(&args)?)));
                return match lowered {
                    Some((pred, inputs)) => spawn_agg_scan(env, spec, aggs, pred, inputs, ticket),
                    None => spawn_aggregate_over(env, PlanNode::Scan(spec), aggs, ticket),
                };
            }
            spawn_aggregate_over(env, child, aggs, ticket)
        }
        PlanNode::Set { op, left, right } => {
            let lh = spawn_node(env, *left, ticket);
            let rh = spawn_node(env, *right, ticket);
            let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
            let columns = lh.columns.clone();
            let objid_idx = columns
                .iter()
                .position(|c| c == "objid")
                .expect("planner enforced objid for set ops");
            let union = op == crate::ast::SetOp::Union;
            spawn_guarded(ticket.clone(), move || {
                // Blocking on the right side: build the key set. UNION
                // also keeps the right side's first row per objid (its
                // right-only rows are emitted whole); INTERSECT and
                // EXCEPT only need the ids, so they never materialize
                // right-side rows.
                let mut right_ids: HashSet<u64> = HashSet::new();
                let mut right_rows: Vec<Row> = Vec::new();
                for batch in rh.rx.iter() {
                    if union {
                        for row in batch.rows() {
                            if row[objid_idx]
                                .as_id()
                                .is_some_and(|id| right_ids.insert(id))
                            {
                                right_rows.push(row);
                            }
                        }
                    } else {
                        right_ids
                            .extend((0..batch.len()).filter_map(|r| batch.id_at(objid_idx, r)));
                    }
                }
                // Stream the left side against it.
                let mut seen: HashSet<u64> = HashSet::new();
                let mut out = Vec::with_capacity(BATCH);
                for batch in lh.rx.iter() {
                    for row in batch.rows() {
                        let Some(id) = row[objid_idx].as_id() else {
                            continue;
                        };
                        if seen.contains(&id) {
                            continue; // set semantics: dedupe left
                        }
                        let keep = match op {
                            crate::ast::SetOp::Union => true,
                            crate::ast::SetOp::Intersect => right_ids.contains(&id),
                            crate::ast::SetOp::Except => !right_ids.contains(&id),
                        };
                        if keep {
                            seen.insert(id);
                            out.push(row);
                            if out.len() >= BATCH
                                && tx
                                    .send(ResultBatch::Rows(std::mem::take(&mut out)))
                                    .is_err()
                            {
                                return;
                            }
                        }
                    }
                }
                // Union also emits right-only rows.
                for row in right_rows {
                    if row[objid_idx].as_id().is_some_and(|id| !seen.contains(&id)) {
                        out.push(row);
                        if out.len() >= BATCH
                            && tx
                                .send(ResultBatch::Rows(std::mem::take(&mut out)))
                                .is_err()
                        {
                            return;
                        }
                    }
                }
                if !out.is_empty() {
                    let _ = tx.send(ResultBatch::Rows(out));
                }
            });
            BatchHandle { columns, rx }
        }
    }
}

/// The channel-path Aggregate node: drain the child's batches (which
/// carry hidden `__agg_i` columns) and fold them into one row. The fused
/// in-scan path ([`spawn_agg_scan`]) replaces this whenever the child is
/// a compilable tag scan.
fn spawn_aggregate_over(
    env: &ExecEnv,
    child: PlanNode,
    aggs: Vec<AggSpec>,
    ticket: &Arc<TicketCore>,
) -> BatchHandle {
    let child_handle = spawn_node(env, child, ticket);
    let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
    let columns = Arc::new(aggs.iter().map(|a| a.name.clone()).collect::<Vec<_>>());
    // Resolve each aggregate's hidden `__agg_i` column up front
    // instead of re-formatting the name per row.
    let child_cols = child_handle.columns.clone();
    let arg_idx: Vec<Option<usize>> = aggs
        .iter()
        .enumerate()
        .map(|(i, a)| {
            a.arg.as_ref().map(|_| {
                child_cols
                    .iter()
                    .position(|c| c == &format!("__agg_{i}"))
                    .expect("lowering appended the agg column")
            })
        })
        .collect();
    spawn_guarded(ticket.clone(), move || {
        let mut acc: Vec<AggAcc> = aggs.iter().map(|a| AggAcc::new(a.func)).collect();
        for batch in child_handle.rx.iter() {
            // Accumulate straight off the batch — columnar lanes
            // fold without materializing rows.
            for r in 0..batch.len() {
                for (i, idx) in arg_idx.iter().enumerate() {
                    let v = idx.and_then(|idx| batch.num_at(idx, r));
                    acc[i].update(v);
                }
            }
        }
        let row: Row = acc.into_iter().map(AggAcc::finish).collect();
        let _ = tx.send(ResultBatch::Rows(vec![row]));
    });
    BatchHandle { columns, rx }
}

/// Lower a scan: project columns (plus hidden aggregate argument columns,
/// handled by the planner caller) and stream matching batches. Tag and
/// stored-set scans take the compiled path on the morsel driver when the
/// predicate and projection both lower to bytecode; everything else
/// interprets row-at-a-time.
fn spawn_scan(env: &ExecEnv, spec: ScanSpec, ticket: &Arc<TicketCore>) -> BatchHandle {
    if let QuerySource::Match(m) = spec.source.clone() {
        return spawn_match(env, spec, m, None, ticket);
    }
    let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
    let columns: Arc<Vec<String>> = Arc::new(spec.columns.iter().map(|(n, _)| n.clone()).collect());
    let cover_level = env.cover_level;
    let ticket = ticket.clone();

    // --- columnar fast path -------------------------------------------
    // Every worker streams projected batches into the same output
    // channel (the channel is the per-worker stream merge).
    if let Some((pred, proj)) = compile_scan(&spec, env.tags.is_some(), env.mode) {
        let env = env.clone();
        spawn_guarded(ticket.clone(), move || {
            let Some(run) = MorselRun::open(&env, &spec, pred, env.workers, &ticket) else {
                return;
            };
            fan_out(&ticket, run.workers(), |w| {
                // Coalesced output: selective predicates keep few rows
                // per input chunk; accumulating up to COALESCE_ROWS
                // before a send amortizes the channel round-trip. Each
                // worker's FIRST non-empty batch flushes immediately —
                // coalescing must not hold back time-to-first-row.
                let mut pending: Option<ColumnarBatch> = None;
                let mut sent_any = false;
                run.drain(w, |batch, keep, scratch| {
                    let selected = keep.count() as u64;
                    let out = proj.eval_batch(batch, keep, scratch);
                    match &mut pending {
                        None => pending = Some(out),
                        Some(p) => p.append(out),
                    }
                    let threshold = if sent_any { COALESCE_ROWS } else { 1 };
                    if pending.as_ref().is_some_and(|p| p.len() >= threshold) {
                        let out = pending.take().expect("checked above");
                        ticket.note_batch(out.len());
                        sent_any = true;
                        if tx.send(ResultBatch::Columnar(out)).is_err() {
                            return ControlFlow::Break(selected); // consumer hung up
                        }
                    }
                    ControlFlow::Continue(selected)
                });
                if let Some(out) = pending {
                    ticket.note_batch(out.len());
                    let _ = tx.send(ResultBatch::Columnar(out));
                }
            });
        });
        return BatchHandle { columns, rx };
    }

    // --- row-at-a-time fallback ---------------------------------------
    let store = env.store.clone();
    let tags = env.tags.clone();
    let sets = env.sets.clone();
    spawn_guarded(ticket.clone(), move || {
        let mut out: Vec<Row> = Vec::with_capacity(BATCH);
        let mut alive = true;
        let mut kept: u64 = 0;
        let mut worker_bytes: u64 = 0;

        // The row pipeline, generic over record type.
        let mut emit = |src: &dyn AttrSource, tx: &Sender<ResultBatch>| -> bool {
            if ticket.is_cancelled() {
                return false;
            }
            if let Some(f) = spec.sample {
                let id = src.attr("objid").and_then(|v| v.as_id()).unwrap_or(0);
                if !sample_hash_keep(id, f) {
                    return true;
                }
            }
            if let Some(pred) = &spec.predicate {
                match eval(pred, &SourceRef(src)) {
                    Ok(Value::Bool(true)) => {}
                    Ok(_) => return true,
                    Err(_) => return true, // row-level type errors drop the row
                }
            }
            let mut row: Row = Vec::with_capacity(spec.columns.len());
            for (_, expr) in &spec.columns {
                match eval(expr, &SourceRef(src)) {
                    Ok(v) => row.push(v),
                    Err(_) => row.push(Value::Null),
                }
            }
            out.push(row);
            kept += 1;
            out.len() < BATCH || send_rows(&ticket, tx, &mut out)
        };

        match (&spec.source, &tags) {
            // Stored sets interpret row-wise by rebuilding each chunk
            // row as a `TagObject` (sets are tag-shaped; the planner
            // kept any spatial factor in the predicate, so geometry
            // evaluates per row here).
            (QuerySource::Set(name), _) => match sets.get(name) {
                Some(set) => {
                    let mut bytes = 0usize;
                    let mut containers = 0usize;
                    'chunks: for chunk in set.chunks() {
                        bytes += chunk.bytes();
                        containers += 1;
                        for i in 0..chunk.len() {
                            if !emit(&chunk.row(i), &tx) {
                                alive = false;
                                break 'chunks;
                            }
                        }
                    }
                    worker_bytes = bytes as u64;
                    ticket.absorb_sweep(bytes, containers);
                }
                None => ticket.record_failure(format!(
                    "stored set `{name}` was not pinned at prepare time"
                )),
            },
            (QuerySource::Match(_), _) => {
                unreachable!("MATCH scans spawn their own join path")
            }
            (QuerySource::Tag, Some(tag_store)) => match &spec.domain {
                Some(domain) => {
                    if let Ok(stats) = tag_store.scan_region_until(domain, cover_level, |t| {
                        alive = emit(t, &tx);
                        alive
                    }) {
                        worker_bytes = stats.bytes_scanned as u64;
                        ticket.absorb_scan(&stats);
                    }
                }
                None => {
                    // Full tag scan (no spatial restriction); stops
                    // between records on cancel / consumer hang-up.
                    let (bytes, containers) = tag_store.scan_all_until(|t| {
                        alive = emit(t, &tx);
                        alive
                    });
                    worker_bytes = bytes as u64;
                    ticket.absorb_sweep(bytes, containers);
                }
            },
            _ => match &spec.domain {
                Some(domain) => {
                    if let Ok(stats) = store.scan_region_until(domain, cover_level, |o| {
                        alive = emit(o, &tx);
                        alive
                    }) {
                        worker_bytes = stats.bytes_scanned as u64;
                        ticket.absorb_scan(&stats);
                    }
                }
                None => {
                    let (bytes, containers) = store.scan_all_until(|o| {
                        alive = emit(o, &tx);
                        alive
                    });
                    worker_bytes = bytes as u64;
                    ticket.absorb_sweep(bytes, containers);
                }
            },
        }
        if alive && !out.is_empty() {
            send_rows(&ticket, &tx, &mut out);
        }
        // The interpreted scan is a single serial worker; register it so
        // `workers_used` is truthful on every path.
        ticket.note_worker(WorkerScan {
            bytes_scanned: worker_bytes,
            morsels: 0,
            rows_selected: kept,
        });
    });
    BatchHandle { columns, rx }
}

/// The morsel driver's per-batch row selection: the cover mask ANDed
/// with the compiled predicate (cover-rejected rows hinted away), then
/// the deterministic sample filter. One rule for every shape on the
/// driver — their equivalence is what the parallel tests assert.
fn select_rows(
    pred: &Option<CompiledPredicate>,
    sample: Option<f64>,
    batch: &ColumnBatch<'_>,
    sel: &SelectionMask,
    scratch: &mut BatchScratch,
    keep_scratch: &mut Vec<usize>,
) -> SelectionMask {
    let mut keep = sel.clone();
    if let Some(pred) = pred {
        keep.and_with(pred.eval_hinted(batch, scratch, Some(sel)));
    }
    if let Some(f) = sample {
        keep_scratch.clear();
        keep_scratch.extend(
            keep.iter_set()
                .filter(|&i| !sample_hash_keep(batch.obj_id[i], f)),
        );
        for &i in keep_scratch.iter() {
            keep.clear(i);
        }
    }
    keep
}

/// Where a columnar scan's morsels come from — the substrate the morsel
/// driver drains. Tag scans resolve an HTM cover into a [`TagScanPlan`]
/// (one morsel per touched container); stored sets expose their SoA
/// chunks directly (one morsel per chunk, every row pre-selected). The
/// compiled predicate/projection machinery is identical above this seam,
/// which is exactly what makes `FROM <set>` ride the same
/// morsel-parallel compiled path as a tag scan.
enum ScanSource {
    Tag {
        store: Arc<TagStore>,
        plan: Arc<TagScanPlan>,
    },
    Set(Arc<ResultSet>),
}

impl ScanSource {
    /// Resolve a compiled scan's source. Records the failure on the
    /// ticket and returns `None` when resolution fails (scan planning
    /// error, or a stored set missing from the pinned snapshot — the
    /// latter indicates a prepare-time bug, since sessions pin sets).
    fn resolve(env: &ExecEnv, spec: &ScanSpec, ticket: &TicketCore) -> Option<ScanSource> {
        match &spec.source {
            QuerySource::Set(name) => match env.sets.get(name) {
                Some(set) => Some(ScanSource::Set(set.clone())),
                None => {
                    ticket.record_failure(format!(
                        "stored set `{name}` was not pinned at prepare time"
                    ));
                    None
                }
            },
            _ => {
                let store = env
                    .tags
                    .clone()
                    .expect("columnar gate checked the tag store");
                match store.plan_batch_scan(spec.domain.as_ref(), env.cover_level) {
                    Ok(plan) => Some(ScanSource::Tag {
                        store,
                        plan: Arc::new(plan),
                    }),
                    Err(e) => {
                        ticket.record_failure(format!("scan planning failed: {e}"));
                        None
                    }
                }
            }
        }
    }

    /// Byte weight per morsel — the [`MorselQueue`] sharding input.
    fn morsel_bytes(&self) -> Vec<usize> {
        match self {
            ScanSource::Tag { plan, .. } => plan.morsel_bytes(),
            ScanSource::Set(set) => set.chunk_bytes(),
        }
    }

    fn n_morsels(&self) -> usize {
        match self {
            ScanSource::Tag { plan, .. } => plan.morsels().len(),
            ScanSource::Set(set) => set.n_chunks(),
        }
    }

    /// Plan-time cover lookup outcome (`None` for sweeps and sets).
    fn cover_cache_hit(&self) -> Option<bool> {
        match self {
            ScanSource::Tag { plan, .. } => plan.cover_cache_hit(),
            ScanSource::Set(_) => None,
        }
    }

    /// Scan one morsel, streaming `(ColumnBatch, SelectionMask)` pairs.
    fn scan_morsel(
        &self,
        idx: usize,
        f: impl FnMut(&ColumnBatch<'_>, &SelectionMask) -> bool,
    ) -> (RegionScan, bool) {
        match self {
            ScanSource::Tag { store, plan } => store.scan_morsel(plan, idx, f),
            ScanSource::Set(set) => set.scan_chunk(idx, f),
        }
    }
}

// ---------------------------------------------------------------------
// The morsel driver
// ---------------------------------------------------------------------

/// One morsel-driven run — the single driver under every compiled shape:
/// the projection scan, the in-scan aggregate, the direct INTO path (at
/// one worker), and the MATCH probe (pairs and aggregates). It holds the
/// resolved source, the compiled predicate and sample, and the
/// byte-balanced [`MorselQueue`], built exactly once per run.
///
/// **Slot-accounting contract with admission.** `Archive` admission
/// accounts slots in *worker threads, not queries*: an execution granted
/// `W` workers holds `W` slots for as long as its scans run (split across
/// a plan's scan leaves as [`ExecEnv::workers`]), so an 8-worker sweep
/// occupies the machine exactly like 8 single-worker queries and the
/// admission bound stays a true bound on concurrent scan threads. A run
/// therefore sizes its queue to `min(grant, morsels)` (at least one) and
/// [`fan_out`] starts exactly that many workers — never more than the
/// grant — so `workers_used <= workers_granted` on every shape. Workers
/// stop between batches on cancel, so the slots come back within one
/// batch of a cancel or a consumer hang-up.
struct MorselRun {
    source: ScanSource,
    pred: Option<CompiledPredicate>,
    sample: Option<f64>,
    queue: MorselQueue,
    ticket: Arc<TicketCore>,
}

impl MorselRun {
    /// Build a run over a resolved source for up to `workers` workers,
    /// noting the source's plan-time cover lookup.
    fn new(
        source: ScanSource,
        pred: Option<CompiledPredicate>,
        sample: Option<f64>,
        workers: usize,
        ticket: Arc<TicketCore>,
    ) -> MorselRun {
        if let Some(hit) = source.cover_cache_hit() {
            ticket.note_cover(hit);
        }
        let n_workers = workers.min(source.n_morsels()).max(1);
        let queue = MorselQueue::build(&source.morsel_bytes(), n_workers);
        MorselRun {
            source,
            pred,
            sample,
            queue,
            ticket,
        }
    }

    /// Resolve `spec`'s source and open a run over it for up to
    /// `workers` workers (`None`: the failure is on the ticket).
    fn open(
        env: &ExecEnv,
        spec: &ScanSpec,
        pred: Option<CompiledPredicate>,
        workers: usize,
        ticket: &Arc<TicketCore>,
    ) -> Option<MorselRun> {
        let source = ScanSource::resolve(env, spec, ticket)?;
        let run = MorselRun::new(source, pred, spec.sample, workers, ticket.clone());
        Some(run)
    }

    /// Workers this run was sized for.
    fn workers(&self) -> usize {
        self.queue.workers()
    }

    /// Drain worker `w`'s morsels — the only morsel loop. Per morsel and
    /// per batch it checks the cancel flag; per batch it applies
    /// [`select_rows`] and hands the batch plus its non-empty selection
    /// to `on_batch`, which returns how many rows it selected (pairs, for
    /// MATCH) and breaks to stop this worker (consumer hang-up, sink
    /// error). Registers the worker's [`WorkerScan`] and scan totals on
    /// the ticket and returns the former.
    fn drain(
        &self,
        w: usize,
        mut on_batch: impl FnMut(
            &ColumnBatch<'_>,
            &SelectionMask,
            &mut BatchScratch,
        ) -> ControlFlow<u64, u64>,
    ) -> WorkerScan {
        let mut scratch = BatchScratch::new();
        let mut keep_scratch: Vec<usize> = Vec::new();
        let mut local = RegionScan::default();
        let mut ws = WorkerScan::default();
        let mut alive = true;
        while alive && !self.ticket.is_cancelled() {
            let Some(m) = self.queue.next(w) else { break };
            ws.morsels += 1;
            let (stats, _) = self.source.scan_morsel(m, |batch, sel| {
                if self.ticket.is_cancelled() {
                    return false;
                }
                let keep = select_rows(
                    &self.pred,
                    self.sample,
                    batch,
                    sel,
                    &mut scratch,
                    &mut keep_scratch,
                );
                if !keep.any() {
                    return true;
                }
                let flow = on_batch(batch, &keep, &mut scratch);
                let (ControlFlow::Continue(n) | ControlFlow::Break(n)) = flow;
                ws.rows_selected += n;
                alive = flow.is_continue();
                alive
            });
            local.merge(&stats);
        }
        ws.bytes_scanned = local.bytes_scanned as u64;
        self.ticket.note_worker(ws);
        self.ticket.absorb_scan(&local);
        ws
    }
}

/// Run `work(w)` for workers `0..n`: workers 1..n on guarded scoped
/// threads, worker 0 inline on the calling (coordinator) thread. Returns
/// each worker's result; a panicked worker contributes none (its failure
/// is on the ticket).
fn fan_out<T: Send>(ticket: &TicketCore, n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let work = &work;
    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..n)
            .map(|w| s.spawn(move || guarded(ticket, || work(w))))
            .collect();
        let mut out: Vec<T> = guarded(ticket, || work(0)).into_iter().collect();
        out.extend(spawned.into_iter().filter_map(|h| h.join().ok().flatten()));
        out
    })
}

/// The in-scan aggregate shared by compiled scans and MATCH: every worker
/// of `run` folds partial accumulators through `fold`, then the partials
/// merge at the edge into the single result row. Folded rows never ship
/// as batches, so each worker counts them into the scan totals — keeping
/// `QueryStats.scan.rows_scanned` comparable across shapes.
fn fold_and_emit(
    run: &MorselRun,
    funcs: &[AggFn],
    tx: &Sender<ResultBatch>,
    fold: impl Fn(
            &ColumnBatch<'_>,
            &SelectionMask,
            &mut BatchScratch,
            &mut [AggAcc],
        ) -> ControlFlow<u64, u64>
        + Sync,
) {
    let new_accs = || funcs.iter().map(|&f| AggAcc::new(f)).collect::<Vec<_>>();
    let partials = fan_out(&run.ticket, run.workers(), |w| {
        let mut accs = new_accs();
        let ws = run.drain(w, |batch, keep, scratch| {
            fold(batch, keep, scratch, &mut accs)
        });
        run.ticket.note_rows(ws.rows_selected);
        accs
    });
    let mut acc = new_accs();
    for partial in partials {
        for (a, p) in acc.iter_mut().zip(partial) {
            a.merge(p);
        }
    }
    let row: Row = acc.into_iter().map(AggAcc::finish).collect();
    run.ticket.note_emitted();
    let _ = tx.send(ResultBatch::Rows(vec![row]));
}

/// The fused aggregate scan: morsel workers fold partials over the
/// compiled aggregate inputs; the coordinator emits one row.
fn spawn_agg_scan(
    env: &ExecEnv,
    spec: ScanSpec,
    aggs: Vec<AggSpec>,
    pred: Option<CompiledPredicate>,
    inputs: CompiledAggInputs,
    ticket: &Arc<TicketCore>,
) -> BatchHandle {
    let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
    let columns = Arc::new(aggs.iter().map(|a| a.name.clone()).collect::<Vec<_>>());
    let funcs: Vec<AggFn> = aggs.iter().map(|a| a.func).collect();
    let env = env.clone();
    let ticket = ticket.clone();
    spawn_guarded(ticket.clone(), move || {
        let Some(run) = MorselRun::open(&env, &spec, pred, env.workers, &ticket) else {
            return;
        };
        fold_and_emit(&run, &funcs, &tx, |batch, keep, scratch, accs| {
            inputs.fold(batch, keep, scratch, |i, v| accs[i].update(v));
            ControlFlow::Continue(keep.count() as u64)
        });
    });
    BatchHandle { columns, rx }
}

/// The direct columnar INTO fast path: the morsel driver at one worker
/// (the caller holds one admission slot), selected rows leaving the
/// [`ColumnBatch`] lanes as owned tag records + `htm20` with **no
/// per-objid full-store fetch**. The sink may error (quota enforcement)
/// to abort the scan. Tag containers and stored sets both hold each
/// object at most once, so the sink sees no duplicate object pointers
/// (the property the slow path's dedup hash exists to establish).
pub(crate) fn into_scan(
    env: &ExecEnv,
    spec: &ScanSpec,
    pred: Option<CompiledPredicate>,
    ticket: &Arc<TicketCore>,
    mut sink: impl FnMut(&TagObject, u64) -> Result<(), QueryError>,
) -> Result<(), QueryError> {
    let Some(run) = MorselRun::open(env, spec, pred, 1, ticket) else {
        return Err(QueryError::Exec(ticket.failure().unwrap_or_else(|| {
            "INTO scan source resolution failed".to_string()
        })));
    };
    let mut err: Option<QueryError> = None;
    run.drain(0, |batch, keep, _| {
        let kept = keep.count() as u64;
        ticket.note_batch(kept as usize);
        for i in keep.iter_set() {
            if let Err(e) = sink(&batch.row(i), batch.htm20[i]) {
                err = Some(e);
                return ControlFlow::Break(kept);
            }
        }
        ControlFlow::Continue(kept)
    });
    err.map_or(Ok(()), Err)
}

// ---------------------------------------------------------------------
// MATCH joins: the morsel driver over the probe side, against a
// zone-partitioned build side
// ---------------------------------------------------------------------

/// One pair of a MATCH join, presented to the row-wise evaluator:
/// `a.<attr>` / `b.<attr>` resolve through the underlying tag records,
/// `sep_arcsec` is the pair's angular separation. Positional functions
/// see the probe (`a`) side.
struct PairSource<'x> {
    a: &'x TagObject,
    b: &'x TagObject,
    sep_arcsec: f64,
}

impl AttrSource for PairSource<'_> {
    fn attr(&self, name: &str) -> Option<Value> {
        if name == "sep_arcsec" {
            return Some(Value::Num(self.sep_arcsec));
        }
        if let Some(base) = name.strip_prefix("a.") {
            return self.a.attr(base);
        }
        if let Some(base) = name.strip_prefix("b.") {
            return self.b.attr(base);
        }
        None
    }

    fn position(&self) -> sdss_skycoords::UnitVec3 {
        self.a.unit_vec()
    }
}

/// The build side of one MATCH execution — the collected rows with their
/// [`ZoneIndex`] — plus the join parameters. Probe workers share it by
/// reference; the probe side is an ordinary [`MorselRun`].
struct MatchJoin {
    predicate: Option<Expr>,
    radius_arcsec: f64,
    build: Vec<TagObject>,
    index: ZoneIndex,
}

impl MatchJoin {
    /// Resolve both join sides, build the zone index, and open the probe
    /// run (no compiled predicate: pair predicates evaluate per pair;
    /// the sample applies probe-side). Failures are recorded on the
    /// ticket (the consumer sees a closed channel plus the failure
    /// message, like every other resolution error).
    fn open(
        env: &ExecEnv,
        spec: &ScanSpec,
        m: &MatchSpec,
        ticket: &Arc<TicketCore>,
    ) -> Option<(MatchJoin, MorselRun)> {
        let probe = Self::resolve_input(&m.a, env, ticket)?;
        // Collect the build side once; its scan bytes are accounted to
        // the execution totals (but not to any probe worker).
        let (build, build_deep, build_bytes, build_chunks) =
            Self::collect_build(&m.b, env, ticket)?;
        ticket.absorb_sweep(build_bytes, build_chunks);
        // Bucket by the stored deep ids — integer shifts, no spherical
        // lookups on the join's setup path.
        let index =
            ZoneIndex::build_from_deep(&build_deep, ZoneIndex::level_for_radius(m.radius_arcsec));
        let join = MatchJoin {
            predicate: spec.predicate.clone(),
            radius_arcsec: m.radius_arcsec,
            build,
            index,
        };
        let run = MorselRun::new(probe, None, spec.sample, env.workers, ticket.clone());
        Some((join, run))
    }

    /// One join input as a morsel source, delegated to the scan path's
    /// own resolver via a bare scan spec: stored sets expose their
    /// chunks, the archive resolves to a whole-sky tag sweep plan
    /// (`domain: None` — MATCH has no cover to restrict it; the join
    /// radius is the restriction). The probe side drains it through the
    /// morsel driver; the build side drains it serially in
    /// `collect_build`.
    fn resolve_input(input: &MatchInput, env: &ExecEnv, ticket: &TicketCore) -> Option<ScanSource> {
        let source = match input {
            MatchInput::Set(name) => QuerySource::Set(name.clone()),
            MatchInput::Archive => QuerySource::Tag,
        };
        let spec = ScanSpec {
            source,
            domain: None,
            predicate: None,
            columns: Vec::new(),
            sample: None,
        };
        ScanSource::resolve(env, &spec, ticket)
    }

    /// Materialize the build side as owned tag rows plus their stored
    /// level-20 HTM ids (the zone index buckets by shift-ancestor of
    /// `htm20` — no per-row spherical lookup; this is exactly why
    /// materialized sets preserve `htm20`). Cancellation is checked per
    /// morsel — a whole-archive build side is the most expensive thing a
    /// cancelled MATCH could otherwise keep doing. The zone index holds
    /// row indices into the returned vector.
    fn collect_build(
        input: &MatchInput,
        env: &ExecEnv,
        ticket: &TicketCore,
    ) -> Option<(Vec<TagObject>, Vec<u64>, usize, usize)> {
        let source = Self::resolve_input(input, env, ticket)?;
        let mut rows = Vec::new();
        let mut deep = Vec::new();
        let mut bytes = 0usize;
        let containers = source.n_morsels();
        for idx in 0..containers {
            if ticket.is_cancelled() {
                return None;
            }
            let (stats, _) = source.scan_morsel(idx, |batch, _sel| {
                for i in 0..batch.len() {
                    rows.push(batch.row(i));
                }
                deep.extend_from_slice(batch.htm20);
                true
            });
            bytes += stats.bytes_scanned;
        }
        Some((rows, deep, bytes, containers))
    }

    /// Probe every selected row of one probe-side batch against the zone
    /// index, calling `on_pair` for each surviving pair (identity pairs
    /// excluded, predicate evaluated per pair). Returns the pair count;
    /// breaks when `on_pair` returns `false` or the probe fails.
    fn probe(
        &self,
        batch: &ColumnBatch<'_>,
        keep: &SelectionMask,
        ticket: &TicketCore,
        mut on_pair: impl FnMut(&PairSource<'_>) -> bool,
    ) -> ControlFlow<u64, u64> {
        let mut pairs = 0u64;
        let mut alive = true;
        for i in keep.iter_set() {
            let a = batch.row(i);
            let probed = self.index.neighbors_within(
                &self.build,
                a.unit_vec(),
                self.radius_arcsec,
                |ri, sep| {
                    let b = &self.build[ri as usize];
                    // An object is not its own neighbor: the self-join
                    // identity pair (sep = 0) carries no information.
                    if !alive || b.obj_id == a.obj_id {
                        return;
                    }
                    let pair = PairSource {
                        a: &a,
                        b,
                        sep_arcsec: sep,
                    };
                    if let Some(pred) = &self.predicate {
                        // Type errors drop the pair, like the
                        // row-wise scan fallback.
                        if !matches!(eval(pred, &pair), Ok(Value::Bool(true))) {
                            return;
                        }
                    }
                    pairs += 1;
                    alive = on_pair(&pair);
                },
            );
            if let Err(e) = probed {
                ticket.record_failure(format!("MATCH probe failed: {e}"));
                return ControlFlow::Break(pairs);
            }
            if !alive {
                return ControlFlow::Break(pairs);
            }
        }
        ControlFlow::Continue(pairs)
    }
}

/// Spawn a MATCH join. Probe workers drain the probe side on the morsel
/// driver and join each selected row against the zone index. Without
/// `aggs` they stream projected pair rows (heterogeneous expression
/// results — the row form of the fabric); with `aggs` they fold
/// per-worker partials over the pairs (the `COUNT(*)` pair-count of the
/// paper's neighbor queries never ships a pair stream).
fn spawn_match(
    env: &ExecEnv,
    spec: ScanSpec,
    m: MatchSpec,
    aggs: Option<Vec<AggSpec>>,
    ticket: &Arc<TicketCore>,
) -> BatchHandle {
    let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
    let columns: Vec<String> = match &aggs {
        Some(aggs) => aggs.iter().map(|a| a.name.clone()).collect(),
        None => spec.columns.iter().map(|(n, _)| n.clone()).collect(),
    };
    let env = env.clone();
    let ticket = ticket.clone();
    spawn_guarded(ticket.clone(), move || {
        let Some((join, run)) = MatchJoin::open(&env, &spec, &m, &ticket) else {
            return;
        };
        if let Some(aggs) = aggs {
            let funcs: Vec<AggFn> = aggs.iter().map(|a| a.func).collect();
            fold_and_emit(&run, &funcs, &tx, |batch, keep, _, accs| {
                join.probe(batch, keep, &ticket, |pair| {
                    for (acc, a) in accs.iter_mut().zip(&aggs) {
                        let v = a.arg.as_ref().and_then(|e| eval(e, pair).ok());
                        acc.update(v.and_then(|v| v.as_num()));
                    }
                    true
                })
            });
            return;
        }
        fan_out(&ticket, run.workers(), |w| {
            let mut out: Vec<Row> = Vec::with_capacity(BATCH);
            run.drain(w, |batch, keep, _| {
                join.probe(batch, keep, &ticket, |pair| {
                    let row = spec.columns.iter().map(|(_, e)| eval(e, pair));
                    out.push(row.map(|v| v.unwrap_or(Value::Null)).collect());
                    out.len() < BATCH || send_rows(&ticket, &tx, &mut out)
                })
            });
            if !out.is_empty() {
                send_rows(&ticket, &tx, &mut out);
            }
        });
    });
    BatchHandle {
        columns: Arc::new(columns),
        rx,
    }
}

/// Wrapper so `&dyn AttrSource` satisfies the generic eval bound.
struct SourceRef<'a>(&'a dyn AttrSource);

impl AttrSource for SourceRef<'_> {
    fn attr(&self, name: &str) -> Option<Value> {
        self.0.attr(name)
    }

    fn position(&self) -> sdss_skycoords::UnitVec3 {
        self.0.position()
    }
}

/// Total order over values for ORDER BY (numbers < strings < bools < NULL).
pub fn compare_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering::*;
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.total_cmp(y),
        (Value::Id(x), Value::Id(y)) => x.cmp(y),
        (Value::Id(x), Value::Num(y)) => (*x as f64).total_cmp(y),
        (Value::Num(x), Value::Id(y)) => x.total_cmp(&(*y as f64)),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Null, Value::Null) => Equal,
        (Value::Num(_) | Value::Id(_), _) => Less,
        (_, Value::Num(_) | Value::Id(_)) => Greater,
        (Value::Str(_), _) => Less,
        (_, Value::Str(_)) => Greater,
        (Value::Bool(_), _) => Less,
        (_, Value::Bool(_)) => Greater,
    }
}

/// Aggregate accumulator.
struct AggAcc {
    func: AggFn,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl AggAcc {
    fn new(func: AggFn) -> AggAcc {
        AggAcc {
            func,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn update(&mut self, v: Option<f64>) {
        match self.func {
            AggFn::Count => self.count += 1,
            _ => {
                if let Some(x) = v {
                    self.count += 1;
                    self.sum += x;
                    self.min = self.min.min(x);
                    self.max = self.max.max(x);
                }
            }
        }
    }

    /// Fold another partial accumulator of the same function into this
    /// one — per-worker partials merging at the edge of a parallel
    /// aggregate scan.
    fn merge(&mut self, o: AggAcc) {
        self.count += o.count;
        self.sum += o.sum;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    fn finish(self) -> Value {
        match self.func {
            AggFn::Count => Value::Num(self.count as f64),
            AggFn::Sum => Value::Num(self.sum),
            AggFn::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Num(self.sum / self.count as f64)
                }
            }
            AggFn::Min => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Num(self.min)
                }
            }
            AggFn::Max => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Num(self.max)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_ordering_total() {
        let vals = [
            Value::Num(1.0),
            Value::Num(2.0),
            Value::Str("a".into()),
            Value::Bool(false),
            Value::Null,
        ];
        // compare_values is a total order: antisymmetric & transitive on
        // this sample.
        for a in &vals {
            assert_eq!(compare_values(a, a), std::cmp::Ordering::Equal);
            for b in &vals {
                let ab = compare_values(a, b);
                let ba = compare_values(b, a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn agg_accumulators() {
        let mut count = AggAcc::new(AggFn::Count);
        let mut avg = AggAcc::new(AggFn::Avg);
        let mut min = AggAcc::new(AggFn::Min);
        let mut max = AggAcc::new(AggFn::Max);
        let mut sum = AggAcc::new(AggFn::Sum);
        for v in [2.0, 4.0, 6.0] {
            count.update(None);
            avg.update(Some(v));
            min.update(Some(v));
            max.update(Some(v));
            sum.update(Some(v));
        }
        assert_eq!(count.finish(), Value::Num(3.0));
        assert_eq!(avg.finish(), Value::Num(4.0));
        assert_eq!(min.finish(), Value::Num(2.0));
        assert_eq!(max.finish(), Value::Num(6.0));
        assert_eq!(sum.finish(), Value::Num(12.0));
        // Empty aggregates are NULL (except COUNT = 0).
        assert_eq!(AggAcc::new(AggFn::Avg).finish(), Value::Null);
        assert_eq!(AggAcc::new(AggFn::Count).finish(), Value::Num(0.0));
    }

    #[test]
    fn columnar_batch_rows_and_truncate() {
        let mut b = ColumnarBatch::new(
            vec![
                ColumnData::Id(vec![1, 2, 3]),
                ColumnData::Num(vec![1.5, 2.5, 3.5]),
                ColumnData::Class(vec![2, 1, 3]),
            ],
            3,
        );
        assert_eq!(b.len(), 3);
        let rows = b.rows();
        assert_eq!(rows[0][0], Value::Id(1));
        assert_eq!(rows[1][1], Value::Num(2.5));
        assert_eq!(rows[2][2], Value::Str("QSO".to_string()));
        b.truncate(1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.rows().len(), 1);
        // num_at / id_at agree with the materialized values.
        assert_eq!(b.columns()[0].num_at(0), Some(1.0));
        assert_eq!(b.columns()[1].num_at(0), Some(1.5));
        assert_eq!(b.columns()[2].num_at(0), None);
        assert_eq!(b.columns()[0].id_at(0), Some(1));
    }

    #[test]
    fn guarded_spawn_surfaces_panics() {
        let ticket = Arc::new(TicketCore::default());
        spawn_guarded(ticket.clone(), || panic!("boom in a node thread"));
        // The detached thread records its panic instead of vanishing.
        for _ in 0..200 {
            if ticket.failure().is_some() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let msg = ticket.failure().expect("panic recorded");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn fan_out_collects_every_worker_and_surfaces_panics() {
        let ticket = TicketCore::default();
        let mut got = fan_out(&ticket, 4, |w| w * 10);
        got.sort_unstable();
        assert_eq!(got, vec![0, 10, 20, 30]);
        assert!(ticket.failure().is_none());
        // A panicking worker contributes no result; the others still do
        // and the panic lands on the ticket.
        let got = fan_out(&ticket, 3, |w| {
            assert_ne!(w, 2, "worker two failed");
            w
        });
        assert_eq!(got.len(), 2);
        let msg = ticket.failure().expect("panic recorded");
        assert!(msg.contains("worker two failed"), "{msg}");
    }

    #[test]
    fn ticket_counters_accumulate() {
        let t = TicketCore::default();
        t.note_batch(10);
        t.note_batch(5);
        t.absorb_sweep(1024, 3);
        let totals = t.totals();
        assert_eq!(totals.rows_scanned, 15);
        assert_eq!(totals.batches_emitted, 2);
        assert_eq!(totals.bytes_scanned, 1024);
        assert_eq!(totals.containers_full, 3);
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }
}
