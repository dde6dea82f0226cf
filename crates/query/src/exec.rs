//! QET execution: a pull pipeline with ASAP streaming of *batches*.
//!
//! `launch` turns a plan into a small operator tree. Its leaves are the
//! scan producers — the columnar projection scan, the in-scan aggregate,
//! the MATCH join and the row-interpreted fallback — and they are the
//! only part of execution that runs threads: each leaf starts its guarded
//! producer thread(s) at launch and fills one bounded channel with
//! [`ResultBatch`]es. Limit, Sort, the channel Aggregate and Set are
//! plain state machines pulled on the consumer's thread (through
//! `pull`), with no thread and no channel of their own.
//! Sort, Aggregate and Set are the paper's blocking nodes ("at least one
//! of the child nodes must be complete before results can be sent
//! further up the tree"); they drain their children on the first pull.
//! Leaves stream while the consumer works, which is the ASAP property:
//! the first matching object reaches the consumer while scans are still
//! running. A query's threads are its scan workers, so they never exceed
//! its admission worker grant.
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
//! Execution is owned, not scoped: stores travel as `Arc`s, so an
//! operator tree can outlive the call that launched it (the pull-based
//! `ResultStream` of [`crate::archive`]). Dropping an operator drops its
//! subtree, and leaf producers observe the disconnect as a failed send;
//! cooperative cancellation goes through the shared [`TicketCore`].

use crate::ast::{AggFn, Expr, SetOp, Value};
use crate::compile::{
    compile_agg_inputs, compile_predicate, compile_projection, BatchScratch, CompiledPredicate,
    CompiledProjection,
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

    /// The value at `(col, row)`, materialized.
    fn value_at(&self, col: usize, row: usize) -> Value {
        match self {
            ResultBatch::Columnar(b) => b.columns[col].value_at(row),
            ResultBatch::Rows(r) => r[row][col].clone(),
        }
    }

    /// Row `row`, materialized, or moved out of a row batch (leaving an
    /// empty row behind).
    fn take_row(&mut self, row: usize) -> Row {
        match self {
            ResultBatch::Columnar(b) => b.columns.iter().map(|c| c.value_at(row)).collect(),
            ResultBatch::Rows(r) => std::mem::take(&mut r[row]),
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
    /// First execution panic (a scan worker's, or an operator's on the
    /// consumer thread), surfaced instead of silently truncating the
    /// result: leaf producer threads are detached and have no join to
    /// propagate through.
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
    /// batches.
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

    /// The first execution failure, if any (checked by consumers once the
    /// stream drains — a closed channel alone looks identical to a clean
    /// finish).
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

/// Launch a plan: start every scan leaf's producer thread(s) and return
/// the operator tree above them, for the caller to [`pull`] at its own
/// pace. Dropping the tree drops the leaf channels; `ticket.cancel()`
/// stops scans between batches.
pub(crate) fn launch(env: &ExecEnv, plan: PlanNode, ticket: &Arc<TicketCore>) -> Operator {
    match plan {
        PlanNode::Scan(spec) => spawn_scan(env, spec, ticket),
        PlanNode::Limit { child, n } => Operator::Limit {
            child: Some(Box::new(launch(env, *child, ticket))),
            remaining: n,
        },
        PlanNode::Sort { child, key, desc } => Operator::Sort {
            key_idx: column_of(&child, &key),
            child: Box::new(launch(env, *child, ticket)),
            desc,
        },
        PlanNode::Aggregate { child, aggs } => {
            let PlanNode::Scan(spec) = *child else {
                unreachable!("the planner puts Aggregate directly over a Scan")
            };
            // In-scan folding: an aggregate over a compilable scan (or a
            // MATCH) folds inside the morsel workers — no `__agg_i`
            // columns, no per-row channel traffic.
            if let QuerySource::Match(m) = spec.source.clone() {
                return spawn_match(env, spec, m, Some(aggs), ticket);
            }
            let funcs: Vec<AggFn> = aggs.iter().map(|a| a.func).collect();
            let args: Vec<Option<&Expr>> = aggs.iter().map(|a| a.arg.as_ref()).collect();
            let lowered = compile_gate(&spec, env.tags.is_some(), env.mode)
                .and_then(|pred| Some((pred, compile_agg_inputs(&args)?)));
            if let Some((pred, inputs)) = lowered {
                let env = env.clone();
                return spawn_leaf(ticket, move |tx, ticket| {
                    let Some(run) = MorselRun::open(&env, &spec, pred, env.workers, ticket) else {
                        return;
                    };
                    fold_and_emit(&run, &funcs, tx, |batch, keep, scratch, accs| {
                        inputs.fold(batch, keep, scratch, |i, v| accs[i].update(v));
                        ControlFlow::Continue(keep.count() as u64)
                    });
                });
            }
            // The channel aggregate over the scan's hidden `__agg_i`
            // columns (none for `COUNT(*)`), resolved once, not per row.
            let arg_idx = (0..aggs.len())
                .map(|i| {
                    spec.columns
                        .iter()
                        .position(|(c, _)| *c == format!("__agg_{i}"))
                })
                .collect();
            Operator::Aggregate {
                child: Box::new(spawn_scan(env, spec, ticket)),
                funcs,
                arg_idx,
            }
        }
        PlanNode::Set { op, left, right } => Operator::Set(Box::new(SetOperator {
            op,
            objid_idx: column_of(&left, "objid"),
            left: launch(env, *left, ticket),
            right: Some(launch(env, *right, ticket)),
            ids: HashSet::new(),
            right_batches: Vec::new(),
            right_firsts: Vec::new(),
        })),
    }
}

/// The index of `plan`'s output column `name`: an ORDER BY key or a set
/// operation's `objid`, which the planner keeps among the output columns.
fn column_of(plan: &PlanNode, name: &str) -> usize {
    let columns = plan.columns();
    columns
        .iter()
        .position(|c| c == name)
        .expect("planner kept the column")
}

/// Pull the next batch through the operator tree on the calling thread,
/// blocking on leaf channels as needed. `None` at the end of the stream,
/// and then the tree is dropped, disconnecting every leaf channel. An
/// operator panic is recorded on the ticket (like a scan worker's) and
/// ends the stream instead of unwinding into the caller: consumers check
/// [`TicketCore::failure`], so it never reads as a clean, truncated
/// result.
pub(crate) fn pull(root: &mut Option<Operator>, ticket: &TicketCore) -> Option<ResultBatch> {
    let op = root.as_mut()?;
    let batch = guarded(ticket, || op.next()).flatten();
    if batch.is_none() {
        *root = None;
    }
    batch
}

/// Run `body`, recording a panic into the ticket instead of unwinding
/// further — a silently dead producer or operator would read as a clean
/// (truncated) result.
fn guarded<T>(ticket: &TicketCore, body: impl FnOnce() -> T) -> Option<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(v) => Some(v),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic payload".to_string());
            ticket.record_failure(format!("execution panicked: {msg}"));
            None
        }
    }
}

/// Start a scan leaf: `produce` runs on one detached, guarded producer
/// thread (fanning out to more workers inside it) and fills a bounded
/// channel whose receiving end is the leaf operator. This is the only
/// place execution spawns a detached thread or creates a channel. The
/// sender outlives the guard, so a panic is on the ticket before the
/// consumer sees the channel close.
fn spawn_leaf(
    ticket: &Arc<TicketCore>,
    produce: impl FnOnce(&Sender<ResultBatch>, &Arc<TicketCore>) + Send + 'static,
) -> Operator {
    let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
    let ticket = ticket.clone();
    std::thread::spawn(move || {
        guarded(&ticket, || produce(&tx, &ticket));
    });
    Operator::Leaf(rx)
}

/// Ship a full row buffer into the fabric; `false` once the consumer
/// has hung up.
fn send_rows(ticket: &TicketCore, tx: &Sender<ResultBatch>, out: &mut Vec<Row>) -> bool {
    ticket.note_batch(out.len());
    tx.send(ResultBatch::Rows(std::mem::take(out))).is_ok()
}

/// One node of a launched plan. Leaves own the receiving end of their
/// producers' channel; every other operator is a state machine that
/// pulls its children on the consumer's thread. Once exhausted, every
/// operator keeps returning `None`.
pub(crate) enum Operator {
    /// A scan leaf's bounded channel.
    Leaf(Receiver<ResultBatch>),
    /// A blocking operator's finished result: `order` lists the
    /// `(batch, row)` positions of its rows in output order. A row is
    /// built (or moved, never cloned) only when its `BATCH`-sized chunk
    /// ships, so rows a LIMIT never asks for are never built.
    Buffered {
        batches: Vec<ResultBatch>,
        order: std::vec::IntoIter<(usize, usize)>,
    },
    /// Streams its child until `remaining` rows passed, then drops it.
    Limit {
        child: Option<Box<Operator>>,
        remaining: usize,
    },
    /// Blocking: drains and sorts its child on the first pull.
    Sort {
        child: Box<Operator>,
        key_idx: usize,
        desc: bool,
    },
    /// Blocking: folds its child's hidden `__agg_i` columns into one row.
    Aggregate {
        child: Box<Operator>,
        funcs: Vec<AggFn>,
        arg_idx: Vec<Option<usize>>,
    },
    /// A set operation; see [`SetOperator`].
    Set(Box<SetOperator>),
}

impl Operator {
    /// The next batch of this operator's output (`None`: exhausted).
    fn next(&mut self) -> Option<ResultBatch> {
        let (batches, order) = match self {
            Operator::Leaf(rx) => return rx.recv().ok(),
            Operator::Buffered { batches, order } => {
                let chunk: Vec<Row> = order
                    .take(BATCH)
                    .map(|(b, r)| batches[b].take_row(r))
                    .collect();
                return (!chunk.is_empty()).then_some(ResultBatch::Rows(chunk));
            }
            Operator::Limit { child, remaining } => {
                let mut batch = child.as_mut().filter(|_| *remaining > 0)?.next();
                if let Some(b) = &mut batch {
                    b.truncate(*remaining);
                    *remaining -= b.len();
                }
                if batch.is_none() || *remaining == 0 {
                    // Release only this subtree: its leaves' producers
                    // stop at their next send. No ticket cancel — a
                    // sibling set-op branch must still run to completion.
                    *child = None;
                }
                return batch;
            }
            Operator::Set(set) => match set.next() {
                Some(batch) => return Some(batch),
                None => set.right_only(),
            },
            Operator::Sort {
                child,
                key_idx,
                desc,
            } => {
                // Sort the rows' positions by key; the batches stay as
                // they arrived (columnar ones unmaterialized).
                let batches: Vec<ResultBatch> = std::iter::from_fn(|| child.next()).collect();
                let mut keyed: Vec<(Value, usize, usize)> = Vec::new();
                for (b, batch) in batches.iter().enumerate() {
                    keyed.extend((0..batch.len()).map(|r| (batch.value_at(*key_idx, r), b, r)));
                }
                keyed.sort_by(|x, y| match desc {
                    true => compare_values(&y.0, &x.0),
                    false => compare_values(&x.0, &y.0),
                });
                (batches, keyed.into_iter().map(|(_, b, r)| (b, r)).collect())
            }
            Operator::Aggregate {
                child,
                funcs,
                arg_idx,
            } => {
                let mut acc: Vec<AggAcc> = funcs.iter().map(|&f| AggAcc::new(f)).collect();
                while let Some(batch) = child.next() {
                    // Accumulate straight off the batch — columnar lanes
                    // fold without materializing rows.
                    for r in 0..batch.len() {
                        for (a, idx) in acc.iter_mut().zip(arg_idx.iter()) {
                            a.update(idx.and_then(|idx| batch.num_at(idx, r)));
                        }
                    }
                }
                let row = acc.into_iter().map(AggAcc::finish).collect();
                (vec![ResultBatch::Rows(vec![row])], vec![(0, 0)])
            }
        };
        // A blocking operator has its result; it becomes that result (and
        // drops its drained child).
        *self = Operator::Buffered {
            batches,
            order: order.into_iter(),
        };
        self.next()
    }
}

/// A set operation keyed on `objid`: blocking on the right side (drained
/// into the key set on the first pull), streaming on the left.
pub(crate) struct SetOperator {
    op: SetOp,
    objid_idx: usize,
    left: Operator,
    /// `None` once drained.
    right: Option<Operator>,
    /// The right side's ids once it has drained. A left row then passes
    /// under INTERSECT if its id is here, and takes it out; under EXCEPT
    /// if its id is not here, and puts it in — either way a duplicate
    /// left row cannot pass twice. UNION empties the set after the drain
    /// and then passes left rows as EXCEPT does, so the set ends up
    /// holding the left ids emitted.
    ids: HashSet<u64>,
    /// UNION only: the right side's batches and the `(batch, row)`
    /// position of its first row per objid. Right-only rows are emitted
    /// whole after the left side.
    right_batches: Vec<ResultBatch>,
    right_firsts: Vec<(usize, usize)>,
}

impl SetOperator {
    /// The next batch of left-side rows that pass (`None`: left exhausted).
    fn next(&mut self) -> Option<ResultBatch> {
        let idx = self.objid_idx;
        if let Some(mut right) = self.right.take() {
            // INTERSECT and EXCEPT only need the ids; only UNION keeps
            // the right side's (unmaterialized) batches.
            let union = self.op == SetOp::Union;
            while let Some(batch) = right.next() {
                for r in 0..batch.len() {
                    let first = batch.id_at(idx, r).is_some_and(|id| self.ids.insert(id));
                    if first && union {
                        self.right_firsts.push((self.right_batches.len(), r));
                    }
                }
                if union {
                    self.right_batches.push(batch);
                }
            }
            if union {
                self.ids.clear();
            }
        }
        let mut out: Vec<Row> = Vec::with_capacity(BATCH);
        while out.len() < BATCH {
            let Some(batch) = self.left.next() else {
                break;
            };
            for row in batch.rows() {
                let keep = row[idx].as_id().is_some_and(|id| match self.op {
                    SetOp::Intersect => self.ids.remove(&id),
                    SetOp::Union | SetOp::Except => self.ids.insert(id),
                });
                if keep {
                    out.push(row);
                }
            }
        }
        (!out.is_empty()).then_some(ResultBatch::Rows(out))
    }

    /// UNION's right-only rows, which follow the left side (none for
    /// INTERSECT and EXCEPT), as `Operator::Buffered` parts.
    fn right_only(&mut self) -> (Vec<ResultBatch>, Vec<(usize, usize)>) {
        let batches = std::mem::take(&mut self.right_batches);
        let mut order = std::mem::take(&mut self.right_firsts);
        order.retain(|&(b, r)| {
            batches[b]
                .id_at(self.objid_idx, r)
                .is_some_and(|id| !self.ids.contains(&id))
        });
        (batches, order)
    }
}

/// Lower a scan: project columns (plus hidden aggregate argument columns,
/// handled by the planner caller) and stream matching batches. Tag and
/// stored-set scans take the compiled path on the morsel driver when the
/// predicate and projection both lower to bytecode; everything else
/// interprets row-at-a-time.
fn spawn_scan(env: &ExecEnv, spec: ScanSpec, ticket: &Arc<TicketCore>) -> Operator {
    if let QuerySource::Match(m) = spec.source.clone() {
        return spawn_match(env, spec, m, None, ticket);
    }
    let env = env.clone();

    // --- columnar fast path -------------------------------------------
    // Every worker streams projected batches into the same output
    // channel (the channel is the per-worker stream merge).
    if let Some((pred, proj)) = compile_scan(&spec, env.tags.is_some(), env.mode) {
        return spawn_leaf(ticket, move |tx, ticket| {
            let Some(run) = MorselRun::open(&env, &spec, pred, env.workers, ticket) else {
                return;
            };
            fan_out(ticket, run.workers(), |w| {
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
    }

    // --- row-at-a-time fallback ---------------------------------------
    spawn_leaf(ticket, move |tx, ticket| {
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
            out.len() < BATCH || send_rows(ticket, tx, &mut out)
        };

        match (&spec.source, &env.tags) {
            // Stored sets interpret row-wise by rebuilding each chunk
            // row as a `TagObject` (sets are tag-shaped; the planner
            // kept any spatial factor in the predicate, so geometry
            // evaluates per row here).
            (QuerySource::Set(name), _) => match env.sets.get(name) {
                Some(set) => {
                    let mut bytes = 0usize;
                    let mut containers = 0usize;
                    'chunks: for chunk in set.chunks() {
                        bytes += chunk.bytes();
                        containers += 1;
                        for i in 0..chunk.len() {
                            if !emit(&chunk.row(i), tx) {
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
                    if let Ok(stats) = tag_store.scan_region_until(domain, env.cover_level, |t| {
                        alive = emit(t, tx);
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
                        alive = emit(t, tx);
                        alive
                    });
                    worker_bytes = bytes as u64;
                    ticket.absorb_sweep(bytes, containers);
                }
            },
            _ => match &spec.domain {
                Some(domain) => {
                    if let Ok(stats) = env.store.scan_region_until(domain, env.cover_level, |o| {
                        alive = emit(o, tx);
                        alive
                    }) {
                        worker_bytes = stats.bytes_scanned as u64;
                        ticket.absorb_scan(&stats);
                    }
                }
                None => {
                    let (bytes, containers) = env.store.scan_all_until(|o| {
                        alive = emit(o, tx);
                        alive
                    });
                    worker_bytes = bytes as u64;
                    ticket.absorb_sweep(bytes, containers);
                }
            },
        }
        if alive && !out.is_empty() {
            send_rows(ticket, tx, &mut out);
        }
        // The interpreted scan is a single serial worker; register it so
        // `workers_used` is truthful on every path.
        ticket.note_worker(WorkerScan {
            bytes_scanned: worker_bytes,
            morsels: 0,
            rows_selected: kept,
        });
    })
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
) -> Operator {
    let env = env.clone();
    spawn_leaf(ticket, move |tx, ticket| {
        let Some((join, run)) = MatchJoin::open(&env, &spec, &m, ticket) else {
            return;
        };
        if let Some(aggs) = aggs {
            let funcs: Vec<AggFn> = aggs.iter().map(|a| a.func).collect();
            fold_and_emit(&run, &funcs, tx, |batch, keep, _, accs| {
                join.probe(batch, keep, ticket, |pair| {
                    for (acc, a) in accs.iter_mut().zip(&aggs) {
                        let v = a.arg.as_ref().and_then(|e| eval(e, pair).ok());
                        acc.update(v.and_then(|v| v.as_num()));
                    }
                    true
                })
            });
            return;
        }
        fan_out(ticket, run.workers(), |w| {
            let mut out: Vec<Row> = Vec::with_capacity(BATCH);
            run.drain(w, |batch, keep, _| {
                join.probe(batch, keep, ticket, |pair| {
                    let row = spec.columns.iter().map(|(_, e)| eval(e, pair));
                    out.push(row.map(|v| v.unwrap_or(Value::Null)).collect());
                    out.len() < BATCH || send_rows(ticket, tx, &mut out)
                })
            });
            if !out.is_empty() {
                send_rows(ticket, tx, &mut out);
            }
        });
    })
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
    fn leaf_panic_is_recorded_before_its_channel_closes() {
        let ticket = Arc::new(TicketCore::default());
        let mut leaf = spawn_leaf(&ticket, |_, _| panic!("boom in a scan leaf"));
        // The sender outlives the guard: by the time the consumer sees
        // the channel close, the panic is on the ticket.
        assert!(leaf.next().is_none());
        let msg = ticket.failure().expect("panic recorded");
        assert!(msg.contains("boom"), "{msg}");
    }

    /// An operator tree over a hand-built leaf channel: returns the
    /// sender so tests feed (or probe) the leaf directly.
    fn tree_over(
        op: impl FnOnce(Box<Operator>) -> Operator,
    ) -> (Option<Operator>, Sender<ResultBatch>) {
        let (tx, rx) = bounded::<ResultBatch>(CHANNEL_DEPTH);
        (Some(op(Box::new(Operator::Leaf(rx)))), tx)
    }

    fn id_rows(ids: std::ops::Range<u64>) -> ResultBatch {
        ResultBatch::Rows(
            ids.map(|i| vec![Value::Id(i), Value::Num((i % 7) as f64)])
                .collect(),
        )
    }

    #[test]
    fn operator_panic_ends_the_stream_as_a_recorded_failure() {
        let ticket = TicketCore::default();
        let (mut root, tx) = tree_over(|child| Operator::Sort {
            child,
            key_idx: 1,
            desc: false,
        });
        // Rows shorter than the sort key index: Sort panics while
        // comparing, on the consumer's thread.
        let short = vec![vec![Value::Id(2)], vec![Value::Id(1)]];
        tx.send(ResultBatch::Rows(short)).unwrap();
        drop(tx);
        assert!(
            pull(&mut root, &ticket).is_none(),
            "a failed sort must not emit"
        );
        let msg = ticket.failure().expect("operator panic recorded");
        assert!(msg.contains("index out of bounds"), "{msg}");
        // The stream stays ended and the operator tree is released.
        assert!(root.is_none());
        assert!(pull(&mut root, &ticket).is_none());
    }

    #[test]
    fn sort_emits_batch_sized_chunks_in_key_order() {
        let ticket = TicketCore::default();
        let (mut root, tx) = tree_over(|child| Operator::Sort {
            child,
            key_idx: 1,
            desc: true,
        });
        for range in [0..100, 100..250, 250..300] {
            tx.send(id_rows(range)).unwrap();
        }
        drop(tx);
        let batches: Vec<Vec<Row>> = std::iter::from_fn(|| pull(&mut root, &ticket))
            .map(ResultBatch::rows)
            .collect();
        let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![BATCH, BATCH, 300 - 2 * BATCH]);
        let keys: Vec<f64> = batches
            .iter()
            .flatten()
            .map(|r| r[1].as_num().unwrap())
            .collect();
        assert!(keys.windows(2).all(|w| w[0] >= w[1]), "descending keys");
        assert!(ticket.failure().is_none());
    }

    #[test]
    fn set_operators_dedupe_the_left_side_and_keep_whole_right_only_rows() {
        let leaf = |ids: &[u64], scale: f64| {
            let (tx, rx) = bounded::<ResultBatch>(1);
            let rows = ids
                .iter()
                .map(|&i| vec![Value::Id(i), Value::Num(i as f64 * scale)]);
            tx.send(ResultBatch::Rows(rows.collect())).unwrap();
            Operator::Leaf(rx)
        };
        let run = |op: SetOp| {
            let ticket = TicketCore::default();
            let mut root = Some(Operator::Set(Box::new(SetOperator {
                op,
                objid_idx: 0,
                left: leaf(&[1, 2, 2, 3, 5, 3], 10.0),
                right: Some(leaf(&[2, 4, 6, 4], 100.0)),
                ids: HashSet::new(),
                right_batches: Vec::new(),
                right_firsts: Vec::new(),
            })));
            std::iter::from_fn(|| pull(&mut root, &ticket))
                .flat_map(ResultBatch::rows)
                .map(|r| (r[0].as_id().unwrap(), r[1].as_num().unwrap()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(SetOp::Union),
            vec![
                (1, 10.0),
                (2, 20.0),
                (3, 30.0),
                (5, 50.0),
                (4, 400.0),
                (6, 600.0)
            ]
        );
        assert_eq!(run(SetOp::Intersect), vec![(2, 20.0)]);
        assert_eq!(run(SetOp::Except), vec![(1, 10.0), (3, 30.0), (5, 50.0)]);
    }

    #[test]
    fn satisfied_limit_drops_its_child_without_cancelling() {
        let ticket = TicketCore::default();
        let (mut root, tx) = tree_over(|child| Operator::Limit {
            child: Some(child),
            remaining: 5,
        });
        tx.send(id_rows(0..3)).unwrap();
        tx.send(id_rows(3..9)).unwrap();
        assert_eq!(pull(&mut root, &ticket).map(|b| b.len()), Some(3));
        assert_eq!(pull(&mut root, &ticket).map(|b| b.len()), Some(2));
        // The leaf channel is disconnected as soon as the limit is met
        // (before the consumer pulls again), so its producer stops at
        // its next send; the ticket is left alone for sibling branches.
        assert!(tx.send(id_rows(9..10)).is_err());
        assert!(!ticket.is_cancelled());
        assert!(pull(&mut root, &ticket).is_none());
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
