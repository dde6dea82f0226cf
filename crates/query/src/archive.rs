//! The archive server API: a shared, thread-safe query surface.
//!
//! The paper's archive is a multi-user server: query agents accept many
//! concurrent requests, *estimate their cost before running them*,
//! stream partial results ASAP, and let users abort long scans. This
//! module is that surface:
//!
//! * [`Archive`] — an owned, cloneable, `Send + Sync` handle; stores
//!   live behind `Arc` and any number of threads submit queries
//!   concurrently.
//! * [`Prepared`] — parse + plan exactly once ([`Archive::prepare`]),
//!   inspect the plan and its plan-time [`CostEstimate`] (rows / bytes /
//!   containers touched, from the container density map + HTM cover),
//!   then execute repeatedly with `$1`-style numeric parameters re-bound
//!   per execution — no re-parse, no re-plan.
//! * [`ResultStream`] — a pull-based stream of [`ResultBatch`]es; the
//!   columnar scan path delivers struct-of-arrays batches end to end and
//!   rows materialize only when the consumer asks
//!   ([`ResultBatch::rows`]).
//! * [`QueryTicket`] — every execution's cancel token + live progress
//!   counters; [`QueryStats`] summarizes the run once the stream
//!   finishes.
//! * Admission control — a semaphore-bounded slot pool
//!   ([`AdmissionConfig`]): executions queue for a slot instead of
//!   oversubscribing the machine, and *heavy* queries (estimated bytes
//!   over a threshold) additionally share a smaller heavy-slot pool so
//!   a burst of full-sky sweeps cannot starve interactive cone searches.

use crate::exec::{
    compile_gate, into_scan, launch, plan_uses_columnar, pull, ExecEnv, ExecMode, Operator,
    ResultBatch, Row, ScanTotals, TicketCore,
};
use crate::parser::parse_statement;
use crate::plan::{plan, MatchInput, PlanNode, QueryPlan, QuerySource};
use crate::session::{Session, SessionConfig, SessionInfo, SessionShared};
use crate::QueryError;
use sdss_storage::{CostModel, ObjectStore, ResultSet, ResultSetBuilder, TagStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// Which store the root scans of a query were routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteChoice {
    /// At least one scan read full photometric objects.
    Full,
    /// No scan touched the full store: every leaf ran on the tag
    /// vertical partition or a stored (tag-shaped) session set.
    TagOnly,
}

/// Timing, routing and scan statistics for one finished execution.
#[derive(Debug, Clone)]
pub struct QueryStats {
    pub route: RouteChoice,
    /// Did every scan leaf run on the compiled columnar batch path?
    pub columnar: bool,
    /// Time spent queued for an admission slot before execution began.
    pub queue_time: Duration,
    /// Latency from execution start (admission granted, scan leaves
    /// launched) until the first row reached the consumer — the ASAP
    /// metric. Parse/plan time is *not* included: `prepare` is a
    /// separate phase.
    pub time_to_first_row: Option<Duration>,
    /// Execution wall time (excludes parse/plan and queueing).
    pub total_time: Duration,
    /// Rows delivered to the consumer.
    pub rows: usize,
    /// Rows the producers pushed into the channel fabric, counted at the
    /// batch edge (per-worker safe — every scan worker bumps one shared
    /// atomic on its own sends). Under LIMIT or cancellation this can
    /// exceed `rows`; sessions accumulate it into `SessionStats`.
    pub rows_emitted: u64,
    /// Batches delivered to the consumer.
    pub batches: usize,
    /// Worker-thread slots this execution held (= scan workers granted
    /// at admission).
    pub workers_granted: usize,
    /// Scan workers that actually ran (morsel workers, serial drivers
    /// and interpreted fallbacks all register).
    pub workers_used: usize,
    /// Bytes scanned per worker, in worker completion order — the
    /// balance check for the parallel-efficiency numbers.
    pub worker_bytes: Vec<u64>,
    /// Container morsels dispatched across all scan workers (0 when no
    /// morsel queue was involved, e.g. interpreted fallbacks).
    pub morsels: u64,
    /// Scan-side totals: bytes/containers touched, exact geometry
    /// tests, and cover-cache hit/miss counts.
    pub scan: ScanTotals,
}

impl QueryStats {
    /// The producer-side stats of one execution, read off its ticket
    /// (per-worker accounting and scan totals). The consumer-side fields
    /// default to what the producers emitted (`rows`, `batches`) or zero
    /// (timings); stream consumers override them with what they saw.
    fn from_ticket(
        ticket: &TicketCore,
        route: RouteChoice,
        columnar: bool,
        workers_granted: usize,
    ) -> QueryStats {
        let worker_scans = ticket.worker_scans();
        let scan = ticket.totals();
        QueryStats {
            route,
            columnar,
            queue_time: Duration::ZERO,
            time_to_first_row: None,
            total_time: Duration::ZERO,
            rows: scan.rows_scanned as usize,
            rows_emitted: ticket.rows_emitted(),
            batches: scan.batches_emitted as usize,
            workers_granted,
            workers_used: worker_scans.len(),
            worker_bytes: worker_scans.iter().map(|w| w.bytes_scanned).collect(),
            morsels: worker_scans.iter().map(|w| w.morsels).sum(),
            scan,
        }
    }
}

/// A fully materialized query result.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    pub stats: QueryStats,
}

/// Plan-time cost prediction for one prepared query, summed over every
/// scan leaf of the plan (set operations have several).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostEstimate {
    /// Predicted number of rows the scans will yield (before residual
    /// predicates).
    pub est_rows: f64,
    /// Bytes the scans will read (exact for whole-container reads).
    pub est_bytes: u64,
    /// Predicted single-server scan seconds at the cost model's
    /// calibrated bandwidth.
    pub est_seconds: f64,
    pub containers_full: usize,
    pub containers_partial: usize,
    /// At least one scan has no spatial restriction (whole-store sweep).
    pub full_sweep: bool,
}

/// Per-MATCH-leaf sizing accumulated alongside the cost estimate in the
/// same plan walk (so the two can never drift): probe-side morsels (the
/// join's actual parallelism surface — the build side is read once by
/// the coordinator, not drained by workers) and the containers the MATCH
/// leaves contributed to the estimate's totals, which `planned_workers`
/// swaps back out so columnar leaves sharing a set-op plan keep their
/// own surface.
#[derive(Debug, Clone, Copy, Default)]
struct MatchSurface {
    probe_morsels: usize,
    est_containers: usize,
}

/// Admission-control configuration: the slot pool bounding concurrent
/// scan **worker threads** (not query count — a query holds one slot per
/// granted scan worker, so an 8-worker sweep occupies the machine like 8
/// single-worker queries).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Total worker-thread slots across all executing queries; waiters
    /// queue cost-ordered (shortest estimated query first, with a
    /// starvation bound).
    pub max_worker_slots: usize,
    /// Estimated scan bytes at or above which a query is *heavy*.
    pub heavy_bytes: u64,
    /// How many heavy queries may execute at once (clamped to at least 1
    /// so heavy queries always make progress).
    pub max_heavy: usize,
    /// Cap on scan workers granted to one query — the intra-query
    /// parallelism degree (clamped to at least 1).
    pub max_workers_per_query: usize,
    /// Starvation bound for the cost-ordered queue: once a waiter has
    /// been bypassed by this many later-arriving queries it becomes a
    /// barrier no later arrival may pass.
    pub max_bypass: u32,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        AdmissionConfig {
            // Enough slots for one full-width sweep plus interactive
            // queries alongside it.
            max_worker_slots: (2 * cores).max(4),
            heavy_bytes: 64 << 20,
            max_heavy: 2,
            max_workers_per_query: cores.max(1),
            max_bypass: 4,
        }
    }
}

/// A point-in-time view of the admission state. All slot counts are in
/// worker threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Worker-thread slots currently held by executing queries.
    pub running: usize,
    /// Queries blocked waiting for slots.
    pub queued: usize,
    /// High-water mark of `running` since the archive was built.
    pub peak_running: usize,
}

/// One queued admission request.
#[derive(Debug)]
struct Waiter {
    id: u64,
    weight: usize,
    heavy: bool,
    est_seconds: f64,
    /// Later-arriving queries that dispatched ahead of this one.
    bypass: u32,
}

#[derive(Debug)]
struct SlotState {
    free: usize,
    heavy_free: usize,
    total: usize,
    max_bypass: u32,
    /// Waiting queries in arrival order.
    waiters: Vec<Waiter>,
    next_id: u64,
    running: usize,
    peak_running: usize,
}

/// A weighted counting semaphore over (general, heavy) worker slots with
/// a **cost-ordered** wait queue: among the waiters that fit the free
/// slots, the one with the smallest `est_seconds` dispatches first
/// (short interactive queries jump queued sweeps). Every dispatch that
/// overtakes an earlier arrival increments the overtaken waiters'
/// bypass counts; a waiter at the bound becomes a barrier — nothing
/// later passes it, so the pool drains until the starved query fits.
#[derive(Debug)]
struct Slots {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slots {
    fn new(cfg: &AdmissionConfig) -> Slots {
        let total = cfg.max_worker_slots.max(1);
        Slots {
            state: Mutex::new(SlotState {
                free: total,
                heavy_free: cfg.max_heavy.clamp(1, total),
                total,
                max_bypass: cfg.max_bypass,
                waiters: Vec::new(),
                next_id: 0,
                running: 0,
                peak_running: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn fits(st: &SlotState, w: &Waiter) -> bool {
        w.weight <= st.free && (!w.heavy || st.heavy_free > 0)
    }

    /// The waiter that should dispatch next, if any fits right now.
    fn chosen(st: &SlotState) -> Option<usize> {
        // A starved waiter is a barrier: it dispatches next or nothing
        // does (the pool drains until it fits).
        if let Some(pos) = st.waiters.iter().position(|w| w.bypass >= st.max_bypass) {
            return Self::fits(st, &st.waiters[pos]).then_some(pos);
        }
        // Cost order: cheapest eligible first; `min_by` keeps the first
        // (earliest-arrival) of equal estimates, so FIFO breaks ties.
        st.waiters
            .iter()
            .enumerate()
            .filter(|(_, w)| Self::fits(st, w))
            .min_by(|(_, a), (_, b)| a.est_seconds.total_cmp(&b.est_seconds))
            .map(|(pos, _)| pos)
    }

    /// Take `pos` out of the queue and claim its slots. Earlier arrivals
    /// still waiting were just bypassed.
    fn dispatch(st: &mut SlotState, pos: usize) -> Waiter {
        let w = st.waiters.remove(pos);
        for earlier in &mut st.waiters[..pos] {
            earlier.bypass += 1;
        }
        st.free -= w.weight;
        if w.heavy {
            st.heavy_free -= 1;
        }
        st.running += w.weight;
        st.peak_running = st.peak_running.max(st.running);
        w
    }

    /// Blocking acquire of `weight` worker slots (clamped to the pool
    /// size so wide queries always fit eventually).
    fn acquire(self: &Arc<Slots>, weight: usize, heavy: bool, est_seconds: f64) -> SlotGuard {
        let mut st = self.state.lock().unwrap();
        let weight = weight.clamp(1, st.total);
        let id = st.next_id;
        st.next_id += 1;
        st.waiters.push(Waiter {
            id,
            weight,
            heavy,
            est_seconds,
            bypass: 0,
        });
        loop {
            if let Some(pos) = Self::chosen(&st) {
                if st.waiters[pos].id == id {
                    let w = Self::dispatch(&mut st, pos);
                    drop(st);
                    // Another waiter may also fit in what's left.
                    self.cv.notify_all();
                    return SlotGuard {
                        slots: self.clone(),
                        weight: w.weight,
                        heavy,
                    };
                }
                // Someone else should go first; make sure they're awake.
                self.cv.notify_all();
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Non-blocking acquire: `None` when the slots aren't free right now
    /// or queued queries are ahead (try never jumps the queue).
    fn try_acquire(self: &Arc<Slots>, weight: usize, heavy: bool) -> Option<SlotGuard> {
        let mut st = self.state.lock().unwrap();
        let weight = weight.clamp(1, st.total);
        let probe = Waiter {
            id: 0,
            weight,
            heavy,
            est_seconds: 0.0,
            bypass: 0,
        };
        if !st.waiters.is_empty() || !Self::fits(&st, &probe) {
            return None;
        }
        st.free -= weight;
        if heavy {
            st.heavy_free -= 1;
        }
        st.running += weight;
        st.peak_running = st.peak_running.max(st.running);
        drop(st);
        Some(SlotGuard {
            slots: self.clone(),
            weight,
            heavy,
        })
    }

    fn snapshot(&self) -> AdmissionSnapshot {
        let st = self.state.lock().unwrap();
        AdmissionSnapshot {
            running: st.running,
            queued: st.waiters.len(),
            peak_running: st.peak_running,
        }
    }
}

/// Holds one execution's worker slots; returning them on drop wakes
/// queued queries.
#[derive(Debug)]
struct SlotGuard {
    slots: Arc<Slots>,
    weight: usize,
    heavy: bool,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        let mut st = self.slots.state.lock().unwrap();
        st.free += self.weight;
        if self.heavy {
            st.heavy_free += 1;
        }
        st.running -= self.weight;
        drop(st);
        self.slots.cv.notify_all();
    }
}

/// Archive-wide configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArchiveConfig {
    /// Cover level override for all scans (None = store default).
    pub cover_level: Option<u8>,
    /// Columnar compilation vs forced interpretation (default: Auto).
    pub mode: ExecMode,
    /// Calibration for plan-time cost estimates.
    pub cost_model: CostModel,
    /// The execution slot pool.
    pub admission: AdmissionConfig,
}

#[derive(Debug)]
struct ArchiveInner {
    store: Arc<ObjectStore>,
    tags: Option<Arc<TagStore>>,
    config: ArchiveConfig,
    slots: Arc<Slots>,
    /// Session registry: weak handles to every live session workspace,
    /// pruned on access (observability only — sessions own their sets).
    sessions: Mutex<Vec<Weak<SessionShared>>>,
    next_session_id: AtomicU64,
}

/// The shared archive handle: clone it freely, send it across threads;
/// every clone talks to the same stores and the same admission pool.
#[derive(Debug, Clone)]
pub struct Archive {
    inner: Arc<ArchiveInner>,
}

impl Archive {
    /// An archive over the given stores with default configuration.
    /// Accepts owned stores or pre-shared `Arc`s.
    pub fn new(store: impl Into<Arc<ObjectStore>>, tags: Option<Arc<TagStore>>) -> Archive {
        Archive::with_config(store, tags, ArchiveConfig::default())
    }

    pub fn with_config(
        store: impl Into<Arc<ObjectStore>>,
        tags: Option<Arc<TagStore>>,
        config: ArchiveConfig,
    ) -> Archive {
        Archive {
            inner: Arc::new(ArchiveInner {
                store: store.into(),
                tags,
                slots: Arc::new(Slots::new(&config.admission)),
                config,
                sessions: Mutex::new(Vec::new()),
                next_session_id: AtomicU64::new(1),
            }),
        }
    }

    /// Open a session workspace with default quotas: a per-user
    /// namespace of named server-side result sets that `INTO` / `FROM
    /// <set>` queries compose over. Each call opens an isolated
    /// namespace; clone the returned [`Session`] to share one workspace
    /// across threads.
    pub fn session(&self) -> Session {
        self.session_with(SessionConfig::default())
    }

    /// Open a session workspace with explicit quotas.
    pub fn session_with(&self, config: SessionConfig) -> Session {
        Session::open(self.clone(), config)
    }

    /// Live session workspaces (id, set/row/byte/query counts), pruning
    /// dropped sessions from the registry as a side effect.
    pub fn sessions(&self) -> Vec<SessionInfo> {
        let mut reg = self.inner.sessions.lock().unwrap();
        reg.retain(|w| w.strong_count() > 0);
        reg.iter()
            .filter_map(|w| w.upgrade())
            .map(|s| s.info())
            .collect()
    }

    /// Allocate an archive-unique session id.
    pub(crate) fn alloc_session_id(&self) -> u64 {
        self.inner.next_session_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a new session in the observability registry, pruning
    /// dead entries so churning sessions can't grow the vec unbounded.
    pub(crate) fn register_session(&self, shared: &Arc<SessionShared>) {
        let mut reg = self.inner.sessions.lock().unwrap();
        reg.retain(|w| w.strong_count() > 0);
        reg.push(Arc::downgrade(shared));
    }

    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.inner.store
    }

    pub fn tags(&self) -> Option<&Arc<TagStore>> {
        self.inner.tags.as_ref()
    }

    pub fn config(&self) -> &ArchiveConfig {
        &self.inner.config
    }

    /// Current admission-control state (running / queued / peak).
    pub fn admission(&self) -> AdmissionSnapshot {
        self.inner.slots.snapshot()
    }

    /// Parse and plan without executing (EXPLAIN). Accepts the full
    /// statement form, including a trailing `INTO <name>`.
    pub fn explain(&self, sql: &str) -> Result<QueryPlan, QueryError> {
        let (query, trailing_into) = parse_statement(sql)?;
        let mut query_plan = plan(&query, self.inner.tags.is_some())?;
        if let Some(name) = trailing_into {
            query_plan.set_into(name)?;
        }
        Ok(query_plan)
    }

    /// Parse + plan + estimate once; the returned [`Prepared`] executes
    /// any number of times (concurrently, with fresh parameters) without
    /// repeating any of that work.
    ///
    /// Queries over stored sets (`FROM <set>`, `INTO <set>`) need a
    /// session workspace to resolve the names against — prepare those
    /// through [`Session::prepare`]; here they error.
    pub fn prepare(&self, sql: &str) -> Result<Prepared, QueryError> {
        self.prepare_in(sql, Arc::new(HashMap::new()), None)
    }

    /// The shared prepare path: `sets` is the session's pinned stored-set
    /// snapshot (empty for sessionless prepares) and `workspace` the
    /// session the statement runs under (required for `INTO`).
    pub(crate) fn prepare_in(
        &self,
        sql: &str,
        sets: Arc<HashMap<String, Arc<ResultSet>>>,
        workspace: Option<Arc<SessionShared>>,
    ) -> Result<Prepared, QueryError> {
        let query_plan = self.explain(sql)?;
        if query_plan.into.is_some() && workspace.is_none() {
            return Err(QueryError::Exec(
                "INTO requires a session workspace (use Archive::session)".to_string(),
            ));
        }
        // Pin only the sets this statement actually scans — a long-lived
        // Prepared must not keep the whole workspace's memory alive
        // after sets it never references are dropped.
        let referenced = query_plan.root.referenced_sets();
        let sets: Arc<HashMap<String, Arc<ResultSet>>> = if referenced.is_empty() {
            Arc::new(HashMap::new())
        } else {
            Arc::new(
                referenced
                    .iter()
                    .filter_map(|n| sets.get(*n).map(|s| (n.to_string(), s.clone())))
                    .collect(),
            )
        };
        let route = route_of(&query_plan.root);
        let columnar = plan_uses_columnar(
            &query_plan.root,
            self.inner.tags.is_some(),
            self.inner.config.mode,
        );
        let (estimate, match_surface) = self.estimate_plan(&query_plan.root, &sets)?;
        let heavy = estimate.est_bytes >= self.inner.config.admission.heavy_bytes;
        let (match_probe_morsels, match_est_containers) =
            (match_surface.probe_morsels, match_surface.est_containers);
        Ok(Prepared {
            archive: self.clone(),
            columns: query_plan.root.columns(),
            into: query_plan.into.clone(),
            plan: Arc::new(query_plan),
            sets,
            workspace,
            route,
            columnar,
            estimate,
            heavy,
            match_probe_morsels,
            match_est_containers,
        })
    }

    /// Prepare, execute without parameters, and collect every row.
    pub fn run(&self, sql: &str) -> Result<QueryOutput, QueryError> {
        self.prepare(sql)?.run()
    }

    /// One-shot convenience: run and return the rows *and* the execution
    /// statistics as a pair, so callers that only want timing / scan
    /// counters don't hand-roll the stream loop. (The stats are the same
    /// object as `output.stats`; the pair form just makes the common
    /// `let (out, stats) = ...` destructure direct.)
    pub fn run_with_stats(&self, sql: &str) -> Result<(QueryOutput, QueryStats), QueryError> {
        let output = self.run(sql)?;
        let stats = output.stats.clone();
        Ok((output, stats))
    }

    /// Sum per-scan-leaf estimates from container statistics + the HTM
    /// cover (base stores) or materialized row/byte/chunk counts (stored
    /// sets — exact, the set is resident). Reads no object data; covers
    /// memoize in the stores' cover caches, so repeated prepares of a
    /// hot region cost nothing.
    fn estimate_plan(
        &self,
        node: &PlanNode,
        sets: &HashMap<String, Arc<ResultSet>>,
    ) -> Result<(CostEstimate, MatchSurface), QueryError> {
        let mut est = CostEstimate::default();
        let mut surface = MatchSurface::default();
        self.accumulate_estimate(node, sets, &mut est, &mut surface)?;
        Ok((est, surface))
    }

    fn accumulate_estimate(
        &self,
        node: &PlanNode,
        sets: &HashMap<String, Arc<ResultSet>>,
        est: &mut CostEstimate,
        surface: &mut MatchSurface,
    ) -> Result<(), QueryError> {
        match node {
            PlanNode::Scan(s) => {
                let model = &self.inner.config.cost_model;
                if let QuerySource::Match(m) = &s.source {
                    // Cost from both inputs' exact row counts: stored
                    // sets are resident (exact); an archive input prices
                    // a whole tag sweep. Pair multiplicity is
                    // data-dependent, so est_rows carries the probe-side
                    // row count (the scan driver), and est_seconds adds
                    // a per-probe zone-lookup term on top of the byte
                    // cost of reading both sides.
                    let mut probe_rows = 0.0;
                    for (input, is_probe) in [(&m.a, true), (&m.b, false)] {
                        let (rows, bytes, full, partial) = match input {
                            MatchInput::Set(name) => {
                                let set = sets.get(name).ok_or_else(|| {
                                    QueryError::Unknown(format!(
                                        "stored set {name} (prepare through a session \
                                         workspace that holds it)"
                                    ))
                                })?;
                                (set.rows() as f64, set.bytes() as u64, set.n_chunks(), 0)
                            }
                            MatchInput::Archive => {
                                est.full_sweep = true;
                                let tags = self.inner.tags.as_ref().ok_or_else(|| {
                                    QueryError::Type(
                                        "MATCH against the archive requires the tag store"
                                            .to_string(),
                                    )
                                })?;
                                let leaf = model.estimate_sweep(tags.containers());
                                (
                                    leaf.est_rows,
                                    leaf.est_bytes,
                                    leaf.containers_full,
                                    leaf.containers_partial,
                                )
                            }
                        };
                        if is_probe {
                            probe_rows = rows;
                            surface.probe_morsels += full + partial;
                        }
                        // The surface mirrors exactly what this arm adds
                        // to the estimate, so `planned_workers`' swap-out
                        // subtraction can never drift from the totals.
                        surface.est_containers += full + partial;
                        est.est_bytes += bytes;
                        est.est_seconds += bytes as f64 / model.scan_bandwidth_bps;
                        est.containers_full += full;
                        est.containers_partial += partial;
                    }
                    est.est_rows += probe_rows;
                    // Per-probe zone lookup (a small HTM cover per probe
                    // row) dominates the join — see the ROADMAP's
                    // cover-memoization open item; the queue orders on
                    // est_seconds, so underpricing this would let heavy
                    // joins jump interactive queries.
                    est.est_seconds += probe_rows * model.match_probe_seconds;
                    return Ok(());
                }
                if let QuerySource::Set(name) = &s.source {
                    // Stored-set stats are exact: the set is resident and
                    // scans read it whole (chunks are the containers).
                    let set = sets.get(name).ok_or_else(|| {
                        QueryError::Unknown(format!(
                            "stored set {name} (prepare through a session workspace \
                             that holds it)"
                        ))
                    })?;
                    est.est_rows += set.rows() as f64;
                    est.est_bytes += set.bytes() as u64;
                    est.est_seconds += set.bytes() as f64 / model.scan_bandwidth_bps;
                    est.containers_full += set.n_chunks();
                    return Ok(());
                }
                let tag_route = s.source == QuerySource::Tag && self.inner.tags.is_some();
                let leaf = match (&s.domain, tag_route) {
                    (Some(domain), true) => {
                        let tags = self.inner.tags.as_ref().expect("tag_route checked");
                        model.estimate_tags(tags, domain)?
                    }
                    (Some(domain), false) => model.estimate(&self.inner.store, domain)?,
                    (None, true) => {
                        est.full_sweep = true;
                        let tags = self.inner.tags.as_ref().expect("tag_route checked");
                        model.estimate_sweep(tags.containers())
                    }
                    (None, false) => {
                        est.full_sweep = true;
                        model.estimate_sweep(self.inner.store.containers())
                    }
                };
                est.est_rows += leaf.est_rows;
                est.est_bytes += leaf.est_bytes;
                est.est_seconds += leaf.est_seconds;
                est.containers_full += leaf.containers_full;
                est.containers_partial += leaf.containers_partial;
            }
            PlanNode::Sort { child, .. }
            | PlanNode::Limit { child, .. }
            | PlanNode::Aggregate { child, .. } => {
                self.accumulate_estimate(child, sets, est, surface)?
            }
            PlanNode::Set { left, right, .. } => {
                self.accumulate_estimate(left, sets, est, surface)?;
                self.accumulate_estimate(right, sets, est, surface)?;
            }
        }
        Ok(())
    }
}

/// Scan leaves of a plan (set operations have several running at once).
fn count_scan_leaves(node: &PlanNode) -> usize {
    match node {
        PlanNode::Scan(_) => 1,
        PlanNode::Sort { child, .. }
        | PlanNode::Limit { child, .. }
        | PlanNode::Aggregate { child, .. } => count_scan_leaves(child),
        PlanNode::Set { left, right, .. } => count_scan_leaves(left) + count_scan_leaves(right),
    }
}

/// Does any scan leaf run a MATCH join? Match joins parallelize over
/// probe-side morsels even though they are not compiled-columnar scans,
/// so the worker grant treats them like columnar plans.
fn plan_has_match(node: &PlanNode) -> bool {
    match node {
        PlanNode::Scan(s) => matches!(s.source, QuerySource::Match(_)),
        PlanNode::Sort { child, .. }
        | PlanNode::Limit { child, .. }
        | PlanNode::Aggregate { child, .. } => plan_has_match(child),
        PlanNode::Set { left, right, .. } => plan_has_match(left) || plan_has_match(right),
    }
}

fn route_of(node: &PlanNode) -> RouteChoice {
    fn any_full(node: &PlanNode) -> bool {
        match node {
            PlanNode::Scan(s) => s.source == QuerySource::Full,
            PlanNode::Sort { child, .. } | PlanNode::Limit { child, .. } => any_full(child),
            PlanNode::Aggregate { child, .. } => any_full(child),
            PlanNode::Set { left, right, .. } => any_full(left) || any_full(right),
        }
    }
    if any_full(node) {
        RouteChoice::Full
    } else {
        RouteChoice::TagOnly
    }
}

/// A parsed + planned + estimated query, ready to execute any number of
/// times. Cheap to clone; clones share the plan (and, for
/// session-prepared statements, the pinned stored-set snapshot).
#[derive(Debug, Clone)]
pub struct Prepared {
    archive: Archive,
    plan: Arc<QueryPlan>,
    columns: Vec<String>,
    /// Stored sets pinned at prepare time: `FROM <set>` leaves read
    /// these snapshots even if the session later drops or replaces the
    /// name (the `Arc` keeps the data alive).
    sets: Arc<HashMap<String, Arc<ResultSet>>>,
    /// `INTO <name>` target, when this statement materializes a set.
    into: Option<String>,
    /// The session workspace this statement runs under (set when
    /// prepared via [`Session::prepare`]; executions report their stats
    /// into its `SessionStats`).
    workspace: Option<Arc<SessionShared>>,
    route: RouteChoice,
    columnar: bool,
    estimate: CostEstimate,
    heavy: bool,
    /// Probe-side morsel count summed over MATCH leaves (0 when the
    /// plan has none). Worker grants for match leaves cap here rather
    /// than at the estimate's container total, which also counts the
    /// build side — slots granted past the probe morsel count could
    /// never be used.
    match_probe_morsels: usize,
    /// Containers the MATCH leaves contributed to the cost estimate
    /// (probe + build sides) — subtracted back out so co-existing
    /// columnar leaves keep their own parallelism surface.
    match_est_containers: usize,
}

impl Prepared {
    /// The Query Execution Tree this statement will run.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// EXPLAIN-style rendering: the plan-time cost estimate (the same
    /// numbers the admission queue orders on), then the QET. The
    /// estimate line carries `est_rows` / `est_bytes` / `containers` /
    /// `est_seconds` / `planned_workers` / `route` so EXPLAIN and the
    /// admission decision tell one story.
    pub fn explain(&self) -> String {
        let est = &self.estimate;
        format!(
            "Estimate: est_rows={:.0} est_bytes={} containers={}+{} \
             est_seconds={:.4} planned_workers={} route={:?} heavy={} \
             columnar={} full_sweep={}\n{}",
            est.est_rows,
            est.est_bytes,
            est.containers_full,
            est.containers_partial,
            est.est_seconds,
            self.planned_workers(),
            self.route,
            self.heavy,
            self.columnar,
            est.full_sweep,
            self.plan.explain(),
        )
    }

    /// The materialization target (`INTO <name>`), if any.
    pub fn into_set(&self) -> Option<&str> {
        self.into.as_deref()
    }

    pub(crate) fn archive(&self) -> &Archive {
        &self.archive
    }

    pub(crate) fn workspace(&self) -> Option<&Arc<SessionShared>> {
        self.workspace.as_ref()
    }

    /// The plan-time cost prediction (rows / bytes / containers).
    pub fn estimate(&self) -> &CostEstimate {
        &self.estimate
    }

    /// Number of `$N` parameters each execution must bind.
    pub fn n_params(&self) -> usize {
        self.plan.n_params
    }

    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    pub fn route(&self) -> RouteChoice {
        self.route
    }

    /// Plan-time prediction: will every scan leaf run on the compiled
    /// columnar path? ([`QueryStats::columnar`] is the per-execution
    /// truth, judged after parameter binding.)
    pub fn columnar(&self) -> bool {
        self.columnar
    }

    /// Would this execution occupy a heavy admission slot?
    pub fn is_heavy(&self) -> bool {
        self.heavy
    }

    /// Scan workers an execution will be granted — and the worker-thread
    /// slots it will hold while running. Every scan leaf needs at least
    /// one thread (set operations run their sides concurrently), so the
    /// grant never drops below the leaf count; beyond that, only
    /// compiled columnar plans parallelize, bounded by the per-query
    /// cap, the pool size, and the number of touched containers (a
    /// one-container cone search gains nothing from a second worker).
    pub fn planned_workers(&self) -> usize {
        let leaves = count_scan_leaves(&self.plan.root).max(1);
        let has_match = plan_has_match(&self.plan.root);
        if !self.columnar && !has_match {
            return leaves;
        }
        // The parallelism surface: touched containers for columnar
        // scan leaves plus probe-side morsels for MATCH leaves. The
        // estimate's container total counts MATCH build sides too,
        // which workers never drain — granting past the probe morsels
        // would hold slots the execution can never use — so the MATCH
        // contribution is swapped out for the probe morsel count while
        // any co-existing columnar leaves keep their own surface.
        let est_containers = self.estimate.containers_full + self.estimate.containers_partial;
        let containers = if has_match {
            est_containers.saturating_sub(self.match_est_containers) + self.match_probe_morsels
        } else {
            est_containers
        };
        let cfg = &self.archive.inner.config.admission;
        cfg.max_workers_per_query
            .max(1)
            .min(cfg.max_worker_slots.max(1))
            .min(containers.max(1))
            .max(leaves)
    }

    /// Execute with no parameters, streaming batches.
    pub fn stream(&self) -> Result<ResultStream, QueryError> {
        self.stream_with(&[])
    }

    /// Execute with `$N` parameters bound positionally (`params[0]` is
    /// `$1`). Binding substitutes literals into a clone of the plan —
    /// no re-parse, no re-plan, spatial covers and routing reused as-is.
    /// Blocks while the admission pool is full (the queue), then starts
    /// the scan leaves' producer threads and returns the pull end, whose
    /// operators (limit, sort, aggregate, set ops) run on the caller's
    /// thread as it pulls.
    ///
    /// **Deadlock note:** an open [`ResultStream`] holds its admission
    /// slots (one per granted worker, see [`Prepared::planned_workers`])
    /// until dropped or finished. A caller whose open streams already
    /// hold enough of the `max_worker_slots` pool that this execution's
    /// grant cannot fit waits for slots only it can free — layer nested
    /// queries over open streams with [`Prepared::try_stream_with`]
    /// instead.
    pub fn stream_with(&self, params: &[f64]) -> Result<ResultStream, QueryError> {
        self.reject_into_stream()?;
        self.stream_raw(params)
    }

    /// `INTO` statements materialize server-side: the archive drives the
    /// stream into the session's writer sink, so handing the pull end to
    /// a caller would be two consumers fighting over one stream.
    fn reject_into_stream(&self) -> Result<(), QueryError> {
        match &self.into {
            Some(name) => Err(QueryError::Exec(format!(
                "INTO {name} materializes server-side; execute it with run()/run_with()"
            ))),
            None => Ok(()),
        }
    }

    /// The admission + launch path, with no `INTO` guard — the session
    /// writer sink uses this to drive the materializing stream itself.
    pub(crate) fn stream_raw(&self, params: &[f64]) -> Result<ResultStream, QueryError> {
        let root = self.bind_root(params)?;
        let queued_at = Instant::now();
        let slot = self.archive.inner.slots.acquire(
            self.planned_workers(),
            self.heavy,
            self.estimate.est_seconds,
        );
        Ok(self.launch_stream(root, slot, queued_at.elapsed()))
    }

    /// Non-blocking variant of [`Prepared::stream`]: errors immediately
    /// when the admission pool has no free (heavy-)slot.
    pub fn try_stream(&self) -> Result<ResultStream, QueryError> {
        self.try_stream_with(&[])
    }

    /// Non-blocking variant of [`Prepared::stream_with`]: errors
    /// immediately when the admission pool has no free (heavy-)slot
    /// instead of queueing, so callers that hold open streams can issue
    /// nested queries without risking self-deadlock.
    pub fn try_stream_with(&self, params: &[f64]) -> Result<ResultStream, QueryError> {
        self.reject_into_stream()?;
        let root = self.bind_root(params)?;
        let slot = self
            .archive
            .inner
            .slots
            .try_acquire(self.planned_workers(), self.heavy)
            .ok_or_else(|| {
                QueryError::Exec("admission pool is full (try again later)".to_string())
            })?;
        Ok(self.launch_stream(root, slot, Duration::ZERO))
    }

    fn bind_root(&self, params: &[f64]) -> Result<PlanNode, QueryError> {
        if params.len() != self.plan.n_params {
            return Err(QueryError::Exec(format!(
                "query takes {} parameter(s), got {}",
                self.plan.n_params,
                params.len()
            )));
        }
        if params.is_empty() {
            Ok(self.plan.root.clone())
        } else {
            self.plan.root.bind_params(params)
        }
    }

    /// The post-admission half of an execution: launch the plan (its
    /// scan leaves start producing) and wrap the operator tree as the
    /// pull end.
    fn launch_stream(&self, root: PlanNode, slot: SlotGuard, queue_time: Duration) -> ResultStream {
        let inner = &self.archive.inner;
        // The execution-truth flag: judged on the *bound* plan (binding
        // can only widen compilability — e.g. a parameter in a position
        // the static gate judged conservatively).
        let columnar = plan_uses_columnar(&root, inner.tags.is_some(), inner.config.mode);
        let ticket = Arc::new(TicketCore::default());
        // The granted slots split across the plan's scan leaves (set
        // operations run several concurrently): `leaves * per_leaf <=
        // granted`, so the execution never runs more scan threads than
        // it holds slots for. (`planned_workers` grants at least one
        // slot per leaf; the only exception is a pool smaller than the
        // plan's leaf count, where the clamp to the pool size leaves
        // each leaf its mandatory single thread.)
        let workers_granted = slot.weight;
        let leaves = count_scan_leaves(&root).max(1);
        let env = self.exec_env((workers_granted / leaves).max(1));
        let columns = root.columns();
        let started = Instant::now();
        let root = Some(launch(&env, root, &ticket));
        ResultStream {
            columns,
            root,
            ticket: QueryTicket { core: ticket },
            route: self.route,
            columnar,
            queue_time,
            started,
            first: None,
            rows: 0,
            batches: 0,
            workers_granted,
            workspace: self.workspace.clone(),
            _slot: slot,
        }
    }

    /// The execution environment at `workers` scan workers per leaf.
    fn exec_env(&self, workers: usize) -> ExecEnv {
        let inner = &self.archive.inner;
        ExecEnv {
            store: inner.store.clone(),
            tags: inner.tags.clone(),
            sets: self.sets.clone(),
            cover_level: inner.config.cover_level,
            mode: inner.config.mode,
            workers,
        }
    }

    /// Execute with no parameters and collect every row (or, for `INTO`
    /// statements, materialize the named set server-side and return the
    /// empty-rows output carrying the execution stats).
    pub fn run(&self) -> Result<QueryOutput, QueryError> {
        self.run_with(&[])
    }

    /// Execute with parameters and collect every row. `INTO` statements
    /// fold the result into their session set instead of returning rows.
    pub fn run_with(&self, params: &[f64]) -> Result<QueryOutput, QueryError> {
        if self.into.is_some() {
            return crate::session::run_into(self, params);
        }
        self.stream_with(params)?.collect_output()
    }

    /// The **direct columnar INTO fast path**: when the statement is a
    /// bare tag- or set-routed scan with a compilable predicate, the
    /// materialization projects whole tag records straight out of the
    /// scan's [`sdss_storage::ColumnBatch`] lanes into the
    /// [`ResultSetBuilder`] — no per-objid full-store fetch, no dedup
    /// hash (tag containers and stored sets hold each object once), no
    /// channel fabric. Returns `Ok(None)` when the plan shape is
    /// ineligible (full-store route, set operations, sort/limit stacks,
    /// non-compilable predicates) — the caller falls back to the
    /// stream-and-fetch path, which handles every shape.
    ///
    /// The sink enforces `budget` live per pushed row, so a quota abort
    /// stops the scan exactly like the slow path's mid-stream check.
    pub(crate) fn run_into_columnar(
        &self,
        params: &[f64],
        set_name: &str,
        chunk_rows: usize,
        budget: u64,
    ) -> Result<Option<(ResultSet, QueryStats)>, QueryError> {
        let inner = &self.archive.inner;
        let root = self.bind_root(params)?;
        let PlanNode::Scan(spec) = &root else {
            return Ok(None);
        };
        let Some(pred) = compile_gate(spec, inner.tags.is_some(), inner.config.mode) else {
            return Ok(None);
        };
        // The fold runs the morsel driver at one worker — hold one
        // worker slot. (The scan runs at memory bandwidth; the builder
        // push is the bottleneck, not scan parallelism.)
        let queued_at = Instant::now();
        let slot = inner
            .slots
            .acquire(1, self.heavy, self.estimate.est_seconds);
        let queue_time = queued_at.elapsed();
        let started = Instant::now();
        let ticket = Arc::new(TicketCore::default());
        let mut builder = ResultSetBuilder::new(chunk_rows);
        let result = into_scan(&self.exec_env(1), spec, pred, &ticket, |tag, htm20| {
            builder.push(tag, htm20);
            if builder.bytes() as u64 > budget {
                return Err(QueryError::Exec(format!(
                    "session byte quota exceeded materializing `{set_name}`: \
                         {} bytes available, {} rows already folded",
                    budget,
                    builder.rows()
                )));
            }
            Ok(())
        });
        drop(slot);
        result?;
        // The sink consumed every selected row, so the ticket's emitted
        // rows/batches are what was delivered — reported like the
        // stream-and-fetch route does, so SessionStats.rows_delivered
        // doesn't depend on which INTO route executed.
        let stats = QueryStats {
            queue_time,
            total_time: started.elapsed(),
            ..QueryStats::from_ticket(&ticket, self.route, true, 1)
        };
        Ok(Some((builder.finish(), stats)))
    }
}

/// Live progress + cancellation for one execution. Clones share state;
/// hand one to a dashboard thread and call [`QueryTicket::cancel`] from
/// anywhere.
#[derive(Debug, Clone)]
pub struct QueryTicket {
    core: Arc<TicketCore>,
}

impl QueryTicket {
    /// Request cooperative cancellation: scan leaves stop between
    /// batches (already-buffered batches may still arrive).
    pub fn cancel(&self) {
        self.core.cancel();
    }

    pub fn is_cancelled(&self) -> bool {
        self.core.is_cancelled()
    }

    /// Scan-side progress so far (rows/batches produced, bytes read).
    pub fn progress(&self) -> ScanTotals {
        self.core.totals()
    }

    /// The first execution failure, if any (a failed producer or
    /// operator otherwise looks like a clean early end-of-stream).
    pub fn failure(&self) -> Option<String> {
        self.core.failure()
    }
}

/// The pull end of one execution: iterate [`ResultBatch`]es as they
/// arrive, then call [`ResultStream::finish`] for the [`QueryStats`].
/// Scan leaves produce ahead on their own worker threads; the operators
/// above them (limit, sort, aggregate, set ops) run on the thread that
/// pulls, inside [`ResultStream::next_batch`].
///
/// Dropping the stream mid-flight tears execution down: the operator
/// tree drops, leaf producers observe their closed channels, and the
/// ticket is cancelled. The admission slot is held until the stream is
/// dropped or finished.
pub struct ResultStream {
    columns: Vec<String>,
    /// The operator tree; `None` once the stream has ended.
    root: Option<Operator>,
    ticket: QueryTicket,
    route: RouteChoice,
    columnar: bool,
    queue_time: Duration,
    started: Instant,
    first: Option<Duration>,
    rows: usize,
    batches: usize,
    workers_granted: usize,
    /// Session this execution runs under: [`ResultStream::finish`]
    /// reports the final stats into its accumulated `SessionStats`.
    workspace: Option<Arc<SessionShared>>,
    _slot: SlotGuard,
}

impl ResultStream {
    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// This execution's cancel/progress ticket.
    pub fn ticket(&self) -> QueryTicket {
        self.ticket.clone()
    }

    /// The next batch, blocking until one is ready or the plan finishes.
    /// The plan's operators run here, on the caller's thread; an operator
    /// panic ends the stream and shows up in [`ResultStream::failure`].
    pub fn next_batch(&mut self) -> Option<ResultBatch> {
        let batch = pull(&mut self.root, &self.ticket.core)?;
        if self.first.is_none() && !batch.is_empty() {
            self.first = Some(self.started.elapsed());
        }
        self.rows += batch.len();
        self.batches += 1;
        Some(batch)
    }

    /// Statistics for what this stream consumed. Scan-side totals are
    /// final once the stream has fully drained (or execution was
    /// cancelled and wound down).
    pub fn finish(self) -> QueryStats {
        // The consumer is done: cancel so producers still scanning stop
        // at their next morsel/batch check. On a fully drained plan this
        // is a no-op (everything already exited); on a stream abandoned
        // part way it keeps scan workers from burning CPU on morsels
        // nobody will read — the slots return when `self` drops at the
        // end of this call, and unaccounted background work is exactly
        // what admission exists to prevent.
        self.ticket.cancel();
        let stats = QueryStats {
            queue_time: self.queue_time,
            time_to_first_row: self.first,
            total_time: self.started.elapsed(),
            rows: self.rows,
            batches: self.batches,
            ..QueryStats::from_ticket(
                &self.ticket.core,
                self.route,
                self.columnar,
                self.workers_granted,
            )
        };
        if let Some(ws) = &self.workspace {
            ws.note_query(&stats);
        }
        stats
    }

    /// The first execution failure (a scan worker's or an operator's),
    /// if any. Meaningful once the stream has drained: a dead producer
    /// closes its channel exactly like a finished one, so callers that
    /// need the distinction check here (or use
    /// [`ResultStream::collect_output`], which does).
    pub fn failure(&self) -> Option<String> {
        self.ticket.failure()
    }

    /// Drain everything, materializing rows at the edge. Errors if a
    /// scan worker or operator failed mid-flight (the rows would be
    /// silently truncated otherwise).
    pub fn collect_output(mut self) -> Result<QueryOutput, QueryError> {
        let columns = self.columns().to_vec();
        let mut rows: Vec<Row> = Vec::new();
        while let Some(batch) = self.next_batch() {
            batch.append_rows(&mut rows);
        }
        if let Some(msg) = self.failure() {
            return Err(QueryError::Exec(msg));
        }
        Ok(QueryOutput {
            columns,
            rows,
            stats: self.finish(),
        })
    }
}

impl Iterator for ResultStream {
    type Item = ResultBatch;

    fn next(&mut self) -> Option<ResultBatch> {
        self.next_batch()
    }
}

/// Abandoning a stream cancels its execution. Dropping the operator tree
/// already stops leaves that stream (their next send fails), but the
/// in-scan aggregate and MATCH-fold leaves only send at the end: without
/// the cancel they would keep scanning *after* the admission slot
/// returns to the pool — unaccounted background work admission exists
/// to prevent.
impl Drop for ResultStream {
    fn drop(&mut self) {
        self.ticket.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Value;
    use sdss_catalog::{PhotoObj, SkyModel};
    use sdss_htm::Region;
    use sdss_storage::StoreConfig;
    use std::collections::BTreeMap;

    fn setup(seed: u64) -> (Archive, Vec<PhotoObj>) {
        let objs = SkyModel::small(seed).generate().unwrap();
        let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
        store.insert_batch(&objs).unwrap();
        let tags = TagStore::from_store(&store);
        (Archive::new(store, Some(Arc::new(tags))), objs)
    }

    #[test]
    fn cone_query_matches_brute_force() {
        let (archive, objs) = setup(1);
        let out = archive
            .run("SELECT objid, ra, dec, r FROM photoobj WHERE CIRCLE(185, 15, 1.5) AND r < 21")
            .unwrap();
        let domain = Region::circle(185.0, 15.0, 1.5).unwrap();
        let want: Vec<&PhotoObj> = objs
            .iter()
            .filter(|o| domain.contains(o.unit_vec()) && o.mag(2) < 21.0)
            .collect();
        assert_eq!(out.rows.len(), want.len());
        assert_eq!(out.stats.route, RouteChoice::TagOnly);
        assert_eq!(out.columns, vec!["objid", "ra", "dec", "r"]);
        // ids agree
        let mut got: Vec<u64> = out.rows.iter().map(|r| r[0].as_id().unwrap()).collect();
        let mut exp: Vec<u64> = want.iter().map(|o| o.obj_id).collect();
        got.sort_unstable();
        exp.sort_unstable();
        assert_eq!(got, exp);
        // Scan accounting flowed through the ticket into the stats.
        assert!(out.stats.scan.bytes_scanned > 0);
        assert_eq!(
            out.stats.scan.cover_cache_hits + out.stats.scan.cover_cache_misses,
            1
        );
    }

    #[test]
    fn full_route_when_needed() {
        let (archive, objs) = setup(2);
        let out = archive
            .run("SELECT objid, psf_r FROM photoobj WHERE CIRCLE(185, 15, 1) AND psf_r < 21")
            .unwrap();
        assert_eq!(out.stats.route, RouteChoice::Full);
        let domain = Region::circle(185.0, 15.0, 1.0).unwrap();
        let want = objs
            .iter()
            .filter(|o| domain.contains(o.unit_vec()) && o.bands[2].psf_mag < 21.0)
            .count();
        assert_eq!(out.rows.len(), want);
    }

    #[test]
    fn order_by_and_limit() {
        let (archive, _) = setup(3);
        let out = archive
            .run("SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 2) ORDER BY r LIMIT 5")
            .unwrap();
        assert!(out.rows.len() <= 5);
        // Sorted ascending by r.
        for w in out.rows.windows(2) {
            assert!(w[0][1].as_num().unwrap() <= w[1][1].as_num().unwrap());
        }
        // DESC gives the reverse extreme.
        let desc = archive
            .run("SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 2) ORDER BY r DESC LIMIT 1")
            .unwrap();
        let all = archive
            .run("SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 2)")
            .unwrap();
        let max_r = all
            .rows
            .iter()
            .map(|r| r[1].as_num().unwrap())
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(desc.rows[0][1].as_num().unwrap(), max_r);
    }

    #[test]
    fn aggregates_over_region() {
        let (archive, objs) = setup(4);
        let out = archive
            .run("SELECT COUNT(*), MIN(r), MAX(r), AVG(r) FROM photoobj WHERE CIRCLE(185, 15, 2)")
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        let domain = Region::circle(185.0, 15.0, 2.0).unwrap();
        let rs: Vec<f64> = objs
            .iter()
            .filter(|o| domain.contains(o.unit_vec()))
            .map(|o| o.mag(2) as f64)
            .collect();
        let row = &out.rows[0];
        assert_eq!(row[0].as_num().unwrap() as usize, rs.len());
        let min = rs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let avg = rs.iter().sum::<f64>() / rs.len() as f64;
        assert!((row[1].as_num().unwrap() - min).abs() < 1e-9);
        assert!((row[2].as_num().unwrap() - max).abs() < 1e-9);
        assert!((row[3].as_num().unwrap() - avg).abs() < 1e-6);
    }

    #[test]
    fn set_operations() {
        let (archive, objs) = setup(5);
        let bright = "SELECT objid FROM photoobj WHERE r < 20";
        let galaxies = "SELECT objid FROM photoobj WHERE class = 'GALAXY'";
        let inter = archive
            .run(&format!("({bright}) INTERSECT ({galaxies})"))
            .unwrap();
        let expect_inter = objs
            .iter()
            .filter(|o| o.mag(2) < 20.0 && o.class == sdss_catalog::ObjClass::Galaxy)
            .count();
        assert_eq!(inter.rows.len(), expect_inter);

        let except = archive
            .run(&format!("({bright}) EXCEPT ({galaxies})"))
            .unwrap();
        let expect_except = objs
            .iter()
            .filter(|o| o.mag(2) < 20.0 && o.class != sdss_catalog::ObjClass::Galaxy)
            .count();
        assert_eq!(except.rows.len(), expect_except);

        let union = archive
            .run(&format!("({bright}) UNION ({galaxies})"))
            .unwrap();
        let expect_union = objs
            .iter()
            .filter(|o| o.mag(2) < 20.0 || o.class == sdss_catalog::ObjClass::Galaxy)
            .count();
        assert_eq!(union.rows.len(), expect_union);

        // Full rows, not just ids: each set op equals its composition
        // from the direct queries (UNION's right-only rows come back
        // whole, never as objid-plus-NULLs).
        let cols = "objid, r, g, class";
        let bright = format!("SELECT {cols} FROM photoobj WHERE r < 20");
        let galaxies = format!("SELECT {cols} FROM photoobj WHERE class = 'GALAXY'");
        let keyed = |sql: &str| -> BTreeMap<u64, String> {
            let rows = archive.run(sql).unwrap().rows;
            let n = rows.len();
            let map: BTreeMap<u64, String> = rows
                .into_iter()
                .map(|r| (r[0].as_id().unwrap(), format!("{r:?}")))
                .collect();
            assert_eq!(map.len(), n, "duplicate objid in {sql}");
            map
        };
        let (left, right) = (keyed(&bright), keyed(&galaxies));
        let mut want_union = left.clone();
        for (id, row) in &right {
            want_union.entry(*id).or_insert_with(|| row.clone());
        }
        let want_inter: BTreeMap<u64, String> = left
            .iter()
            .filter(|(id, _)| right.contains_key(id))
            .map(|(id, row)| (*id, row.clone()))
            .collect();
        let want_except: BTreeMap<u64, String> = left
            .iter()
            .filter(|(id, _)| !right.contains_key(id))
            .map(|(id, row)| (*id, row.clone()))
            .collect();
        assert!(want_union.len() > left.len(), "need right-only rows");
        for (op, want) in [
            ("UNION", want_union),
            ("INTERSECT", want_inter),
            ("EXCEPT", want_except),
        ] {
            let got = keyed(&format!("({bright}) {op} ({galaxies})"));
            assert_eq!(
                got, want,
                "{op} rows differ from the composed direct queries"
            );
        }
    }

    #[test]
    fn sample_reduces_rows_deterministically() {
        let (archive, _) = setup(6);
        let all = archive.run("SELECT objid FROM photoobj").unwrap();
        let s1 = archive
            .run("SELECT objid FROM photoobj SAMPLE 0.2")
            .unwrap();
        let s2 = archive
            .run("SELECT objid FROM photoobj SAMPLE 0.2")
            .unwrap();
        assert_eq!(s1.rows.len(), s2.rows.len());
        assert!(s1.rows.len() < all.rows.len() / 2);
        assert!(!s1.rows.is_empty());
    }

    #[test]
    fn streaming_early_drop_stops_consumption() {
        let (archive, _) = setup(7);
        let prepared = archive.prepare("SELECT objid FROM photoobj").unwrap();
        let mut stream = prepared.stream().unwrap();
        let first = stream.next_batch().expect("at least one batch");
        assert!(!first.is_empty());
        // Dropping mid-flight releases the slot and tears down cleanly.
        drop(stream);
        assert_eq!(archive.admission().running, 0);
    }

    #[test]
    fn time_to_first_row_is_recorded() {
        let (archive, _) = setup(8);
        let out = archive
            .run("SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 3)")
            .unwrap();
        let stats = out.stats;
        assert!(stats.time_to_first_row.is_some());
        assert!(stats.time_to_first_row.unwrap() <= stats.total_time);
        assert_eq!(stats.rows, out.rows.len());
        assert!(stats.batches >= 1);
    }

    #[test]
    fn dist_function_in_predicate() {
        let (archive, objs) = setup(9);
        // DIST is not extracted spatially (it's a scalar function), so it
        // scans everything — correctness check only.
        let out = archive
            .run("SELECT objid FROM photoobj WHERE DIST(185, 15) < 1.0")
            .unwrap();
        let center = sdss_skycoords::SkyPos::new(185.0, 15.0).unwrap().unit_vec();
        let want = objs
            .iter()
            .filter(|o| o.unit_vec().separation_deg(center) < 1.0)
            .count();
        assert_eq!(out.rows.len(), want);
    }

    #[test]
    fn empty_result_is_not_an_error() {
        let (archive, _) = setup(10);
        let out = archive
            .run("SELECT objid FROM photoobj WHERE r < 0")
            .unwrap();
        assert!(out.rows.is_empty());
        assert!(out.stats.time_to_first_row.is_none());
    }

    #[test]
    fn unknown_attributes_rejected_at_prepare_time() {
        let (archive, _) = setup(11);
        assert!(archive.prepare("SELECT qqq FROM photoobj").is_err());
    }

    #[test]
    fn archive_without_tags_still_answers() {
        let objs = SkyModel::small(12).generate().unwrap();
        let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
        store.insert_batch(&objs).unwrap();
        let archive = Archive::new(store, None);
        let out = archive
            .run("SELECT objid FROM photoobj WHERE r < 20")
            .unwrap();
        let want = objs.iter().filter(|o| o.mag(2) < 20.0).count();
        assert_eq!(out.rows.len(), want);
        assert_eq!(out.stats.route, RouteChoice::Full);
    }

    #[test]
    fn values_are_typed() {
        let (archive, _) = setup(13);
        let out = archive
            .run("SELECT class, r FROM photoobj WHERE CIRCLE(185, 15, 0.5)")
            .unwrap();
        for row in &out.rows {
            assert!(matches!(row[0], Value::Str(_)));
            assert!(matches!(row[1], Value::Num(_)));
        }
    }

    #[test]
    fn estimate_predicts_cone_scan() {
        let (archive, _) = setup(14);
        let small = archive
            .prepare("SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 0.5)")
            .unwrap();
        let big = archive
            .prepare("SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 3)")
            .unwrap();
        assert!(small.estimate().est_bytes > 0);
        assert!(big.estimate().est_bytes > small.estimate().est_bytes);
        assert!(big.estimate().est_rows > small.estimate().est_rows);
        assert!(!small.estimate().full_sweep);
        let sweep = archive.prepare("SELECT objid FROM photoobj").unwrap();
        assert!(sweep.estimate().full_sweep);
        // The estimate matched reality: the executed scan read exactly
        // the predicted bytes (whole-container reads are exact).
        let out = small.run().unwrap();
        assert_eq!(out.stats.scan.bytes_scanned, small.estimate().est_bytes);
    }

    #[test]
    fn columnar_batches_survive_to_the_edge() {
        let (archive, _) = setup(15);
        let prepared = archive
            .prepare("SELECT objid, ra, r, class FROM photoobj WHERE r < 21")
            .unwrap();
        assert!(prepared.columnar());
        let mut stream = prepared.stream().unwrap();
        let mut saw_columnar = false;
        while let Some(batch) = stream.next_batch() {
            // Every batch off the compiled scan path is still columnar
            // here — nothing flattened to rows inside the fabric.
            saw_columnar |= batch.is_columnar();
            assert!(batch.is_columnar());
        }
        assert!(saw_columnar);
    }

    #[test]
    fn archive_types_are_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Archive>();
        check::<Prepared>();
        check::<QueryTicket>();
        fn check_send<T: Send>() {}
        check_send::<ResultStream>();
    }

    fn slots_cfg(max_worker_slots: usize, max_heavy: usize, max_bypass: u32) -> AdmissionConfig {
        AdmissionConfig {
            max_worker_slots,
            heavy_bytes: 1,
            max_heavy,
            max_workers_per_query: max_worker_slots,
            max_bypass,
        }
    }

    #[test]
    fn admission_slots_block_and_release() {
        let slots = Arc::new(Slots::new(&slots_cfg(2, 1, 4)));
        let a = slots.acquire(1, false, 1.0);
        let b = slots.acquire(1, true, 1.0);
        assert_eq!(slots.snapshot().running, 2);
        // Third acquire must wait until one guard drops.
        let slots2 = slots.clone();
        let t = std::thread::spawn(move || {
            let _c = slots2.acquire(1, false, 1.0);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(slots.snapshot().queued, 1);
        drop(a);
        t.join().unwrap();
        assert_eq!(slots.snapshot().queued, 0);
        drop(b);
        assert_eq!(slots.snapshot().running, 0);
        assert_eq!(slots.snapshot().peak_running, 2);
    }

    #[test]
    fn weighted_acquire_accounts_worker_slots() {
        let slots = Arc::new(Slots::new(&slots_cfg(8, 2, 4)));
        // An 8-worker sweep holds 8 slots — the whole pool.
        let sweep = slots.acquire(8, false, 100.0);
        assert_eq!(slots.snapshot().running, 8);
        let slots2 = slots.clone();
        let t = std::thread::spawn(move || {
            let _one = slots2.acquire(1, false, 0.1);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            slots.snapshot().queued,
            1,
            "no room beside a full-width sweep"
        );
        drop(sweep);
        t.join().unwrap();
        assert_eq!(slots.snapshot().running, 0);
        assert_eq!(slots.snapshot().peak_running, 8);
        // Weights clamp to the pool: an oversized request still fits.
        let wide = slots.acquire(64, false, 1.0);
        assert_eq!(slots.snapshot().running, 8);
        drop(wide);
    }

    #[test]
    fn admission_queue_is_cost_ordered() {
        let slots = Arc::new(Slots::new(&slots_cfg(1, 1, 100)));
        let hold = slots.acquire(1, false, 0.0);
        let (order_tx, order_rx) = std::sync::mpsc::channel::<&'static str>();
        // Expensive waiter arrives first...
        let slow = {
            let slots = slots.clone();
            let tx = order_tx.clone();
            std::thread::spawn(move || {
                let g = slots.acquire(1, false, 60.0);
                tx.send("slow").unwrap();
                drop(g);
            })
        };
        while slots.snapshot().queued < 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
        // ...then a cheap one.
        let fast = {
            let slots = slots.clone();
            let tx = order_tx.clone();
            std::thread::spawn(move || {
                let g = slots.acquire(1, false, 0.5);
                tx.send("fast").unwrap();
                // Hold briefly so "slow" can't finish first by racing.
                std::thread::sleep(Duration::from_millis(20));
                drop(g);
            })
        };
        while slots.snapshot().queued < 2 {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(hold);
        // The cheap query dispatches ahead of the earlier expensive one.
        assert_eq!(
            order_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "fast"
        );
        assert_eq!(
            order_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "slow"
        );
        slow.join().unwrap();
        fast.join().unwrap();
    }

    #[test]
    fn starvation_bound_limits_bypasses() {
        // max_bypass = 2: after two cheap queries overtake it, the
        // expensive waiter becomes a barrier and dispatches next even
        // though cheaper work is queued behind it.
        let slots = Arc::new(Slots::new(&slots_cfg(1, 1, 2)));
        let hold = slots.acquire(1, false, 0.0);
        let order = Arc::new(Mutex::new(Vec::<String>::new()));
        let mut handles = Vec::new();
        // The starving expensive waiter arrives first.
        {
            let (slots, order) = (slots.clone(), order.clone());
            handles.push(std::thread::spawn(move || {
                let g = slots.acquire(1, false, 1000.0);
                order.lock().unwrap().push("slow".into());
                drop(g);
            }));
        }
        while slots.snapshot().queued < 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Cheap queries arrive one at a time; each dispatch bypasses the
        // expensive waiter until the bound trips.
        for i in 0..4 {
            let (slots_t, order_t) = (slots.clone(), order.clone());
            handles.push(std::thread::spawn(move || {
                let g = slots_t.acquire(1, false, 0.1);
                order_t.lock().unwrap().push(format!("fast{i}"));
                std::thread::sleep(Duration::from_millis(10));
                drop(g);
            }));
            while slots.snapshot().queued < 2 + i {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        drop(hold);
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap();
        let slow_pos = order.iter().position(|s| s == "slow").unwrap();
        assert!(
            slow_pos <= 2,
            "starved waiter dispatched after {slow_pos} bypasses (bound is 2): {order:?}"
        );
    }
}
