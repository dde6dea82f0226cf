//! Closed-loop clients: each client thread runs whole rounds of its op
//! stream back to back until the phase's time is up, timing every op
//! from the caller's side.

use crate::oracle::Observed;
use crate::spec::{Class, Op, Query, SET_NAME};
use crate::trace::{span, Span, SpanLog};
use crate::workload::{Inputs, OpStream, Workload};
use sdss_query::{Archive, QueryError, QueryStats, Row, Session};
use std::time::{Duration, Instant};

/// What one op did, as its caller saw it.
#[derive(Debug, Clone)]
pub struct Record {
    pub class: Class,
    /// Request id shared with the op's spans.
    pub req: u64,
    pub latency: Duration,
    /// When the op completed.
    pub done: Instant,
    /// Request start to the first non-empty batch.
    pub first_row: Option<Duration>,
    /// Rows delivered to the caller.
    pub rows: usize,
    pub error: Option<String>,
    pub stats: Option<QueryStats>,
    /// Wall time of `Prepared::stream_with` (admission plus launch).
    pub stream_with: Option<Duration>,
    /// `(rows, bytes)` of the set an `INTO` materialized.
    pub set_size: Option<(usize, usize)>,
}

/// An op whose outcome is kept for the oracle.
#[derive(Debug, Clone)]
pub struct Sample {
    pub op: Op,
    pub observed: Observed,
}

/// Everything one client produced in one phase.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub records: Vec<Record>,
    /// Wall time of every completed round (one science scenario).
    pub rounds: Vec<Duration>,
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    /// Ops kept for the serial replay, with their request ids.
    pub replay: Vec<(u64, Op)>,
}

/// How a phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub seconds: f64,
    pub trace: bool,
    /// Ops of each class per client whose outcome the oracle checks.
    pub check_per_class: usize,
    /// Ops of each class per client kept for the replay.
    pub replay_per_class: usize,
}

/// One closed-loop client: its op stream and its session workspace.
pub struct Client<'a> {
    pub id: usize,
    pub archive: &'a Archive,
    pub session: Session,
    pub stream: OpStream<'a>,
    next_req: u64,
}

impl<'a> Client<'a> {
    pub fn new(
        id: usize,
        archive: &'a Archive,
        workload: Workload,
        seed: u64,
        inputs: &'a Inputs,
    ) -> Client<'a> {
        Client {
            id,
            archive,
            session: archive.session(),
            stream: OpStream::new(workload, seed, id, inputs),
            next_req: 0,
        }
    }

    /// Run whole rounds until `phase.seconds` have passed.
    pub fn run(&mut self, phase: &Phase, epoch: Instant) -> ClientRun {
        let mut out = ClientRun::default();
        let mut log = phase.trace.then(|| SpanLog::new(epoch));
        let mut checked = [0usize; Class::ALL.len()];
        let mut replayed = [0usize; Class::ALL.len()];
        let deadline = Instant::now() + Duration::from_secs_f64(phase.seconds);
        while Instant::now() < deadline {
            let round = self.stream.next_round();
            let t_round = Instant::now();
            for op in round {
                let c = op.class as usize;
                let keep = checked[c] < phase.check_per_class;
                let (record, observed) = self.exec(&op, keep, &mut log);
                if keep && record.error.is_none() {
                    if let Some(observed) = observed {
                        checked[c] += 1;
                        out.samples.push(Sample {
                            op: op.clone(),
                            observed,
                        });
                    }
                }
                if phase.trace && replayed[c] < phase.replay_per_class {
                    replayed[c] += 1;
                    out.replay.push((record.req, op));
                }
                out.records.push(record);
            }
            out.rounds.push(t_round.elapsed());
        }
        out.spans = log.map(SpanLog::into_spans).unwrap_or_default();
        out
    }

    /// Execute one op, timing it from the caller's side.
    pub fn exec(
        &mut self,
        op: &Op,
        keep: bool,
        log: &mut Option<SpanLog>,
    ) -> (Record, Option<Observed>) {
        let req = ((self.id as u64) << 48) | self.next_req;
        self.next_req += 1;
        let t0 = Instant::now();
        let mut record = Record {
            class: op.class,
            req,
            latency: Duration::ZERO,
            done: t0,
            first_row: None,
            rows: 0,
            error: None,
            stats: None,
            stream_with: None,
            set_size: None,
        };
        let root = log.as_mut().map(|l| {
            l.set_request(req);
            l.begin("op")
        });
        let result = self.exec_inner(op, log, t0, &mut record);
        record.done = Instant::now();
        record.latency = record.done - t0;
        if let (Some(l), Some(id)) = (log.as_mut(), root) {
            l.end(id);
        }
        // Rows the oracle does not need are freed after the clock stops.
        match result {
            Ok(observed) => (record, observed.filter(|_| keep)),
            Err(e) => {
                record.error = Some(e.to_string());
                (record, None)
            }
        }
    }

    fn exec_inner(
        &mut self,
        op: &Op,
        log: &mut Option<SpanLog>,
        t0: Instant,
        record: &mut Record,
    ) -> Result<Option<Observed>, QueryError> {
        let session = &self.session;
        if let Query::Drop { .. } = op.query {
            let info = span(log, "session.drop_set", || session.drop_set(SET_NAME))?;
            return Ok(Some(Observed::SetRows(info.rows)));
        }
        let sql = op.query.sql().expect("every op but drop has SQL");
        let prepared = span(log, "archive.prepare", || {
            if op.query.uses_session() {
                session.prepare(&sql)
            } else {
                self.archive.prepare(&sql)
            }
        })?;
        if let Query::Into { .. } = op.query {
            let out = span(log, "session.run_into", || prepared.run())?;
            let info = session
                .set_info(SET_NAME)
                .ok_or_else(|| QueryError::Exec("INTO left no set behind".into()))?;
            record.stats = Some(out.stats);
            record.set_size = Some((info.rows, info.bytes));
            return Ok(Some(Observed::SetRows(info.rows)));
        }
        let t_stream = Instant::now();
        let mut stream = span(log, "archive.stream_with", || prepared.stream_with(&[]))?;
        record.stream_with = Some(t_stream.elapsed());
        let mut rows: Vec<Row> = Vec::new();
        let mut n = 0;
        while let Some(batch) = span(log, "exec.next_batch", || stream.next_batch()) {
            if record.first_row.is_none() && !batch.is_empty() {
                record.first_row = Some(t0.elapsed());
            }
            n += batch.len();
            span(log, "edge.append_rows", || batch.append_rows(&mut rows));
        }
        if let Some(msg) = stream.failure() {
            return Err(QueryError::Exec(msg));
        }
        record.stats = Some(span(log, "archive.finish", || stream.finish()));
        record.rows = n;
        Ok(Some(Observed::Rows(rows)))
    }
}

/// Run every client for one phase on its own thread; returns the runs
/// (client order), the phase's start and its wall time.
pub fn run_phase(
    clients: &mut [Client<'_>],
    phase: &Phase,
    epoch: Instant,
) -> (Vec<ClientRun>, Instant, Duration) {
    let start = Instant::now();
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || c.run(phase, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (runs, start, start.elapsed())
}
