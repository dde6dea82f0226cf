//! The traced half of a `--trace 1` run and the per-layer metrics.
//!
//! Each metric names the public call it is timed around or read from.
//! Times from spans come from the live traced ops (prepare, stream,
//! batches, edge, finish, INTO, drop) or from the serial replay (parse,
//! plan, cover, cover mask, predicate, projection, zone build and
//! probe). Counters come from the `QueryStats` and store handles the
//! public API returns.

use crate::clients::{run_phase, Client, ClientRun, Phase};
use crate::replay::{replay, ReplayCounts};
use crate::spec::Class;
use crate::stats;
use crate::trace::{self, Span, SpanLog};
use crate::{check_samples, errors, ms, report_e2e, Args, EndToEnd, Metrics, Setup};
use crate::{CHECKS_PER_CLASS, REPLAYS_PER_CLASS};
use sdss_query::QueryStats;
use std::collections::HashMap;
use std::time::Instant;

/// Live spans whose self time is reported, per op.
const SELF_SPANS: [&str; 8] = [
    "op",
    "archive.prepare",
    "archive.stream_with",
    "exec.next_batch",
    "edge.append_rows",
    "archive.finish",
    "session.run_into",
    "session.drop_set",
];

pub struct Traced {
    pub metrics: Metrics,
    pub attempted: usize,
    pub checked: usize,
    pub failures: Vec<String>,
}

/// Per request, the summed duration (ms) of its spans named `name`.
fn per_request_ms(logs: &[Vec<Span>], name: &str) -> Vec<f64> {
    let mut sums: HashMap<(usize, u64), f64> = HashMap::new();
    for (i, spans) in logs.iter().enumerate() {
        for s in spans.iter().filter(|s| s.name == name) {
            *sums.entry((i, s.req)).or_default() += s.dur_ns() as f64 / 1e6;
        }
    }
    sums.into_values().collect()
}

/// Every duration (ms) of spans named `name`.
fn span_ms(logs: &[Vec<Span>], name: &str) -> Vec<f64> {
    logs.iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run the traced half, replay its sampled ops, and derive the
/// per-layer metrics (with the overhead against the untraced half).
pub fn traced_half(
    setup: &Setup,
    clients: &mut [Client<'_>],
    args: &Args,
    epoch: Instant,
    untraced: &EndToEnd,
) -> Result<Traced, String> {
    let archive = &setup.archive;
    let tags = archive.tags().ok_or("archive has no tag store")?;
    let evictions = || tags.cover_cache().evictions() + archive.store().cover_cache().evictions();
    let evictions_before = evictions();
    let phase = Phase {
        seconds: args.seconds / 2.0,
        trace: true,
        check_per_class: CHECKS_PER_CLASS,
        replay_per_class: REPLAYS_PER_CLASS,
    };
    let (runs, start, wall) = run_phase(clients, &phase, epoch);
    let evicted = evictions() - evictions_before;
    let e2e = EndToEnd::from_runs(&runs, start, wall)?;
    report_e2e(&e2e, "traced half");

    let mut replay_log = Some(SpanLog::new(epoch));
    let mut counts = ReplayCounts::default();
    let level = archive.store().config().scan_cover_level;
    for (req, op) in runs.iter().flat_map(|r| &r.replay) {
        replay(
            op,
            *req,
            tags,
            level,
            &setup.oracle,
            &mut replay_log,
            &mut counts,
        )
        .map_err(|e| format!("replay of {}: {e}", op.class.name()))?;
    }
    let live: Vec<Vec<Span>> = runs.iter().map(|r| r.spans.clone()).collect();
    let replayed = vec![replay_log.map(SpanLog::into_spans).unwrap_or_default()];
    let mut all = live.clone();
    all.extend(replayed.iter().cloned());
    let path = std::path::PathBuf::from(".perfbench").join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    trace::write_jsonl(&path, &all).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "trace: {} spans written to {}",
        all.iter().map(Vec::len).sum::<usize>(),
        path.display()
    );

    let mut metrics = layer_metrics(setup, &runs, &live, &replayed, counts);
    metrics.push(("cover_cache.evictions".into(), evicted as f64, "count"));
    metrics.push((
        "admission.peak_running".into(),
        archive.admission().peak_running as f64,
        "count",
    ));
    metrics.extend([
        ("trace_overhead.qps".into(), e2e.qps - untraced.qps, "1/s"),
        (
            "trace_overhead.latency_p50_ms".into(),
            e2e.latency_p50_ms - untraced.latency_p50_ms,
            "ms",
        ),
        (
            "trace_overhead.scenario_p50_ms".into(),
            e2e.scenario_p50_ms - untraced.scenario_p50_ms,
            "ms",
        ),
        (
            "trace.spans".into(),
            all.iter().map(Vec::len).sum::<usize>() as f64,
            "count",
        ),
    ]);
    let (checked, mut failures) = check_samples(&setup.oracle, &runs);
    failures.extend(errors(&runs));
    Ok(Traced {
        metrics,
        attempted: runs.iter().map(|r| r.records.len()).sum(),
        checked,
        failures,
    })
}

fn layer_metrics(
    setup: &Setup,
    runs: &[ClientRun],
    live: &[Vec<Span>],
    replayed: &[Vec<Span>],
    counts: ReplayCounts,
) -> Metrics {
    let records: Vec<_> = runs.iter().flat_map(|r| &r.records).collect();
    let executions: Vec<&QueryStats> = records.iter().filter_map(|r| r.stats.as_ref()).collect();
    let of_class = |c: Class| records.iter().filter(move |r| r.class == c);
    let p50 = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let mean = |v: &[f64]| stats::mean(v).unwrap_or(0.0);
    let us = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<_>>();
    let sum = |f: &dyn Fn(&QueryStats) -> f64| executions.iter().map(|s| f(s)).sum::<f64>();

    // Set sizes from Session::set_info after each INTO.
    let sets: Vec<(usize, usize)> = of_class(Class::Into).filter_map(|r| r.set_size).collect();
    let set_rows: usize = sets.iter().map(|s| s.0).sum();
    let set_bytes: usize = sets.iter().map(|s| s.1).sum();
    let into_secs: f64 = of_class(Class::Into)
        .filter(|r| r.set_size.is_some())
        .map(|r| r.latency.as_secs_f64())
        .sum();

    let hits = sum(&|s| s.scan.cover_cache_hits as f64);
    let misses = sum(&|s| s.scan.cover_cache_misses as f64);
    let waits: Vec<f64> = executions.iter().map(|s| ms(s.queue_time)).collect();
    let (wait_tail_p, wait_tail) = stats::tail(&waits).unwrap_or((50.0, 0.0));
    eprintln!(
        "admission wait tail is p{wait_tail_p:.3} of {} executions",
        waits.len()
    );
    let launch_us: Vec<f64> = records
        .iter()
        .filter_map(|r| {
            let s = r.stats.as_ref()?;
            Some(r.stream_with?.saturating_sub(s.queue_time).as_secs_f64() * 1e6)
        })
        .collect();
    let first_batch: Vec<f64> = executions
        .iter()
        .filter_map(|s| s.time_to_first_row.map(ms))
        .collect();
    let rows_scanned = sum(&|s| s.scan.rows_scanned as f64);
    let imbalance: Vec<f64> = executions
        .iter()
        .filter(|s| s.worker_bytes.len() >= 2)
        .map(|s| {
            let max = *s.worker_bytes.iter().max().unwrap_or(&0) as f64;
            let mean = s.worker_bytes.iter().sum::<u64>() as f64 / s.worker_bytes.len() as f64;
            ratio(max, mean)
        })
        .collect();
    let sort_first: Vec<f64> = of_class(Class::Sort)
        .filter_map(|r| r.stats.as_ref()?.time_to_first_row.map(ms))
        .collect();
    let setop_in: f64 = of_class(Class::Setop)
        .filter_map(|r| r.stats.as_ref())
        .map(|s| s.scan.rows_scanned as f64)
        .sum();
    let setop_out: f64 = of_class(Class::Setop).map(|r| r.rows as f64).sum();
    let match_rows: Vec<f64> = of_class(Class::Match).map(|r| r.rows as f64).collect();
    let probe_ms: f64 = span_ms(replayed, "zone.probe").iter().sum();

    let mut m: Metrics = vec![
        ("catalog.gen_s".into(), setup.gen_s, "s"),
        ("storage.load_s".into(), setup.load_s, "s"),
        ("storage.tag_build_s".into(), setup.tag_build_s, "s"),
        (
            "storage.full_bytes".into(),
            setup.full_bytes as f64,
            "bytes",
        ),
        ("storage.tag_bytes".into(), setup.tag_bytes as f64, "bytes"),
        (
            "resultset.bytes_per_row".into(),
            ratio(set_bytes as f64, set_rows as f64),
            "bytes/row",
        ),
        (
            "parser.parse_us".into(),
            p50(&us(span_ms(replayed, "parser.parse_statement"))),
            "us",
        ),
        (
            "plan.plan_us".into(),
            p50(&us(span_ms(replayed, "plan.plan"))),
            "us",
        ),
        (
            "archive.prepare_us".into(),
            p50(&us(span_ms(live, "archive.prepare"))),
            "us",
        ),
        (
            "cover_cache.hit_rate".into(),
            ratio(hits, hits + misses),
            "ratio",
        ),
        ("cover_cache.lookups".into(), hits + misses, "count"),
        (
            "htm.cover_us".into(),
            mean(&us(span_ms(replayed, "htm.cover"))),
            "us",
        ),
        ("admission.wait_p50_ms".into(), p50(&waits), "ms"),
        ("admission.wait_tail_ms".into(), wait_tail, "ms"),
        ("archive.launch_us".into(), p50(&launch_us), "us"),
        ("exec.first_batch_ms".into(), p50(&first_batch), "ms"),
        (
            "scan.bytes_per_row".into(),
            ratio(sum(&|s| s.scan.bytes_scanned as f64), rows_scanned),
            "bytes/row",
        ),
        (
            "scan.exact_tests_per_row".into(),
            ratio(sum(&|s| s.scan.objects_exact_tested as f64), rows_scanned),
            "ratio",
        ),
        (
            "scan.morsels".into(),
            ratio(sum(&|s| s.morsels as f64), executions.len() as f64),
            "count",
        ),
        (
            "scan.workers_used".into(),
            ratio(sum(&|s| s.workers_used as f64), executions.len() as f64),
            "count",
        ),
        (
            "scan.worker_imbalance".into(),
            stats::mean(&imbalance).unwrap_or(1.0),
            "ratio",
        ),
        (
            "exec.channel_wait_ms".into(),
            p50(&per_request_ms(live, "exec.next_batch")),
            "ms",
        ),
        (
            "exec.rows_per_batch".into(),
            ratio(sum(&|s| s.rows as f64), sum(&|s| s.batches as f64)),
            "rows",
        ),
        (
            "edge.materialize_ms".into(),
            p50(&per_request_ms(live, "edge.append_rows")),
            "ms",
        ),
        ("exec.sort_first_row_ms".into(), p50(&sort_first), "ms"),
        (
            "exec.setop_rows_in_per_out".into(),
            ratio(setop_in, setop_out),
            "ratio",
        ),
        (
            "session.into_rows_per_s".into(),
            ratio(set_rows as f64, into_secs),
            "rows/s",
        ),
        (
            "zone.build_ms".into(),
            p50(&span_ms(replayed, "zone.build")),
            "ms",
        ),
        (
            "zone.probe_us".into(),
            ratio(probe_ms * 1e3, counts.probes as f64),
            "us",
        ),
        (
            "zone.pairs_per_comparison".into(),
            ratio(counts.pairs as f64, counts.comparisons as f64),
            "ratio",
        ),
        ("match.pairs".into(), mean(&match_rows), "count"),
        (
            "storage.cover_mask_ms".into(),
            mean(&per_request_ms(replayed, "storage.cover_mask")),
            "ms",
        ),
        (
            "compile.predicate_ms".into(),
            mean(&per_request_ms(replayed, "compile.predicate")),
            "ms",
        ),
        (
            "compile.projection_ms".into(),
            mean(&per_request_ms(replayed, "compile.projection")),
            "ms",
        ),
    ];
    let own = trace::self_ns_by_name(live);
    let ops = records.len().max(1) as f64;
    for name in SELF_SPANS {
        let self_ns = own.get(name).copied().unwrap_or(0);
        m.push((format!("self.{name}_ms"), self_ns as f64 / 1e6 / ops, "ms"));
    }
    m
}
