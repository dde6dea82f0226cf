//! The archive benchmark: per-query-class latency on the `interactive`,
//! `sweep` and `session` workloads, with per-layer time measured from
//! outside the engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload interactive --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run generates a seeded sky, loads it through the public
//! `catalog`/`storage` API (several times, reporting the median set-up
//! time), drives the workload's closed-loop clients against a
//! default-config `Archive`, checks sampled outputs against a
//! brute-force oracle, and prints a human report on stderr and one JSON
//! object as the last line of stdout. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs an untraced half and a traced
//! half, replays sampled ops serially, and reports the per-layer
//! metrics, span self times and the tracing overhead. The spans are
//! written to `.perfbench/trace-<workload>-seed<seed>.jsonl`.

mod clients;
mod layers;
mod oracle;
mod replay;
mod rng;
mod spec;
mod stats;
mod trace;
mod workload;

use clients::{run_phase, Client, ClientRun, Phase};
use oracle::Oracle;
use sdss_query::Archive;
use sdss_storage::{ObjectStore, StoreConfig, TagStore};
use spec::Class;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Inputs, Workload};

/// Objects in the generated sky.
const OBJECTS: usize = 200_000;
/// HTM level of the storage containers.
const CONTAINER_LEVEL: u8 = 6;
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Untimed rounds before measuring, so caches fill and lazy set-up ends.
const WARMUP_SECONDS: f64 = 1.5;
/// Ops of each class per client whose outputs the oracle checks.
const CHECKS_PER_CLASS: usize = 2;
/// Ops of each class per client replayed serially in a traced run.
const REPLAYS_PER_CLASS: usize = 4;
/// Failure messages printed in the report.
const SHOWN_FAILURES: usize = 6;
/// Equal time windows of a measured phase; `qps`, `rows_per_s` and
/// `latency_tail_ms` are medians over them (see `stats::windowed`).
const WINDOWS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The loaded archive, its oracle, and what loading it cost.
pub struct Setup {
    archive: Archive,
    oracle: Oracle,
    /// Median over the repetitions, seconds.
    setup_s: f64,
    gen_s: f64,
    load_s: f64,
    tag_build_s: f64,
    full_bytes: usize,
    tag_bytes: usize,
    containers: usize,
    /// Peak resident set through set-up, MB.
    peak_rss_mb: f64,
}

/// Generate, load and index the sky `SETUP_REPS` times; keep the last.
fn setup(seed: u64) -> Result<Setup, String> {
    let (mut total, mut gen, mut load, mut tag) = (vec![], vec![], vec![], vec![]);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let objs = sdss_bench::standard_sky(OBJECTS, seed);
        let t_gen = t0.elapsed();
        let mut store = ObjectStore::new(StoreConfig {
            container_level: CONTAINER_LEVEL,
            ..StoreConfig::default()
        })
        .map_err(|e| e.to_string())?;
        store.insert_batch(&objs).map_err(|e| e.to_string())?;
        let t_load = t0.elapsed();
        let tags = TagStore::from_store(&store);
        let t_tag = t0.elapsed();
        let (full_bytes, tag_bytes, containers) =
            (store.bytes(), tags.bytes(), tags.num_containers());
        let archive = Archive::new(store, Some(Arc::new(tags)));
        total.push(t0.elapsed().as_secs_f64());
        gen.push(t_gen.as_secs_f64());
        load.push((t_load - t_gen).as_secs_f64());
        tag.push((t_tag - t_load).as_secs_f64());
        kept = Some((archive, objs, full_bytes, tag_bytes, containers));
    }
    let (archive, objs, full_bytes, tag_bytes, containers) = kept.ok_or("no set-up ran")?;
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let oracle = Oracle::new(&objs);
    drop(objs);
    Ok(Setup {
        peak_rss_mb: peak_rss_mb()?,
        oracle,
        archive,
        setup_s: med(&total),
        gen_s: med(&gen),
        load_s: med(&load),
        tag_build_s: med(&tag),
        full_bytes,
        tag_bytes,
        containers,
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Keep freed query memory in the process heap from here on, as a
/// long-running archive server's heap stays warm. With glibc's default
/// trim and mmap thresholds, the freed result rows and sort buffers of
/// every whole-archive op went back to the kernel and were faulted in
/// again by the next (about 40 000 page faults a second on `sweep`),
/// and the page-fault time swung far more between runs than the query
/// work did. Set-up keeps the defaults, so `setup_s` and `peak_rss_mb`
/// are unchanged.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap_warm() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only changes allocator tunables; glibc takes its
    // arena locks, so calling it while other threads allocate is sound.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        // glibc's largest accepted mmap threshold (HEAP_MAX_SIZE / 2).
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap_warm() {}

/// A metric value with its unit, in output order.
pub type Metrics = Vec<(String, f64, &'static str)>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The end-to-end numbers of one phase.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub ops: usize,
    pub qps: f64,
    pub tail_percentile: f64,
    pub latency_tail_ms: f64,
    pub latency_p50_ms: f64,
    pub first_row_p50_ms: f64,
    pub rows_per_s: f64,
    /// Per class: ops, then p10, p50 and p90 latency (ms).
    pub class_ms: BTreeMap<Class, (usize, f64, f64, f64)>,
    pub scenario_p50_ms: f64,
    pub rounds: usize,
    /// Ops per second of each window.
    pub window_qps: Vec<f64>,
}

impl EndToEnd {
    fn from_runs(runs: &[ClientRun], start: Instant, wall: Duration) -> Result<EndToEnd, String> {
        let records = || runs.iter().flat_map(|r| &r.records);
        let lat: Vec<f64> = records().map(|r| ms(r.latency)).collect();
        let first: Vec<f64> = records().filter_map(|r| r.first_row.map(ms)).collect();
        let rounds: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.rounds.iter().map(|d| ms(*d)))
            .collect();
        let timed: Vec<(f64, f64, usize)> = records()
            .map(|r| {
                let at = r.done.saturating_duration_since(start).as_secs_f64();
                (at, ms(r.latency), r.rows)
            })
            .collect();
        let windowed =
            stats::windowed(&timed, wall.as_secs_f64(), WINDOWS).ok_or("no ops completed")?;
        let mut class_ms = BTreeMap::new();
        for class in Class::ALL {
            let v: Vec<f64> = records()
                .filter(|r| r.class == class)
                .map(|r| ms(r.latency))
                .collect();
            let p50 = stats::median(&v).ok_or(format!("no {} ops completed", class.name()))?;
            let p = |q| stats::percentile(&v, q).unwrap_or(p50);
            class_ms.insert(class, (v.len(), p(10.0), p50, p(90.0)));
        }
        Ok(EndToEnd {
            ops: lat.len(),
            qps: windowed.ops_per_s,
            tail_percentile: windowed.tail_percentile,
            latency_tail_ms: windowed.tail,
            latency_p50_ms: stats::median(&lat).ok_or("no ops completed")?,
            first_row_p50_ms: stats::median(&first).ok_or("no op returned a row")?,
            rows_per_s: windowed.rows_per_s,
            class_ms,
            scenario_p50_ms: stats::median(&rounds).ok_or("no round completed")?,
            rounds: rounds.len(),
            window_qps: windowed.each_ops_per_s,
        })
    }

    fn metrics(&self, setup_s: f64, peak_rss_mb: f64) -> Metrics {
        let mut m: Metrics = vec![
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mb".into(), peak_rss_mb, "MB"),
            ("qps".into(), self.qps, "1/s"),
            ("latency_tail_ms".into(), self.latency_tail_ms, "ms"),
            ("first_row_p50_ms".into(), self.first_row_p50_ms, "ms"),
            ("rows_per_s".into(), self.rows_per_s, "rows/s"),
        ];
        for (class, (_, _, p50, _)) in &self.class_ms {
            if *class != Class::Drop {
                m.push((format!("{}_p50_ms", class.name()), *p50, "ms"));
            }
        }
        m.push(("scenario_p50_ms".into(), self.scenario_p50_ms, "ms"));
        m
    }
}

/// Check every kept sample; returns (checked, failure messages).
fn check_samples(oracle: &Oracle, runs: &[ClientRun]) -> (usize, Vec<String>) {
    let mut failures = Vec::new();
    let mut checked = 0;
    for s in runs.iter().flat_map(|r| &r.samples) {
        checked += 1;
        if let Err(e) = oracle.check(&s.op.query, &s.observed) {
            failures.push(format!(
                "{} ({}): {e}",
                s.op.class.name(),
                s.op.query.sql().unwrap_or_default()
            ));
        }
    }
    (checked, failures)
}

fn errors(runs: &[ClientRun]) -> Vec<String> {
    runs.iter()
        .flat_map(|r| &r.records)
        .filter_map(|r| {
            r.error
                .as_ref()
                .map(|e| format!("{} error: {e}", r.class.name()))
        })
        .collect()
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn report_e2e(e: &EndToEnd, label: &str) {
    eprintln!(
        "{label}: {} ops in {} rounds, qps {:.1}, p50 {:.3} ms, tail p{:.3} {:.3} ms, first row p50 {:.3} ms, {:.0} rows/s, scenario p50 {:.3} ms",
        e.ops, e.rounds, e.qps, e.latency_p50_ms, e.tail_percentile, e.latency_tail_ms,
        e.first_row_p50_ms, e.rows_per_s, e.scenario_p50_ms
    );
    let window_qps: Vec<String> = e.window_qps.iter().map(|q| format!("{q:.1}")).collect();
    eprintln!(
        "  qps, rows/s and tail are medians over {} windows; qps per window: {}",
        e.window_qps.len(),
        window_qps.join(" ")
    );
    for (class, (n, p10, p50, p90)) in &e.class_ms {
        eprintln!(
            "  {:<8} n={n:<6} p10 {p10:.3}  p50 {p50:.3}  p90 {p90:.3} ms",
            class.name()
        );
    }
}

fn run(args: &Args) -> Result<(bool, usize, usize, Metrics), String> {
    let w = args.workload;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} objects {OBJECTS} cores {cores}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let setup = setup(args.seed)?;
    eprintln!(
        "setup: median {:.3} s of {SETUP_REPS} (gen {:.3} s, load {:.3} s, tag build {:.3} s); full store {} B, tag store {} B, {} containers; peak RSS {:.1} MB",
        setup.setup_s, setup.gen_s, setup.load_s, setup.tag_build_s, setup.full_bytes,
        setup.tag_bytes, setup.containers, setup.peak_rss_mb
    );
    keep_heap_warm();
    let inputs = Inputs::new(args.seed, setup.oracle.r_mags());
    if w == Workload::Interactive {
        eprintln!(
            "interactive: {} distinct cones against a 128-entry cover cache",
            inputs.distinct_interactive_cones()
        );
    }
    let epoch = Instant::now();
    let mut clients: Vec<Client<'_>> = (0..w.clients())
        .map(|i| Client::new(i, &setup.archive, w, args.seed, &inputs))
        .collect();
    let warmup = Phase {
        seconds: WARMUP_SECONDS,
        trace: false,
        check_per_class: 0,
        replay_per_class: 0,
    };
    let (warm, _, _) = run_phase(&mut clients, &warmup, epoch);
    let mut failures = errors(&warm);
    let measured = Phase {
        seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        trace: false,
        check_per_class: CHECKS_PER_CLASS,
        replay_per_class: 0,
    };
    let (base, base_start, base_wall) = run_phase(&mut clients, &measured, epoch);
    let base_e2e = EndToEnd::from_runs(&base, base_start, base_wall)?;
    report_e2e(
        &base_e2e,
        if args.trace {
            "untraced half"
        } else {
            "measured"
        },
    );
    let sets: Vec<f64> = base
        .iter()
        .flat_map(|r| &r.records)
        .filter_map(|r| r.set_size.map(|(rows, _)| rows as f64))
        .collect();
    eprintln!(
        "sets: {} INTO ops, median {:.0} rows",
        sets.len(),
        stats::median(&sets).unwrap_or(0.0)
    );
    let mut attempted: usize = warm.iter().chain(&base).map(|r| r.records.len()).sum();
    failures.extend(errors(&base));
    let (mut checked, checks_failed) = check_samples(&setup.oracle, &base);
    failures.extend(checks_failed);

    let metrics = if args.trace {
        let layers = layers::traced_half(&setup, &mut clients, args, epoch, &base_e2e)?;
        attempted += layers.attempted;
        checked += layers.checked;
        failures.extend(layers.failures);
        layers.metrics
    } else {
        base_e2e.metrics(setup.setup_s, setup.peak_rss_mb)
    };
    let growth = peak_rss_mb()? - setup.peak_rss_mb;
    eprintln!(
        "peak RSS grew {growth:.1} MB after set-up (allocator arenas retain freed query memory)"
    );
    let failed = failures.len();
    eprintln!(
        "ops: {attempted} attempted, {failed} failed ({checked} outputs checked by the oracle)"
    );
    for f in failures.iter().take(SHOWN_FAILURES) {
        eprintln!("  FAILED {f}");
    }
    Ok((failed == 0, attempted, failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload interactive|sweep|session --seed N --seconds S [--trace 0|1]");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            for (name, v, unit) in &metrics {
                eprintln!("  {name:<34} {v:>16.6} {unit}");
            }
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
                json_metrics(&metrics)
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
