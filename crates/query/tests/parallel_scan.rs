//! Integration tests for the morsel-driven parallel scan path:
//! parallel-vs-serial equivalence under randomized predicates, in-scan
//! aggregate folding, worker cancellation, and worker-thread admission
//! accounting.
//!
//! Queries without ORDER BY have an unspecified row order, so results
//! compare as multisets (canonical row keys).

use sdss_catalog::SkyModel;
use sdss_query::{
    AdmissionConfig, Archive, ArchiveConfig, QueryError, QueryOutput, SessionConfig, Value,
};
use sdss_storage::{ObjectStore, StoreConfig, TagStore};
use std::collections::HashSet;
use std::sync::Arc;

fn build_stores(seed: u64, n_galaxies: usize) -> (Arc<ObjectStore>, Arc<TagStore>) {
    let model = SkyModel {
        n_galaxies,
        n_stars: n_galaxies / 3,
        n_quasars: n_galaxies / 12,
        ..SkyModel::small(seed)
    };
    let objs = model.generate().unwrap();
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&objs).unwrap();
    let tags = TagStore::from_store(&store);
    (Arc::new(store), Arc::new(tags))
}

/// An archive capped at `workers` scan workers per query (slot pool wide
/// enough that admission never throttles the test).
fn archive_with_workers(store: &Arc<ObjectStore>, tags: &Arc<TagStore>, workers: usize) -> Archive {
    Archive::with_config(
        store.clone(),
        Some(tags.clone()),
        ArchiveConfig {
            admission: AdmissionConfig {
                max_worker_slots: 16,
                heavy_bytes: u64::MAX,
                max_heavy: 1,
                max_workers_per_query: workers,
                max_bypass: 4,
            },
            ..ArchiveConfig::default()
        },
    )
}

/// A row's leading `objid`.
fn id(row: &[Value]) -> u64 {
    row[0].as_id().unwrap()
}

/// Canonical row-key form for order-insensitive result comparison.
fn keyed(out: &QueryOutput) -> Vec<String> {
    let mut keys: Vec<String> = out
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Num(x) => format!("{:?}", x.to_bits()),
                    other => format!("{other}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    keys.sort();
    keys
}

/// Tiny deterministic generator for randomized predicate parameters.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (hi - lo) * ((self.0 >> 11) as f64 / (1u64 << 53) as f64)
    }
}

#[test]
fn parallel_matches_serial_on_randomized_predicates() {
    let (store, tags) = build_stores(41, 4000);
    assert!(tags.num_containers() >= 4, "need several containers");
    let serial = archive_with_workers(&store, &tags, 1);
    let parallel = archive_with_workers(&store, &tags, 4);
    // The result contract at other grants too: 2 and 8 workers return
    // the serial multiset (8 exceeds this host's cores on small boxes —
    // oversubscription must not change results either).
    let others = [2usize, 8].map(|w| archive_with_workers(&store, &tags, w));

    let mut rng = Lcg(0x5eed_cafe);
    let mut sweeps = Vec::new();
    for _ in 0..6 {
        let r_cut = rng.next_f64(18.0, 23.5);
        let color = rng.next_f64(-0.2, 0.8);
        sweeps.push(format!(
            "SELECT objid, ra, dec, r FROM photoobj WHERE r < {r_cut:.4}"
        ));
        sweeps.push(format!(
            "SELECT objid, gr FROM photoobj WHERE gr > {color:.4} AND r < {r_cut:.4}"
        ));
    }
    for _ in 0..4 {
        let ra = rng.next_f64(182.0, 188.0);
        let dec = rng.next_f64(12.0, 18.0);
        let radius = rng.next_f64(0.5, 3.0);
        let r_cut = rng.next_f64(19.0, 23.0);
        sweeps.push(format!(
            "SELECT objid, r, class FROM photoobj WHERE CIRCLE({ra:.3}, {dec:.3}, {radius:.3}) AND r < {r_cut:.3}"
        ));
    }
    sweeps.push("SELECT objid, class FROM photoobj WHERE class = 'GALAXY'".to_string());
    sweeps.push(
        "(SELECT objid FROM photoobj WHERE r < 21) INTERSECT \
         (SELECT objid FROM photoobj WHERE class = 'GALAXY')"
            .to_string(),
    );

    for sql in &sweeps {
        let a = serial.run(sql).unwrap();
        let b = parallel.run(sql).unwrap();
        assert_eq!(keyed(&a), keyed(&b), "parallel diverged on: {sql}");
        for other in &others {
            let c = other.run(sql).unwrap();
            assert_eq!(
                keyed(&a),
                keyed(&c),
                "{} workers diverged on: {sql}",
                c.stats.workers_granted
            );
        }
        // Per-worker byte accounting adds up to the scan total on the
        // morsel path (single-leaf queries only; set ops have two scans
        // whose workers all register on one ticket).
        assert_eq!(
            b.stats.worker_bytes.iter().sum::<u64>(),
            b.stats.scan.bytes_scanned,
            "worker bytes don't add up for: {sql}"
        );
    }

    // A full sweep engages the pool: multiple workers, morsels claimed.
    let sweep = parallel
        .run("SELECT objid, ra, dec, r FROM photoobj WHERE r < 30")
        .unwrap();
    assert!(sweep.stats.columnar);
    assert_eq!(sweep.stats.workers_granted, 4);
    assert!(
        sweep.stats.workers_used > 1,
        "pool never engaged: {} workers",
        sweep.stats.workers_used
    );
    assert_eq!(sweep.stats.morsels, tags.num_containers() as u64);

    // The serial archive really is serial.
    let one = serial
        .run("SELECT objid FROM photoobj WHERE r < 30")
        .unwrap();
    assert_eq!(one.stats.workers_granted, 1);
    assert_eq!(one.stats.workers_used, 1);
}

#[test]
fn sorted_limit_is_stable_across_worker_counts() {
    let (store, tags) = build_stores(42, 2500);
    let serial = archive_with_workers(&store, &tags, 1);
    let parallel = archive_with_workers(&store, &tags, 8);
    // objid is unique, so ORDER BY objid LIMIT N is deterministic even
    // though parallel workers emit batches in nondeterministic order.
    let sql = "SELECT objid, r FROM photoobj WHERE r < 22 ORDER BY objid LIMIT 50";
    let a = serial.run(sql).unwrap();
    let b = parallel.run(sql).unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn limit_inside_a_set_op_branch_cuts_only_that_branch() {
    let (store, tags) = build_stores(47, 12000);
    // Disjoint cuts: the UNION is exactly k limited rows plus every row
    // of the other branch, whichever side the LIMIT sits on. A satisfied
    // LIMIT releases its own subtree; it must not cancel the query, or
    // the other branch would come back truncated.
    let k = 7;
    let limited = "SELECT objid, r FROM photoobj WHERE r < 21";
    let other = "SELECT objid, r FROM photoobj WHERE r >= 21";
    for workers in [1, 4] {
        let archive = archive_with_workers(&store, &tags, workers);
        let limited_out = archive.run(limited).unwrap();
        let limited_ids: HashSet<u64> = limited_out.rows.iter().map(|row| id(row)).collect();
        let other_all = archive.run(other).unwrap();
        assert!(limited_ids.len() > k, "the limit must cut");
        for sql in [
            format!("({limited} LIMIT {k}) UNION ({other})"),
            format!("({other}) UNION ({limited} LIMIT {k})"),
        ] {
            let out = archive.run(&sql).unwrap();
            let (from_limited, rest): (Vec<_>, Vec<_>) = out
                .rows
                .into_iter()
                .partition(|row| limited_ids.contains(&id(row)));
            assert_eq!(from_limited.len(), k, "{workers} workers: {sql}");
            let rest = QueryOutput {
                rows: rest,
                ..other_all.clone()
            };
            assert_eq!(keyed(&rest), keyed(&other_all), "{workers} workers: {sql}");
        }
    }
}

#[test]
fn aggregates_fold_in_scan_and_match_channel_path() {
    let (store, tags) = build_stores(43, 3000);
    let serial = archive_with_workers(&store, &tags, 1);
    let parallel = archive_with_workers(&store, &tags, 4);

    let mut rng = Lcg(0xa66_f01d);
    for _ in 0..5 {
        let color = rng.next_f64(-0.1, 0.6);
        let sql = format!(
            "SELECT COUNT(*), AVG(r), MIN(r), MAX(r), SUM(g) FROM photoobj WHERE gr > {color:.4}"
        );
        let a = serial.run(&sql).unwrap();
        let b = parallel.run(&sql).unwrap();
        let (ra, rb) = (&a.rows[0], &b.rows[0]);
        // COUNT/MIN/MAX are exact regardless of fold order.
        assert_eq!(ra[0], rb[0], "COUNT: {sql}");
        assert_eq!(ra[2], rb[2], "MIN: {sql}");
        assert_eq!(ra[3], rb[3], "MAX: {sql}");
        // SUM/AVG may differ by float re-association across workers.
        for idx in [1usize, 4] {
            let (x, y) = (ra[idx].as_num().unwrap(), rb[idx].as_num().unwrap());
            assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                "agg {idx} diverged on {sql}: {x} vs {y}"
            );
        }
        // The fused path ships exactly one batch (the result row): no
        // `__agg_i` columns ever crossed the channel fabric.
        assert_eq!(b.stats.batches, 1, "{sql}");
        assert!(b.stats.workers_used > 1, "{sql}");
        assert!(b.stats.morsels > 0, "{sql}");
        // Folded rows are still accounted as scanned rows.
        assert_eq!(
            b.stats.scan.rows_scanned, a.stats.scan.rows_scanned,
            "{sql}"
        );
    }

    // Empty-selection aggregates keep their NULL/0 semantics.
    let empty = parallel
        .run("SELECT COUNT(*), AVG(r), MIN(r) FROM photoobj WHERE r < -5")
        .unwrap();
    assert_eq!(empty.rows[0][0], Value::Num(0.0));
    assert_eq!(empty.rows[0][1], Value::Null);
    assert_eq!(empty.rows[0][2], Value::Null);
}

#[test]
fn cancellation_stops_every_worker() {
    let (store, tags) = build_stores(44, 9000);
    let parallel = archive_with_workers(&store, &tags, 4);
    let prepared = parallel
        .prepare("SELECT objid, ra, dec, r FROM photoobj")
        .unwrap();
    assert!(prepared.planned_workers() > 1);

    // Baseline: a full drain's scan volume.
    let full = prepared.stream().unwrap().collect_output().unwrap();
    let total_rows = full.stats.scan.rows_scanned;
    assert!(total_rows >= 9000, "sweep too small: {total_rows}");

    // Cancel after the first batch; drain what's buffered.
    let mut stream = prepared.stream().unwrap();
    let ticket = stream.ticket();
    assert!(stream.next_batch().is_some());
    ticket.cancel();
    while stream.next_batch().is_some() {}
    let stats = stream.finish();
    // Every worker observed the cancel and registered its exit — the
    // stream only closes when the last worker drops its channel end, so
    // a full drain with all workers accounted proves they all stopped.
    assert_eq!(stats.workers_used, stats.workers_granted);
    assert!(
        stats.scan.rows_scanned < total_rows / 2,
        "cancelled parallel sweep still scanned {} of {total_rows} rows",
        stats.scan.rows_scanned
    );
    assert!(stats.scan.bytes_scanned < full.stats.scan.bytes_scanned);
    // All slots returned once the stream is gone.
    assert_eq!(parallel.admission().running, 0);
}

#[test]
fn parallel_sweep_holds_one_slot_per_worker() {
    let (store, tags) = build_stores(45, 2500);
    let parallel = archive_with_workers(&store, &tags, 4);
    let prepared = parallel.prepare("SELECT objid, r FROM photoobj").unwrap();
    assert_eq!(prepared.planned_workers(), 4);

    let mut stream = prepared.stream().unwrap();
    assert!(stream.next_batch().is_some());
    // Mid-flight, the execution holds one admission slot per granted
    // worker — the slot-accounting contract documented on the morsel
    // driver (`MorselRun` in sdss_query's exec module).
    assert_eq!(parallel.admission().running, 4);
    while stream.next_batch().is_some() {}
    let stats = stream.finish();
    assert_eq!(stats.workers_granted, 4);
    assert_eq!(parallel.admission().running, 0);
    assert!(parallel.admission().peak_running >= 4);

    // A one-container cone search stays single-worker: parallelism never
    // exceeds the touched-container count.
    let cone = parallel
        .prepare("SELECT objid FROM photoobj WHERE CIRCLE(185, 15, 0.05)")
        .unwrap();
    let touched = cone.estimate().containers_full + cone.estimate().containers_partial;
    assert!(cone.planned_workers() <= touched.max(1));
}

/// Every shape on the one morsel driver — projection scan, in-scan
/// aggregate, the direct INTO path, MATCH pairs and MATCH COUNT —
/// accounts the same way at 1, 2 and 4 workers: one morsel per source
/// container/chunk, never more workers than granted, the same result
/// multiset at every grant, and no admission slot left behind by a
/// cancelled (or quota-aborted) run.
#[test]
fn every_driver_shape_accounts_alike_across_worker_counts() {
    let (store, tags) = build_stores(46, 3000);
    let containers = tags.num_containers() as u64;
    // Per grant: (shape, canonical result) in a fixed shape order.
    let mut per_grant: Vec<Vec<(String, Vec<String>)>> = Vec::new();
    for workers in [1usize, 2, 4] {
        let archive = archive_with_workers(&store, &tags, workers);
        let session = archive.session_with(SessionConfig {
            chunk_rows: 256,
            ..SessionConfig::default()
        });
        // The INTO fast path: the driver at one worker, one slot.
        let into = session
            .run("SELECT objid INTO cand FROM photoobj WHERE r < 22")
            .unwrap();
        assert!(into.stats.columnar, "INTO took the stream-and-fetch route");
        assert_eq!(into.stats.morsels, containers, "INTO at {workers}");
        assert_eq!(into.stats.workers_granted, 1);
        assert_eq!(into.stats.workers_used, 1);
        assert_eq!(archive.admission().running, 0);
        let chunks = session.set_info("cand").unwrap().chunks as u64;
        assert!(chunks > 1, "need a multi-chunk probe side");
        let stored = keyed(&session.run("SELECT objid, r FROM cand").unwrap());
        let mut results = vec![("INTO cand".to_string(), stored)];

        let shapes = [
            ("SELECT objid, r, gr FROM photoobj WHERE r < 23", containers),
            (
                "SELECT COUNT(*), MIN(r), MAX(r) FROM photoobj WHERE gr > 0.2",
                containers,
            ),
            ("SELECT a.objid, b.objid FROM MATCH(cand, cand, 60)", chunks),
            ("SELECT COUNT(*) FROM MATCH(cand, cand, 60)", chunks),
        ];
        for (sql, morsels) in shapes {
            let prepared = session.prepare(sql).unwrap();
            let out = prepared.run().unwrap();
            let s = &out.stats;
            assert_eq!(s.morsels, morsels, "{sql} at {workers} workers");
            // Multi-worker grants engage the pool on every shape.
            let min_used = if workers > 1 { 2 } else { 1 };
            assert!(s.workers_used >= min_used, "{sql} at {workers} workers");
            assert!(
                s.workers_used <= s.workers_granted,
                "{sql}: {} workers ran on {} slots",
                s.workers_used,
                s.workers_granted
            );
            results.push((sql.to_string(), keyed(&out)));

            // Cancelled before the first batch: the run winds down and
            // every slot returns.
            let mut stream = prepared.stream().unwrap();
            stream.ticket().cancel();
            while stream.next_batch().is_some() {}
            let stats = stream.finish();
            assert!(stats.workers_used <= stats.workers_granted, "{sql}");
            assert_eq!(archive.admission().running, 0, "{sql} leaked slots");
        }

        // A quota-aborted INTO fast path returns its slot too.
        let tight = archive.session_with(SessionConfig {
            max_bytes: 4096,
            ..SessionConfig::default()
        });
        let err = tight
            .run("SELECT objid INTO big FROM photoobj WHERE r < 30")
            .unwrap_err();
        assert!(
            matches!(&err, QueryError::Exec(m) if m.contains("quota")),
            "{err:?}"
        );
        assert_eq!(archive.admission().running, 0, "aborted INTO leaked a slot");
        per_grant.push(results);
    }
    for (workers, results) in [2, 4].iter().zip(&per_grant[1..]) {
        for ((shape, want), (_, got)) in per_grant[0].iter().zip(results) {
            assert!(
                want == got,
                "{shape}: {workers} workers diverged from 1 ({} vs {} rows)",
                got.len(),
                want.len()
            );
        }
    }
}
