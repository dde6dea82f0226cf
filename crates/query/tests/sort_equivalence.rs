//! ORDER BY equivalence: the columnar sort (key-lane runs sorted inside
//! the scan workers, top-k for `ORDER BY ... LIMIT k`, runs merged on the
//! consumer) against the row-interpreted oracle (`ExecMode::Interpreted`),
//! at 1, 2, 4 and 8 workers.
//!
//! Rows with equal keys come back in no set order, so a sorted result is
//! checked as: the key sequence, bit for bit; the row multiset; and,
//! under LIMIT, the key prefix of the oracle's unlimited result (plus
//! every returned row being one of the oracle's rows).

use sdss_catalog::SkyModel;
use sdss_query::{AdmissionConfig, Archive, ArchiveConfig, ExecMode, QueryOutput, Session, Value};
use sdss_storage::{ObjectStore, StoreConfig, TagStore};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn build_stores(seed: u64, n_galaxies: usize) -> (Arc<ObjectStore>, Arc<TagStore>) {
    let model = SkyModel {
        n_galaxies,
        n_stars: n_galaxies / 3,
        n_quasars: n_galaxies / 12,
        ..SkyModel::small(seed)
    };
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&model.generate().unwrap()).unwrap();
    let tags = TagStore::from_store(&store);
    (Arc::new(store), Arc::new(tags))
}

/// A session on an archive granting `workers` scan workers per query,
/// holding the stored sets the queries read: `cand` (a plain cut) and
/// `mix` (a set-operation result).
fn session(
    store: &Arc<ObjectStore>,
    tags: &Arc<TagStore>,
    workers: usize,
    mode: ExecMode,
) -> Session {
    let archive = Archive::with_config(
        store.clone(),
        Some(tags.clone()),
        ArchiveConfig {
            mode,
            admission: AdmissionConfig {
                max_worker_slots: 16,
                heavy_bytes: u64::MAX,
                max_heavy: 1,
                max_workers_per_query: workers,
                max_bypass: 4,
            },
            ..ArchiveConfig::default()
        },
    );
    let s = archive.session();
    s.run("SELECT objid INTO cand FROM photoobj WHERE r < 21.5")
        .unwrap();
    s.run(
        "(SELECT objid FROM photoobj WHERE r < 20.5) UNION \
         (SELECT objid FROM photoobj WHERE class = 'QSO') INTO mix",
    )
    .unwrap();
    s
}

/// A key as compared across paths: numbers by their bits, so NaN, -0.0
/// and ±inf must match exactly.
fn key_repr(v: &Value) -> String {
    match v {
        Value::Num(x) => format!("n{:016x}", x.to_bits()),
        other => format!("{other:?}"),
    }
}

/// The oracle's own order, checked independently of the engine: numbers
/// by `total_cmp`, ids exactly, strings lexically.
fn key_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.total_cmp(y),
        (Value::Id(x), Value::Id(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => panic!("mixed key kinds {a:?} / {b:?}"),
    }
}

fn row_repr(row: &[Value]) -> String {
    row.iter().map(key_repr).collect::<Vec<_>>().join("|")
}

fn multiset(out: &QueryOutput) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for row in &out.rows {
        *m.entry(row_repr(row)).or_insert(0) += 1;
    }
    m
}

fn keys(out: &QueryOutput, key: usize) -> Vec<String> {
    out.rows.iter().map(|r| key_repr(&r[key])).collect()
}

/// Tiny deterministic generator for the randomized query parameters.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() as f64 / (1u64 << 53) as f64)
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.next() as usize % xs.len()]
    }
}

/// One sorted query: the statement without its LIMIT, the key's output
/// column, the direction and the LIMIT.
struct SortCase {
    base: String,
    key: usize,
    desc: bool,
    limit: Option<usize>,
}

impl SortCase {
    fn sql(&self, limit: Option<usize>) -> String {
        match limit {
            Some(k) => format!("{} LIMIT {k}", self.base),
            None => self.base.clone(),
        }
    }
}

/// Run `case` on the oracle and on every worker count, checking the
/// sorted-result contract. `columnar`: the case must run on the compiled
/// path (so the worker-side sort is what is under test).
fn check(case: &SortCase, oracle: &Session, under_test: &[(usize, Session)], columnar: bool) {
    let full = oracle.run(&case.sql(None)).unwrap();
    // The oracle itself is sorted.
    for w in full.rows.windows(2) {
        let ord = key_cmp(&w[0][case.key], &w[1][case.key]);
        let ord = if case.desc { ord.reverse() } else { ord };
        assert_ne!(ord, Ordering::Greater, "oracle out of order: {}", case.base);
    }
    let want = match case.limit {
        Some(k) => oracle.run(&case.sql(Some(k))).unwrap(),
        None => full.clone(),
    };
    let n = case
        .limit
        .map_or(full.rows.len(), |k| k.min(full.rows.len()));
    assert_eq!(want.rows.len(), n, "oracle LIMIT: {}", case.base);
    let full_keys = keys(&full, case.key);
    let full_rows = multiset(&full);
    for (workers, s) in under_test {
        let sql = case.sql(case.limit);
        let got = s.run(&sql).unwrap();
        let ctx = format!("{workers} workers: {sql}");
        if columnar {
            assert!(got.stats.columnar, "not columnar: {ctx}");
        }
        assert!(got.stats.workers_used <= got.stats.workers_granted, "{ctx}");
        // The key sequence, bit for bit, is the oracle's prefix.
        assert_eq!(keys(&got, case.key), full_keys[..n], "keys: {ctx}");
        assert_eq!(keys(&got, case.key), keys(&want, case.key), "keys: {ctx}");
        if case.limit.is_none() {
            assert_eq!(multiset(&got), full_rows, "rows: {ctx}");
        } else {
            // Ties at the cut may pick other rows, never foreign ones.
            for (row, count) in multiset(&got) {
                assert!(
                    full_rows.get(&row).is_some_and(|&c| c >= count),
                    "row {row} not in the oracle result: {ctx}"
                );
            }
        }
    }
}

/// The projected columns every tag, sweep and stored-set case selects:
/// plain lanes plus computed keys that give ±inf (`x / 0`), ±0.0
/// (`0 * x`), NaN (`SQRT` of a negative) and NaN beside finite values of
/// both signs.
const TAG_COLUMNS: &str = "objid, r, class, (gr - 0.3) / (r - r) AS inf, \
     (r - r) * (gr - 0.3) AS zero, SQRT(r - 21) AS nan, SQRT(r - 21) - gr AS mixed";
const TAG_KEYS: [&str; 7] = ["objid", "r", "class", "inf", "zero", "nan", "mixed"];
const LIMITS: [Option<usize>; 7] = [
    None,
    None,
    Some(0),
    Some(1),
    Some(10),
    Some(400),
    Some(1_000_000),
];

#[test]
fn columnar_sort_matches_the_interpreter_at_every_worker_count() {
    let (store, tags) = build_stores(71, 4000);
    assert!(tags.num_containers() >= 8, "need several containers");
    let oracle = session(&store, &tags, 1, ExecMode::Interpreted);
    let under_test: Vec<(usize, Session)> = WORKERS
        .iter()
        .map(|&w| (w, session(&store, &tags, w, ExecMode::Auto)))
        .collect();

    let mut rng = Lcg(0x50f7_5eed);
    for round in 0..10 {
        let cut = rng.f64(19.0, 23.5);
        let (ra, dec, radius) = (
            rng.f64(182.0, 188.0),
            rng.f64(12.0, 18.0),
            rng.f64(0.5, 3.0),
        );
        let color = rng.f64(-0.2, 0.8);
        let sources = [
            format!("FROM photoobj WHERE CIRCLE({ra:.3}, {dec:.3}, {radius:.3}) AND r < {cut:.3}"),
            format!("FROM photoobj WHERE r < {cut:.3}"),
            format!("FROM cand WHERE gr > {color:.3}"),
            "FROM mix".to_string(),
        ];
        for from in &sources {
            let key = rng.next() as usize % TAG_KEYS.len();
            let desc = rng.next() % 2 == 1;
            let limit = *rng.pick(&LIMITS);
            let dir = if desc { " DESC" } else { "" };
            let case = SortCase {
                base: format!(
                    "SELECT {TAG_COLUMNS} {from} ORDER BY {}{dir}",
                    TAG_KEYS[key]
                ),
                key,
                desc,
                limit,
            };
            check(&case, &oracle, &under_test, true);
        }

        // The full store stays row-interpreted (psf_r is not a tag
        // attribute): the row sort on the same keys.
        let full_keys = ["objid", "r", "psf_r", "nan", "class"];
        let key = round % full_keys.len();
        let case = SortCase {
            base: format!(
                "SELECT objid, r, psf_r, SQRT(r - 21) AS nan, class FROM photoobj \
                 WHERE r < {cut:.3} ORDER BY {}{}",
                full_keys[key],
                if round % 2 == 0 { " DESC" } else { "" }
            ),
            key,
            desc: round % 2 == 0,
            limit: *rng.pick(&LIMITS),
        };
        check(&case, &oracle, &under_test, false);

        // A MATCH child: ordered pairs tie on sep_arcsec in twos.
        let case = SortCase {
            base: format!(
                "SELECT a.objid, b.objid, sep_arcsec FROM MATCH(cand, cand, 60) ORDER BY sep_arcsec{}",
                if round % 2 == 1 { " DESC" } else { "" }
            ),
            key: 2,
            desc: round % 2 == 1,
            limit: *rng.pick(&LIMITS),
        };
        check(&case, &oracle, &under_test, false);

        // Sorted branches under a set operation: the left side's order
        // survives EXCEPT and INTERSECT (objid is unique, so even the
        // limited branch is the same set of rows on every path).
        let k = rng.next() as usize % 300;
        let op = rng.pick(&["EXCEPT", "INTERSECT"]);
        let case = SortCase {
            base: format!(
                "(SELECT objid, r FROM photoobj WHERE r < {cut:.3} ORDER BY objid DESC LIMIT {k}) \
                 {op} (SELECT objid, r FROM photoobj WHERE class = 'GALAXY')"
            ),
            key: 0,
            desc: true,
            limit: None,
        };
        check(&case, &oracle, &under_test, true);
    }
}

#[test]
fn sort_edge_cases() {
    let (store, tags) = build_stores(72, 3000);
    let oracle = session(&store, &tags, 1, ExecMode::Interpreted);
    let under_test: Vec<(usize, Session)> = WORKERS
        .iter()
        .map(|&w| (w, session(&store, &tags, w, ExecMode::Auto)))
        .collect();
    let case = |sql: &str, key: usize, desc: bool, limit: Option<usize>| SortCase {
        base: sql.to_string(),
        key,
        desc,
        limit,
    };

    // Object ids sit above 2^53: neighbours that one f64 cannot tell
    // apart must still come back in exact id order.
    let ids = under_test[3]
        .1
        .run("SELECT objid, r FROM photoobj ORDER BY objid")
        .unwrap();
    assert!(ids.rows.len() > 1000);
    let ids: Vec<u64> = ids.rows.iter().map(|r| r[0].as_id().unwrap()).collect();
    assert!(ids[0] > 1 << 53, "ids must exceed f64's mantissa");
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids out of exact order"
    );
    assert!(
        ids.windows(2).any(|w| w[0] as f64 == w[1] as f64),
        "the sky must hold ids one f64 cannot tell apart"
    );
    for limit in [None, Some(7)] {
        for desc in [false, true] {
            let dir = if desc { "DESC" } else { "ASC" };
            let sql = format!("SELECT objid, r FROM photoobj ORDER BY objid {dir}");
            check(&case(&sql, 0, desc, limit), &oracle, &under_test, true);
        }
    }

    // Computed keys: ±inf, ±0.0 and NaN each sort by total order.
    let computed = "(gr - 0.3) / (r - r) AS inf, (r - r) * (gr - 0.3) AS zero, \
         SQRT(r - 21) AS nan, SQRT(r - 21) - gr AS mixed";
    for (key, col) in ["inf", "zero", "nan", "mixed"].iter().enumerate() {
        let sql = format!("SELECT {computed}, objid FROM photoobj WHERE r < 23 ORDER BY {col}");
        check(&case(&sql, key, false, None), &oracle, &under_test, true);
        check(
            &case(&sql, key, false, Some(25)),
            &oracle,
            &under_test,
            true,
        );
    }
    let mixed = oracle
        .run(&format!("SELECT {computed} FROM photoobj"))
        .unwrap();
    let has = |col: usize, f: &dyn Fn(f64) -> bool| {
        mixed.rows.iter().any(|r| f(r[col].as_num().unwrap()))
    };
    assert!(has(0, &|x| x == f64::INFINITY) && has(0, &|x| x == f64::NEG_INFINITY));
    assert!(has(1, &|x| x == 0.0 && x.is_sign_negative()));
    assert!(has(1, &|x| x == 0.0 && x.is_sign_positive()));
    assert!(has(2, &f64::is_nan) && has(2, &|x| !x.is_nan()));
    assert!(has(3, &f64::is_nan) && has(3, &|x| x < 0.0) && has(3, &|x| x > 0.0));

    // ORDER BY class sorts by the class name.
    for desc in [false, true] {
        let dir = if desc { "DESC" } else { "" };
        let sql = format!("SELECT class, objid FROM photoobj WHERE r < 22 ORDER BY class {dir}");
        check(&case(&sql, 0, desc, None), &oracle, &under_test, true);
        check(&case(&sql, 0, desc, Some(50)), &oracle, &under_test, true);
    }

    // LIMIT 0, a limit above the result size, a limit above any one
    // worker's share (a cone with few rows over several workers).
    let cone = "SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15, 2) AND r < 22 ORDER BY r";
    let n = oracle.run(cone).unwrap().rows.len();
    assert!(n > 20, "cone too small: {n}");
    for limit in [Some(0), Some(n / 2 + 1), Some(n), Some(n + 10)] {
        check(&case(cone, 1, false, limit), &oracle, &under_test, true);
    }

    // An empty result, limited or not.
    let empty = "SELECT objid, r FROM photoobj WHERE r < -5 ORDER BY r DESC";
    for limit in [None, Some(0), Some(5)] {
        check(&case(empty, 1, true, limit), &oracle, &under_test, true);
    }
    assert!(oracle.run(empty).unwrap().rows.is_empty());
}
