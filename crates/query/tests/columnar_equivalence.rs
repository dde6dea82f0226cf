//! Property test: the compiled columnar scan path returns *bit-identical*
//! results to the row-at-a-time interpreter over randomized predicates,
//! projections, regions and sampling clauses.
//!
//! A seeded generator (deterministic run to run) draws queries from a
//! grammar covering the tag value domain — attribute/color/derived-
//! position arithmetic, comparisons, BETWEEN, class equality, boolean
//! logic, the special operators (DIST/FRAMELAT/FRAMELON/COLORDIST/ABS/
//! SQRT/LOG10), spatial factors both extracted (CIRCLE conjuncts) and
//! residual (inside OR) — plus NaN-producing shapes (SQRT of negatives,
//! 0/0) whose rows the interpreter drops via comparison errors.
//!
//! None of these queries has an ORDER BY, so their row order is
//! unspecified (parallel scan workers push batches in scheduling order —
//! see the crate docs): results compare as multisets of bit-identical
//! rows. The archives run with the default worker grant, so on a
//! multi-core host the compiled side runs morsel-parallel against the
//! serial interpreter.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sdss_catalog::SkyModel;
use sdss_query::{Archive, ArchiveConfig, ExecMode, Row, Value};
use sdss_storage::{ObjectStore, StoreConfig, TagStore};
use std::sync::Arc;

/// Bitwise value identity: NaN == NaN, -0.0 != +0.0.
fn value_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// The rows in canonical order: sorted by a bit-exact key (`Num` by its
/// bit pattern, so NaN keys equal NaN and -0.0 differs from +0.0 —
/// the same identity `value_identical` checks), making the pairwise
/// comparison below a multiset comparison.
fn canonical(rows: &[Row]) -> Vec<&Row> {
    let mut sorted: Vec<&Row> = rows.iter().collect();
    sorted.sort_by_cached_key(|row| {
        row.iter()
            .map(|v| match v {
                Value::Num(x) => format!("Num({:#018x})", x.to_bits()),
                other => format!("{other:?}"),
            })
            .collect::<Vec<_>>()
    });
    sorted
}

struct QueryGen {
    rng: ChaCha8Rng,
}

impl QueryGen {
    fn new(seed: u64) -> QueryGen {
        QueryGen {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.rng.gen_range(0usize..options.len())]
    }

    fn num_attr(&mut self) -> String {
        self.pick(&[
            "ra", "dec", "cx", "cy", "cz", "u", "g", "r", "i", "z", "ug", "gr", "ri", "iz", "size",
        ])
        .to_string()
    }

    fn literal(&mut self) -> String {
        match self.rng.gen_range(0u8..4) {
            0 => format!("{:.4}", self.rng.gen_range(-2.0f64..2.0)),
            1 => format!("{:.4}", self.rng.gen_range(14.0f64..24.0)),
            2 => format!("{}", self.rng.gen_range(0u8..30)),
            _ => format!("{:.4}", self.rng.gen_range(-200.0f64..400.0)),
        }
    }

    fn num_expr(&mut self, depth: usize) -> String {
        if depth == 0 {
            return if self.rng.gen_bool(0.6) {
                self.num_attr()
            } else {
                self.literal()
            };
        }
        match self.rng.gen_range(0u8..8) {
            0..=2 => {
                let op = self.pick(&["+", "-", "*", "/"]);
                format!(
                    "({} {op} {})",
                    self.num_expr(depth - 1),
                    self.num_expr(depth - 1)
                )
            }
            3 => format!("-({})", self.num_expr(depth - 1)),
            4 => {
                let f = self.pick(&["ABS", "SQRT", "LOG10"]);
                format!("{f}({})", self.num_expr(depth - 1))
            }
            5 => format!(
                "DIST({:.3}, {:.3})",
                self.rng.gen_range(180.0f64..190.0),
                self.rng.gen_range(10.0f64..20.0)
            ),
            6 => {
                let f = self.pick(&["FRAMELAT", "FRAMELON"]);
                let frame = self.pick(&["'GALACTIC'", "'ECL'", "'J2000'", "'SGAL'"]);
                format!("{f}({frame})")
            }
            _ => format!(
                "COLORDIST({}, {}, {}, {})",
                self.num_expr(0),
                self.num_expr(0),
                self.num_expr(0),
                self.num_expr(0)
            ),
        }
    }

    fn bool_expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.rng.gen_bool(0.4) {
            return match self.rng.gen_range(0u8..6) {
                0..=2 => {
                    let op = self.pick(&["<", "<=", ">", ">=", "=", "!="]);
                    format!("{} {op} {}", self.num_expr(1), self.num_expr(1))
                }
                3 => {
                    let lo = self.rng.gen_range(14.0f64..20.0);
                    format!(
                        "{} BETWEEN {:.3} AND {:.3}",
                        self.num_attr(),
                        lo,
                        lo + self.rng.gen_range(0.0f64..6.0)
                    )
                }
                4 => {
                    let op = self.pick(&["=", "!="]);
                    let class = self.pick(&["'GALAXY'", "'STAR'", "'QSO'", "'galaxy'", "'NOPE'"]);
                    format!("class {op} {class}")
                }
                _ => format!(
                    "CIRCLE({:.3}, {:.3}, {:.3})",
                    self.rng.gen_range(182.0f64..188.0),
                    self.rng.gen_range(12.0f64..18.0),
                    self.rng.gen_range(0.2f64..3.0)
                ),
            };
        }
        match self.rng.gen_range(0u8..3) {
            0 => format!(
                "({} AND {})",
                self.bool_expr(depth - 1),
                self.bool_expr(depth - 1)
            ),
            1 => format!(
                "({} OR {})",
                self.bool_expr(depth - 1),
                self.bool_expr(depth - 1)
            ),
            _ => format!("NOT ({})", self.bool_expr(depth - 1)),
        }
    }

    fn projection(&mut self) -> String {
        let n = self.rng.gen_range(1usize..5);
        let mut cols = Vec::with_capacity(n + 1);
        cols.push("objid".to_string()); // keeps rows attributable in failures
        for _ in 0..n {
            cols.push(match self.rng.gen_range(0u8..4) {
                0 => self.num_attr(),
                1 => "class".to_string(),
                2 => format!("{} - {}", self.num_attr(), self.num_attr()),
                _ => self.num_expr(1),
            });
        }
        cols.join(", ")
    }

    fn query(&mut self) -> String {
        let mut sql = format!("SELECT {} FROM photoobj", self.projection());
        let mut clauses: Vec<String> = Vec::new();
        // Extractable spatial conjunct half the time.
        if self.rng.gen_bool(0.5) {
            clauses.push(format!(
                "CIRCLE({:.3}, {:.3}, {:.3})",
                self.rng.gen_range(183.0f64..187.0),
                self.rng.gen_range(13.0f64..17.0),
                self.rng.gen_range(0.3f64..4.0)
            ));
        }
        if self.rng.gen_bool(0.85) {
            clauses.push(self.bool_expr(2));
        }
        if !clauses.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&clauses.join(" AND "));
        }
        if self.rng.gen_bool(0.2) {
            sql.push_str(&format!(" SAMPLE {:.2}", self.rng.gen_range(0.1f64..0.9)));
        }
        sql
    }
}

fn build(seed: u64) -> (Arc<ObjectStore>, Arc<TagStore>) {
    let objs = SkyModel::small(seed).generate().unwrap();
    let mut store = ObjectStore::new(StoreConfig::default()).unwrap();
    store.insert_batch(&objs).unwrap();
    let tags = TagStore::from_store(&store);
    (Arc::new(store), Arc::new(tags))
}

/// Two archive handles over the same stores: one compiled, one forced
/// to the row-at-a-time interpreter (the oracle).
fn archive_pair(
    store: &Arc<ObjectStore>,
    tags: &Arc<TagStore>,
    cover_level: Option<u8>,
) -> (Archive, Archive) {
    let auto = Archive::with_config(
        store.clone(),
        Some(tags.clone()),
        ArchiveConfig {
            cover_level,
            mode: ExecMode::Auto,
            ..ArchiveConfig::default()
        },
    );
    let interp = Archive::with_config(
        store.clone(),
        Some(tags.clone()),
        ArchiveConfig {
            cover_level,
            mode: ExecMode::Interpreted,
            ..ArchiveConfig::default()
        },
    );
    (auto, interp)
}

#[test]
fn compiled_columnar_matches_interpreted_rows() {
    let (store, tags) = build(424242);
    let (auto, interp) = archive_pair(&store, &tags, None);

    let mut generator = QueryGen::new(7);
    let n_cases = 250;
    let mut columnar_cases = 0usize;
    let mut nonempty_cases = 0usize;
    for case in 0..n_cases {
        let sql = generator.query();
        let a = auto
            .run(&sql)
            .unwrap_or_else(|e| panic!("case {case}: {sql} failed on Auto: {e}"));
        let b = interp
            .run(&sql)
            .unwrap_or_else(|e| panic!("case {case}: {sql} failed on Interpreted: {e}"));
        assert_eq!(a.columns, b.columns, "case {case}: {sql}");
        assert_eq!(
            a.rows.len(),
            b.rows.len(),
            "case {case}: row count differs for {sql}"
        );
        for (i, (ra, rb)) in canonical(&a.rows)
            .into_iter()
            .zip(canonical(&b.rows))
            .enumerate()
        {
            assert_eq!(ra.len(), rb.len());
            for (va, vb) in ra.iter().zip(rb.iter()) {
                assert!(
                    value_identical(va, vb),
                    "case {case}: {sql}\n  row {i}: {va:?} != {vb:?}"
                );
            }
        }
        assert!(!b.stats.columnar, "Interpreted engine must report row path");
        if a.stats.columnar {
            columnar_cases += 1;
        }
        if !a.rows.is_empty() {
            nonempty_cases += 1;
        }
    }
    // The generator stays inside the compilable tag value domain, so the
    // columnar path must actually engage — this guards against the fast
    // path silently falling back (which would make this test vacuous).
    assert!(
        columnar_cases * 10 >= n_cases * 9,
        "only {columnar_cases}/{n_cases} queries compiled"
    );
    assert!(
        nonempty_cases * 4 >= n_cases,
        "only {nonempty_cases}/{n_cases} queries returned rows — generator too restrictive"
    );
}

#[test]
fn equivalence_holds_across_cover_levels_and_skies() {
    for (sky_seed, gen_seed) in [(1u64, 11u64), (2, 22)] {
        let (store, tags) = build(sky_seed);
        let mut generator = QueryGen::new(gen_seed);
        for &cover_level in &[6u8, 8, 12] {
            let (auto, interp) = archive_pair(&store, &tags, Some(cover_level));
            for _ in 0..25 {
                let sql = generator.query();
                let a = auto.run(&sql).unwrap();
                let b = interp.run(&sql).unwrap();
                assert_eq!(a.rows.len(), b.rows.len(), "{sql} at level {cover_level}");
                for (ra, rb) in canonical(&a.rows).into_iter().zip(canonical(&b.rows)) {
                    for (va, vb) in ra.iter().zip(rb.iter()) {
                        assert!(value_identical(va, vb), "{sql} at level {cover_level}");
                    }
                }
            }
        }
    }
}
