//! The independent output oracle: every answer is recomputed by brute
//! force over the generated catalog, with great-circle separations from
//! `sdss_skycoords`. Nothing here touches the engine's HTM covers,
//! compiler or zone index.
//!
//! Rows without ORDER BY have no defined order, so results compare as
//! multisets keyed by `objid`. Objects within a rounding distance of a
//! predicate boundary may legitimately land on either side; they are
//! "may" rows, allowed but not required.

use crate::spec::{Agg, Col, Cut, Query, SetOpKind, Src};
use sdss_catalog::{PhotoObj, TagObject};
use sdss_query::{Row, Value};
use sdss_skycoords::{SkyPos, UnitVec3};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Distance from a cone edge, degrees, inside which membership is "may".
const EDGE_DEG: f64 = 1e-8;
/// Distance from a magnitude or colour threshold that is "may".
const EDGE_MAG: f64 = 1e-9;
/// Distance from the MATCH radius, arcsec, that is "may".
const EDGE_ARCSEC: f64 = 1e-6;
/// Value tolerances: positions (deg), magnitudes, separations (arcsec).
const TOL_DEG: f64 = 1e-7;
const TOL_MAG: f64 = 1e-6;
const TOL_SEP: f64 = 1e-6;

/// Three-valued membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    Yes,
    Maybe,
    No,
}

impl Tri {
    fn and(self, o: Tri) -> Tri {
        match (self, o) {
            (Tri::No, _) | (_, Tri::No) => Tri::No,
            (Tri::Yes, Tri::Yes) => Tri::Yes,
            _ => Tri::Maybe,
        }
    }

    fn or(self, o: Tri) -> Tri {
        match (self, o) {
            (Tri::Yes, _) | (_, Tri::Yes) => Tri::Yes,
            (Tri::No, Tri::No) => Tri::No,
            _ => Tri::Maybe,
        }
    }

    fn not(self) -> Tri {
        match self {
            Tri::Yes => Tri::No,
            Tri::No => Tri::Yes,
            Tri::Maybe => Tri::Maybe,
        }
    }
}

fn below(v: f64, t: f64, edge: f64) -> Tri {
    if v < t - edge {
        Tri::Yes
    } else if v > t + edge {
        Tri::No
    } else {
        Tri::Maybe
    }
}

/// One catalog object as the oracle sees it.
#[derive(Debug, Clone)]
pub struct Obj {
    pub tag: TagObject,
    pub htm20: u64,
    v: UnitVec3,
    ra: f64,
    dec: f64,
    r: f64,
    gr: f64,
    ug: f64,
}

/// What an op returned: rows, or the row count of a set it
/// materialized or dropped.
#[derive(Debug, Clone)]
pub enum Observed {
    Rows(Vec<Row>),
    SetRows(usize),
}

/// Indices of the objects an answer must contain and may contain.
#[derive(Debug, Default)]
struct Selection {
    must: Vec<u32>,
    may: Vec<u32>,
}

pub struct Oracle {
    objs: Vec<Obj>,
}

impl Oracle {
    pub fn new(photo: &[PhotoObj]) -> Oracle {
        let objs = photo
            .iter()
            .map(|p| {
                let tag = TagObject::from_photo(p);
                let v = tag.unit_vec();
                let pos = SkyPos::from_unit_vec(v);
                Obj {
                    htm20: p.htm20,
                    v,
                    ra: pos.ra_deg(),
                    dec: pos.dec_deg(),
                    r: tag.mags[2] as f64,
                    gr: tag.color_gr() as f64,
                    ug: tag.color_ug() as f64,
                    tag,
                }
            })
            .collect();
        Oracle { objs }
    }

    /// Every object's r magnitude (op-stream thresholds are cut on it).
    pub fn r_mags(&self) -> Vec<f64> {
        self.objs.iter().map(|o| o.r).collect()
    }

    /// The objects of the set an `INTO` over `cut` materializes (the
    /// "must" members), for replaying work over the same rows.
    pub fn members(&self, cut: &Cut) -> Vec<&Obj> {
        self.select(&Src::Archive, cut)
            .must
            .iter()
            .map(|&i| &self.objs[i as usize])
            .collect()
    }

    fn cut_tri(&self, o: &Obj, cut: &Cut) -> Tri {
        let mut t = Tri::Yes;
        if let Some(c) = cut.cone {
            let centre = match SkyPos::new(c.ra, c.dec) {
                Ok(p) => p.unit_vec(),
                Err(_) => return Tri::No,
            };
            t = t.and(below(centre.separation_deg(o.v), c.radius, EDGE_DEG));
        }
        if let Some(v) = cut.r_lt {
            t = t.and(below(o.r, v, EDGE_MAG));
        }
        if let Some(v) = cut.gr_gt {
            t = t.and(below(v, o.gr, EDGE_MAG));
        }
        if let Some(v) = cut.ug_lt {
            t = t.and(below(o.ug, v, EDGE_MAG));
        }
        t
    }

    fn src_tri(&self, o: &Obj, src: &Src) -> Tri {
        match src {
            Src::Archive => Tri::Yes,
            Src::Set(c) => self.cut_tri(o, c),
        }
    }

    fn select_by(&self, f: impl Fn(&Obj) -> Tri) -> Selection {
        let mut sel = Selection::default();
        for (i, o) in self.objs.iter().enumerate() {
            match f(o) {
                Tri::Yes => sel.must.push(i as u32),
                Tri::Maybe => sel.may.push(i as u32),
                Tri::No => {}
            }
        }
        sel
    }

    fn select(&self, src: &Src, cut: &Cut) -> Selection {
        self.select_by(|o| self.src_tri(o, src).and(self.cut_tri(o, cut)))
    }

    fn expected_value(&self, o: &Obj, col: Col) -> Value {
        match col {
            Col::ObjId => Value::Id(o.tag.obj_id),
            Col::Ra => Value::Num(o.ra),
            Col::Dec => Value::Num(o.dec),
            Col::R => Value::Num(o.r),
            Col::Gr => Value::Num(o.gr),
        }
    }

    /// Check one row's values against the catalog object it names.
    fn check_values(&self, o: &Obj, cols: &[Col], row: &Row) -> Result<(), String> {
        if row.len() != cols.len() {
            return Err(format!(
                "row has {} columns, expected {}",
                row.len(),
                cols.len()
            ));
        }
        for (col, got) in cols.iter().zip(row) {
            let want = self.expected_value(o, *col);
            let ok = match (col, &want) {
                (Col::ObjId, Value::Id(id)) => got.as_id() == Some(*id),
                (c, Value::Num(w)) => {
                    let tol = if matches!(c, Col::Ra | Col::Dec) {
                        TOL_DEG
                    } else {
                        TOL_MAG
                    };
                    got.as_num().is_some_and(|g| (g - w).abs() <= tol)
                }
                _ => false,
            };
            if !ok {
                return Err(format!(
                    "objid {}: column {} is {got:?}, expected {want:?}",
                    o.tag.obj_id,
                    col.name()
                ));
            }
        }
        Ok(())
    }

    /// Multiset comparison keyed by objid.
    fn check_rows(&self, sel: &Selection, cols: &[Col], rows: &[Row]) -> Result<(), String> {
        let id_col = cols
            .iter()
            .position(|c| *c == Col::ObjId)
            .ok_or("projection lacks objid")?;
        let index: HashMap<u64, u32> = sel
            .must
            .iter()
            .chain(&sel.may)
            .map(|&i| (self.objs[i as usize].tag.obj_id, i))
            .collect();
        let must: HashSet<u64> = sel
            .must
            .iter()
            .map(|&i| self.objs[i as usize].tag.obj_id)
            .collect();
        let mut seen = HashSet::with_capacity(rows.len());
        for row in rows {
            let id = row
                .get(id_col)
                .and_then(Value::as_id)
                .ok_or_else(|| format!("row without an objid: {row:?}"))?;
            if !seen.insert(id) {
                return Err(format!("objid {id} returned twice"));
            }
            let i = *index
                .get(&id)
                .ok_or_else(|| format!("objid {id} returned but does not qualify"))?;
            self.check_values(&self.objs[i as usize], cols, row)?;
        }
        let missing = must.iter().filter(|id| !seen.contains(id)).count();
        if missing > 0 {
            return Err(format!(
                "{missing} qualifying rows missing ({} returned, {} required)",
                rows.len(),
                must.len()
            ));
        }
        Ok(())
    }

    fn check_agg(&self, sel: &Selection, aggs: &[Agg], rows: &[Row]) -> Result<(), String> {
        let [row] = rows else {
            return Err(format!("aggregate returned {} rows", rows.len()));
        };
        if row.len() != aggs.len() {
            return Err(format!("aggregate row has {} columns", row.len()));
        }
        let r_of = |ids: &[u32]| {
            ids.iter()
                .map(|&i| self.objs[i as usize].r)
                .collect::<Vec<_>>()
        };
        let must_r = r_of(&sel.must);
        let all_r: Vec<f64> = must_r.iter().copied().chain(r_of(&sel.may)).collect();
        let (lo, hi) = all_r
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &r| {
                (a.min(r), b.max(r))
            });
        for (agg, got) in aggs.iter().zip(row) {
            let ok = match agg {
                Agg::Count => got
                    .as_num()
                    .is_some_and(|c| c >= must_r.len() as f64 && c <= all_r.len() as f64),
                _ if all_r.is_empty() => *got == Value::Null,
                _ if !sel.may.is_empty() => got.as_num().is_some_and(|v| v >= lo && v <= hi),
                Agg::Avg => {
                    let want = must_r.iter().sum::<f64>() / must_r.len() as f64;
                    got.as_num()
                        .is_some_and(|v| (v - want).abs() <= TOL_MAG * want.abs().max(1.0))
                }
                Agg::Min => got.as_num() == Some(lo),
                Agg::Max => got.as_num() == Some(hi),
            };
            if !ok {
                return Err(format!(
                    "{agg:?} is {got:?} over {} (+{} boundary) rows",
                    sel.must.len(),
                    sel.may.len()
                ));
            }
        }
        Ok(())
    }

    fn check_sorted(
        &self,
        sel: &Selection,
        cols: &[Col],
        limit: Option<usize>,
        rows: &[Row],
    ) -> Result<(), String> {
        let r_col = cols
            .iter()
            .position(|c| *c == Col::R)
            .ok_or("sort projection lacks r")?;
        let rs: Vec<f64> = rows
            .iter()
            .map(|row| row.get(r_col).and_then(Value::as_num).unwrap_or(f64::NAN))
            .collect();
        if let Some(i) = rs.windows(2).position(|w| {
            !matches!(
                w[0].partial_cmp(&w[1]),
                Some(Ordering::Less | Ordering::Equal)
            )
        }) {
            return Err(format!(
                "rows {i} and {} out of r order: {:?}",
                i + 1,
                &rs[i..i + 2]
            ));
        }
        let Some(k) = limit else {
            return self.check_rows(sel, cols, rows);
        };
        // Top-k: every row qualifies with the right values, and the r
        // prefix is the k smallest qualifying r values.
        let prefix = Selection {
            must: Vec::new(),
            may: sel.must.iter().chain(&sel.may).copied().collect(),
        };
        self.check_rows(&prefix, cols, rows)?;
        let lo = k.min(sel.must.len());
        let hi = k.min(sel.must.len() + sel.may.len());
        if rows.len() < lo || rows.len() > hi {
            return Err(format!("top-{k} returned {} rows", rows.len()));
        }
        if sel.may.is_empty() {
            let mut want: Vec<f64> = sel.must.iter().map(|&i| self.objs[i as usize].r).collect();
            want.sort_by(f64::total_cmp);
            want.truncate(k);
            if want != rs {
                return Err(format!("top-{k} r values {rs:?}, expected {want:?}"));
            }
        }
        Ok(())
    }

    /// Every ordered pair of `set` members within the radius, by an
    /// O(n·m) scan: `(a objid, b objid, separation arcsec, membership)`.
    fn pairs(&self, set: &Cut, radius_arcsec: f64) -> Vec<(u64, u64, f64, Tri)> {
        let members = self.select(&Src::Archive, set);
        let ids: Vec<u32> = members.must.iter().chain(&members.may).copied().collect();
        let member_tri = |k: usize| {
            if k < members.must.len() {
                Tri::Yes
            } else {
                Tri::Maybe
            }
        };
        // Cheap dot-product prefilter, generous by a milliarcsecond;
        // membership is then decided on the great-circle separation.
        let cos_cut = ((radius_arcsec + 1e-3) / 3600.0).to_radians().cos();
        let mut out = Vec::new();
        for (ka, &a) in ids.iter().enumerate() {
            let oa = &self.objs[a as usize];
            for (kb, &b) in ids.iter().enumerate() {
                if ka == kb {
                    continue;
                }
                let ob = &self.objs[b as usize];
                if oa.v.dot(ob.v) < cos_cut {
                    continue;
                }
                let sep = oa.v.separation_deg(ob.v) * 3600.0;
                let t = below(sep, radius_arcsec, EDGE_ARCSEC)
                    .and(member_tri(ka))
                    .and(member_tri(kb));
                if t != Tri::No {
                    out.push((oa.tag.obj_id, ob.tag.obj_id, sep, t));
                }
            }
        }
        out
    }

    fn check_match_pairs(&self, set: &Cut, radius: f64, rows: &[Row]) -> Result<(), String> {
        let pairs = self.pairs(set, radius);
        let want: HashMap<(u64, u64), (f64, Tri)> =
            pairs.iter().map(|&(a, b, s, t)| ((a, b), (s, t))).collect();
        let mut seen = HashSet::with_capacity(rows.len());
        for row in rows {
            let (Some(a), Some(b), Some(sep)) = (
                row.first().and_then(Value::as_id),
                row.get(1).and_then(Value::as_id),
                row.get(2).and_then(Value::as_num),
            ) else {
                return Err(format!("malformed pair row {row:?}"));
            };
            if !seen.insert((a, b)) {
                return Err(format!("pair ({a}, {b}) returned twice"));
            }
            let &(want_sep, _) = want
                .get(&(a, b))
                .ok_or_else(|| format!("pair ({a}, {b}) is not within the radius"))?;
            if (sep - want_sep).abs() > TOL_SEP {
                return Err(format!("pair ({a}, {b}) sep {sep}, expected {want_sep}"));
            }
        }
        let missing = pairs
            .iter()
            .filter(|p| p.3 == Tri::Yes && !seen.contains(&(p.0, p.1)))
            .count();
        if missing > 0 {
            return Err(format!("{missing} pairs missing of {}", pairs.len()));
        }
        Ok(())
    }

    fn check_count_range(what: &str, got: usize, sel: &Selection) -> Result<(), String> {
        if got < sel.must.len() || got > sel.must.len() + sel.may.len() {
            return Err(format!(
                "{what} has {got} rows, expected {} (+{} boundary)",
                sel.must.len(),
                sel.may.len()
            ));
        }
        Ok(())
    }

    /// Check one op's observed outcome against the brute-force answer.
    pub fn check(&self, q: &Query, obs: &Observed) -> Result<(), String> {
        match (q, obs) {
            (Query::Rows { src, cut, cols }, Observed::Rows(rows)) => {
                self.check_rows(&self.select(src, cut), cols, rows)
            }
            (Query::Agg { src, cut, aggs }, Observed::Rows(rows)) => {
                self.check_agg(&self.select(src, cut), aggs, rows)
            }
            (
                Query::Sorted {
                    src,
                    cut,
                    cols,
                    limit,
                },
                Observed::Rows(rows),
            ) => self.check_sorted(&self.select(src, cut), cols, *limit, rows),
            (
                Query::SetOp {
                    op,
                    src,
                    left,
                    right,
                    cols,
                },
                Observed::Rows(rows),
            ) => {
                let sel = self.select_by(|o| {
                    let s = self.src_tri(o, src);
                    let (l, r) = (s.and(self.cut_tri(o, left)), s.and(self.cut_tri(o, right)));
                    match op {
                        SetOpKind::Union => l.or(r),
                        SetOpKind::Intersect => l.and(r),
                        SetOpKind::Except => l.and(r.not()),
                    }
                });
                self.check_rows(&sel, cols, rows)
            }
            (Query::Into { cut }, Observed::SetRows(n))
            | (Query::Drop { set: cut }, Observed::SetRows(n)) => {
                Self::check_count_range("set", *n, &self.select(&Src::Archive, cut))
            }
            (Query::MatchPairs { set, radius_arcsec }, Observed::Rows(rows)) => {
                self.check_match_pairs(set, *radius_arcsec, rows)
            }
            (Query::MatchCount { set, radius_arcsec }, Observed::Rows(rows)) => {
                let pairs = self.pairs(set, *radius_arcsec);
                let sel = Selection {
                    must: (0..pairs.iter().filter(|p| p.3 == Tri::Yes).count() as u32).collect(),
                    may: (0..pairs.iter().filter(|p| p.3 == Tri::Maybe).count() as u32).collect(),
                };
                match rows.as_slice() {
                    [row] if row.len() == 1 => match row[0].as_num() {
                        Some(n) if n.fract() == 0.0 && n >= 0.0 => {
                            Self::check_count_range("MATCH count", n as usize, &sel)
                        }
                        _ => Err(format!("MATCH count is {:?}", row[0])),
                    },
                    _ => Err(format!("MATCH count returned {} rows", rows.len())),
                }
            }
            (q, o) => Err(format!("outcome {o:?} does not fit query {q:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdss_query::Archive;
    use sdss_storage::{ObjectStore, StoreConfig, TagStore};
    use std::sync::Arc;

    const COLS: &[Col] = &[Col::ObjId, Col::Ra, Col::Dec, Col::R];
    const ID_R: &[Col] = &[Col::ObjId, Col::R];

    fn tiny_sky() -> (Archive, Oracle) {
        let objs = sdss_bench::standard_sky(6000, 5);
        let mut store = ObjectStore::new(StoreConfig {
            container_level: 6,
            ..StoreConfig::default()
        })
        .unwrap();
        store.insert_batch(&objs).unwrap();
        let tags = TagStore::from_store(&store);
        (
            Archive::new(store, Some(Arc::new(tags))),
            Oracle::new(&objs),
        )
    }

    fn run(archive: &Archive, q: &Query) -> Vec<Row> {
        archive.run(&q.sql().unwrap()).unwrap().rows
    }

    fn fails(oracle: &Oracle, q: &Query, rows: Vec<Row>) -> bool {
        oracle.check(q, &Observed::Rows(rows)).is_err()
    }

    #[test]
    fn rows_pass_and_every_kind_of_wrong_row_is_flagged() {
        let (archive, oracle) = tiny_sky();
        let q = Query::Rows {
            src: Src::Archive,
            cut: Cut::cone(185.0, 15.0, 2.0).r_lt(22.0),
            cols: COLS,
        };
        let good = run(&archive, &q);
        assert!(good.len() > 20);
        oracle.check(&q, &Observed::Rows(good.clone())).unwrap();
        // Order is not part of the contract without ORDER BY.
        let mut reversed = good.clone();
        reversed.reverse();
        oracle.check(&q, &Observed::Rows(reversed)).unwrap();

        let mut missing = good.clone();
        missing.pop();
        assert!(fails(&oracle, &q, missing));
        let mut twice = good.clone();
        twice.push(good[0].clone());
        assert!(fails(&oracle, &q, twice));
        let mut wrong = good.clone();
        wrong[0][3] = Value::Num(99.0);
        assert!(fails(&oracle, &q, wrong));
        let mut null = good.clone();
        null[1][3] = Value::Null;
        assert!(fails(&oracle, &q, null));
        let outside = Query::Rows {
            src: Src::Archive,
            cut: Cut::cone(185.0, 15.0, 2.0),
            cols: COLS,
        };
        let extra = run(&archive, &outside)
            .into_iter()
            .find(|r| r[3].as_num().unwrap() >= 22.0)
            .expect("some faint object in the cone");
        let mut stray = good;
        stray.push(extra);
        assert!(fails(&oracle, &q, stray));
    }

    #[test]
    fn aggregates_and_top_k_are_checked() {
        let (archive, oracle) = tiny_sky();
        let agg = Query::Agg {
            src: Src::Archive,
            cut: Cut::cone(184.0, 14.0, 1.5),
            aggs: &[Agg::Count, Agg::Avg, Agg::Min, Agg::Max],
        };
        let good = run(&archive, &agg);
        oracle.check(&agg, &Observed::Rows(good.clone())).unwrap();
        let mut off = good.clone();
        off[0][0] = Value::Num(off[0][0].as_num().unwrap() + 1.0);
        assert!(fails(&oracle, &agg, off));
        let mut avg = good;
        avg[0][1] = Value::Num(avg[0][1].as_num().unwrap() + 0.01);
        assert!(fails(&oracle, &agg, avg));

        let top = Query::Sorted {
            src: Src::Archive,
            cut: Cut::cone(185.0, 15.0, 1.0),
            cols: ID_R,
            limit: Some(10),
        };
        let good = run(&archive, &top);
        assert_eq!(good.len(), 10);
        oracle.check(&top, &Observed::Rows(good.clone())).unwrap();
        let mut swapped = good.clone();
        swapped.swap(0, 9);
        assert!(fails(&oracle, &top, swapped));
        // A qualifying row that is not among the ten brightest.
        let all = Query::Sorted {
            src: Src::Archive,
            cut: Cut::cone(185.0, 15.0, 1.0),
            cols: ID_R,
            limit: None,
        };
        let full = run(&archive, &all);
        oracle.check(&all, &Observed::Rows(full.clone())).unwrap();
        let mut not_top = good;
        not_top[9] = full[20].clone();
        assert!(fails(&oracle, &top, not_top));
    }

    #[test]
    fn set_operations_compare_full_rows() {
        let (archive, oracle) = tiny_sky();
        let (left, right) = (Cut::default().gr_gt(1.0), Cut::default().ug_lt(0.5));
        for op in [SetOpKind::Intersect, SetOpKind::Except] {
            let q = Query::SetOp {
                op,
                src: Src::Archive,
                left,
                right,
                cols: ID_R,
            };
            oracle
                .check(&q, &Observed::Rows(run(&archive, &q)))
                .unwrap();
        }
        // The union built from its two sides passes; a right-only row
        // that lost its r (the engine's current UNION output) fails.
        let union = Query::SetOp {
            op: SetOpKind::Union,
            src: Src::Archive,
            left,
            right,
            cols: ID_R,
        };
        let side = |cut| Query::Rows {
            src: Src::Archive,
            cut,
            cols: ID_R,
        };
        let mut rows = run(&archive, &side(left));
        let seen: HashSet<u64> = rows.iter().map(|r| r[0].as_id().unwrap()).collect();
        let right_only: Vec<Row> = run(&archive, &side(right))
            .into_iter()
            .filter(|r| !seen.contains(&r[0].as_id().unwrap()))
            .collect();
        assert!(!right_only.is_empty());
        rows.extend(right_only);
        oracle.check(&union, &Observed::Rows(rows.clone())).unwrap();
        let last = rows.len() - 1;
        rows[last][1] = Value::Null;
        assert!(fails(&oracle, &union, rows));
    }

    #[test]
    fn match_pairs_and_counts_against_the_quadratic_scan() {
        let (archive, oracle) = tiny_sky();
        let session = archive.session();
        let set = Cut::cone(185.0, 15.0, 3.0);
        let into = Query::Into { cut: set };
        session.run(&into.sql().unwrap()).unwrap();
        let n = session.set_info(crate::spec::SET_NAME).unwrap().rows;
        oracle.check(&into, &Observed::SetRows(n)).unwrap();
        assert!(oracle.check(&into, &Observed::SetRows(n + 1)).is_err());

        let pairs = Query::MatchPairs {
            set,
            radius_arcsec: 300.0,
        };
        let good = session.run(&pairs.sql().unwrap()).unwrap().rows;
        assert!(good.len() > 4, "the test sky needs some pairs");
        oracle.check(&pairs, &Observed::Rows(good.clone())).unwrap();
        let mut missing = good.clone();
        missing.remove(0);
        assert!(fails(&oracle, &pairs, missing));
        let mut far = good.clone();
        far[0][2] = Value::Num(far[0][2].as_num().unwrap() + 1.0);
        assert!(fails(&oracle, &pairs, far));

        let count = Query::MatchCount {
            set,
            radius_arcsec: 300.0,
        };
        let c = session.run(&count.sql().unwrap()).unwrap().rows;
        assert_eq!(c[0][0].as_num(), Some(good.len() as f64));
        oracle.check(&count, &Observed::Rows(c)).unwrap();
        let wrong = vec![vec![Value::Num(good.len() as f64 + 1.0)]];
        assert!(fails(&oracle, &count, wrong));
    }
}
