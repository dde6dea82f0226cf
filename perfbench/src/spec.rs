//! What the benchmark asks the archive, described once as data.
//!
//! Every op is a [`Query`]. Its SQL text ([`Query::sql`]) and its
//! brute-force expected answer (`oracle`) both derive from the same
//! value, so the oracle never reads the SQL the engine parses.

/// The session set every workload materializes and composes over.
pub const SET_NAME: &str = "cand";

/// A cone on the sky, degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cone {
    pub ra: f64,
    pub dec: f64,
    pub radius: f64,
}

/// A conjunction of the predicate forms the benchmark issues; `None`
/// parts are unconstrained.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cut {
    pub cone: Option<Cone>,
    pub r_lt: Option<f64>,
    pub gr_gt: Option<f64>,
    pub ug_lt: Option<f64>,
}

impl Cut {
    pub fn cone(ra: f64, dec: f64, radius: f64) -> Cut {
        Cut {
            cone: Some(Cone { ra, dec, radius }),
            ..Cut::default()
        }
    }

    pub fn r_lt(mut self, v: f64) -> Cut {
        self.r_lt = Some(v);
        self
    }

    pub fn gr_gt(mut self, v: f64) -> Cut {
        self.gr_gt = Some(v);
        self
    }

    pub fn ug_lt(mut self, v: f64) -> Cut {
        self.ug_lt = Some(v);
        self
    }

    /// ` WHERE ...`, or nothing for an unconstrained cut.
    fn where_sql(&self) -> String {
        let mut terms = Vec::new();
        if let Some(c) = self.cone {
            terms.push(format!("CIRCLE({}, {}, {})", c.ra, c.dec, c.radius));
        }
        if let Some(v) = self.r_lt {
            terms.push(format!("r < {v}"));
        }
        if let Some(v) = self.gr_gt {
            terms.push(format!("gr > {v}"));
        }
        if let Some(v) = self.ug_lt {
            terms.push(format!("ug < {v}"));
        }
        if terms.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", terms.join(" AND "))
        }
    }
}

/// A projected attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {
    ObjId,
    Ra,
    Dec,
    R,
    Gr,
}

impl Col {
    pub fn name(self) -> &'static str {
        match self {
            Col::ObjId => "objid",
            Col::Ra => "ra",
            Col::Dec => "dec",
            Col::R => "r",
            Col::Gr => "gr",
        }
    }
}

fn cols_sql(cols: &[Col]) -> String {
    cols.iter().map(|c| c.name()).collect::<Vec<_>>().join(", ")
}

/// Where a read goes: the base archive, or the session set `cand`
/// that an earlier `INTO` filled with the archive rows passing `Cut`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    Archive,
    Set(Cut),
}

impl Src {
    fn table(&self) -> &'static str {
        match self {
            Src::Archive => "photoobj",
            Src::Set(_) => SET_NAME,
        }
    }
}

/// Aggregates over `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Count,
    Avg,
    Min,
    Max,
}

impl Agg {
    fn sql(self) -> &'static str {
        match self {
            Agg::Count => "COUNT(*)",
            Agg::Avg => "AVG(r)",
            Agg::Min => "MIN(r)",
            Agg::Max => "MAX(r)",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    /// In no workload: the engine's UNION returns right-only rows with
    /// every column but `objid` NULL, which the oracle flags (see its
    /// `set_operations_compare_full_rows` test).
    #[cfg_attr(not(test), allow(dead_code))]
    Union,
    Intersect,
    Except,
}

/// One benchmark request.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `SELECT cols FROM src WHERE cut`.
    Rows {
        src: Src,
        cut: Cut,
        cols: &'static [Col],
    },
    /// `SELECT aggs FROM src WHERE cut` (one row).
    Agg {
        src: Src,
        cut: Cut,
        aggs: &'static [Agg],
    },
    /// `... ORDER BY r [LIMIT k]`.
    Sorted {
        src: Src,
        cut: Cut,
        cols: &'static [Col],
        limit: Option<usize>,
    },
    /// `(SELECT cols ... left) OP (SELECT cols ... right)`.
    SetOp {
        op: SetOpKind,
        src: Src,
        left: Cut,
        right: Cut,
        cols: &'static [Col],
    },
    /// `SELECT objid INTO cand FROM photoobj WHERE cut`.
    Into { cut: Cut },
    /// The ordered pair list of `MATCH(cand, cand, radius)`.
    MatchPairs { set: Cut, radius_arcsec: f64 },
    /// `COUNT(*)` over `MATCH(cand, cand, radius)`.
    MatchCount { set: Cut, radius_arcsec: f64 },
    /// `Session::drop_set(cand)`.
    Drop { set: Cut },
}

impl Query {
    /// The statement text; `None` for the API-only drop.
    pub fn sql(&self) -> Option<String> {
        Some(match self {
            Query::Rows { src, cut, cols } => {
                format!("SELECT {} FROM {}{}", cols_sql(cols), src.table(), cut.where_sql())
            }
            Query::Agg { src, cut, aggs } => format!(
                "SELECT {} FROM {}{}",
                aggs.iter().map(|a| a.sql()).collect::<Vec<_>>().join(", "),
                src.table(),
                cut.where_sql()
            ),
            Query::Sorted {
                src,
                cut,
                cols,
                limit,
            } => {
                let mut s = format!(
                    "SELECT {} FROM {}{} ORDER BY r",
                    cols_sql(cols),
                    src.table(),
                    cut.where_sql()
                );
                if let Some(k) = limit {
                    s.push_str(&format!(" LIMIT {k}"));
                }
                s
            }
            Query::SetOp {
                op,
                src,
                left,
                right,
                cols,
            } => {
                let kw = match op {
                    SetOpKind::Union => "UNION",
                    SetOpKind::Intersect => "INTERSECT",
                    SetOpKind::Except => "EXCEPT",
                };
                let side = |c: &Cut| {
                    format!("(SELECT {} FROM {}{})", cols_sql(cols), src.table(), c.where_sql())
                };
                format!("{} {kw} {}", side(left), side(right))
            }
            Query::Into { cut } => {
                format!("SELECT objid INTO {SET_NAME} FROM photoobj{}", cut.where_sql())
            }
            Query::MatchPairs { radius_arcsec, .. } => format!(
                "SELECT a.objid, b.objid, sep_arcsec FROM MATCH({SET_NAME}, {SET_NAME}, {radius_arcsec})"
            ),
            Query::MatchCount { radius_arcsec, .. } => {
                format!("SELECT COUNT(*) FROM MATCH({SET_NAME}, {SET_NAME}, {radius_arcsec})")
            }
            Query::Drop { .. } => return None,
        })
    }

    /// Does this query read a session set (and so prepare through the
    /// session rather than the bare archive)?
    pub fn uses_session(&self) -> bool {
        match self {
            Query::Rows { src, .. }
            | Query::Agg { src, .. }
            | Query::Sorted { src, .. }
            | Query::SetOp { src, .. } => matches!(src, Src::Set(_)),
            Query::Into { .. }
            | Query::MatchPairs { .. }
            | Query::MatchCount { .. }
            | Query::Drop { .. } => true,
        }
    }
}

/// The query classes the end-to-end latencies are reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Point,
    Scan,
    Filter,
    Agg,
    Sort,
    Setop,
    Into,
    Match,
    Drop,
}

impl Class {
    pub const ALL: [Class; 9] = [
        Class::Point,
        Class::Scan,
        Class::Filter,
        Class::Agg,
        Class::Sort,
        Class::Setop,
        Class::Into,
        Class::Match,
        Class::Drop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Scan => "scan",
            Class::Filter => "filter",
            Class::Agg => "agg",
            Class::Sort => "sort",
            Class::Setop => "setop",
            Class::Into => "into",
            Class::Match => "match",
            Class::Drop => "drop_set",
        }
    }
}

/// One step of a round: its class and what it asks.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub class: Class,
    pub query: Query,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_renders_every_shape() {
        let cut = Cut::cone(185.0, 15.5, 1.0).r_lt(22.0);
        let q = Query::Rows {
            src: Src::Archive,
            cut,
            cols: &[Col::ObjId, Col::R],
        };
        assert_eq!(
            q.sql().unwrap(),
            "SELECT objid, r FROM photoobj WHERE CIRCLE(185, 15.5, 1) AND r < 22"
        );
        let q = Query::SetOp {
            op: SetOpKind::Union,
            src: Src::Set(cut),
            left: Cut::default().gr_gt(1.0),
            right: Cut::default().ug_lt(0.5),
            cols: &[Col::ObjId, Col::R],
        };
        assert_eq!(
            q.sql().unwrap(),
            "(SELECT objid, r FROM cand WHERE gr > 1) UNION (SELECT objid, r FROM cand WHERE ug < 0.5)"
        );
        assert!(q.uses_session());
        assert_eq!(Query::Drop { set: cut }.sql(), None);
    }
}
