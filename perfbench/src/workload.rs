//! The three closed-loop workloads and their seeded op streams.
//!
//! Every workload runs rounds; a round issues one op of every class in a
//! fixed order, so each end-to-end class latency exists on every
//! workload and one round is one science scenario. What differs is the
//! scale: `interactive` reads small Zipf-skewed cones, `sweep` reads the
//! whole archive, and `session` composes over a freshly materialized
//! candidate set.

use crate::rng::{Rng, Zipf};
use crate::spec::{Agg, Class, Col, Cut, Op, Query, SetOpKind, Src};
use sdss_bench::{FIELD_DEC, FIELD_RA};

/// Interactive cone centres: enough that the distinct cones (centres
/// times radii) exceed the 128-entry cover cache many times over.
pub const CONE_POOL: usize = 1024;
/// Zipf exponent over the cone pool: the hottest cones stay resident.
pub const CONE_ZIPF_S: f64 = 0.8;
/// Session-scenario centres: few enough that their covers fit the cache.
pub const SESSION_CENTRES: usize = 64;
/// MATCH radius of every workload's pair step.
pub const MATCH_RADIUS_ARCSEC: f64 = 30.0;

const FULL_COLS: &[Col] = &[Col::ObjId, Col::Ra, Col::Dec, Col::R];
const COLOUR_COLS: &[Col] = &[Col::ObjId, Col::R, Col::Gr];
const ID_R: &[Col] = &[Col::ObjId, Col::R];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Sweep,
    Session,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Interactive, Workload::Sweep, Workload::Session];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Sweep => "sweep",
            Workload::Session => "session",
        }
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        match self {
            Workload::Interactive => 2,
            Workload::Sweep | Workload::Session => 1,
        }
    }
}

/// Inputs shared by every client of a run, drawn from the seed once.
#[derive(Debug, Clone)]
pub struct Inputs {
    cones: Vec<(f64, f64)>,
    zipf: Zipf,
    session_centres: Vec<(f64, f64)>,
    /// Every object's r magnitude, ascending — sweep thresholds are cut
    /// between neighbouring values so result sizes stay on target.
    r_sorted: Vec<f64>,
}

/// A uniform point within `radius` degrees of the field centre
/// (tangent-plane approximation; the points are only query inputs).
fn field_point(rng: &mut Rng, radius: f64) -> (f64, f64) {
    let rho = radius * rng.unit().sqrt();
    let phi = rng.range(0.0, std::f64::consts::TAU);
    let dec = FIELD_DEC + rho * phi.sin();
    let ra = FIELD_RA + rho * phi.cos() / dec.to_radians().cos();
    (ra, dec)
}

impl Inputs {
    pub fn new(seed: u64, mut r_mags: Vec<f64>) -> Inputs {
        let mut rng = Rng::derive(seed, 0x1_0000);
        let cones = (0..CONE_POOL).map(|_| field_point(&mut rng, 4.0)).collect();
        let session_centres = (0..SESSION_CENTRES)
            .map(|_| field_point(&mut rng, 2.5))
            .collect();
        r_mags.sort_by(f64::total_cmp);
        Inputs {
            cones,
            zipf: Zipf::new(CONE_POOL, CONE_ZIPF_S),
            session_centres,
            r_sorted: r_mags,
        }
    }

    /// Distinct query cones the interactive workload can issue.
    pub fn distinct_interactive_cones(&self) -> usize {
        // Radii: 0.05 (point), 1 (scan, sort, setop), 1.5 (agg),
        // 2 (filter), 0.5 (into).
        self.cones.len() * 5
    }

    /// A threshold between the `k-1`th and `k`th smallest r, so
    /// `r < t` keeps about `k` rows.
    fn r_cut(&self, k: usize) -> f64 {
        let n = self.r_sorted.len();
        let k = k.clamp(1, n.saturating_sub(1).max(1));
        if n < 2 {
            return 30.0;
        }
        0.5 * (self.r_sorted[k - 1] + self.r_sorted[k])
    }
}

/// One client's op stream: rounds drawn from a per-client generator.
#[derive(Debug, Clone)]
pub struct OpStream<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    rng: Rng,
}

impl<'a> OpStream<'a> {
    pub fn new(workload: Workload, seed: u64, client: usize, inputs: &'a Inputs) -> OpStream<'a> {
        let stream = 0x100 * (workload as u64 + 1) + client as u64;
        OpStream {
            workload,
            inputs,
            rng: Rng::derive(seed, stream),
        }
    }

    fn hot_cone(&mut self) -> (f64, f64) {
        self.inputs.cones[self.inputs.zipf.sample(&mut self.rng)]
    }

    /// The next round: one op per class, ending with the set drop.
    pub fn next_round(&mut self) -> Vec<Op> {
        let ops = match self.workload {
            Workload::Interactive => self.interactive_round(),
            Workload::Sweep => self.sweep_round(),
            Workload::Session => self.session_round(),
        };
        debug_assert!(Class::ALL
            .iter()
            .all(|c| ops.iter().filter(|o| o.class == *c).count() == 1));
        ops
    }

    fn interactive_round(&mut self) -> Vec<Op> {
        let cone = |s: &mut Self, radius: f64| {
            let (ra, dec) = s.hot_cone();
            Cut::cone(ra, dec, radius)
        };
        let point = cone(self, 0.05);
        let scan = cone(self, 1.0).r_lt(22.0);
        let filter = cone(self, 2.0).gr_gt(0.6).ug_lt(1.5);
        let agg = cone(self, 1.5);
        let sort = cone(self, 1.0);
        let setop = cone(self, 1.0);
        let into = cone(self, 0.5).r_lt(22.0);
        vec![
            op(Class::Point, rows(Src::Archive, point, FULL_COLS)),
            op(Class::Scan, rows(Src::Archive, scan, FULL_COLS)),
            op(Class::Filter, rows(Src::Archive, filter, COLOUR_COLS)),
            op(
                Class::Agg,
                Query::Agg {
                    src: Src::Archive,
                    cut: agg,
                    aggs: &[Agg::Count, Agg::Avg],
                },
            ),
            op(Class::Sort, sorted(Src::Archive, sort, Some(10))),
            op(
                Class::Setop,
                Query::SetOp {
                    op: SetOpKind::Intersect,
                    src: Src::Archive,
                    left: setop.gr_gt(0.6),
                    right: setop.r_lt(21.0),
                    cols: ID_R,
                },
            ),
            op(Class::Into, Query::Into { cut: into }),
            op(Class::Match, match_pairs(into)),
            op(Class::Drop, Query::Drop { set: into }),
        ]
    }

    fn sweep_round(&mut self) -> Vec<Op> {
        let rng = &mut self.rng;
        let k_point = 10 + rng.index(21);
        let point = Cut::default().r_lt(self.inputs.r_cut(k_point));
        let filter = Cut::default()
            .gr_gt(rng.range(1.15, 1.3))
            .ug_lt(rng.range(0.9, 1.1));
        let half = self.inputs.r_sorted.len() / 2;
        let k_sort = half - half / 20 + rng.index(half / 10 + 1);
        let sort = Cut::default().r_lt(self.inputs.r_cut(k_sort));
        let setop_left = Cut::default().gr_gt(rng.range(1.0, 1.1));
        let setop_right = Cut::default().ug_lt(rng.range(0.4, 0.5));
        let into = Cut::default().gr_gt(rng.range(1.1, 1.2));
        vec![
            op(Class::Point, rows(Src::Archive, point, FULL_COLS)),
            op(Class::Scan, rows(Src::Archive, Cut::default(), FULL_COLS)),
            op(Class::Filter, rows(Src::Archive, filter, COLOUR_COLS)),
            op(
                Class::Agg,
                Query::Agg {
                    src: Src::Archive,
                    cut: Cut::default(),
                    aggs: &[Agg::Count, Agg::Avg, Agg::Min, Agg::Max],
                },
            ),
            op(Class::Sort, sorted(Src::Archive, sort, None)),
            op(
                Class::Setop,
                Query::SetOp {
                    op: SetOpKind::Except,
                    src: Src::Archive,
                    left: setop_left,
                    right: setop_right,
                    cols: ID_R,
                },
            ),
            op(Class::Into, Query::Into { cut: into }),
            op(Class::Match, match_pairs(into)),
            op(Class::Drop, Query::Drop { set: into }),
        ]
    }

    fn session_round(&mut self) -> Vec<Op> {
        let rng = &mut self.rng;
        let (ra, dec) = self.inputs.session_centres[rng.index(SESSION_CENTRES)];
        let into = Cut::cone(ra, dec, 2.0).r_lt(22.0);
        let set = Src::Set(into);
        let p_dec = dec + rng.range(-1.2, 1.2);
        let p_ra = ra + rng.range(-1.2, 1.2) / p_dec.to_radians().cos();
        let point = Cut::cone(p_ra, p_dec, 0.05);
        let scan = Cut::default().gr_gt(rng.range(0.5, 0.7));
        let filter = Cut::default()
            .r_lt(21.0)
            .gr_gt(rng.range(0.3, 0.5))
            .ug_lt(rng.range(1.2, 1.6));
        vec![
            op(Class::Into, Query::Into { cut: into }),
            op(Class::Point, rows(set, point, FULL_COLS)),
            op(Class::Scan, rows(set, scan, COLOUR_COLS)),
            op(Class::Filter, rows(set, filter, COLOUR_COLS)),
            op(
                Class::Agg,
                Query::MatchCount {
                    set: into,
                    radius_arcsec: MATCH_RADIUS_ARCSEC,
                },
            ),
            op(Class::Sort, sorted(set, Cut::default(), Some(10))),
            op(
                Class::Setop,
                Query::SetOp {
                    op: SetOpKind::Except,
                    src: set,
                    left: Cut::default().r_lt(21.0),
                    right: Cut::default().gr_gt(0.8),
                    cols: ID_R,
                },
            ),
            op(Class::Match, match_pairs(into)),
            op(Class::Drop, Query::Drop { set: into }),
        ]
    }
}

fn op(class: Class, query: Query) -> Op {
    Op { class, query }
}

fn rows(src: Src, cut: Cut, cols: &'static [Col]) -> Query {
    Query::Rows { src, cut, cols }
}

fn sorted(src: Src, cut: Cut, limit: Option<usize>) -> Query {
    Query::Sorted {
        src,
        cut,
        cols: ID_R,
        limit,
    }
}

fn match_pairs(set: Cut) -> Query {
    Query::MatchPairs {
        set,
        radius_arcsec: MATCH_RADIUS_ARCSEC,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> Inputs {
        Inputs::new(seed, (0..1000).map(|i| 14.0 + i as f64 * 0.01).collect())
    }

    fn sql_stream(w: Workload, seed: u64, client: usize, inputs: &Inputs) -> Vec<String> {
        let mut s = OpStream::new(w, seed, client, inputs);
        (0..20)
            .flat_map(|_| s.next_round())
            .map(|o| o.query.sql().unwrap_or_else(|| "drop".into()))
            .collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            let (a, b, c) = (inputs(7), inputs(7), inputs(8));
            assert_eq!(sql_stream(w, 7, 0, &a), sql_stream(w, 7, 0, &b), "{w:?}");
            assert_ne!(sql_stream(w, 7, 0, &a), sql_stream(w, 8, 0, &c), "{w:?}");
        }
        let a = inputs(7);
        assert_ne!(
            sql_stream(Workload::Interactive, 7, 0, &a),
            sql_stream(Workload::Interactive, 7, 1, &a),
            "clients draw their own streams"
        );
    }

    #[test]
    fn every_round_has_every_class_once() {
        let inp = inputs(3);
        for w in Workload::ALL {
            let round = OpStream::new(w, 3, 0, &inp).next_round();
            for c in Class::ALL {
                assert_eq!(
                    round.iter().filter(|o| o.class == c).count(),
                    1,
                    "{w:?} {c:?}"
                );
            }
            assert_eq!(round.last().unwrap().class, Class::Drop);
        }
    }

    #[test]
    fn sweep_point_threshold_keeps_about_k_rows() {
        let inp = inputs(1);
        let t = inp.r_cut(20);
        assert_eq!(inp.r_sorted.iter().filter(|&&r| r < t).count(), 20);
    }
}
