//! Zone-partitioned spatial indexes for cross-identification.
//!
//! Paper, §Data Products: "each subsequent astronomical survey will want
//! to cross-identify its objects with the SDSS catalog". Every
//! cross-match has the same shape: file the build side so that a probe
//! can read just the rows its match cap can reach, and test only those.
//! Two indexes do that here:
//!
//! * [`ZoneStripes`] — the zones algorithm (Gray, Nieto-Santisteban and
//!   Szalay, "The Zones Algorithm for Finding Points-Near-a-Point or
//!   Cross-Matching Spatial Datasets", MSR-TR-2006-52). The build side
//!   is cut into declination stripes (in `z = sin dec`) at least one
//!   match radius tall, each sorted by right ascension in flat arrays.
//!   A probe reads the stripes its cap spans through a binary-searched
//!   RA window: no cover, no hashing. The query engine's
//!   `MATCH(a, b, radius)` pair join (pairs and aggregates) runs on it.
//! * [`ZoneIndex`] — build rows bucketed by home HTM trixel at a
//!   radius-matched level; each probe computes the HTM cover of its cap
//!   and reads the touched buckets. `dataflow::xmatch` re-exports it as
//!   the build side of its nearest-neighbour matcher, and the benchmark
//!   harness replays its build and probe phases.
//!
//! Both prune only: the one pair test is the exact great-circle
//! separation, `probe.separation_deg(b) * 3600.0 <= radius_arcsec`, so
//! both yield the same pairs with bit-identical separations.

use crate::StorageError;
use sdss_catalog::TagObject;
use sdss_htm::{lookup_id, Cover, Region};
use sdss_skycoords::UnitVec3;
use std::collections::HashMap;

/// Slack, degrees, that widens every stripe range and RA window so that
/// rounding in the window arithmetic can never prune a pair the exact
/// test would accept (0.36 milliarcseconds: no measurable loss of
/// pruning).
const SLACK_DEG: f64 = 1e-7;

/// Right ascension of `v` in `[0, 360]`, degrees.
fn ra_deg(v: UnitVec3) -> f64 {
    let ra = v.y().atan2(v.x()).to_degrees();
    if ra < 0.0 {
        ra + 360.0
    } else {
        ra
    }
}

/// The zones build side of one cross-match at a fixed radius:
/// declination stripes, each sorted by right ascension, stored
/// stripe-major in flat arrays (RA for the binary searches, the unit
/// vector for the exact test, the caller's row index for the result).
///
/// Stripes are cut in `z = sin(dec)`, so placing a row in its stripe
/// needs no trigonometry: two points `θ` radians apart differ in `z` by
/// at most `θ`, so a probe reads the stripes covering `z ± r`.
#[derive(Debug)]
pub struct ZoneStripes {
    radius_arcsec: f64,
    /// Match radius plus [`SLACK_DEG`], degrees.
    reach_deg: f64,
    /// `sin(reach_deg)`, for the RA half-width of a probe's window.
    sin_reach: f64,
    /// `z` of the bottom edge of stripe 0.
    z_floor: f64,
    /// Stripe height in `z`: at least the reach in radians, so a probe
    /// reads at most three stripes.
    height: f64,
    /// Stripe `s` holds flat positions `starts[s]..starts[s + 1]`.
    starts: Vec<u32>,
    ra: Vec<f64>,
    xyz: Vec<[f64; 3]>,
    rows: Vec<u32>,
}

impl ZoneStripes {
    /// Cut `positions` (row `i` is the `i`th item) into stripes for
    /// matches within `radius_arcsec`. Stripes are one radius tall, but
    /// never fewer than one row per stripe on average over the build
    /// side's `z` span, so tiny radii do not allocate a table of empty
    /// stripes.
    pub fn build(positions: impl IntoIterator<Item = UnitVec3>, radius_arcsec: f64) -> ZoneStripes {
        let points: Vec<UnitVec3> = positions.into_iter().collect();
        let reach_deg = radius_arcsec / 3600.0 + SLACK_DEG;
        let (lo, hi) = points
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p.z()), hi.max(p.z()))
            });
        let (z_floor, span) = if points.is_empty() {
            (0.0, 0.0)
        } else {
            (lo, hi - lo)
        };
        let height = reach_deg
            .to_radians()
            .max(span / points.len().max(1) as f64);
        let height = if height > 0.0 { height } else { 1.0 };
        let n_stripes = (span / height) as usize + 1;
        let stripe_of = |z: f64| (((z - z_floor) / height) as usize).min(n_stripes - 1);

        // Counting sort by stripe, then each stripe by RA.
        let mut starts = vec![0u32; n_stripes + 1];
        for p in &points {
            starts[stripe_of(p.z()) + 1] += 1;
        }
        for s in 0..n_stripes {
            starts[s + 1] += starts[s];
        }
        let mut fill = starts.clone();
        let mut keyed = vec![(0.0f64, 0u32); points.len()];
        for (i, &p) in points.iter().enumerate() {
            let slot = &mut fill[stripe_of(p.z())];
            keyed[*slot as usize] = (ra_deg(p), i as u32);
            *slot += 1;
        }
        for s in 0..n_stripes {
            keyed[starts[s] as usize..starts[s + 1] as usize]
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        }
        ZoneStripes {
            radius_arcsec,
            reach_deg,
            sin_reach: reach_deg.to_radians().sin(),
            z_floor,
            height,
            starts,
            ra: keyed.iter().map(|k| k.0).collect(),
            xyz: keyed
                .iter()
                .map(|k| {
                    let v = points[k.1 as usize];
                    [v.x(), v.y(), v.z()]
                })
                .collect(),
            rows: keyed.iter().map(|k| k.1).collect(),
        }
    }

    /// Call `f(row, sep_arcsec)` for every build row within the radius
    /// of `probe` — *all* pairs, not just the nearest. Returns the
    /// number of candidate distance computations performed.
    ///
    /// The probe reads the stripes covering `z ± r` and, in each, the RA
    /// window of half-width `asin(sin r / cos dec)` (split where it
    /// wraps at RA 0/360; the whole stripe once the cap reaches a pole).
    /// The windows only prune: each candidate passes the exact test
    /// `probe.separation_deg(b) * 3600.0 <= radius_arcsec`.
    pub fn for_each_within(&self, probe: UnitVec3, mut f: impl FnMut(u32, f64)) -> usize {
        let reach = self.reach_deg.to_radians();
        let last_stripe = self.starts.len() - 2;
        let first = ((probe.z() - reach - self.z_floor) / self.height).floor();
        let last = ((probe.z() + reach - self.z_floor) / self.height).floor();
        if last < 0.0 || first > last_stripe as f64 {
            return 0;
        }
        let (segments, n_segments) = self.ra_window(probe);
        let mut comparisons = 0usize;
        for s in first.max(0.0) as usize..=(last as usize).min(last_stripe) {
            let base = self.starts[s] as usize;
            let stripe = &self.ra[base..self.starts[s + 1] as usize];
            for &(lo, hi) in &segments[..n_segments] {
                let mut k = base + stripe.partition_point(|&ra| ra < lo);
                while k < base + stripe.len() && self.ra[k] <= hi {
                    comparisons += 1;
                    let [x, y, z] = self.xyz[k];
                    let sep = probe.separation_deg(UnitVec3::new_unchecked(x, y, z)) * 3600.0;
                    if sep <= self.radius_arcsec {
                        f(self.rows[k], sep);
                    }
                    k += 1;
                }
            }
        }
        comparisons
    }

    /// The inclusive RA segments `probe` must read in each stripe: one
    /// window, two when it wraps at RA 0/360, or the whole stripe when
    /// the cap reaches a pole.
    fn ra_window(&self, probe: UnitVec3) -> ([(f64, f64); 2], usize) {
        const WHOLE: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);
        // cos(|dec| + slack) ≈ cos|dec| - sin|dec| * slack: the
        // half-width grows toward the poles, so widen |dec| before it.
        let rho2 = probe.x() * probe.x() + probe.y() * probe.y();
        let norm = (rho2 + probe.z() * probe.z()).sqrt();
        let cos_dec = (rho2.sqrt() - probe.z().abs() * SLACK_DEG.to_radians()) / norm;
        // For a reach under 90°, |dec| + reach ≥ 90° exactly when
        // cos|dec| ≤ sin(reach): the cap reaches a pole.
        if self.reach_deg >= 90.0 || cos_dec <= self.sin_reach {
            return ([WHOLE, WHOLE], 1);
        }
        let half = (self.sin_reach / cos_dec).asin().to_degrees() + SLACK_DEG;
        let ra0 = ra_deg(probe);
        let (lo, hi) = (ra0 - half, ra0 + half);
        if lo < 0.0 {
            ([(lo + 360.0, f64::INFINITY), (f64::NEG_INFINITY, hi)], 2)
        } else if hi > 360.0 {
            ([(lo, f64::INFINITY), (f64::NEG_INFINITY, hi - 360.0)], 2)
        } else {
            ([(lo, hi), WHOLE], 1)
        }
    }
}

/// A zone-partitioned spatial index over a reference catalog: reference
/// row indices bucketed by home HTM trixel at a fixed level.
#[derive(Debug, Clone)]
pub struct ZoneIndex {
    level: u8,
    buckets: HashMap<u64, Vec<u32>>,
}

impl ZoneIndex {
    /// Index `reference` at the given bucket level.
    pub fn build(reference: &[TagObject], level: u8) -> Result<ZoneIndex, StorageError> {
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, r) in reference.iter().enumerate() {
            let home =
                lookup_id(r.unit_vec(), level).map_err(|e| StorageError::Htm(e.to_string()))?;
            buckets.entry(home.raw()).or_default().push(i as u32);
        }
        Ok(ZoneIndex { level, buckets })
    }

    /// Index rows by their stored level-20 HTM ids — no spherical
    /// lookup at all: the level-`level` home bucket is the deep id's
    /// ancestor, `htm20 >> 2*(20 - level)` (the same shift the tag
    /// scan's cover filter uses), so a build side that carries `htm20`
    /// per row — tag partitions and materialized result sets do —
    /// indexes at integer-shift speed.
    pub fn build_from_deep(htm20: &[u64], level: u8) -> ZoneIndex {
        // Clamp the stored level too: probe covers are computed at
        // `self.level`, so it must be the same level the buckets were
        // keyed at.
        let level = level.min(20);
        let shift = 2 * (20 - level) as u64;
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, &deep) in htm20.iter().enumerate() {
            buckets.entry(deep >> shift).or_default().push(i as u32);
        }
        ZoneIndex { level, buckets }
    }

    /// A bucket level matched to the radius: fine zones for arcsecond
    /// astrometric tolerances, coarser ones once the match cap spans
    /// whole trixels (a level-10 trixel subtends ~3 arcmin).
    pub fn level_for_radius(radius_arcsec: f64) -> u8 {
        if radius_arcsec <= 200.0 {
            10
        } else if radius_arcsec <= 3600.0 {
            7
        } else {
            4
        }
    }

    /// The bucket level this index was built at.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Stream every reference object within `radius_arcsec` of `probe`
    /// as `(reference index, separation arcsec)` — *all* pairs, not just
    /// the nearest (the pair-join primitive). Returns the number of
    /// candidate distance computations performed.
    pub fn neighbors_within(
        &self,
        reference: &[TagObject],
        probe: UnitVec3,
        radius_arcsec: f64,
        mut f: impl FnMut(u32, f64),
    ) -> Result<usize, StorageError> {
        let cap = Region::circle_vec(probe, radius_arcsec / 3600.0)
            .map_err(|e| StorageError::Htm(e.to_string()))?;
        let cover =
            Cover::compute(&cap, self.level).map_err(|e| StorageError::Htm(e.to_string()))?;
        let mut comparisons = 0usize;
        for bucket in cover.touched_ranges().iter_ids() {
            let Some(members) = self.buckets.get(&bucket) else {
                continue;
            };
            for &ri in members {
                comparisons += 1;
                let sep = probe.separation_deg(reference[ri as usize].unit_vec()) * 3600.0;
                if sep <= radius_arcsec {
                    f(ri, sep);
                }
            }
        }
        Ok(comparisons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdss_catalog::SkyModel;

    #[test]
    fn deep_id_build_matches_spherical_build() {
        // The shift-ancestor bucketing must agree with the spherical
        // lookup at every level the radius heuristic picks.
        let objs = SkyModel::small(31).generate().unwrap();
        let tags: Vec<TagObject> = objs.iter().map(TagObject::from_photo).collect();
        let deep: Vec<u64> = objs.iter().map(|o| o.htm20).collect();
        for level in [4u8, 7, 10] {
            let spherical = ZoneIndex::build(&tags, level).unwrap();
            let shifted = ZoneIndex::build_from_deep(&deep, level);
            let collect = |ix: &ZoneIndex, probe: &TagObject| {
                let mut v = Vec::new();
                ix.neighbors_within(&tags, probe.unit_vec(), 300.0, |ri, _| v.push(ri))
                    .unwrap();
                v.sort_unstable();
                v
            };
            for probe in tags.iter().step_by(40) {
                assert_eq!(
                    collect(&spherical, probe),
                    collect(&shifted, probe),
                    "level {level}"
                );
            }
        }
    }

    /// A unit vector at `(ra, dec)` degrees.
    fn at(ra: f64, dec: f64) -> UnitVec3 {
        let (sr, cr) = ra.to_radians().sin_cos();
        let (sd, cd) = dec.to_radians().sin_cos();
        UnitVec3::new_unchecked(cd * cr, cd * sr, sd)
    }

    /// Every `(probe, row, sep bits)` triple from the zones primitive.
    fn stripe_pairs(
        build: &[UnitVec3],
        probes: &[UnitVec3],
        radius: f64,
    ) -> Vec<(usize, u32, u64)> {
        let zones = ZoneStripes::build(build.iter().copied(), radius);
        let mut out = Vec::new();
        for (p, &probe) in probes.iter().enumerate() {
            zones.for_each_within(probe, |row, sep| out.push((p, row, sep.to_bits())));
        }
        out.sort_unstable();
        out
    }

    /// The brute-force O(n·m) oracle with the same exact test.
    fn brute_pairs(build: &[UnitVec3], probes: &[UnitVec3], radius: f64) -> Vec<(usize, u32, u64)> {
        let mut out = Vec::new();
        for (p, &probe) in probes.iter().enumerate() {
            for (row, &b) in build.iter().enumerate() {
                let sep = probe.separation_deg(b) * 3600.0;
                if sep <= radius {
                    out.push((p, row as u32, sep.to_bits()));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn assert_matches_brute(build: &[UnitVec3], probes: &[UnitVec3], radius: f64) -> usize {
        let want = brute_pairs(build, probes, radius);
        assert_eq!(
            stripe_pairs(build, probes, radius),
            want,
            "zones vs brute force at {radius}\""
        );
        want.len()
    }

    /// Tiny deterministic generator for positions.
    struct Lcg(u64);

    impl Lcg {
        fn next_f64(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + (hi - lo) * ((self.0 >> 11) as f64 / (1u64 << 53) as f64)
        }

        /// A point uniform on the sphere.
        fn sphere(&mut self) -> UnitVec3 {
            let z: f64 = self.next_f64(-1.0, 1.0);
            at(self.next_f64(0.0, 360.0), z.asin().to_degrees())
        }
    }

    #[test]
    fn zones_wrap_at_ra_zero() {
        // Rows and probes straddle RA 0/360 at several declinations; a
        // window that failed to split would miss the pairs across it.
        let mut build = Vec::new();
        for dec in [-60.0, -1.0, 0.0, 0.004, 45.0, 80.0] {
            for ra in [359.99, 359.999_99, 0.0, 0.000_01, 0.01] {
                build.push(at(ra, dec));
            }
        }
        let probes = build.clone();
        for radius in [20.0, 40.0, 100.0, 1000.0] {
            assert_matches_brute(&build, &probes, radius);
        }
        // 359.99 and 0.01 at the equator are 72" apart.
        let n = assert_matches_brute(&[at(0.01, 0.0)], &[at(359.99, 0.0)], 72.1);
        assert_eq!(n, 1);
    }

    #[test]
    fn zones_caps_touching_or_containing_a_pole() {
        let mut rng = Lcg(7);
        let mut build = Vec::new();
        for _ in 0..400 {
            build.push(at(rng.next_f64(0.0, 360.0), rng.next_f64(89.0, 90.0)));
            build.push(at(rng.next_f64(0.0, 360.0), rng.next_f64(-90.0, -89.0)));
        }
        build.push(UnitVec3::Z);
        build.push(at(0.0, -90.0));
        let mut probes = vec![UnitVec3::Z, at(123.0, -90.0)];
        for dec in [89.5, 89.99, -89.5, -89.99] {
            for ra in [0.0, 90.0, 180.0, 359.9] {
                probes.push(at(ra, dec));
            }
        }
        // 0.5° = 1800": from dec 89.5 the cap touches the pole; 0.01° =
        // 36": from 89.99 it does too; larger radii contain the pole.
        for radius in [36.0, 1800.0, 1800.1, 3600.0, 7200.0] {
            assert_matches_brute(&build, &probes, radius);
        }
    }

    #[test]
    fn zones_probes_on_stripe_boundaries() {
        // A row at z = 0 pins stripe 0's floor, so stripe edges fall on
        // multiples of the height: put probes and build rows exactly
        // there, and half a radius either side.
        let radius = 36.0;
        let on_z = |z: f64, ra: f64| {
            let rho = (1.0 - z * z).sqrt();
            let (s, c) = ra.to_radians().sin_cos();
            UnitVec3::new_unchecked(rho * c, rho * s, z)
        };
        let mut build = vec![at(10.0, 0.0)];
        let edges = ZoneStripes::build(build.iter().copied(), radius);
        assert_eq!(edges.z_floor, 0.0);
        let h = edges.height;
        let mut probes = Vec::new();
        for k in 1..=100 {
            for dz in [-0.5 * h, 0.0, 0.5 * h] {
                let z = k as f64 * h + dz;
                for ra in [10.0, 10.005, 10.01] {
                    build.push(on_z(z, ra));
                    probes.push(on_z(z, ra));
                }
            }
        }
        let zones = ZoneStripes::build(build.iter().copied(), radius);
        assert_eq!((zones.z_floor, zones.height), (0.0, h));
        let n = assert_matches_brute(&build, &probes, radius);
        assert!(n > build.len(), "neighbours one stripe apart pair up");
    }

    #[test]
    fn zones_whole_sphere_radius() {
        let mut rng = Lcg(11);
        let build: Vec<UnitVec3> = (0..300).map(|_| rng.sphere()).collect();
        let probes: Vec<UnitVec3> = (0..40).map(|_| rng.sphere()).collect();
        for radius_deg in [89.9, 90.0, 120.0, 179.9, 180.0] {
            assert_matches_brute(&build, &probes, radius_deg * 3600.0);
        }
        let all = assert_matches_brute(&build, &probes, 180.0 * 3600.0);
        assert_eq!(all, build.len() * probes.len());
    }

    #[test]
    fn zones_empty_build_side() {
        let zones = ZoneStripes::build(std::iter::empty(), 30.0);
        let mut called = false;
        assert_eq!(zones.for_each_within(UnitVec3::X, |_, _| called = true), 0);
        assert!(!called);
    }

    #[test]
    fn zones_duplicate_positions() {
        // Identical rows all land (sep 0 against a coincident probe),
        // and a build side whose rows all share one declination still
        // gets a usable stripe height.
        let build = vec![at(150.0, 2.0); 5];
        let probes = vec![at(150.0, 2.0), at(150.001, 2.0)];
        let n = assert_matches_brute(&build, &probes, 5.0);
        assert_eq!(n, 10);
        assert_matches_brute(&build, &probes, 1e-9);
    }

    #[test]
    fn zones_random_sky_matches_brute_force() {
        let mut rng = Lcg(3);
        let build: Vec<UnitVec3> = (0..2000).map(|_| rng.sphere()).collect();
        let probes: Vec<UnitVec3> = (0..500).map(|_| rng.sphere()).collect();
        for radius in [600.0, 3600.0, 20_000.0, 200_000.0] {
            assert_matches_brute(&build, &probes, radius);
        }
    }

    #[test]
    fn zones_match_the_htm_bucket_index() {
        // Same pairs, same separation bits as `neighbors_within` on the
        // test sky at the radii either side of its level boundaries.
        let objs = SkyModel::small(31).generate().unwrap();
        let tags: Vec<TagObject> = objs.iter().map(TagObject::from_photo).collect();
        let deep: Vec<u64> = objs.iter().map(|o| o.htm20).collect();
        for radius in [5.0, 30.0, 200.0, 3600.0] {
            let index = ZoneIndex::build_from_deep(&deep, ZoneIndex::level_for_radius(radius));
            let zones = ZoneStripes::build(tags.iter().map(TagObject::unit_vec), radius);
            let (mut want, mut got) = (Vec::new(), Vec::new());
            for probe in &tags {
                let v = probe.unit_vec();
                index
                    .neighbors_within(&tags, v, radius, |ri, sep| {
                        want.push((probe.obj_id, ri, sep.to_bits()))
                    })
                    .unwrap();
                zones.for_each_within(v, |ri, sep| got.push((probe.obj_id, ri, sep.to_bits())));
            }
            want.sort_unstable();
            got.sort_unstable();
            assert!(want.len() > tags.len(), "{radius}\": pairs beyond identity");
            assert_eq!(got, want, "{radius}\"");
        }
    }
}
