//! Swarm connectivity checks (4-neighbourhood), used both as the
//! simulator's safety oracle and by the analysis tooling.
//!
//! The count floods the occupancy index's row words
//! ([`crate::tile`]), never its cells: the live tiles are numbered in
//! key order, each with its four neighbours looked up once, and a
//! component grows a tile row at a time. A popped row takes the runs of
//! set bits that contain its seeds in one bit-parallel fill, marks them
//! in a visited word, and seeds the rows above and below with those
//! runs, and the row of the tile east or west when a run reaches the
//! tile's edge. A check reads 512 bytes of row words per tile and keeps
//! 512 bytes of visited bits; it never reads a handle.

use crate::geom::Point;
use crate::swarm::{RobotState, Swarm};
use crate::tile::{TileKey, TILE_ROWS};

/// Is the swarm connected under the paper's definition (horizontal or
/// vertical adjacency)? A flood over the row words; the check runs every
/// k-th round at most, so it stays off the per-round hot path.
pub fn is_connected<S: RobotState>(swarm: &Swarm<S>) -> bool {
    component_count_bounded(swarm, 2) == 1
}

/// Number of 4-connected components.
pub fn component_count<S: RobotState>(swarm: &Swarm<S>) -> usize {
    component_count_bounded(swarm, usize::MAX)
}

/// No tile.
const NONE: usize = usize::MAX;

/// Count components, stopping early once `limit` have been seen.
fn component_count_bounded<S: RobotState>(swarm: &Swarm<S>, limit: usize) -> usize {
    let tiles = swarm.index().sorted_tiles();
    let number = |x, y| {
        let key = TileKey { x, y };
        tiles.binary_search_by_key(&key, |&(k, _)| k).unwrap_or(NONE)
    };
    // Per tile: the tiles east, west, north (+y) and south of it.
    let near: Vec<[usize; 4]> = tiles
        .iter()
        .map(|&(k, _)| {
            [number(k.x + 1, k.y), number(k.x - 1, k.y), number(k.x, k.y + 1), number(k.x, k.y - 1)]
        })
        .collect();
    let row = |t: usize, y: usize| tiles[t].1.row(y);
    let mut seen = vec![[0u64; TILE_ROWS]; tiles.len()];
    // Rows to grow into: (tile, row, occupied seed bits).
    let mut stack: Vec<(usize, usize, u64)> = Vec::new();
    let mut components = 0;
    for t in 0..tiles.len() {
        for y in 0..TILE_ROWS {
            loop {
                let fresh = row(t, y) & !seen[t][y];
                if fresh == 0 {
                    break;
                }
                components += 1;
                if components >= limit {
                    return components;
                }
                stack.push((t, y, fresh & fresh.wrapping_neg()));
                while let Some((t, y, seeds)) = stack.pop() {
                    // A run is marked whole, so the runs through unseen
                    // seeds are all unseen.
                    let seeds = seeds & !seen[t][y];
                    if seeds == 0 {
                        continue;
                    }
                    let runs = runs_through(seeds, row(t, y));
                    seen[t][y] |= runs;
                    let [east, west, north, south] = near[t];
                    let last = TILE_ROWS - 1;
                    for (t, y, seeds) in [
                        (east, y, runs >> 63),
                        (west, y, (runs & 1) << 63),
                        if y == 0 { (south, last, runs) } else { (t, y - 1, runs) },
                        if y == last { (north, 0, runs) } else { (t, y + 1, runs) },
                    ] {
                        if t != NONE && seeds & row(t, y) & !seen[t][y] != 0 {
                            stack.push((t, y, seeds & row(t, y)));
                        }
                    }
                }
            }
        }
    }
    components
}

/// The runs of consecutive set bits of `occupied` that hold a bit of
/// `seeds` (a subset of `occupied`): a fill up and a fill down, each
/// doubling its stride (Kogge–Stone), so a run of 64 takes six steps.
fn runs_through(seeds: u64, occupied: u64) -> u64 {
    let (mut up, mut down) = (seeds, seeds);
    let (mut pass_up, mut pass_down) = (occupied, occupied);
    for shift in [1, 2, 4, 8, 16, 32] {
        up |= pass_up & (up << shift);
        pass_up &= pass_up << shift;
        down |= pass_down & (down >> shift);
        pass_down &= pass_down >> shift;
    }
    up | down
}

/// Check whether a *set of points* is 4-connected — used by workload
/// generators before a swarm object exists.
pub fn points_connected(points: &[Point]) -> bool {
    if points.is_empty() {
        return false;
    }
    let set: crate::fxhash::FxHashSet<Point> = points.iter().copied().collect();
    let mut visited: crate::fxhash::FxHashSet<Point> = Default::default();
    let mut stack = vec![points[0]];
    visited.insert(points[0]);
    while let Some(p) = stack.pop() {
        for q in p.neighbors4() {
            if set.contains(&q) && visited.insert(q) {
                stack.push(q);
            }
        }
    }
    visited.len() == set.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::splitmix64;
    use crate::swarm::OrientationMode;

    #[test]
    fn line_is_connected() {
        let pts: Vec<Point> = (0..10).map(|x| Point::new(x, 0)).collect();
        let s: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        assert!(is_connected(&s));
        assert_eq!(component_count(&s), 1);
    }

    #[test]
    fn diagonal_only_is_disconnected() {
        // Diagonal adjacency does NOT count for connectivity in the
        // paper's model, only for movement.
        let s: Swarm<()> =
            Swarm::new(&[Point::new(0, 0), Point::new(1, 1)], OrientationMode::Aligned);
        assert!(!is_connected(&s));
        assert_eq!(component_count(&s), 2);
    }

    #[test]
    fn three_islands() {
        let s: Swarm<()> = Swarm::new(
            &[Point::new(0, 0), Point::new(5, 0), Point::new(10, 0)],
            OrientationMode::Aligned,
        );
        assert_eq!(component_count(&s), 3);
    }

    /// Components of a point set by a search over the points themselves,
    /// as [`points_connected`] runs it — the test oracle.
    fn oracle_components(points: &[Point]) -> usize {
        let mut left: std::collections::BTreeSet<Point> = points.iter().copied().collect();
        let mut count = 0;
        while let Some(first) = left.pop_first() {
            count += 1;
            let mut stack = vec![first];
            while let Some(p) = stack.pop() {
                stack.extend(p.neighbors4().into_iter().filter(|q| left.remove(q)));
            }
        }
        count
    }

    /// Counts with limit 2 and unbounded match the oracle on random
    /// swarms: sparse and dense fills of boxes across several tiles and
    /// negative coordinates, diagonal-only contacts, and components that
    /// meet only across a tile border.
    #[test]
    fn flood_counts_match_the_oracle() {
        let mut cases: Vec<(String, Vec<Point>)> = Vec::new();
        for seed in 0..40u64 {
            // A box over the sixteen tiles around the origin, or a thin
            // strip across a tile row or column border, at fills from 10
            // to 70 %.
            let (w, h, x0, y0) = match seed % 3 {
                0 => (150, 150, -75, -75),
                1 => (200, 3, -100, 62),
                _ => (3, 200, 63, -100),
            };
            let fill = 10 + seed % 7 * 10;
            let pts: Vec<Point> = (0..w * h)
                .map(|i| Point::new(x0 + i % w, y0 + i / w))
                .filter(|p| {
                    splitmix64(seed << 40 ^ ((p.x as u64) << 20) ^ p.y as u32 as u64) % 100 < fill
                })
                .collect();
            cases.push((format!("random seed {seed} fill {fill}"), pts));
        }
        // Diagonal-only contacts: a checkerboard, every robot alone.
        let checker: Vec<Point> = (-70..70)
            .flat_map(|y| (-70..70).map(move |x| Point::new(x, y)))
            .filter(|p| (p.x + p.y).rem_euclid(2) == 0)
            .collect();
        cases.push(("checkerboard".into(), checker));
        // Lines joined only across tile borders, east–west and north–south.
        let mut cross: Vec<Point> = (-64..64).map(|x| Point::new(x, 63)).collect();
        cross.extend((-64..64).map(|y| Point::new(-1, y)).filter(|&p| p != Point::new(-1, 63)));
        cases.push(("cross".into(), cross));
        // 10⁴ robots in four 50×50 clusters far apart, two of them joined
        // by a corridor across several tiles.
        let block = |x0: i32, y0: i32| {
            (0..2500).map(move |i| Point::new(x0 + i % 50, y0 + i / 50)).collect::<Vec<_>>()
        };
        let mut clusters =
            [block(-5000, -3000), block(-60, -60), block(900, -40), block(40_000, -9)].concat();
        clusters.extend((-10..900).map(|x| Point::new(x, -20)));
        assert_eq!(oracle_components(&clusters), 3);
        cases.push(("clusters".into(), clusters));
        for (name, pts) in &cases {
            let s: Swarm<()> = Swarm::new(pts, OrientationMode::Aligned);
            let want = oracle_components(pts);
            assert_eq!(component_count(&s), want, "{name}");
            assert_eq!(component_count_bounded(&s, 2), want.min(2), "{name}");
            assert_eq!(is_connected(&s), points_connected(pts), "{name}");
        }
        let counts: Vec<usize> = cases.iter().map(|(_, p)| oracle_components(p)).collect();
        assert!(counts.contains(&1) && counts.iter().any(|&c| c > 100), "{counts:?}");
    }

    #[test]
    fn points_connected_helper() {
        assert!(points_connected(&[Point::new(0, 0), Point::new(0, 1)]));
        assert!(!points_connected(&[Point::new(0, 0), Point::new(2, 0)]));
        assert!(!points_connected(&[]));
    }
}
