//! # gather-workloads
//!
//! Deterministic, seeded swarm generators for every configuration family
//! used by the paper's discussion and by the experiment suite (README,
//! "Paper tables"): worst-case diameter chains, quasi-line
//! plateaus (Fig. 4), hollow shapes with inner boundaries (Fig. 1),
//! stairways (Fig. 16), and random connected blobs.
//!
//! All generators return a duplicate-free, 4-connected `Vec<Point>` and
//! are pure functions of their parameters (random families take an
//! explicit seed), so every experiment is reproducible.

use grid_engine::fxhash::FxHashSet;
use grid_engine::{Point, V2};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

mod named;
pub use named::{all_families, family, Family};

/// A horizontal 1×n line — the Ω(n)-diameter worst case from §5.
pub fn line(n: usize) -> Vec<Point> {
    (0..n as i32).map(|x| Point::new(x, 0)).collect()
}

/// A vertical n×1 line.
pub fn vertical_line(n: usize) -> Vec<Point> {
    (0..n as i32).map(|y| Point::new(0, y)).collect()
}

/// A filled w×h rectangle.
pub fn rectangle(w: usize, h: usize) -> Vec<Point> {
    let mut out = Vec::with_capacity(w * h);
    for y in 0..h as i32 {
        for x in 0..w as i32 {
            out.push(Point::new(x, y));
        }
    }
    out
}

/// A filled square with the given side length.
pub fn square(side: usize) -> Vec<Point> {
    rectangle(side, side)
}

/// A rectangular ring: w×h outline of the given wall thickness. The
/// hole's rim is an *inner boundary* in the paper's sense (Fig. 1).
///
/// # Panics
/// Panics unless both dimensions exceed `2 * thickness` (so a hole
/// exists) and `thickness >= 1`.
pub fn hollow_rectangle(w: usize, h: usize, thickness: usize) -> Vec<Point> {
    assert!(thickness >= 1);
    assert!(w > 2 * thickness && h > 2 * thickness, "no hole: {w}x{h} walls {thickness}");
    let (w, h, t) = (w as i32, h as i32, thickness as i32);
    let mut out = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let inside = x >= t && x < w - t && y >= t && y < h - t;
            if !inside {
                out.push(Point::new(x, y));
            }
        }
    }
    out
}

/// A filled diamond `{|x| + |y| <= r}` — boundary made entirely of
/// stairways.
pub fn diamond(r: usize) -> Vec<Point> {
    let r = r as i32;
    let mut out = Vec::new();
    for y in -r..=r {
        let w = r - y.abs();
        for x in -w..=w {
            out.push(Point::new(x, y));
        }
    }
    out
}

/// A single-cell-wide staircase of `steps` steps, each `run` cells long:
/// the degenerate stairway shape of Fig. 16.
pub fn staircase(steps: usize, run: usize) -> Vec<Point> {
    assert!(run >= 1);
    let mut out = Vec::new();
    let mut cursor = Point::new(0, 0);
    out.push(cursor);
    for _ in 0..steps {
        for _ in 0..run {
            cursor = Point::new(cursor.x + 1, cursor.y);
            out.push(cursor);
        }
        cursor = Point::new(cursor.x, cursor.y + 1);
        out.push(cursor);
    }
    out
}

/// The plateau of Fig. 4: a long horizontal top row supported by one
/// descending leg at each end. Mergeless whenever `width` exceeds the
/// largest local merge, so gathering *requires* runner reshapement.
pub fn table(width: usize, leg_height: usize) -> Vec<Point> {
    assert!(width >= 2);
    let mut out: Vec<Point> = (0..width as i32).map(|x| Point::new(x, 0)).collect();
    for y in 1..=leg_height as i32 {
        out.push(Point::new(0, -y));
        out.push(Point::new(width as i32 - 1, -y));
    }
    out
}

/// A plus/cross: four arms of the given length and width around a centre
/// block.
pub fn plus(arm: usize, width: usize) -> Vec<Point> {
    assert!(width >= 1);
    let (a, w) = (arm as i32, width as i32);
    let mut set = FxHashSet::default();
    for x in -(a + w / 2)..=(a + w / 2) {
        for y in -(w - 1) / 2..=w / 2 {
            set.insert(Point::new(x, y));
            set.insert(Point::new(y, x));
        }
    }
    let mut out: Vec<Point> = set.into_iter().collect();
    out.sort();
    out
}

/// A comb: a spine along y = 0 with upward teeth — many parallel quasi
/// lines close together, stressing run independence.
pub fn comb(teeth: usize, tooth_len: usize, pitch: usize) -> Vec<Point> {
    assert!(pitch >= 2, "teeth must not touch");
    let mut out = Vec::new();
    let spine_len = (teeth.saturating_sub(1)) * pitch + 1;
    for x in 0..spine_len as i32 {
        out.push(Point::new(x, 0));
    }
    for t in 0..teeth {
        let x = (t * pitch) as i32;
        for y in 1..=tooth_len as i32 {
            out.push(Point::new(x, y));
        }
    }
    out
}

/// A rectangular spiral of the given total length, one cell wide with a
/// one-cell gap between windings.
pub fn spiral(len: usize) -> Vec<Point> {
    let mut out = Vec::with_capacity(len);
    let mut p = Point::new(0, 0);
    let mut dir = 0usize; // E, N, W, S
    let deltas = [(1, 0), (0, 1), (-1, 0), (0, -1)];
    let mut leg = 1usize;
    let mut placed = 0usize;
    'outer: loop {
        for _ in 0..2 {
            for _ in 0..leg {
                if placed >= len {
                    break 'outer;
                }
                out.push(p);
                placed += 1;
                let (dx, dy) = deltas[dir % 4];
                p = Point::new(p.x + dx * 2, p.y + dy * 2);
                // Step twice so windings keep a one-cell air gap, and
                // fill the intermediate cell to stay connected.
                if placed < len {
                    out.push(Point::new(p.x - dx, p.y - dy));
                    placed += 1;
                }
            }
            dir += 1;
        }
        leg += 1;
    }
    out.truncate(len);
    // The truncation can only remove trailing cells, which keeps the
    // prefix connected by construction.
    out
}

/// Sparse multi-cluster swarm: `k` Eden-style blobs strung along a
/// north-east staircase chain, one cell wide. The chain spends ~4/5 of
/// the cell budget, so the bounding box grows *quadratically* in `n`
/// (span ≈ 2n/5 per axis) while the swarm stays 4-connected — at
/// n = 10⁵ the box exceeds 10⁹ cells, which a dense O(area) occupancy
/// index cannot allocate but the tiled index backs with O(n/4096)
/// tiles. This is the scale workload for the sparse-occupancy path.
pub fn clusters(n: usize, k: usize, seed: u64) -> Vec<Point> {
    assert!(k >= 1, "need at least one cluster");
    assert!(n >= 8 * k, "need >= 8 cells per cluster (asked {n} for {k})");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set: FxHashSet<Point> = FxHashSet::default();
    let mut out: Vec<Point> = Vec::with_capacity(n);
    let add = |p: Point, set: &mut FxHashSet<Point>, out: &mut Vec<Point>| -> bool {
        let fresh = set.insert(p);
        if fresh {
            out.push(p);
        }
        fresh
    };
    let chain_total = if k > 1 { n * 4 / 5 } else { 0 };
    let blob_each = (n - chain_total) / k;
    let link = chain_total / k.saturating_sub(1).max(1);
    let mut cursor = Point::new(0, 0);
    add(cursor, &mut set, &mut out);
    for ci in 0..k {
        // Grow an Eden blob around the chain tip. A candidate adjacent
        // to any existing cell keeps the swarm connected; duplicates are
        // skipped by the global set.
        let goal = if ci + 1 == k { n } else { out.len() + blob_each };
        let mut frontier: Vec<Point> = cursor.neighbors4().to_vec();
        while out.len() < goal {
            let i = rng.random_range(0..frontier.len());
            let p = frontier.swap_remove(i);
            if add(p, &mut set, &mut out) {
                frontier.extend(p.neighbors4().iter().filter(|q| !set.contains(q)));
            }
            // Rare: the blob grew into a pocket of older cells. Reseed
            // from random existing cells until one has a free neighbour
            // (the swarm is finite, so some boundary cell always does —
            // but a single draw can land on an interior cell, so keep
            // sampling; an empty frontier would panic in random_range).
            while frontier.is_empty() {
                let &base = out.choose(&mut rng).expect("non-empty");
                frontier.extend(base.neighbors4().iter().filter(|q| !set.contains(q)));
            }
        }
        if ci + 1 < k {
            // March the staircase chain north-east. Consecutive walk
            // cells are 4-adjacent and the walk starts inside the blob,
            // so connectivity holds even where the walk crosses cells
            // that already exist.
            let mut placed = 0usize;
            let mut east = true;
            while placed < link {
                cursor += if east { V2::E } else { V2::N };
                east = !east;
                if add(cursor, &mut set, &mut out) {
                    placed += 1;
                }
            }
        }
    }
    debug_assert_eq!(out.len(), n, "stage budgets must sum to n");
    out
}

/// Random connected blob grown by seeded random attachment (an Eden /
/// DLA-style cluster): dense, irregular boundary, occasional holes.
pub fn random_blob(n: usize, seed: u64) -> Vec<Point> {
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cells: Vec<Point> = vec![Point::new(0, 0)];
    let mut set: FxHashSet<Point> = cells.iter().copied().collect();
    let mut frontier: Vec<Point> = Point::new(0, 0).neighbors4().to_vec();
    while cells.len() < n {
        let i = rng.random_range(0..frontier.len());
        let p = frontier.swap_remove(i);
        if set.insert(p) {
            cells.push(p);
            for q in p.neighbors4() {
                if !set.contains(&q) {
                    frontier.push(q);
                }
            }
        }
    }
    cells
}

/// Random connected *tree*: like [`random_blob`] but biased toward
/// sparse, tentacled shapes (a new cell must touch exactly one existing
/// cell), producing long pendant chains and many boundary robots.
pub fn random_tree(n: usize, seed: u64) -> Vec<Point> {
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cells: Vec<Point> = vec![Point::new(0, 0)];
    let mut set: FxHashSet<Point> = cells.iter().copied().collect();
    let mut guard = 0usize;
    while cells.len() < n {
        guard += 1;
        assert!(guard < n.saturating_mul(10_000), "tree growth stalled");
        let &base = cells.choose(&mut rng).expect("non-empty");
        let nbrs = base.neighbors4();
        let &cand = nbrs.choose(&mut rng).expect("non-empty");
        if set.contains(&cand) {
            continue;
        }
        let contacts = cand.neighbors4().iter().filter(|q| set.contains(q)).count();
        if contacts == 1 {
            set.insert(cand);
            cells.push(cand);
        }
    }
    cells
}

/// A random x-monotone "skyline": columns of random height over a common
/// baseline — plateaus of all widths, many quasi-line endpoints.
pub fn skyline(columns: usize, max_height: usize, seed: u64) -> Vec<Point> {
    assert!(columns >= 1 && max_height >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for x in 0..columns as i32 {
        let h = rng.random_range(1..=max_height as i32);
        for y in 0..h {
            out.push(Point::new(x, y));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_engine::connectivity::points_connected;
    use grid_engine::fxhash::FxHashSet;

    fn check(name: &str, pts: &[Point]) {
        let set: FxHashSet<Point> = pts.iter().copied().collect();
        assert_eq!(set.len(), pts.len(), "{name}: duplicate cells");
        assert!(points_connected(pts), "{name}: not 4-connected");
    }

    #[test]
    fn all_shapes_connected_and_duplicate_free() {
        check("line", &line(40));
        check("vline", &vertical_line(17));
        check("rect", &rectangle(9, 5));
        check("square", &square(8));
        check("hollow", &hollow_rectangle(12, 9, 2));
        check("diamond", &diamond(6));
        check("staircase", &staircase(10, 3));
        check("table", &table(30, 4));
        check("plus", &plus(10, 3));
        check("comb", &comb(5, 6, 3));
        check("spiral", &spiral(120));
        for seed in 0..5 {
            check("blob", &random_blob(300, seed));
            check("tree", &random_tree(120, seed));
            check("skyline", &skyline(25, 9, seed));
            check("clusters", &clusters(400, 4, seed));
            check("clusters-k1", &clusters(64, 1, seed));
        }
    }

    #[test]
    fn clusters_bounding_box_grows_quadratically() {
        use grid_engine::Bounds;
        let pts = clusters(4096, 4, 7);
        assert_eq!(pts.len(), 4096);
        let b = Bounds::of(pts.iter().copied()).unwrap();
        let area = b.width() as u64 * b.height() as u64;
        // The chain budget is ~4n/5 cells at 2 cells per NE step, so the
        // span is ~2n/5 per axis and the box ~4n²/25 cells — far beyond
        // anything an O(area) index should allocate. (At n = 10⁵ this
        // same shape exceeds 10⁹ cells; asserted at 4096 to keep the
        // debug-build test fast.)
        assert!(area >= (pts.len() as u64).pow(2) / 25, "box only {area} cells");
        // And exactly n cells, every time, per seed.
        assert_eq!(clusters(4096, 4, 7), pts, "not deterministic");
    }

    #[test]
    fn sizes_are_exact_where_specified() {
        assert_eq!(line(10).len(), 10);
        assert_eq!(rectangle(4, 6).len(), 24);
        assert_eq!(diamond(3).len(), 25); // 2r(r+1)+1
        assert_eq!(random_blob(250, 1).len(), 250);
        assert_eq!(random_tree(77, 2).len(), 77);
        assert_eq!(spiral(99).len(), 99);
        assert_eq!(table(20, 3).len(), 26);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_blob(200, 42), random_blob(200, 42));
        assert_eq!(random_tree(90, 42), random_tree(90, 42));
        assert_ne!(random_blob(200, 1), random_blob(200, 2));
    }

    #[test]
    fn hollow_rectangle_has_a_hole() {
        let pts = hollow_rectangle(8, 8, 1);
        let set: FxHashSet<Point> = pts.iter().copied().collect();
        assert!(!set.contains(&Point::new(4, 4)));
        assert_eq!(pts.len(), 8 * 8 - 6 * 6);
    }

    #[test]
    #[should_panic(expected = "no hole")]
    fn hollow_rectangle_rejects_solid() {
        hollow_rectangle(4, 4, 2);
    }

    #[test]
    fn table_is_mergeless_shape() {
        // The Fig. 4 plateau: top row plus two legs; exact population.
        let pts = table(10, 2);
        assert_eq!(pts.len(), 10 + 4);
    }
}
