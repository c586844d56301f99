//! Dense occupancy index over the rectangle currently inhabited by the
//! swarm — the *reference* implementation the tiled index is tested
//! against.
//!
//! This was the engine's occupancy index before the tiled refactor
//! ([`crate::tile`]): a dense `Vec<u32>` (robot id per cell, sentinel
//! for empty) makes every probe one bounds check plus one array read,
//! but memory is O(bounding-box area) — a sparse two-cluster swarm 10⁵
//! cells apart would demand ~10¹⁰ cells before the first round runs —
//! and every escape past the rectangle's edge is a stop-the-world full
//! copy (`OccupancyGrid::grow_to_include`). [`Swarm`](crate::Swarm)
//! therefore uses [`crate::tile::TileIndex`]; the dense grid stays as
//! the independent oracle for the tiled-vs-dense equivalence proptests
//! and *refuses* (loud panic, see [`DENSE_CELL_LIMIT`]) rather than
//! allocating a bounding box it cannot honestly back.

use crate::geom::{Bounds, Point};

/// Sentinel id for an empty cell.
pub const EMPTY: u32 = u32::MAX;

/// Hard cap on the dense grid's backing store (2³⁸ bytes would be
/// absurd; 2²⁸ cells ≈ 1 GiB of `u32`). Beyond this the constructor
/// panics instead of OOM-killing the process half-way through an
/// allocation — which is exactly the failure mode the tiled index
/// exists to remove.
pub const DENSE_CELL_LIMIT: u128 = 1 << 28;

impl std::fmt::Debug for OccupancyGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OccupancyGrid")
            .field("origin", &self.origin)
            .field("width", &self.width)
            .field("height", &self.height)
            .finish_non_exhaustive()
    }
}

#[derive(Clone)]
pub struct OccupancyGrid {
    origin: Point,
    width: i32,
    height: i32,
    cells: Vec<u32>,
}

impl OccupancyGrid {
    /// Create a grid covering `bounds` inflated by `margin` cells.
    ///
    /// # Panics
    /// Refuses (panics) when the rectangle exceeds [`DENSE_CELL_LIMIT`]
    /// cells: a dense index over a sparse far-flung swarm is a memory
    /// bomb, and the caller should be on [`crate::tile::TileIndex`].
    pub fn covering(bounds: Bounds, margin: i32) -> Self {
        let b = bounds.inflated(margin.max(1));
        let width = b.width();
        let height = b.height();
        let cells = width as u128 * height as u128;
        assert!(
            cells <= DENSE_CELL_LIMIT,
            "dense occupancy refuses a {width}x{height} bounding box ({cells} cells > \
             {DENSE_CELL_LIMIT}); use the tiled index (memory ~ occupied tiles) instead"
        );
        OccupancyGrid {
            origin: b.min,
            width,
            height,
            cells: vec![EMPTY; (width as usize) * (height as usize)],
        }
    }

    #[inline]
    fn index(&self, p: Point) -> Option<usize> {
        let dx = p.x - self.origin.x;
        let dy = p.y - self.origin.y;
        if dx < 0 || dy < 0 || dx >= self.width || dy >= self.height {
            None
        } else {
            Some(dy as usize * self.width as usize + dx as usize)
        }
    }

    /// Robot id occupying `p`, if any. Cells outside the backing
    /// rectangle are by definition empty.
    #[inline]
    pub fn get(&self, p: Point) -> Option<u32> {
        let i = self.index(p)?;
        let v = self.cells[i];
        (v != EMPTY).then_some(v)
    }

    #[inline]
    pub fn occupied(&self, p: Point) -> bool {
        self.get(p).is_some()
    }

    /// Mark `p` as occupied by robot `id`, growing the backing store if
    /// `p` lies outside it. Returns the id previously stored at `p`.
    pub fn set(&mut self, p: Point, id: u32) -> Option<u32> {
        if self.index(p).is_none() {
            self.grow_to_include(p);
        }
        let i = self.index(p).expect("grown grid contains p");
        let old = self.cells[i];
        self.cells[i] = id;
        (old != EMPTY).then_some(old)
    }

    /// Mark `p` as empty. Returns the id previously stored there.
    pub fn clear(&mut self, p: Point) -> Option<u32> {
        let i = self.index(p)?;
        let old = self.cells[i];
        self.cells[i] = EMPTY;
        (old != EMPTY).then_some(old)
    }

    fn grow_to_include(&mut self, p: Point) {
        // Grow generously so repeated single-cell escapes do not cause
        // quadratic re-allocation.
        let pad = 16.max(self.width / 4).max(self.height / 4);
        let old_max = Point::new(self.origin.x + self.width - 1, self.origin.y + self.height - 1);
        let b = Bounds {
            min: Point::new(self.origin.x.min(p.x - pad), self.origin.y.min(p.y - pad)),
            max: Point::new(old_max.x.max(p.x + pad), old_max.y.max(p.y + pad)),
        };
        let mut next = OccupancyGrid::covering(b, 0);
        for dy in 0..self.height {
            let src = dy as usize * self.width as usize;
            let world_y = self.origin.y + dy;
            let dst_x = (self.origin.x - next.origin.x) as usize;
            let dst_y = (world_y - next.origin.y) as usize;
            let dst = dst_y * next.width as usize + dst_x;
            next.cells[dst..dst + self.width as usize]
                .copy_from_slice(&self.cells[src..src + self.width as usize]);
        }
        *self = next;
    }

    /// Cells currently backed by the grid (diagnostic).
    pub fn capacity_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Bounds, Point};

    fn grid() -> OccupancyGrid {
        OccupancyGrid::covering(Bounds::of([Point::new(0, 0), Point::new(9, 9)]).unwrap(), 2)
    }

    #[test]
    fn set_get_clear() {
        let mut g = grid();
        assert_eq!(g.get(Point::new(3, 3)), None);
        assert_eq!(g.set(Point::new(3, 3), 7), None);
        assert_eq!(g.get(Point::new(3, 3)), Some(7));
        assert!(g.occupied(Point::new(3, 3)));
        assert_eq!(g.clear(Point::new(3, 3)), Some(7));
        assert_eq!(g.get(Point::new(3, 3)), None);
    }

    #[test]
    fn out_of_range_is_empty() {
        let g = grid();
        assert_eq!(g.get(Point::new(1000, 1000)), None);
        assert!(!g.occupied(Point::new(-1000, 0)));
    }

    #[test]
    fn grows_on_escape() {
        let mut g = grid();
        let far = Point::new(500, -500);
        g.set(far, 42);
        assert_eq!(g.get(far), Some(42));
        // Previously stored values survive growth.
        g.set(Point::new(0, 0), 1);
        g.set(Point::new(-600, 600), 2);
        assert_eq!(g.get(Point::new(0, 0)), Some(1));
        assert_eq!(g.get(far), Some(42));
        assert_eq!(g.get(Point::new(-600, 600)), Some(2));
    }

    #[test]
    fn set_reports_overwrite() {
        let mut g = grid();
        g.set(Point::new(1, 1), 3);
        assert_eq!(g.set(Point::new(1, 1), 4), Some(3));
        assert_eq!(g.get(Point::new(1, 1)), Some(4));
    }

    /// The dense grid must *refuse* a sparse far-flung bounding box
    /// (the clusters-family shape) instead of attempting an O(area)
    /// allocation — the failure the tiled index exists to remove.
    #[test]
    #[should_panic(expected = "dense occupancy refuses")]
    fn refuses_sparse_cluster_bounding_boxes() {
        let b = Bounds::of([Point::new(0, 0), Point::new(100_000, 100_000)]).unwrap();
        let _ = OccupancyGrid::covering(b, 1); // ~10^10 cells
    }
}
