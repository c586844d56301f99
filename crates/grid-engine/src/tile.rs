//! Tiled occupancy index: the swarm's spatial index, split into dense
//! 64×64 tiles.
//!
//! The dense [`OccupancyGrid`](crate::grid::OccupancyGrid) allocates the
//! swarm's full bounding rectangle, which is O(area): a sparse
//! two-cluster swarm 10⁵ cells apart would demand ~10¹⁰ cells before the
//! first round runs, and every escape past the rectangle's edge triggers
//! a stop-the-world full copy. This index instead stores fixed 64×64
//! dense tiles (`Box<[u32; 4096]>`) in one hash map keyed by tile
//! coordinate: memory is O(occupied tiles), there is no global
//! reallocation, and `bounds()` derives from tile-key extremes plus a
//! scan of the boundary tiles only — no O(n) rescan over robots. Every
//! mutation runs on the calling thread (the round-apply); the parallel
//! compute step only reads.
//!
//! Two access paths keep probes cheap:
//!
//! * [`TileIndex::window`] pins the ≤3×3 tile block around a viewing
//!   robot, so the compute step's O(radius²) probes cost an array read
//!   plus two compares each instead of a hash lookup — this is what
//!   keeps the tiled index competitive with the dense grid on the hot
//!   look path.
//! * A window's ball scan (`TileWindow::for_each_in_ball`) visits every
//!   occupied cell within an L1 radius by scanning each world row's
//!   contiguous tile slice, skipping all-empty 8-cell chunks. Whole-ball
//!   reads — GoToCenter's look, the quiet set's invalidation — take this
//!   path instead of one probe per cell.

use crate::fxhash::FxHashMap;
use crate::geom::{Bounds, Point};

/// Sentinel id for an empty cell (shared with the dense reference grid).
pub const EMPTY: u32 = u32::MAX;

/// log2 of the tile edge length.
pub const TILE_BITS: i32 = 6;
/// Tile edge length in cells.
pub const TILE_SIZE: i32 = 1 << TILE_BITS;
/// Cells per tile.
pub const TILE_CELLS: usize = (TILE_SIZE * TILE_SIZE) as usize;

/// Coordinate of a tile: the cell coordinates arithmetically shifted by
/// [`TILE_BITS`] (floor division, so negative cells tile correctly).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TileKey {
    pub x: i32,
    pub y: i32,
}

impl TileKey {
    #[inline]
    pub fn of(p: Point) -> TileKey {
        TileKey { x: p.x >> TILE_BITS, y: p.y >> TILE_BITS }
    }
}

/// One dense 64×64 tile plus its live-cell count (so empty tiles can be
/// dropped, keeping both memory and the tile-key extremes honest).
impl std::fmt::Debug for Tile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tile").field("occupied", &self.occupied).finish_non_exhaustive()
    }
}

#[derive(Clone)]
pub struct Tile {
    cells: Box<[u32; TILE_CELLS]>,
    occupied: u32,
}

impl Tile {
    fn new() -> Tile {
        Tile { cells: Box::new([EMPTY; TILE_CELLS]), occupied: 0 }
    }

    /// Index of a world-frame cell within its tile.
    #[inline]
    fn idx(p: Point) -> usize {
        (((p.y & (TILE_SIZE - 1)) as usize) << TILE_BITS) | ((p.x & (TILE_SIZE - 1)) as usize)
    }

    #[inline]
    pub fn get(&self, p: Point) -> Option<u32> {
        let v = self.cells[Tile::idx(p)];
        (v != EMPTY).then_some(v)
    }

    /// Exact bounds of the occupied cells, in tile-local offsets.
    /// O(TILE_CELLS); only called for the boundary tiles of a bounds
    /// query, never per robot.
    fn local_extents(&self) -> Option<(i32, i32, i32, i32)> {
        let mut ext: Option<(i32, i32, i32, i32)> = None;
        for (i, &v) in self.cells.iter().enumerate() {
            if v == EMPTY {
                continue;
            }
            let x = (i & (TILE_SIZE as usize - 1)) as i32;
            let y = (i >> TILE_BITS) as i32;
            ext = Some(match ext {
                None => (x, x, y, y),
                Some((x0, x1, y0, y1)) => (x0.min(x), x1.max(x), y0.min(y), y1.max(y)),
            });
        }
        ext
    }
}

/// The tiled occupancy index. Memory is proportional to *occupied
/// tiles*, never to the bounding rectangle.
#[derive(Clone, Debug, Default)]
pub struct TileIndex {
    tiles: FxHashMap<TileKey, Tile>,
}

impl TileIndex {
    pub fn new() -> TileIndex {
        TileIndex::default()
    }

    /// Robot id occupying `p`, if any. Cells in untouched tiles are by
    /// definition empty — there is no "outside the backing store".
    #[inline]
    pub fn get(&self, p: Point) -> Option<u32> {
        self.tiles.get(&TileKey::of(p))?.get(p)
    }

    #[inline]
    pub fn occupied(&self, p: Point) -> bool {
        self.get(p).is_some()
    }

    /// Mark `p` as occupied by robot `id`, creating its tile on demand.
    /// Returns the id previously stored at `p`.
    pub fn set(&mut self, p: Point, id: u32) -> Option<u32> {
        let tile = self.tiles.entry(TileKey::of(p)).or_insert_with(Tile::new);
        let cell = &mut tile.cells[Tile::idx(p)];
        let old = std::mem::replace(cell, id);
        if old == EMPTY {
            tile.occupied += 1;
            None
        } else {
            Some(old)
        }
    }

    /// Mark `p` as empty, dropping its tile when it empties out. Returns
    /// the id previously stored there.
    pub fn clear(&mut self, p: Point) -> Option<u32> {
        let key = TileKey::of(p);
        let tile = self.tiles.get_mut(&key)?;
        let cell = &mut tile.cells[Tile::idx(p)];
        let old = std::mem::replace(cell, EMPTY);
        if old == EMPTY {
            return None;
        }
        tile.occupied -= 1;
        if tile.occupied == 0 {
            self.tiles.remove(&key);
        }
        Some(old)
    }

    /// Live (non-empty) tiles currently allocated.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Cells currently backed by allocated tiles (diagnostic): the
    /// memory-proportional analogue of the dense grid's
    /// `capacity_cells`, O(occupied tiles) rather than O(bounding box).
    pub fn capacity_cells(&self) -> usize {
        self.tile_count() * TILE_CELLS
    }

    /// Exact bounds of the occupied cells, derived from tile-key
    /// extremes: O(live tiles) to find the extreme tile rows/columns,
    /// plus a cell scan of those boundary tiles only. Never rescans
    /// robots — cost is independent of the population.
    pub fn bounds(&self) -> Option<Bounds> {
        let mut keys: Option<(i32, i32, i32, i32)> = None;
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "min/max fold over tile keys is commutative: the result is independent of visit order"
        )]
        for key in self.tiles.keys() {
            keys = Some(match keys {
                None => (key.x, key.x, key.y, key.y),
                Some((x0, x1, y0, y1)) => {
                    (x0.min(key.x), x1.max(key.x), y0.min(key.y), y1.max(key.y))
                }
            });
        }
        let (kx0, kx1, ky0, ky1) = keys?;
        // Any tile with key.x > kx0 only holds cells at x ≥ (kx0+1)·64,
        // so the global min x lives in the kx0 tile column; same for the
        // other three extremes.
        let (mut x0, mut x1, mut y0, mut y1) = (i32::MAX, i32::MIN, i32::MAX, i32::MIN);
        #[expect(
            clippy::iter_over_hash_type,
            reason = "min/max fold over boundary tiles is commutative: order cannot leak into the bounds"
        )]
        for (key, tile) in &self.tiles {
            if key.x != kx0 && key.x != kx1 && key.y != ky0 && key.y != ky1 {
                continue;
            }
            let (lx0, lx1, ly0, ly1) =
                tile.local_extents().expect("live tiles hold at least one cell");
            if key.x == kx0 {
                x0 = x0.min((kx0 << TILE_BITS) + lx0);
            }
            if key.x == kx1 {
                x1 = x1.max((kx1 << TILE_BITS) + lx1);
            }
            if key.y == ky0 {
                y0 = y0.min((ky0 << TILE_BITS) + ly0);
            }
            if key.y == ky1 {
                y1 = y1.max((ky1 << TILE_BITS) + ly1);
            }
        }
        Some(Bounds { min: Point::new(x0, y0), max: Point::new(x1, y1) })
    }

    /// Pin the tile block covering `center ± radius` (L∞) for repeated
    /// probing — the *look*-step fast path. Falls back to per-probe map
    /// lookups when the block would exceed 3×3 tiles (radius > 64ish,
    /// which no shipped controller uses).
    pub fn window(&self, center: Point, radius: i32) -> TileWindow<'_> {
        let radius = radius.max(0);
        let kx0 = (center.x - radius) >> TILE_BITS;
        let kx1 = (center.x + radius) >> TILE_BITS;
        let ky0 = (center.y - radius) >> TILE_BITS;
        let ky1 = (center.y + radius) >> TILE_BITS;
        let (w, h) = (kx1 - kx0 + 1, ky1 - ky0 + 1);
        let mut win = TileWindow { index: self, kx0, ky0, w: 0, h: 0, tiles: [None; WINDOW_TILES] };
        if w <= WINDOW_EDGE as i32 && h <= WINDOW_EDGE as i32 {
            win.w = w;
            win.h = h;
            for dy in 0..h {
                for dx in 0..w {
                    let key = TileKey { x: kx0 + dx, y: ky0 + dy };
                    win.tiles[(dy * w + dx) as usize] = self.tiles.get(&key);
                }
            }
        }
        win
    }
}

const WINDOW_EDGE: usize = 3;
const WINDOW_TILES: usize = WINDOW_EDGE * WINDOW_EDGE;

/// A pinned ≤3×3 block of tile references around a viewing robot:
/// probes inside the block are an array read plus two compares; probes
/// outside (or any probe when the radius exceeded the block) fall back
/// to the index.
pub struct TileWindow<'a> {
    index: &'a TileIndex,
    kx0: i32,
    ky0: i32,
    w: i32,
    h: i32,
    tiles: [Option<&'a Tile>; WINDOW_TILES],
}

impl std::fmt::Debug for TileWindow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileWindow")
            .field("kx0", &self.kx0)
            .field("ky0", &self.ky0)
            .field("w", &self.w)
            .field("h", &self.h)
            .finish_non_exhaustive()
    }
}

/// Cells per chunk of a ball scan's row slice: a chunk whose cells all
/// read [`EMPTY`] is skipped after one AND-fold.
const SCAN_CHUNK: usize = 8;

impl TileWindow<'_> {
    #[inline]
    pub fn get(&self, p: Point) -> Option<u32> {
        let dx = (p.x >> TILE_BITS) - self.kx0;
        let dy = (p.y >> TILE_BITS) - self.ky0;
        if dx >= 0 && dx < self.w && dy >= 0 && dy < self.h {
            self.tiles[(dy * self.w + dx) as usize].and_then(|t| t.get(p))
        } else {
            self.index.get(p)
        }
    }

    #[inline]
    pub fn occupied(&self, p: Point) -> bool {
        self.get(p).is_some()
    }

    /// Call `f(cell, id)` for every occupied cell within L1 distance `r`
    /// of `center`, in world scanline order (rows by ascending `y`, each
    /// by ascending `x`): one row-slice scan per world row.
    #[inline]
    pub(crate) fn for_each_in_ball(&self, center: Point, r: i32, mut f: impl FnMut(Point, u32)) {
        for dy in -r..=r {
            let (y, w) = (center.y + dy, r - dy.abs());
            self.for_each_in_row(y, center.x - w, center.x + w, |x, id| f(Point::new(x, y), id));
        }
    }

    /// Call `f(x, id)` for every occupied cell of row `y` from `x0` to
    /// `x1` inclusive, in x order: a scan of each tile's contiguous row
    /// slice. An empty cell is all ones ([`EMPTY`]), so a chunk of cells
    /// AND-folds to [`EMPTY`] exactly when every cell in it is empty,
    /// and such a chunk is skipped without a per-cell test.
    #[inline]
    fn for_each_in_row(&self, y: i32, x0: i32, x1: i32, mut f: impl FnMut(i32, u32)) {
        let ky = y >> TILE_BITS;
        let row = ((y & (TILE_SIZE - 1)) as usize) << TILE_BITS;
        let mut x = x0;
        while x <= x1 {
            let kx = x >> TILE_BITS;
            let end = x1.min((kx << TILE_BITS) + TILE_SIZE - 1);
            let (dx, dy) = (kx - self.kx0, ky - self.ky0);
            let tile = if dx >= 0 && dx < self.w && dy >= 0 && dy < self.h {
                self.tiles[(dy * self.w + dx) as usize]
            } else {
                self.index.tiles.get(&TileKey { x: kx, y: ky })
            };
            if let Some(tile) = tile {
                let start = row + (x & (TILE_SIZE - 1)) as usize;
                let cells = &tile.cells[start..=start + (end - x) as usize];
                let mut scan = |cx: i32, chunk: &[u32]| {
                    if chunk.iter().fold(EMPTY, |all, &id| all & id) != EMPTY {
                        for (cx, &id) in (cx..).zip(chunk) {
                            if id != EMPTY {
                                f(cx, id);
                            }
                        }
                    }
                };
                let mut chunks = cells.chunks_exact(SCAN_CHUNK);
                let mut cx = x;
                for chunk in &mut chunks {
                    scan(cx, chunk);
                    cx += SCAN_CHUNK as i32;
                }
                scan(cx, chunks.remainder());
            }
            x = end + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_across_tile_borders() {
        let mut idx = TileIndex::new();
        // Cells straddling the origin land in four different tiles.
        for (i, p) in [Point::new(0, 0), Point::new(-1, 0), Point::new(0, -1), Point::new(-1, -1)]
            .into_iter()
            .enumerate()
        {
            assert_eq!(idx.get(p), None);
            assert_eq!(idx.set(p, i as u32), None);
            assert_eq!(idx.get(p), Some(i as u32));
        }
        assert_eq!(idx.tile_count(), 4);
        assert_eq!(idx.set(Point::new(0, 0), 9), Some(0), "overwrite reports the old id");
        assert_eq!(idx.clear(Point::new(0, 0)), Some(9));
        assert_eq!(idx.get(Point::new(0, 0)), None);
        assert_eq!(idx.clear(Point::new(0, 0)), None);
        assert_eq!(idx.tile_count(), 3, "emptied tile is dropped");
    }

    #[test]
    fn far_flung_cells_cost_tiles_not_area() {
        let mut idx = TileIndex::new();
        idx.set(Point::new(0, 0), 0);
        idx.set(Point::new(1_000_000, -2_000_000), 1);
        // Bounding box is 2·10¹² cells; the index holds two tiles.
        assert_eq!(idx.tile_count(), 2);
        assert_eq!(idx.capacity_cells(), 2 * TILE_CELLS);
        assert_eq!(idx.get(Point::new(1_000_000, -2_000_000)), Some(1));
        assert!(!idx.occupied(Point::new(500_000, -1_000_000)));
    }

    #[test]
    fn bounds_track_tile_extremes_exactly() {
        let mut idx = TileIndex::new();
        assert_eq!(idx.bounds(), None);
        idx.set(Point::new(3, 5), 0);
        assert_eq!(idx.bounds(), Some(Bounds { min: Point::new(3, 5), max: Point::new(3, 5) }));
        idx.set(Point::new(-130, 64), 1);
        idx.set(Point::new(40, -1), 2);
        assert_eq!(
            idx.bounds(),
            Some(Bounds { min: Point::new(-130, -1), max: Point::new(40, 64) })
        );
        // Clearing an extreme cell shrinks the bounds (its tile dies).
        idx.clear(Point::new(-130, 64));
        assert_eq!(idx.bounds(), Some(Bounds { min: Point::new(3, -1), max: Point::new(40, 5) }));
    }

    #[test]
    fn window_agrees_with_direct_probes() {
        let mut idx = TileIndex::new();
        let pts = [Point::new(0, 0), Point::new(63, 63), Point::new(64, 64), Point::new(-1, 70)];
        for (i, &p) in pts.iter().enumerate() {
            idx.set(p, i as u32);
        }
        for center in [Point::new(0, 0), Point::new(63, 63), Point::new(-10, 65)] {
            let win = idx.window(center, 20);
            for dy in -25..=25 {
                for dx in -25..=25 {
                    let p = Point::new(center.x + dx, center.y + dy);
                    assert_eq!(win.get(p), idx.get(p), "center {center:?} probe {p:?}");
                }
            }
        }
        // An oversized radius falls back to direct probes and still
        // answers correctly.
        let win = idx.window(Point::new(0, 0), 500);
        for &p in &pts {
            assert!(win.occupied(p));
        }
        assert!(!win.occupied(Point::new(7, 7)));
    }

    #[test]
    fn row_scan_agrees_with_direct_probes() {
        // A 5-cell stripe, lone cells one in 9 (every chunk position holds
        // the only robot of some chunk), and a solid block (every position
        // of a chunk occupied), each over a box spanning negative tiles.
        let patterns: [fn(i32, i32) -> bool; 3] = [
            |x, y| (x * 7 + y * 13).rem_euclid(5) == 0,
            |x, y| (x - 2 * y).rem_euclid(9) == 0,
            |_, _| true,
        ];
        for (k, occupied) in patterns.into_iter().enumerate() {
            let mut idx = TileIndex::new();
            let mut n = 0u32;
            for y in -100i32..100 {
                for x in -100i32..100 {
                    if occupied(x, y) {
                        idx.set(Point::new(x, y), n);
                        n += 1;
                    }
                }
            }
            let centers = [
                Point::new(0, 0),
                Point::new(-1, -1),
                Point::new(63, -1),
                Point::new(-64, 64),
                Point::new(-70, 30),
                Point::new(5, -45),
            ];
            for center in centers {
                for r in [0i32, 1, 7, 20, 22] {
                    let probed: Vec<(Point, u32)> = (-r..=r)
                        .flat_map(|dy| {
                            let w = r - dy.abs();
                            (-w..=w).map(move |dx| Point::new(center.x + dx, center.y + dy))
                        })
                        .filter_map(|p| Some((p, idx.get(p)?)))
                        .collect();
                    // Pinned at the ball's radius, at a larger one, at 0
                    // (rows beyond the pinned block fall back to the
                    // index) and past the 3×3 block (all rows do).
                    for pin in [r, r + 30, 0, 500] {
                        let mut scanned = Vec::new();
                        idx.window(center, pin).for_each_in_ball(center, r, |p, id| {
                            scanned.push((p, id));
                        });
                        assert_eq!(
                            scanned, probed,
                            "pattern {k} center {center:?} r {r} pin {pin}"
                        );
                    }
                }
            }
        }
    }
}
