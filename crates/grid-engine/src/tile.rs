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
//! * Each tile also keeps one 64-bit *row word* per row, bit `x` set
//!   while cell `x` of the row holds a robot, and one *row summary*,
//!   bit `y` set while row `y` is empty, in the same allocation as its
//!   cells; [`TileIndex::set`] and [`TileIndex::clear`] keep the three
//!   in step, touching the summary only when a row turns empty or stops
//!   being so, and drop a tile once its summary reads all ones. A
//!   window's ball walk goes one tile row (a *band*) at a time: it ORs
//!   the summaries of the band's tiles the ball crosses, visits only the
//!   world rows some of them occupy, and reads for each one masked word
//!   per tile the row crosses and only its set bits. The quiet set's
//!   invalidation and `View::for_each_within` read a handle per set bit
//!   (`TileWindow::for_each_in_ball`), and GoToCenter's look takes the
//!   ball's robot count and offset sum from the words alone
//!   (`TileWindow::count_and_sum_in_ball`). The connectivity flood and a
//!   tile's extents read the words too, never the 16 KiB of cells.

use crate::fxhash::FxHashMap;
use crate::geom::{Bounds, Point, V2};

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

/// Rows per tile, each with one occupancy word.
pub(crate) const TILE_ROWS: usize = TILE_SIZE as usize;

impl std::fmt::Debug for Tile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows = self.rows().count_ones();
        f.debug_struct("Tile").field("occupied_rows", &rows).finish_non_exhaustive()
    }
}

/// One dense 64×64 tile. It holds a robot exactly when its row summary
/// has a clear bit, so an emptied tile is dropped, keeping both memory
/// and the tile-key extremes honest.
#[derive(Clone)]
pub struct Tile {
    cells: Box<Cells>,
}

/// A tile's one allocation: the handles, per row a *vacancy word* whose
/// bit `x` is set exactly when cell `x` of the row is empty, and the
/// *row summary*, whose bit `y` is set exactly when row `y` is empty.
/// Empty reads all ones in all three ([`EMPTY`] for a handle), so a new
/// tile is one fill of ones, written in place; a row's occupancy word is
/// its vacancy word inverted, and the tile's occupied rows its summary
/// inverted.
#[derive(Clone)]
struct Cells {
    ids: [u32; TILE_CELLS],
    vacant: [u64; TILE_ROWS],
    empty_rows: u64,
}

impl Tile {
    fn new() -> Tile {
        Tile {
            cells: Box::new(Cells {
                ids: [EMPTY; TILE_CELLS],
                vacant: [u64::MAX; TILE_ROWS],
                empty_rows: u64::MAX,
            }),
        }
    }

    /// Index of a world-frame cell within its tile.
    #[inline]
    fn idx(p: Point) -> usize {
        (((p.y & (TILE_SIZE - 1)) as usize) << TILE_BITS) | ((p.x & (TILE_SIZE - 1)) as usize)
    }

    #[inline]
    pub fn get(&self, p: Point) -> Option<u32> {
        let v = self.cells.ids[Tile::idx(p)];
        (v != EMPTY).then_some(v)
    }

    /// The occupancy word of tile-local row `y`: bit `x` is set ⇔ cell
    /// `(x, y)` holds a robot.
    #[inline]
    pub(crate) fn row(&self, y: usize) -> u64 {
        !self.cells.vacant[y]
    }

    /// The tile's occupied rows: bit `y` is set ⇔ row `y` holds a robot.
    #[inline]
    fn rows(&self) -> u64 {
        !self.cells.empty_rows
    }

    /// Exact bounds of the occupied cells, in tile-local offsets, from
    /// the row summary and words; only called for the boundary tiles of
    /// a bounds query, never per robot.
    fn local_extents(&self) -> Option<(i32, i32, i32, i32)> {
        let rows = self.rows();
        if rows == 0 {
            return None;
        }
        let (y0, y1) = (rows.trailing_zeros() as usize, 63 - rows.leading_zeros() as usize);
        let all = (y0..=y1).fold(0, |all, y| all | self.row(y));
        let (x0, x1) = (all.trailing_zeros(), 63 - all.leading_zeros());
        Some((x0 as i32, x1 as i32, y0 as i32, y1 as i32))
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
        let i = Tile::idx(p);
        let old = std::mem::replace(&mut tile.cells.ids[i], id);
        if old == EMPTY {
            let (y, cells) = (i >> TILE_BITS, &mut *tile.cells);
            if cells.vacant[y] == u64::MAX {
                cells.empty_rows &= !(1 << y);
            }
            cells.vacant[y] &= !(1 << (i & (TILE_ROWS - 1)));
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
        let i = Tile::idx(p);
        let old = std::mem::replace(&mut tile.cells.ids[i], EMPTY);
        if old == EMPTY {
            return None;
        }
        let (y, cells) = (i >> TILE_BITS, &mut *tile.cells);
        cells.vacant[y] |= 1 << (i & (TILE_ROWS - 1));
        if cells.vacant[y] == u64::MAX {
            cells.empty_rows |= 1 << y;
            if cells.empty_rows == u64::MAX {
                self.tiles.remove(&key);
            }
        }
        Some(old)
    }

    /// Every live tile with its key, in ascending key order.
    pub(crate) fn sorted_tiles(&self) -> Vec<(TileKey, &Tile)> {
        let mut tiles = Vec::with_capacity(self.tiles.len());
        #[expect(
            clippy::iter_over_hash_type,
            reason = "collected in hash order, then sorted by key: the order cannot leak"
        )]
        for (&key, tile) in &self.tiles {
            tiles.push((key, tile));
        }
        tiles.sort_unstable_by_key(|&(key, _)| key);
        tiles
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

impl TileWindow<'_> {
    #[inline]
    pub fn get(&self, p: Point) -> Option<u32> {
        self.tile(TileKey::of(p))?.get(p)
    }

    #[inline]
    pub fn occupied(&self, p: Point) -> bool {
        self.get(p).is_some()
    }

    /// The tile at `key`: from the pinned block when it covers `key`,
    /// else through the index.
    #[inline]
    fn tile(&self, key: TileKey) -> Option<&Tile> {
        let (dx, dy) = (key.x - self.kx0, key.y - self.ky0);
        if dx >= 0 && dx < self.w && dy >= 0 && dy < self.h {
            self.tiles[(dy * self.w + dx) as usize]
        } else {
            self.index.tiles.get(&key)
        }
    }

    /// Call `f(cell, id)` for every occupied cell within L1 distance `r`
    /// of `center`, in world scanline order (rows by ascending `y`, each
    /// by ascending `x`): one handle read per robot, none per empty cell.
    #[inline]
    pub(crate) fn for_each_in_ball(&self, center: Point, r: i32, mut f: impl FnMut(Point, u32)) {
        self.for_each_ball_word(center, r, |tile, y, x, mut bits| {
            let row = ((y & (TILE_SIZE - 1)) as usize) << TILE_BITS;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                f(Point::new(x + b as i32, y), tile.cells.ids[row | b as usize]);
            }
        });
    }

    /// The number of occupied cells within L1 distance `r` of `center`,
    /// and the sum of their offsets from it, from the row words alone.
    #[inline]
    pub(crate) fn count_and_sum_in_ball(&self, center: Point, r: i32) -> (i32, V2) {
        let (mut n, mut sum) = (0, V2::ZERO);
        self.for_each_ball_word(center, r, |_, y, x, mut bits| {
            let (mut k, mut dx) = (0, 0);
            while bits != 0 {
                dx += bits.trailing_zeros() as i32;
                k += 1;
                bits &= bits - 1;
            }
            n += k;
            sum = sum + V2::new(dx + k * (x - center.x), k * (y - center.y));
        });
        (n, sum)
    }

    /// Call `f(tile, y, x, bits)` for every tile row segment of the L1
    /// ball of radius `r` around `center` that holds a robot, rows by
    /// ascending `y`, each row's segments by ascending `x`: `x` is the
    /// first column of `tile`, and bit `b` of `bits` is set exactly when
    /// cell `(x + b, y)` is occupied and within the ball.
    ///
    /// The walk goes one band (tile row) at a time. It ORs the row
    /// summaries of the band's tiles that the ball's widest row in the
    /// band crosses, which every other row of the band stays within, and
    /// reads the words of only the ball's rows that some of those tiles
    /// occupy, so a ball over mostly empty rows costs a few summary reads.
    /// Tiles come from `TileWindow::tile`, an array read inside the
    /// pinned block.
    #[inline]
    fn for_each_ball_word(&self, center: Point, r: i32, mut f: impl FnMut(&Tile, i32, i32, u64)) {
        if r < 0 {
            return;
        }
        let (y0, y1) = (center.y - r, center.y + r);
        for ky in y0 >> TILE_BITS..=y1 >> TILE_BITS {
            let top = ky << TILE_BITS;
            let (lo, hi) = (y0.max(top), y1.min(top + TILE_SIZE - 1));
            let w = r - (center.y.clamp(lo, hi) - center.y).abs();
            let (kx0, kx1) = ((center.x - w) >> TILE_BITS, (center.x + w) >> TILE_BITS);
            let occupied = (kx0..=kx1)
                .filter_map(|kx| self.tile(TileKey { x: kx, y: ky }))
                .fold(0, |rows, tile| rows | tile.rows());
            // Rows `lo..=hi` of the band lie in the ball; as below, both
            // shifts stay below 64 even for a whole band.
            let mut rows =
                occupied & (u64::MAX << (lo - top) as u32) & (u64::MAX >> (63 - (hi - top)) as u32);
            while rows != 0 {
                let row = rows.trailing_zeros() as usize;
                rows &= rows - 1;
                let y = top + row as i32;
                let w = r - (y - center.y).abs();
                let (x0, x1) = (center.x - w, center.x + w);
                for kx in x0 >> TILE_BITS..=x1 >> TILE_BITS {
                    let Some(tile) = self.tile(TileKey { x: kx, y: ky }) else { continue };
                    let x = kx << TILE_BITS;
                    // Bits `lo..=hi` of the row word lie in the ball; both
                    // shifts stay below 64 even for a whole-tile segment.
                    let (lo, hi) = ((x0.max(x) - x) as u32, (x1.min(x + TILE_SIZE - 1) - x) as u32);
                    let bits = tile.row(row) & (u64::MAX << lo) & (u64::MAX >> (63 - hi));
                    if bits != 0 {
                        f(tile, y, x, bits);
                    }
                }
            }
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

    /// Every live tile's row words equal its cells' occupancy, its row
    /// summary marks exactly the rows whose vacancy word is all ones, and
    /// no live tile is empty.
    fn assert_rows_match_cells(idx: &TileIndex, at: &str) {
        for (key, tile) in idx.sorted_tiles() {
            for y in 0..TILE_ROWS {
                let cells = &tile.cells.ids[y * TILE_ROWS..(y + 1) * TILE_ROWS];
                let want = cells.iter().rev().fold(0u64, |w, &id| w << 1 | u64::from(id != EMPTY));
                assert_eq!(tile.row(y), want, "{at}: tile {key:?} row {y}");
            }
            let empty = (0..TILE_ROWS)
                .rev()
                .fold(0u64, |w, y| w << 1 | u64::from(tile.cells.vacant[y] == u64::MAX));
            assert_eq!(tile.cells.empty_rows, empty, "{at}: tile {key:?} row summary");
            assert_ne!(empty, u64::MAX, "{at}: tile {key:?} is live but empty");
        }
    }

    #[test]
    fn row_words_follow_sets_and_clears() {
        // An overwrite keeps the bit; a tile that empties is dropped, and
        // created again with only the new cell's bit.
        let mut idx = TileIndex::new();
        let p = Point::new(-1, -64);
        idx.set(p, 1);
        assert_eq!(idx.set(p, 2), Some(1));
        assert_rows_match_cells(&idx, "overwrite");
        assert_eq!(idx.clear(p), Some(2));
        assert_eq!(idx.tile_count(), 0, "the tile emptied");
        idx.set(Point::new(-64, -1), 3);
        assert_rows_match_cells(&idx, "recreated");
        let tiles = idx.sorted_tiles();
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].0, TileKey::of(p));
        let rows: Vec<u64> = (0..TILE_ROWS).map(|y| tiles[0].1.row(y)).collect();
        assert_eq!(rows, [vec![0; TILE_ROWS - 1], vec![1]].concat(), "a stale bit survived");
        // A row keeps its summary bit clear until its last robot leaves,
        // and another row of the tile keeps the tile alive meanwhile.
        let mut idx = TileIndex::new();
        let (a, b, c) = (Point::new(-5, -3), Point::new(-60, -3), Point::new(-5, -40));
        for (id, p) in [a, b, c].into_iter().enumerate() {
            idx.set(p, id as u32);
        }
        let rows = |idx: &TileIndex| idx.sorted_tiles()[0].1.rows();
        assert_eq!(rows(&idx), 1 << 61 | 1 << 24);
        idx.clear(a);
        assert_eq!(rows(&idx), 1 << 61 | 1 << 24, "row 61 still holds a robot");
        idx.clear(b);
        assert_eq!(rows(&idx), 1 << 24, "row 61 emptied");
        idx.set(a, 7);
        assert_eq!(rows(&idx), 1 << 61 | 1 << 24, "row 61 refilled");
        assert_rows_match_cells(&idx, "one tile, three rows");
        // Random sets, overwrites and clears over a box of sixteen tiles
        // around the origin, against a model of the occupied cells.
        let mut idx = TileIndex::new();
        let mut model = std::collections::BTreeMap::new();
        for round in 0..200u64 {
            for k in 0..50 {
                let draw = crate::splitmix64(round << 16 | k);
                let p = Point::new((draw % 150) as i32 - 75, ((draw >> 8) % 150) as i32 - 75);
                if draw >> 40 & 3 == 0 {
                    assert_eq!(idx.clear(p), model.remove(&p), "round {round}");
                } else {
                    let id = (draw >> 20) as u32 & 0xffff;
                    assert_eq!(idx.set(p, id), model.insert(p, id), "round {round}");
                }
            }
            assert_rows_match_cells(&idx, &format!("round {round}"));
            let keys: std::collections::BTreeSet<TileKey> =
                model.keys().map(|&p| TileKey::of(p)).collect();
            let live: Vec<TileKey> = idx.sorted_tiles().into_iter().map(|(k, _)| k).collect();
            assert_eq!(live, keys.into_iter().collect::<Vec<_>>(), "round {round}: live tiles");
            if round % 50 == 49 {
                // Empty the box: every tile is dropped, then rebuilt.
                for p in std::mem::take(&mut model).into_keys() {
                    idx.clear(p);
                }
                assert_eq!(idx.tile_count(), 0);
            }
        }
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
        // Then sparse rows, where a ball mostly crosses empty ones: one row
        // in 37; tiles west of x = 0 holding only rows 0 mod 4 and tiles
        // east of it only rows 2 mod 4, so the two tiles a band crosses
        // occupy different rows; and robots only west of x = 0 in the
        // band of rows 0..64, so the band's other tile is missing.
        let patterns: [fn(i32, i32) -> bool; 6] = [
            |x, y| (x * 7 + y * 13).rem_euclid(5) == 0,
            |x, y| (x - 2 * y).rem_euclid(9) == 0,
            |_, _| true,
            |x, y| (y + 11).rem_euclid(37) == 0 && x.rem_euclid(3) != 1,
            |x, y| y.rem_euclid(4) == if x < 0 { 0 } else { 2 } && (x + y).rem_euclid(5) < 3,
            |x, y| x < 0 && (0..64).contains(&y) && (x * 5 + y).rem_euclid(7) == 0,
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
            // (32, 0) at radius 32 and (-32, 5) at radius 40 have rows
            // covering a whole tile row: a 64-bit segment mask.
            let centers = [
                Point::new(0, 0),
                Point::new(-1, -1),
                Point::new(63, -1),
                Point::new(-64, 64),
                Point::new(-70, 30),
                Point::new(5, -45),
                Point::new(32, 0),
                Point::new(-32, 5),
            ];
            for center in centers {
                for r in [0i32, 1, 7, 20, 22, 32, 40] {
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
                        let at = format!("pattern {k} center {center:?} r {r} pin {pin}");
                        assert_eq!(scanned, probed, "{at}");
                        let scanline = |(p, _): &(Point, u32)| (p.y, p.x);
                        assert!(scanned.is_sorted_by_key(scanline), "{at}: out of scanline order");
                    }
                }
            }
        }
    }
}
