//! Egocentric local views — the *look* step of look-compute-move.
//!
//! A [`View`] exposes exactly what the paper's robot model grants: cell
//! occupancy and other robots' states within a constant L1 radius, in
//! the observing robot's own frame (no compass, no global coordinates).
//! Views are lazy: they borrow the swarm snapshot and answer probes on
//! demand, so extracting a view is free and the compute step only pays
//! for the cells it actually inspects.
//!
//! Radius enforcement: every probe asserts (in debug builds) that the
//! queried cell lies within the viewing range, so an algorithm that
//! accidentally relies on super-constant vision fails loudly in tests.
//!
//! Probe cost: a view pins the ≤3×3 block of occupancy tiles covering
//! its viewing range at construction ([`crate::tile::TileWindow`]), so
//! the O(radius²) probes of a compute step cost an array read plus two
//! compares each — tile-map hash lookups are paid once per view, not
//! once per probe. Whole-ball queries do not probe cell by cell: they
//! read the ball's world rows as one masked 64-bit occupancy word per
//! tile row segment and visit only the set bits.
//! [`View::for_each_within`] reads one handle per robot it finds;
//! [`View::count_and_sum_within`] reads no handle at all, taking the
//! robot count and the offset sum from the words and turning the sum
//! into the robot's frame once.
//!
//! Reach: a view remembers the largest L1 offset any of its probes
//! touched — `occupied`, `empty` and `state` count their offset, a ball
//! query counts its radius, and the observer's own state counts 0. The
//! engine reads it after each decision: a pure decision whose probes
//! all return what they returned before makes the same choice, so a
//! quiet robot only needs computing again once something changes
//! within its decision's reach ([`crate::quiet`]).

use crate::geom::{Point, D4, V2};
use crate::swarm::{RobotState, Swarm};
use crate::tile::TileWindow;
use std::cell::Cell;

/// A reach as the engine stores it, one byte per robot: distances from
/// 255 up all read 255, so comparing two saturated distances errs only
/// toward "within reach".
#[inline]
pub(crate) fn reach_byte(d: i32) -> u8 {
    d.clamp(0, u8::MAX.into()) as u8
}

pub struct View<'a, S: RobotState> {
    swarm: &'a Swarm<S>,
    win: TileWindow<'a>,
    id: usize,
    center: Point,
    /// Robot frame -> world frame.
    orient: D4,
    /// World frame -> robot frame.
    inv: D4,
    radius: i32,
    /// The largest L1 offset probed so far.
    reach: Cell<i32>,
}

// Manual so states without Debug still get a printable view summary.
impl<S: RobotState> std::fmt::Debug for View<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("View")
            .field("id", &self.id)
            .field("center", &self.center)
            .field("orient", &self.orient)
            .field("radius", &self.radius)
            .finish_non_exhaustive()
    }
}

impl<'a, S: RobotState> View<'a, S> {
    pub fn new(swarm: &'a Swarm<S>, id: usize, radius: i32) -> Self {
        let center = swarm.positions()[id];
        let orient = swarm.orients()[id];
        View {
            swarm,
            win: swarm.index().window(center, radius),
            id,
            center,
            orient,
            inv: orient.inverse(),
            radius,
            reach: Cell::new(0),
        }
    }

    /// The L1 viewing radius this view enforces.
    pub fn radius(&self) -> i32 {
        self.radius
    }

    /// Dense slot of the observing robot: engine bookkeeping, hidden from
    /// controllers. Robots are anonymous, and a slot shifts when merges
    /// compact the arrays, so an unchanged neighbourhood would otherwise
    /// read differently from one round to the next.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// The largest L1 offset any probe of this view has touched: what
    /// the view's decision depended on lies within it.
    pub(crate) fn reach(&self) -> i32 {
        self.reach.get()
    }

    /// Count a read that depends on cells up to L1 distance `d`.
    #[inline]
    pub(crate) fn charge(&self, d: i32) {
        self.reach.set(self.reach.get().max(d));
    }

    #[inline]
    fn world(&self, v: V2) -> Point {
        debug_assert!(v.l1() <= self.radius, "probe {v:?} outside viewing radius {}", self.radius);
        self.center + self.orient.apply(v)
    }

    /// Is the cell at offset `v` (robot frame) occupied?
    #[inline]
    pub fn occupied(&self, v: V2) -> bool {
        self.charge(v.l1());
        self.win.occupied(self.world(v))
    }

    #[inline]
    pub fn empty(&self, v: V2) -> bool {
        !self.occupied(v)
    }

    /// The observing robot's own state (already in its frame).
    pub fn self_state(&self) -> &S {
        &self.swarm.states()[self.id]
    }

    /// The state of the robot at offset `v`, re-expressed in the
    /// observing robot's frame. `None` if the cell is empty.
    pub fn state(&self, v: V2) -> Option<S> {
        let j = self.slot_at(v)?;
        Some(self.swarm.states()[j].transform(self.frame_of(j)))
    }

    /// Dense slot of the robot at offset `v`, if any. Engine-internal:
    /// slots identify robots, which the model keeps anonymous.
    #[inline]
    pub(crate) fn slot_at(&self, v: V2) -> Option<usize> {
        self.charge(v.l1());
        self.uncounted_slot_at(v)
    }

    /// [`View::slot_at`] without counting toward the reach, for a caller
    /// that charges what it reads through the slot itself.
    #[inline]
    pub(crate) fn uncounted_slot_at(&self, v: V2) -> Option<usize> {
        // Tile cells store stable handles; translate to the dense slot.
        Some(self.swarm.slot(self.win.get(self.world(v))?))
    }

    /// The transform from robot `j`'s frame to this observer's: other
    /// frame -> world -> my frame.
    #[inline]
    pub(crate) fn frame_of(&self, j: usize) -> D4 {
        self.swarm.orients()[j].then(self.inv)
    }

    /// Call `f` with the offset (robot frame) of every robot within L1
    /// distance `r` of the observer, excluding the observer itself. `r`
    /// must not exceed the viewing radius. The L1 ball is the same set in
    /// every frame, so this scans it by world rows; the visit order is
    /// scanline in the *world* frame, not the robot's.
    pub fn for_each_within(&self, r: i32, mut f: impl FnMut(V2)) {
        assert!(r <= self.radius, "ball radius {r} exceeds viewing radius {}", self.radius);
        self.charge(r);
        let (center, inv) = (self.center, self.inv);
        self.win.for_each_in_ball(center, r, |cell, _| {
            if cell != center {
                f(inv.apply(cell - center));
            }
        });
    }

    /// The number of robots within L1 distance `r` of the observer,
    /// excluding the observer itself, and the sum of their offsets
    /// (robot frame): what folding [`View::for_each_within`] gives, read
    /// from the occupancy words without a handle read. `r` must not
    /// exceed the viewing radius.
    pub fn count_and_sum_within(&self, r: i32) -> (i32, V2) {
        assert!(r <= self.radius, "ball radius {r} exceeds viewing radius {}", self.radius);
        self.charge(r);
        let (n, sum) = self.win.count_and_sum_in_ball(self.center, r);
        // The observer's own cell counts one robot at offset zero; the
        // frame change is linear, so one transform of the sum serves.
        (n - 1, self.inv.apply(sum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swarm::OrientationMode;

    #[test]
    fn aligned_view_sees_world_offsets() {
        let s: Swarm<()> = Swarm::new(
            &[Point::new(0, 0), Point::new(1, 0), Point::new(0, 2)],
            OrientationMode::Aligned,
        );
        let v = View::new(&s, 0, 5);
        assert!(v.occupied(V2::new(1, 0)));
        assert!(v.occupied(V2::new(0, 2)));
        assert!(v.empty(V2::new(-1, 0)));
        assert_eq!(within(&v, 3), vec![V2::new(1, 0), V2::new(0, 2)]);
    }

    /// Offsets from [`View::for_each_within`], sorted.
    fn within<S: RobotState>(view: &View<'_, S>, r: i32) -> Vec<V2> {
        let mut out = Vec::new();
        view.for_each_within(r, |v| out.push(v));
        out.sort_by_key(|v| (v.y, v.x));
        out
    }

    /// The oracle: one probe per cell of the ball, in robot-frame
    /// scanline order.
    fn probed_within<S: RobotState>(view: &View<'_, S>, r: i32) -> Vec<V2> {
        let mut out = Vec::new();
        for dy in -r..=r {
            let w = r - dy.abs();
            for dx in -w..=w {
                let v = V2::new(dx, dy);
                if v != V2::ZERO && view.occupied(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    #[test]
    fn ball_scan_equals_per_cell_probes_in_every_frame() {
        let observers =
            [Point::new(0, 0), Point::new(-1, 7), Point::new(12, -13), Point::new(32, 0)];
        let draw = |p: Point| crate::splitmix64(((p.x as u64) << 32) ^ p.y as u32 as u64) % 10;
        // A 50×50 box at 30 % fill around the origin spans four tiles, seen
        // at radius 20. Then two sparse 100×100 boxes, seen at radius 40:
        // one row in 23 at 30 % fill, so balls cross mostly empty rows; and
        // robots only east of x = 0 in the band of rows -64..0, so that
        // band's west tile is missing while the band above holds both.
        // From (32, 0), balls of radius 32 and 40 cover a whole tile row.
        let keeps: [fn(Point) -> bool; 3] =
            [|_| true, |p| (p.y + 4).rem_euclid(23) == 0, |p| p.x >= 0 || p.y >= 0];
        for (k, keep) in keeps.into_iter().enumerate() {
            let (side, radius) = if k == 0 { (50, 20) } else { (100, 40) };
            let mut pts: Vec<Point> = (0..side * side)
                .map(|i| Point::new(i % side - side / 2, i / side - side / 2))
                .filter(|&p| !observers.contains(&p) && keep(p) && draw(p) < 3)
                .collect();
            pts.extend(observers);
            let mut s: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
            for orient in D4::all() {
                s.orients_mut().iter_mut().for_each(|o| *o = orient);
                for &at in &observers {
                    let id = s.positions().iter().position(|&p| p == at).expect("observer placed");
                    let v = View::new(&s, id, radius);
                    for r in [0, 3, 20, 32, 40].into_iter().filter(|&r| r <= radius) {
                        let at = format!("swarm {k} {orient:?} at {at:?} r {r}");
                        let probed = probed_within(&v, r);
                        // Unsorted, the offsets come in world scanline order.
                        let mut scanned = Vec::new();
                        v.for_each_within(r, |v| scanned.push(v));
                        let world = |v: &V2| orient.apply(*v);
                        assert!(
                            scanned.is_sorted_by_key(|v| (world(v).y, world(v).x)),
                            "{at}: out of world scanline order"
                        );
                        assert_eq!(within(&v, r), probed, "{at}");
                        // The count and sum, on a fresh view: it charges `r`.
                        let fresh = View::new(&s, id, radius);
                        let fold =
                            (probed.len() as i32, probed.iter().fold(V2::ZERO, |a, &b| a + b));
                        assert_eq!(fresh.count_and_sum_within(r), fold, "{at}: count and sum");
                        assert_eq!(fresh.reach(), r, "{at}: reach");
                    }
                }
            }
        }
    }

    #[test]
    fn reach_is_the_farthest_probe_in_every_frame() {
        // The observer at the origin with robots east and north-west of
        // it; empty and occupied probes count alike.
        let pts = [Point::new(0, 0), Point::new(2, 0), Point::new(-1, 2)];
        let mut s: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        for orient in D4::all() {
            s.orients_mut().iter_mut().for_each(|o| *o = orient);
            let v = View::new(&s, 0, 6);
            let _ = v.self_state();
            assert_eq!(v.reach(), 0, "{orient:?}: own state");
            let _ = v.occupied(V2::new(1, -1));
            assert_eq!(v.reach(), 2, "{orient:?}: occupied");
            let _ = v.empty(V2::new(0, 3));
            assert_eq!(v.reach(), 3, "{orient:?}: empty");
            let _ = v.occupied(V2::E);
            assert_eq!(v.reach(), 3, "{orient:?}: a nearer probe keeps the reach");
            let _ = v.state(V2::new(-2, -2));
            assert_eq!(v.reach(), 4, "{orient:?}: state");
            v.for_each_within(5, |_| {});
            assert_eq!(v.reach(), 5, "{orient:?}: ball of radius 5");
            let _ = v.empty(V2::new(-6, 0));
            assert_eq!(v.reach(), 6, "{orient:?}: the viewing radius");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds viewing radius")]
    fn ball_beyond_viewing_radius_panics() {
        let s: Swarm<()> = Swarm::new(&[Point::new(0, 0)], OrientationMode::Aligned);
        View::new(&s, 0, 3).for_each_within(4, |_| {});
    }

    #[test]
    fn rotated_view_rotates_offsets() {
        let mut s: Swarm<()> =
            Swarm::new(&[Point::new(0, 0), Point::new(0, 1)], OrientationMode::Aligned);
        // Robot 0's frame: east points to world north.
        s.orients_mut()[0] = D4 { rot: 1, flip: false };
        let v = View::new(&s, 0, 5);
        // World (0,1) should appear at... world = center + orient.apply(v)
        // => v = inv.apply(world - center). orient rot1: E->N, so inv maps
        // N->E: the neighbour appears to the robot's east.
        assert!(v.occupied(V2::E));
        assert!(v.empty(V2::N));
    }

    #[test]
    fn state_is_reexpressed_between_frames() {
        #[derive(Clone, Default, PartialEq, Debug)]
        struct Arrow(V2);
        impl RobotState for Arrow {
            fn transform(&self, m: D4) -> Self {
                Arrow(m.apply(self.0))
            }
        }
        let mut s: Swarm<Arrow> =
            Swarm::new(&[Point::new(0, 0), Point::new(1, 0)], OrientationMode::Aligned);
        // Robot 1 stores "east" in a frame rotated so its east is world north.
        s.orients_mut()[1] = D4 { rot: 1, flip: false };
        s.states_mut()[1] = Arrow(V2::E); // world north
                                          // Robot 0 is world-aligned, so it must see the arrow as north.
        let v = View::new(&s, 0, 5);
        assert_eq!(v.state(V2::E), Some(Arrow(V2::N)));
        assert_eq!(v.state(V2::W), None);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn probe_outside_radius_panics_in_debug() {
        let s: Swarm<()> = Swarm::new(&[Point::new(0, 0)], OrientationMode::Aligned);
        let v = View::new(&s, 0, 3);
        let _ = v.occupied(V2::new(4, 0));
    }
}
