//! Planar integer geometry: grid points, step vectors, and the dihedral
//! group `D4` used to model robots without a common compass.
//!
//! All coordinates are `i32`; even the sparse clusters workloads span a
//! few hundred thousand cells per axis at n = 10⁶, far from overflow
//! (area computations that could exceed `i32`/`u64` widen explicitly).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// An absolute cell of the infinite grid.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Point {
    pub x: i32,
    pub y: i32,
}

/// A translation vector between cells (also used for single-round steps,
/// where both components are in `-1..=1`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct V2 {
    pub x: i32,
    pub y: i32,
}

impl Point {
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }

    /// L1 (Manhattan) distance, the metric of the paper's viewing range.
    pub fn l1(self, other: Point) -> i32 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Chebyshev distance (number of 8-neighbour king moves).
    pub fn linf(self, other: Point) -> i32 {
        (self.x - other.x).abs().max((self.y - other.y).abs())
    }

    /// The four grid cells that count for swarm *connectivity*.
    pub fn neighbors4(self) -> [Point; 4] {
        [
            Point::new(self.x + 1, self.y),
            Point::new(self.x - 1, self.y),
            Point::new(self.x, self.y + 1),
            Point::new(self.x, self.y - 1),
        ]
    }

    /// The eight grid cells a robot may *move* to in one round.
    pub fn neighbors8(self) -> [Point; 8] {
        [
            Point::new(self.x + 1, self.y),
            Point::new(self.x + 1, self.y + 1),
            Point::new(self.x, self.y + 1),
            Point::new(self.x - 1, self.y + 1),
            Point::new(self.x - 1, self.y),
            Point::new(self.x - 1, self.y - 1),
            Point::new(self.x, self.y - 1),
            Point::new(self.x + 1, self.y - 1),
        ]
    }
}

impl V2 {
    pub const ZERO: V2 = V2 { x: 0, y: 0 };
    /// Unit vectors named for readability; robots themselves have no
    /// common sense of "east" — these names live in each robot's frame.
    pub const E: V2 = V2 { x: 1, y: 0 };
    pub const W: V2 = V2 { x: -1, y: 0 };
    pub const N: V2 = V2 { x: 0, y: 1 };
    pub const S: V2 = V2 { x: 0, y: -1 };

    pub const fn new(x: i32, y: i32) -> Self {
        V2 { x, y }
    }

    pub fn l1(self) -> i32 {
        self.x.abs() + self.y.abs()
    }

    pub fn linf(self) -> i32 {
        self.x.abs().max(self.y.abs())
    }

    /// True for the zero vector and the 8 unit king steps.
    pub fn is_step(self) -> bool {
        self.linf() <= 1
    }

    /// True for the 4 axis-aligned unit vectors.
    pub fn is_axis_unit(self) -> bool {
        self.l1() == 1
    }

    /// Rotate 90° counter-clockwise.
    pub fn rot_ccw(self) -> V2 {
        V2::new(-self.y, self.x)
    }

    /// Rotate 90° clockwise.
    pub fn rot_cw(self) -> V2 {
        V2::new(self.y, -self.x)
    }

    /// The four axis-aligned unit vectors.
    pub fn axis_units() -> [V2; 4] {
        [V2::E, V2::N, V2::W, V2::S]
    }
}

impl Add<V2> for Point {
    type Output = Point;
    fn add(self, v: V2) -> Point {
        Point::new(self.x + v.x, self.y + v.y)
    }
}

impl AddAssign<V2> for Point {
    fn add_assign(&mut self, v: V2) {
        self.x += v.x;
        self.y += v.y;
    }
}

impl Sub for Point {
    type Output = V2;
    fn sub(self, other: Point) -> V2 {
        V2::new(self.x - other.x, self.y - other.y)
    }
}

impl Add for V2 {
    type Output = V2;
    fn add(self, o: V2) -> V2 {
        V2::new(self.x + o.x, self.y + o.y)
    }
}

impl Sub for V2 {
    type Output = V2;
    fn sub(self, o: V2) -> V2 {
        V2::new(self.x - o.x, self.y - o.y)
    }
}

impl Neg for V2 {
    type Output = V2;
    fn neg(self) -> V2 {
        V2::new(-self.x, -self.y)
    }
}

impl Mul<i32> for V2 {
    type Output = V2;
    fn mul(self, k: i32) -> V2 {
        V2::new(self.x * k, self.y * k)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Debug for V2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.x, self.y)
    }
}

/// An element of the dihedral group of the square, used as a per-robot
/// view transform: robots in this model agree on the grid axes' *slots*
/// but not on which direction is which (no compass) nor on handedness.
///
/// `apply` computes `rot^r ∘ flip^f` where `flip` negates `x` and `rot`
/// is a 90° counter-clockwise rotation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct D4 {
    /// Number of 90° CCW rotations applied after the optional flip, 0..4.
    pub rot: u8,
    /// Whether `x` is negated before rotating.
    pub flip: bool,
}

impl D4 {
    pub const IDENTITY: D4 = D4 { rot: 0, flip: false };

    /// All 8 group elements, identity first.
    pub fn all() -> [D4; 8] {
        let mut out = [D4::IDENTITY; 8];
        let mut i = 0;
        for &flip in &[false, true] {
            for rot in 0..4u8 {
                out[i] = D4 { rot, flip };
                i += 1;
            }
        }
        out
    }

    /// Construct from an index in `0..8` (useful for seeding).
    pub fn from_index(i: u8) -> D4 {
        D4 { rot: i & 3, flip: (i & 4) != 0 }
    }

    #[inline]
    pub fn apply(self, v: V2) -> V2 {
        let x = if self.flip { -v.x } else { v.x };
        match self.rot & 3 {
            0 => V2::new(x, v.y),
            1 => V2::new(-v.y, x),
            2 => V2::new(-x, -v.y),
            _ => V2::new(v.y, -x),
        }
    }

    /// The transform `g` with `g.apply(self.apply(v)) == v`. Closed form
    /// of `(rot^r ∘ flip^f)⁻¹ = flip^f ∘ rot^-r`: a reflection is its own
    /// inverse, and `flip ∘ rot^-r = rot^r ∘ flip`.
    #[inline]
    pub fn inverse(self) -> D4 {
        let rot = self.rot & 3;
        D4 { rot: if self.flip { rot } else { (4 - rot) & 3 }, flip: self.flip }
    }

    /// Composition: `self.then(g)` applies `self` first, then `g`. Closed
    /// form: `flip ∘ rot^r = rot^-r ∘ flip`, so a reflecting `g` negates
    /// `self`'s rotation before adding its own.
    #[inline]
    pub fn then(self, g: D4) -> D4 {
        let r = self.rot & 3;
        D4 { rot: ((g.rot & 3) + if g.flip { 4 - r } else { r }) & 3, flip: self.flip ^ g.flip }
    }
}

/// Axis-aligned bounding box of a point set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bounds {
    pub min: Point,
    pub max: Point,
}

impl Bounds {
    /// Bounds of a non-empty point iterator; `None` when empty.
    pub fn of(points: impl IntoIterator<Item = Point>) -> Option<Bounds> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut b = Bounds { min: first, max: first };
        for p in it {
            b.min.x = b.min.x.min(p.x);
            b.min.y = b.min.y.min(p.y);
            b.max.x = b.max.x.max(p.x);
            b.max.y = b.max.y.max(p.y);
        }
        Some(b)
    }

    pub fn width(&self) -> i32 {
        self.max.x - self.min.x + 1
    }

    pub fn height(&self) -> i32 {
        self.max.y - self.min.y + 1
    }

    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Grow the box by `m` cells on every side.
    pub fn inflated(&self, m: i32) -> Bounds {
        Bounds {
            min: Point::new(self.min.x - m, self.min.y - m),
            max: Point::new(self.max.x + m, self.max.y + m),
        }
    }

    /// The paper's termination condition: the swarm fits into a 2×2 area.
    pub fn fits_2x2(&self) -> bool {
        self.width() <= 2 && self.height() <= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_and_linf() {
        let a = Point::new(0, 0);
        let b = Point::new(3, -4);
        assert_eq!(a.l1(b), 7);
        assert_eq!(a.linf(b), 4);
    }

    #[test]
    fn rotations_cycle() {
        let v = V2::new(2, 1);
        assert_eq!(v.rot_ccw().rot_ccw().rot_ccw().rot_ccw(), v);
        assert_eq!(v.rot_ccw().rot_cw(), v);
        assert_eq!(V2::E.rot_ccw(), V2::N);
        assert_eq!(V2::N.rot_ccw(), V2::W);
    }

    #[test]
    fn d4_inverse_roundtrip() {
        let v = V2::new(3, -7);
        for g in D4::all() {
            assert_eq!(g.inverse().apply(g.apply(v)), v, "g = {g:?}");
        }
    }

    #[test]
    fn d4_preserves_norms() {
        let v = V2::new(5, -2);
        for g in D4::all() {
            assert_eq!(g.apply(v).l1(), v.l1());
            assert_eq!(g.apply(v).linf(), v.linf());
        }
    }

    #[test]
    fn d4_apply_matches_flip_then_repeated_rotation() {
        let v = V2::new(2, -5);
        for g in D4::all() {
            let mut w = if g.flip { V2::new(-v.x, v.y) } else { v };
            for _ in 0..g.rot {
                w = w.rot_ccw();
            }
            assert_eq!(g.apply(v), w, "g = {g:?}");
        }
    }

    #[test]
    fn d4_composition_associative_on_probe() {
        let v = V2::new(1, 2);
        for a in D4::all() {
            for b in D4::all() {
                assert_eq!(a.then(b).apply(v), b.apply(a.apply(v)));
            }
        }
    }

    #[test]
    fn d4_all_distinct() {
        let probes = [V2::E, V2::N];
        let mut seen = std::collections::HashSet::new();
        for g in D4::all() {
            seen.insert(probes.map(|p| g.apply(p)));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn bounds_basics() {
        let b = Bounds::of([Point::new(0, 0), Point::new(1, 1)]).unwrap();
        assert!(b.fits_2x2());
        assert_eq!(b.width(), 2);
        let b = Bounds::of([Point::new(0, 0), Point::new(2, 0)]).unwrap();
        assert!(!b.fits_2x2());
        assert!(b.inflated(1).contains(Point::new(-1, -1)));
        assert!(Bounds::of(std::iter::empty()).is_none());
    }

    #[test]
    fn neighbor_counts() {
        let p = Point::new(0, 0);
        assert_eq!(p.neighbors4().len(), 4);
        assert_eq!(p.neighbors8().len(), 8);
        for n in p.neighbors4() {
            assert_eq!(p.l1(n), 1);
        }
        for n in p.neighbors8() {
            assert_eq!(p.linf(n), 1);
        }
    }
}
