//! Run starting sub-boundaries (§3.2, Fig. 7).
//!
//! A run starts at an *anchored* endpoint of a quasi line: the robot is
//! the end of a straight segment of ≥ 3 robots whose exterior side is
//! clear, and the swarm continues *behind/below* it (the `r - side`
//! anchor). The anchor is what Fig. 7 draws as the grey exterior
//! context: it fixes the reshapement side unambiguously (no symmetric
//! Fig. 5 double-start can break connectivity) and it is exactly the
//! transition shape that Lemma 1's proof finds at the ends of the
//! upper-envelope quasi line — an L-corner into a perpendicular quasi
//! line (Start-B) or into a stairway (Start-A).
//!
//! A corner robot can match two `(travel, side)` pairs at once and then
//! starts two runs moving in both directions along the boundary —
//! Fig. 7(ii).

use crate::config::GatherConfig;
use crate::merge::GView;
use crate::state::Run;
use grid_engine::V2;

/// Does the Start-A/Start-B pattern for `(travel, side)` match at the
/// robot at offset `at`? (Evaluated off-centre by boundary neighbours
/// replaying a starter's behaviour.)
pub(crate) fn start_matches(view: GView, at: V2, travel: V2, side: V2) -> bool {
    let t = travel;
    let s = side;
    // Quasi-line side clear along me and the next two robots…
    view.empty(at + s)
        && view.empty(at + t + s)
        && view.empty(at + t * 2 + s)
        // …a straight segment of at least three robots ahead…
        && view.occupied(at + t)
        && view.occupied(at + t * 2)
        // …I am its endpoint…
        && view.empty(at - t)
        // …and the swarm continues behind my back: the anchor that
        // orients the run and rules out the bare-line symmetric case
        // (which needs no runs — its tips merge by themselves).
        && view.occupied(at - s)
}

/// Length cap for the segment-length comparison below. Probes reach
/// `|at| + cap + 1` cells, which must stay within the viewing radius
/// when evaluated for a neighbour of a neighbour.
const LEN_CAP: i32 = 14;

/// Number of robots on the straight segment starting at `base` in
/// direction `t` (including `base`), capped at [`LEN_CAP`].
fn segment_len(view: GView, base: V2, t: V2) -> i32 {
    let mut len = 1;
    while len < LEN_CAP && view.occupied(base + t * len) {
        len += 1;
    }
    len
}

/// Raw Start-A/Start-B matches at `at`, without conflict resolution.
fn raw_matches(view: GView, at: V2) -> Vec<Run> {
    let mut out = Vec::new();
    for t in V2::axis_units() {
        for s in [t.rot_ccw(), t.rot_cw()] {
            if start_matches(view, at, t, s) {
                out.push(Run::new(t, s));
            }
        }
    }
    out
}

/// All runs the robot at offset `at` starts this round (the caller
/// checks the L-clock). At most two distinct matches can coexist
/// geometrically; the state cap enforces it anyway.
///
/// Conflict resolution (the asymmetric context Fig. 7 encodes with its
/// extra white/grey cells): when two *4-adjacent* robots both match
/// start patterns — the mesa junction where one quasi line's end sits
/// directly on another's — their joint first hops would vacate the
/// two-cell column linking the lines, so both certificates refuse and
/// the swarm would freeze. Exactly one of them must start: the one
/// whose quasi-line segment is longer (a frame-invariant quantity both
/// can compute); a length tie suppresses both, which is always safe.
pub(crate) fn starts(view: GView, at: V2, _cfg: &GatherConfig) -> Vec<Run> {
    let mine = raw_matches(view, at);
    if mine.is_empty() {
        return mine;
    }
    let score = |base: V2, matches: &[Run]| -> i32 {
        matches.iter().map(|r| segment_len(view, base, r.travel)).max().unwrap_or(1)
    };
    let my_score = score(at, &mine);
    for d in V2::axis_units() {
        let c = at + d;
        if view.empty(c) {
            continue;
        }
        let theirs = raw_matches(view, c);
        if theirs.is_empty() {
            continue;
        }
        // Priority: the longer quasi-line segment starts; a tie (a
        // locally symmetric junction, or two segments both longer than
        // the cap) suppresses both, which is always safe. Very large
        // thin rings whose mesa steps all exceed the cap can stay
        // suppressed for a long time — a measured limitation (README,
        // "Schedulers: probing the claim beyond FSYNC"; ROADMAP.md's
        // Theorem 1 item). The paper's Fig. 7 patterns embed the
        // asymmetry in richer start contexts.
        if score(c, &theirs) >= my_score {
            return Vec::new();
        }
    }
    mine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::GatherState;
    use grid_engine::{OrientationMode, Point, Swarm, View};

    fn swarm(cells: &[(i32, i32)]) -> Swarm<GatherState> {
        let pts: Vec<Point> = cells.iter().map(|&(x, y)| Point::new(x, y)).collect();
        Swarm::new(&pts, OrientationMode::Aligned)
    }

    fn starts_at(s: &Swarm<GatherState>, p: (i32, i32)) -> Vec<Run> {
        let v = View::new(s, s.robot_at(Point::new(p.0, p.1)).unwrap(), 20);
        starts(&v, grid_engine::V2::ZERO, &GatherConfig::paper())
    }

    #[test]
    fn table_corner_starts_two_runs() {
        // Fig. 7(ii) Start-B: the corner of a horizontal and a vertical
        // line starts a run along each.
        let mut cells: Vec<(i32, i32)> = (0..12).map(|x| (x, 0)).collect();
        cells.extend((1..=9).map(|y| (0, -y)));
        let s = swarm(&cells);
        let got = starts_at(&s, (0, 0));
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.contains(&Run::new(V2::E, V2::N)), "run east on the row");
        assert!(got.contains(&Run::new(V2::S, V2::W)), "run south on the leg");
    }

    #[test]
    fn bare_line_tip_starts_nothing() {
        // Un-anchored tips erode by k=1 merges; no run may start there
        // (the paper's Fig. 5 symmetric hazard).
        let cells: Vec<(i32, i32)> = (0..12).map(|x| (x, 0)).collect();
        let s = swarm(&cells);
        assert!(starts_at(&s, (0, 0)).is_empty());
        assert!(starts_at(&s, (11, 0)).is_empty());
        assert!(starts_at(&s, (5, 0)).is_empty());
    }

    #[test]
    fn stairway_transition_starts_one_run() {
        // Start-A: a quasi line ending in a stairway step.
        //   r o o o o o o o o
        //   o                     <- (0,-1): the stair below the endpoint
        // o o
        let mut cells: Vec<(i32, i32)> = (0..9).map(|x| (x, 0)).collect();
        cells.extend([(0, -1), (-1, -1), (-1, -2), (-2, -2)]);
        let s = swarm(&cells);
        let got = starts_at(&s, (0, 0));
        assert_eq!(got, vec![Run::new(V2::E, V2::N)]);
    }

    #[test]
    fn filled_square_corners_start() {
        let mut cells = Vec::new();
        for y in 0..12 {
            for x in 0..12 {
                cells.push((x, y));
            }
        }
        let s = swarm(&cells);
        // Top-left corner (0,11): east run on the top side, south run on
        // the west side.
        let got = starts_at(&s, (0, 11));
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.contains(&Run::new(V2::E, V2::N)));
        assert!(got.contains(&Run::new(V2::S, V2::W)));
        // Mid-edge robots do not start.
        assert!(starts_at(&s, (5, 11)).is_empty());
        // Interior robots do not start.
        assert!(starts_at(&s, (5, 5)).is_empty());
    }

    #[test]
    fn segment_shorter_than_three_does_not_start() {
        //   r o            <- only two robots in the segment
        //   o o
        let s = swarm(&[(0, 0), (1, 0), (0, -1), (1, -1)]);
        assert!(starts_at(&s, (0, 0)).is_empty());
    }
}
