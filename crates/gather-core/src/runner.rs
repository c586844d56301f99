//! Runner reshapement (§3.2/§3.3): run-state lifecycle, the OP-A
//! diagonal hop, corner rounding (OP-B/OP-C) and the Table-1 stop
//! conditions, all expressed as a *symmetric* plan function.
//!
//! [`plan`] answers "what does the robot at offset `at` do with its run
//! states this round?". A run *moves* by observation: the holder drops
//! it and the boundary neighbour it is passed to adopts it, which is the
//! paper's "move runstate" without message passing (the model has
//! none). Both sides must therefore reach the same decision. They do,
//! because the plan is a pure, frame-equivariant function of the cells
//! around the holder, and every cell it reads is visible to the holder
//! and to each of its Chebyshev neighbours (`GatherConfig`'s derived
//! limits `k_max`, `scan_depth` and `start_scan_cap`, together with
//! `validate`'s radius floor of 8, keep the off-centre probes within the
//! viewing radius).
//! The holder evaluates its plan once per round, at `at = 0` in its own
//! frame, and its neighbours read that plan through the engine's shared
//! plan table. The off-centre form `at ≠ 0` — a neighbour replaying the
//! holder's plan on its own view — is the reference path
//! ([`grid_engine::Controller::decide`]) and what the locality test
//! checks the shared plans against.
//!
//! Deviation from the paper's presentation: the explicit run-passing
//! counters of Fig. 9b are subsumed by a local conflict rule — a holder
//! whose two runs demand different diagonal hops performs none and both
//! runs keep moving, which makes head-on runs glide past each other
//! exactly as in the passing operation.

use crate::chain::{chain_next, Cursor, Turn};
use crate::config::GatherConfig;
use crate::merge::{merge_nearby, merge_step, GView};
use crate::start;
use crate::state::Run;
use grid_engine::{D4, V2};

/// A holder's resolved runner behaviour for one round: what
/// [`crate::GatherController`] shares with its neighbours through the
/// engine's plan table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Plan {
    /// The holder's physical step (zero if it does not hop).
    pub(crate) hop: V2,
    /// Runs that stay with the holder (convex-corner rotation).
    pub(crate) kept: Vec<Run>,
    /// Runs handed to a boundary neighbour: (recipient offset, run),
    /// both in the evaluating robot's frame.
    pub(crate) passes: Vec<(V2, Run)>,
}

impl Plan {
    /// Does the plan neither move the holder nor keep or pass a run?
    pub(crate) fn is_empty(&self) -> bool {
        self.hop == V2::ZERO && self.kept.is_empty() && self.passes.is_empty()
    }

    /// The runs an observer adopts from this plan, evaluated by the
    /// holder at `at = 0` in its own frame: the holder sits at offset
    /// `d` from the observer, and `m` maps the holder's frame to the
    /// observer's. Yields the runs in the observer's frame, in pass
    /// order.
    pub(crate) fn passes_to(&self, d: V2, m: D4) -> impl Iterator<Item = Run> + '_ {
        self.passes
            .iter()
            .filter(move |(to, _)| m.apply(*to) == -d)
            .map(move |(_, run)| run.transform(m))
    }
}

/// Why a run ended (Table 1), exposed for the white-box tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StopReason {
    /// Cond. 1: a sequent run is visible in front.
    SequentRunAhead,
    /// Cond. 2: the quasi line's endpoint is visible in front.
    EndpointAhead,
    /// Cond. 4/5: the sub-boundary shape no longer supports the run.
    ShapeBroken,
    /// The run exceeded its bounded lifetime (see `Run::age`).
    Expired,
}

/// What a single run does this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RunStep {
    Stop(StopReason),
    /// Convex corner: the run stays on the holder with rotated frame.
    Hold(Run),
    /// The run moves to the boundary neighbour at the given offset.
    Pass(V2, Run),
}

/// Resolve one run of the holder at `at`. `fresh` marks a run started
/// this very round: per OP-C (Fig. 8c) it performs its first diagonal
/// hop and moves on immediately, exempt from the look-ahead stop
/// conditions — otherwise the perpendicular run its own Start-B twin
/// corner launched would read as "sequent ahead" and no run would ever
/// leave a corner.
pub(crate) fn run_step(view: GView, at: V2, run: Run, fresh: bool, cfg: &GatherConfig) -> RunStep {
    // Expired runs terminate (bounded lifetime; see `Run::age`).
    if run.age >= cfg.ttl() {
        return RunStep::Stop(StopReason::Expired);
    }
    // The run is pinned to a boundary side; if that side is no longer
    // exterior the shape changed under the run (Table 1, cond. 4/5).
    if view.occupied(at + run.side) {
        return RunStep::Stop(StopReason::ShapeBroken);
    }

    // Scan ahead along *this quasi line* for the stop conditions 1 and
    // 2. The scan follows straight stretches and single-step jogs
    // (corner pairs of opposite chirality, Def. 1's ≤2-robot
    // perpendicular sub-chains) and ends where the quasi line does:
    // a double convex turn is the line's free tip (cond. 2 stop),
    // any other corner is a transition to a *different* quasi line —
    // runs there are not sequent to us (the paper's Fig. 19 argument)
    // and must not stop us, or no run would survive on a small ring
    // whose every corner carries runs.
    let sequent_at = |c: &Cursor| -> bool {
        if c.at == at {
            return false;
        }
        match view.state(c.at) {
            Some(state) => state.runs().any(|o| o.travel == c.travel && o.side == c.side),
            None => false,
        }
    };
    let mut cursor = Cursor { at, travel: run.travel, side: run.side };
    let scan = if fresh { 0 } else { cfg.scan_depth() };
    let mut steps = 0;
    while steps < scan {
        let (next, turn) = chain_next(view, cursor);
        steps += 1;
        match turn {
            Turn::Straight => {
                if sequent_at(&next) {
                    return RunStep::Stop(StopReason::SequentRunAhead);
                }
                cursor = next;
            }
            Turn::Concave | Turn::Convex => {
                // Walk preconditions can momentarily break mid-reshape.
                if view.empty(next.at) || view.occupied(next.at + next.side) {
                    break;
                }
                let (next2, turn2) = chain_next(view, next);
                steps += 1;
                let jog = turn != turn2 && turn2 != Turn::Straight;
                if jog {
                    if sequent_at(&next2) {
                        return RunStep::Stop(StopReason::SequentRunAhead);
                    }
                    cursor = next2;
                } else if turn == Turn::Convex && turn2 == Turn::Convex {
                    // The boundary wraps fully around a cell: a free
                    // line tip — the quasi line ends here (cond. 2).
                    return RunStep::Stop(StopReason::EndpointAhead);
                } else {
                    // A genuine corner: the next quasi line begins.
                    break;
                }
            }
        }
        if view.empty(cursor.at) || view.occupied(cursor.at + cursor.side) {
            break;
        }
    }

    // Advance one chain step.
    let (next, turn) = chain_next(view, Cursor { at, travel: run.travel, side: run.side });
    match turn {
        Turn::Convex => RunStep::Hold(run.aged(next.travel, next.side)),
        Turn::Straight | Turn::Concave => RunStep::Pass(next.at, run.aged(next.travel, next.side)),
    }
}

/// Is the OP-A reshapement hop available for this run? Requires the
/// Fig. 8a shape — the holder and the next three robots on a straight
/// line with the exterior side clear — plus the joint connectivity
/// certificate below.
fn hop_candidate(view: GView, at: V2, run: Run, starting: bool, cfg: &GatherConfig) -> Option<V2> {
    let t = run.travel;
    let s = run.side;
    let straight = view.occupied(at + t)
        && view.occupied(at + t * 2)
        && view.occupied(at + t * 3)
        && view.empty(at + s)
        && view.empty(at + t + s);
    if !straight {
        return None;
    }
    let target = at + run.hop_step();
    joint_hop_safe(view, at, target, starting, cfg).then_some(target)
}

/// Robots within L1 distance 2 of `at` that may move this round —
/// run holders, and in start rounds also Start-A/B matches — together
/// with every destination their own OP-A hop could take. `None` when
/// more than two such movers crowd the window (too many worlds to
/// certify: treat as the run-passing situation and do not reshape).
fn nearby_movers(
    view: GView,
    at: V2,
    starting: bool,
    cfg: &GatherConfig,
) -> Option<Vec<(V2, Vec<V2>)>> {
    let mut movers = Vec::new();
    for dy in -2..=2i32 {
        let w = 2 - dy.abs();
        for dx in -w..=w {
            let c = at + V2::new(dx, dy);
            if c == at {
                continue;
            }
            let Some(state) = view.state(c) else { continue };
            let mut runs: Vec<Run> = state.runs().collect();
            if starting {
                for r in start::starts(view, c, cfg) {
                    if !runs.iter().any(|q| q.same_direction(&r)) {
                        runs.push(r);
                    }
                }
            }
            if runs.is_empty() {
                continue;
            }
            let dests: Vec<V2> = runs.iter().map(|r| c + r.hop_step()).collect();
            movers.push((c, dests));
            if movers.len() > 2 {
                return None;
            }
        }
    }
    Some(movers)
}

/// The joint connectivity certificate for a reshapement hop
/// `at -> target`.
///
/// Simultaneity is the crux of FSYNC safety: a hop that is safe on its
/// own can combine with a neighbouring runner's hop into a cut (two
/// vacated cells whose bridging path ran through both — the "zigzag"
/// failure). The certificate therefore enumerates every *world*: each
/// nearby mover either stays or performs one of its own possible hops.
/// In every world, inside a 7×7 window, after removing the vacated
/// cells and adding the landed ones, every remaining robot adjacent to
/// a vacated cell must reach `target`. Window-local paths imply global
/// paths, so if all worlds pass, no combination of simultaneous
/// decisions can disconnect the swarm here; refusing costs liveness
/// only (the next start wave retries).
pub(crate) fn joint_hop_safe(
    view: GView,
    at: V2,
    target: V2,
    starting: bool,
    cfg: &GatherConfig,
) -> bool {
    let Some(movers) = nearby_movers(view, at, starting, cfg) else {
        return false;
    };
    // Enumerate mover choices: index 0 = stays, i>0 = hop to dests[i-1].
    let mut choice = vec![0usize; movers.len()];
    loop {
        let mut removed = vec![at];
        let mut added = vec![target];
        for (i, &(c, ref dests)) in movers.iter().enumerate() {
            if choice[i] > 0 {
                removed.push(c);
                added.push(dests[choice[i] - 1]);
            }
        }
        if !world_ok(view, at, target, &removed, &added) {
            return false;
        }
        // Next world (mixed-radix counter).
        let mut i = 0;
        loop {
            if i == movers.len() {
                return true;
            }
            choice[i] += 1;
            if choice[i] <= movers[i].1.len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

/// One world of the joint certificate: BFS inside the window.
fn world_ok(view: GView, at: V2, target: V2, removed: &[V2], added: &[V2]) -> bool {
    const R: i32 = 3;
    const W: usize = (2 * R as usize) + 1;
    let idx = |v: V2| -> Option<usize> {
        let dx = v.x - at.x + R;
        let dy = v.y - at.y + R;
        (dx >= 0 && dy >= 0 && dx <= 2 * R && dy <= 2 * R).then(|| (dy as usize) * W + dx as usize)
    };
    let mut occ = [false; W * W];
    for dy in -R..=R {
        for dx in -R..=R {
            let v = at + V2::new(dx, dy);
            occ[idx(v).expect("in window")] = view.occupied(v);
        }
    }
    for &r in removed {
        if let Some(i) = idx(r) {
            occ[i] = false;
        }
    }
    for &a in added {
        if let Some(i) = idx(a) {
            occ[i] = true;
        }
    }
    let Some(ti) = idx(target) else { return false };

    let mut seen = [false; W * W];
    let mut stack = vec![target];
    seen[ti] = true;
    while let Some(p) = stack.pop() {
        for d in V2::axis_units() {
            let q = p + d;
            if let Some(i) = idx(q) {
                if occ[i] && !seen[i] {
                    seen[i] = true;
                    stack.push(q);
                }
            }
        }
    }
    // Every robot (in this world) adjacent to a vacated cell must
    // reach the target.
    removed.iter().all(|&r| {
        V2::axis_units().into_iter().all(|d| {
            let nb = r + d;
            match idx(nb) {
                Some(i) => !occ[i] || seen[i],
                None => true,
            }
        })
    })
}

/// The holder's complete runner behaviour this round, in the observer's
/// frame. Must be called with `at` either zero (self) or the offset of
/// an occupied cell within Chebyshev distance 1. `starting` is true in
/// run-start rounds (the synchronous L-clock): the holder's Start-A/
/// Start-B matches act immediately (OP-C's first hop) in that round.
pub(crate) fn plan(view: GView, at: V2, starting: bool, cfg: &GatherConfig) -> Plan {
    let stored = if at == V2::ZERO {
        *view.self_state()
    } else {
        match view.state(at) {
            Some(s) => s,
            None => return Plan::default(),
        }
    };
    let mut runs: Vec<(Run, bool)> = stored.runs().map(|r| (r, false)).collect();
    if starting {
        for r in start::starts(view, at, cfg) {
            if !runs.iter().any(|&(q, _)| q.same_direction(&r)) {
                runs.push((r, true));
            }
        }
    }
    if runs.is_empty() {
        return Plan::default();
    }
    let k_max = cfg.k_max();

    // Table 1, cond. 3: a holder participating in a merge operation
    // stops all its runs (the merge move itself is decided elsewhere).
    if merge_step(view, at, k_max).is_some() {
        return Plan::default();
    }
    // Freeze next to an executing merge: the shapes a runner relies on
    // (and the grey witnesses a merge relies on) must not shift in the
    // same round. Costs a constant delay, never progress.
    if merge_nearby(view, at, 2, k_max) {
        return Plan {
            hop: V2::ZERO,
            kept: runs.iter().map(|&(r, _)| r).collect(),
            passes: Vec::new(),
        };
    }

    let mut kept = Vec::new();
    let mut passes = Vec::new();
    let mut hop_options: Vec<V2> = Vec::new();
    for (run, fresh) in runs {
        match run_step(view, at, run, fresh, cfg) {
            RunStep::Stop(_) => {}
            RunStep::Hold(rotated) => kept.push(rotated),
            RunStep::Pass(to, moved) => {
                // OP-A hops only happen while the run advances straight
                // along a quasi line (Fig. 8a); corner rounding is the
                // hop-less OP-B/OP-C, and nearby runs force passing.
                if to == at + run.travel {
                    if let Some(target) = hop_candidate(view, at, run, starting, cfg) {
                        hop_options.push(target);
                    }
                }
                passes.push((to, moved));
            }
        }
    }

    hop_options.sort();
    hop_options.dedup();
    let hop = match hop_options.len() {
        1 => hop_options[0] - at,
        // Two runs demanding different diagonals: the run-passing
        // situation — nobody hops, both runs keep moving (Fig. 9b).
        _ => V2::ZERO,
    };

    if hop != V2::ZERO && view.occupied(at + hop) {
        // OP-A onto an occupied cell: a merge; the run (and any other
        // run of this holder) terminates (Table 1, cond. 6 and 3).
        return Plan { hop, kept: Vec::new(), passes: Vec::new() };
    }

    Plan { hop, kept, passes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::GatherState;
    use grid_engine::{
        ConnectivityCheck, Engine, EngineConfig, OrientationMode, Point, Swarm, View,
    };
    use proptest::prelude::*;

    fn cfg() -> GatherConfig {
        GatherConfig::paper()
    }

    fn swarm(cells: &[(i32, i32)]) -> Swarm<GatherState> {
        let pts: Vec<Point> = cells.iter().map(|&(x, y)| Point::new(x, y)).collect();
        Swarm::new(&pts, OrientationMode::Aligned)
    }

    fn give_run(s: &mut Swarm<GatherState>, p: (i32, i32), run: Run) {
        let i = s.robot_at(Point::new(p.0, p.1)).unwrap();
        let existing: Vec<Run> = s.states()[i].runs().collect();
        s.states_mut()[i] = GatherState::from_runs(existing.into_iter().chain([run]));
    }

    fn view_at(s: &Swarm<GatherState>, p: (i32, i32)) -> View<'_, GatherState> {
        View::new(s, s.robot_at(Point::new(p.0, p.1)).unwrap(), 20)
    }

    /// The Fig. 4 plateau: top row 0..len-1 at y=0 with legs at the
    /// ends. Legs are taller than `k_max` so the end columns are not
    /// themselves merge runs and the shape is genuinely mergeless.
    fn plateau(len: i32) -> Swarm<GatherState> {
        let mut cells: Vec<(i32, i32)> = (0..len).map(|x| (x, 0)).collect();
        for y in 1..=9 {
            cells.push((0, -y));
            cells.push((len - 1, -y));
        }
        swarm(&cells)
    }

    #[test]
    fn op_a_hops_and_passes_on_long_line() {
        let mut s = plateau(14);
        let run = Run::new(V2::E, V2::N);
        give_run(&mut s, (0, 0), run);
        let v = view_at(&s, (0, 0));
        let p = plan(&v, V2::ZERO, false, &cfg());
        // OP-A: diagonal hop forward-down, run moves to the next robot.
        assert_eq!(p.hop, V2::new(1, -1));
        assert_eq!(p.passes, vec![(V2::E, run.aged(V2::E, V2::N))]);
        assert!(p.kept.is_empty());
    }

    #[test]
    fn neighbors_replay_the_same_plan() {
        let mut s = plateau(14);
        let run = Run::new(V2::E, V2::N);
        give_run(&mut s, (0, 0), run);
        // The recipient (1,0) evaluates the holder's plan at offset W.
        let v = view_at(&s, (1, 0));
        let p = plan(&v, V2::W, false, &cfg());
        assert_eq!(p.hop, V2::new(1, -1));
        assert_eq!(p.passes, vec![(V2::ZERO, run.aged(V2::E, V2::N))]);
    }

    /// `plan`, evaluated by its holder (at `at = 0`, in the holder's own
    /// frame), as a neighbour sees it: the holder sits at offset `d` from
    /// the neighbour and `m` maps the holder's frame to the neighbour's.
    /// Runs are sorted, so plans compare as sets.
    fn seen_from(plan: &Plan, d: V2, m: D4) -> Plan {
        sorted(Plan {
            hop: m.apply(plan.hop),
            kept: plan.kept.iter().map(|r| r.transform(m)).collect(),
            passes: plan.passes.iter().map(|&(to, r)| (d + m.apply(to), r.transform(m))).collect(),
        })
    }

    fn sorted(mut plan: Plan) -> Plan {
        plan.kept.sort();
        plan.passes.sort();
        plan
    }

    /// Random blobs, hollow squares, staircases and Fig. 4 plateaus, with
    /// an orientation seed and a number of rounds to run first.
    fn arb_world() -> impl Strategy<Value = (Vec<Point>, u64, u64)> {
        (0u8..4, 40usize..160, 8usize..20, 3usize..8, any::<u64>(), 0u64..16).prop_map(
            |(kind, n, k, run, seed, warmup)| {
                let pts = match kind {
                    0 => gather_workloads::random_blob(n, seed),
                    1 => gather_workloads::hollow_rectangle(k + 2, k + 2, 1),
                    2 => gather_workloads::staircase(k, run),
                    _ => gather_workloads::table(2 * k, 9 + run),
                };
                (pts, seed, warmup)
            },
        )
    }

    /// Hand about a third of the robots one or two seeded runs on top of
    /// what the run produced, so holders are common: the plan function
    /// must agree with its replay on any state, not only reachable ones.
    fn sprinkle_runs(s: &mut Swarm<GatherState>, seed: u64) {
        for i in 0..s.len() {
            let r = grid_engine::splitmix64(seed ^ i as u64);
            if !r.is_multiple_of(3) {
                continue;
            }
            let run = |bits: u64| {
                let travel = V2::axis_units()[(bits & 3) as usize];
                let side = if bits & 4 == 0 { travel.rot_ccw() } else { travel.rot_cw() };
                Run { age: ((bits >> 3) % 40) as u16, ..Run::new(travel, side) }
            };
            let own: Vec<Run> = s.states()[i].runs().collect();
            let extra = [run(r >> 8), run(r >> 24)];
            let count = 1 + (r >> 40) as usize % 2;
            s.states_mut()[i] =
                GatherState::from_runs(own.into_iter().chain(extra).take(count + 1));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The locality argument behind shared plans: every occupied
        /// Chebyshev neighbour's replay of a robot's plan equals the
        /// robot's own plan mapped into the neighbour's frame, in start
        /// rounds and in other rounds, under scrambled orientations.
        #[test]
        fn neighbours_replay_the_holders_own_plan((pts, seed, warmup) in arb_world()) {
            let cfg = cfg();
            let mut engine = Engine::from_positions(
                &pts,
                OrientationMode::Scrambled(seed),
                crate::GatherController::paper(),
                EngineConfig { threads: 1, connectivity: ConnectivityCheck::Never, ..Default::default() },
            );
            for _ in 0..warmup {
                if engine.swarm.is_gathered() {
                    break;
                }
                engine.step().expect("unchecked steps cannot fail");
            }
            sprinkle_runs(&mut engine.swarm, seed);
            let s = &engine.swarm;
            for starting in [false, true] {
                for h in 0..s.len() {
                    let own = plan(&View::new(s, h, cfg.radius), V2::ZERO, starting, &cfg);
                    for p in s.positions()[h].neighbors8() {
                        let Some(o) = s.robot_at(p) else { continue };
                        let inv = s.orients()[o].inverse();
                        let d = inv.apply(s.positions()[h] - p);
                        let replay = plan(&View::new(s, o, cfg.radius), d, starting, &cfg);
                        prop_assert_eq!(
                            sorted(replay),
                            seen_from(&own, d, s.orients()[h].then(inv)),
                            "holder {:?} replayed by {:?} (starting {})",
                            s.positions()[h],
                            p,
                            starting
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hop_onto_occupied_is_a_merge_and_kills_runs() {
        // Mid-fold geometry: the runner's predecessor has already folded
        // (so OP-A applies) and the hop target lies on a long stable row
        // below — the landing is occupied, the hop is the cond-6 merge.
        let mut cells: Vec<(i32, i32)> = (2..14).map(|x| (x, 0)).collect();
        cells.extend((0..14).map(|x| (x, -1)));
        let mut s = swarm(&cells);
        let run = Run::new(V2::E, V2::N);
        give_run(&mut s, (2, 0), run);
        let v = view_at(&s, (2, 0));
        let p = plan(&v, V2::ZERO, false, &cfg());
        assert_eq!(p.hop, V2::new(1, -1), "OP-A fires into the occupied cell");
        assert!(p.passes.is_empty(), "cond. 6: run dies on occupied landing");
        assert!(p.kept.is_empty());
    }

    #[test]
    fn corner_rounds_without_hop() {
        // OP-B: the line turns 2 ahead of the runner into a long column,
        // so the straightness condition fails — the run passes on
        // without a diagonal hop. Both arms are longer than k_max so no
        // merge interferes.
        let mut cells: Vec<(i32, i32)> = (0..10).map(|x| (x, 0)).collect();
        cells.extend((1..=19).map(|y| (9, y)));
        let mut s = swarm(&cells);
        let run = Run::new(V2::E, V2::N);
        give_run(&mut s, (7, 0), run);
        let v = view_at(&s, (7, 0));
        let p = plan(&v, V2::ZERO, false, &cfg());
        // (8,0),(9,0) occupied but (10,0) empty: no OP-A; run passes.
        assert_eq!(p.hop, V2::ZERO);
        assert_eq!(p.passes.len(), 1);
        assert_eq!(p.passes[0].0, V2::E);
    }

    #[test]
    fn convex_corner_rotates_and_holds() {
        //  Run at the east tip of a plateau top row, travelling east:
        //  the boundary wraps; the run stays and rotates clockwise. The
        //  leg must be deeper than the scan depth, otherwise the run
        //  correctly stops instead (cond. 2: it can see the leg's free
        //  end, the quasi line's endpoint).
        let mut cells: Vec<(i32, i32)> = (0..10).map(|x| (x, 0)).collect();
        for y in 1..=20 {
            cells.push((0, -y));
            cells.push((9, -y));
        }
        let mut s = swarm(&cells);
        let run = Run::new(V2::E, V2::N);
        give_run(&mut s, (9, 0), run);
        let v = view_at(&s, (9, 0));
        let p = plan(&v, V2::ZERO, false, &cfg());
        assert!(p.passes.is_empty());
        assert_eq!(p.kept, vec![run.aged(V2::S, V2::E)]);
    }

    #[test]
    fn corner_to_next_wall_is_not_an_endpoint() {
        // Same corner, shallow leg: the wrap into the perpendicular leg
        // is a transition to a *different* quasi line — the scan ends
        // there (Fig. 19: runs beyond it are not sequent) and the run
        // simply rounds the corner.
        let mut s = plateau(10);
        let run = Run::new(V2::E, V2::N);
        give_run(&mut s, (9, 0), run);
        let v = view_at(&s, (9, 0));
        assert_eq!(
            run_step(&v, V2::ZERO, run, false, &cfg()),
            RunStep::Hold(run.aged(V2::S, V2::E))
        );
    }

    #[test]
    fn sequent_run_ahead_stops() {
        let mut s = plateau(16);
        let run = Run::new(V2::E, V2::N);
        give_run(&mut s, (2, 0), run);
        give_run(&mut s, (8, 0), run); // sequent run 6 ahead, same chain
        let v = view_at(&s, (2, 0));
        let step = run_step(&v, V2::ZERO, run, false, &cfg());
        assert_eq!(step, RunStep::Stop(StopReason::SequentRunAhead));
        // The front run does not see the one behind it and continues.
        let v8 = view_at(&s, (8, 0));
        assert!(matches!(run_step(&v8, V2::ZERO, run, false, &cfg()), RunStep::Pass(..)));
    }

    #[test]
    fn oncoming_run_does_not_stop_us() {
        let mut s = plateau(16);
        give_run(&mut s, (2, 0), Run::new(V2::E, V2::N));
        give_run(&mut s, (8, 0), Run::new(V2::W, V2::N)); // head-on partner
        let v = view_at(&s, (2, 0));
        assert!(matches!(
            run_step(&v, V2::ZERO, Run::new(V2::E, V2::N), false, &cfg()),
            RunStep::Pass(..)
        ));
    }

    #[test]
    fn endpoint_ahead_stops() {
        // A free line end (double convex wrap) within scanning range.
        let cells: Vec<(i32, i32)> = (0..8).map(|x| (x, 0)).collect();
        let mut s = swarm(&cells);
        let run = Run::new(V2::E, V2::N);
        give_run(&mut s, (4, 0), run);
        let v = view_at(&s, (4, 0));
        assert_eq!(
            run_step(&v, V2::ZERO, run, false, &cfg()),
            RunStep::Stop(StopReason::EndpointAhead)
        );
    }

    #[test]
    fn two_conflicting_runs_pass_without_hopping() {
        // One robot holding both a north-side-east run and a south-side-
        // west run (the thin-line passing situation): hops disagree.
        let mut s = plateau(16);
        // Put the runs mid-line where both directions have 3 straight.
        give_run(&mut s, (7, 0), Run::new(V2::E, V2::N));
        give_run(&mut s, (7, 0), Run::new(V2::W, V2::S));
        let v = view_at(&s, (7, 0));
        let p = plan(&v, V2::ZERO, false, &cfg());
        assert_eq!(p.hop, V2::ZERO, "conflicting hops cancel (run passing)");
        assert_eq!(p.passes.len(), 2);
        let tos: Vec<V2> = p.passes.iter().map(|(t, _)| *t).collect();
        assert!(tos.contains(&V2::E) && tos.contains(&V2::W));
    }

    #[test]
    fn shape_broken_stops() {
        // Side S must point *into* the swarm for the shape check to
        // fire, so use an interior-side run on a filled 10x2 block
        // (on a bare plateau (5,-1) is empty and side S is fine).
        let mut cells: Vec<(i32, i32)> = (0..10).map(|x| (x, 0)).collect();
        cells.extend((0..10).map(|x| (x, -1)));
        let mut s2 = swarm(&cells);
        give_run(&mut s2, (5, 0), Run::new(V2::E, V2::S));
        let v2 = view_at(&s2, (5, 0));
        assert_eq!(
            run_step(&v2, V2::ZERO, Run::new(V2::E, V2::S), false, &cfg()),
            RunStep::Stop(StopReason::ShapeBroken)
        );
    }

    #[test]
    fn window_safety_refuses_disconnecting_hop() {
        // Mid-line robot with both neighbours present: hopping away
        // would cut the line.
        let s = swarm(&[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]);
        let v = view_at(&s, (2, 0));
        assert!(!joint_hop_safe(&v, V2::ZERO, V2::new(1, -1), false, &cfg()));
        // End robot: the hop target keeps it attached.
        let v0 = view_at(&s, (0, 0));
        assert!(joint_hop_safe(&v0, V2::ZERO, V2::new(1, -1), false, &cfg()));
    }

    #[test]
    fn window_safety_allows_leg_corner_fold() {
        // The table corner: leg below, row to the east; hopping SE keeps
        // the leg connected through the hop target.
        let s = swarm(&[(0, 0), (1, 0), (2, 0), (0, -1), (0, -2)]);
        let v = view_at(&s, (0, 0));
        assert!(joint_hop_safe(&v, V2::ZERO, V2::new(1, -1), false, &cfg()));
    }
}
