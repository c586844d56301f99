//! The quiet set: robots whose compute would only repeat itself.
//!
//! A robot's action is a pure function of what it can read — its view,
//! the plans of its Chebyshev neighbours (each computed on that
//! neighbour's own view) and the round's class
//! ([`crate::Controller::round_class`]). A robot is *quiet* in class
//! `c` when its last action computed in class `c` was "stay, keep
//! state" and nothing that decision read has changed since. Computing
//! it again would return the same action, and applying "stay, keep
//! state" is the same as leaving the robot inactive. So each round
//! computes only the activated robots that are not quiet in the round's
//! class, through the plan table ([`crate::plan`]) with their list,
//! whose compute map returns only the actions that change their robot
//! ([`Action::changes`]), and commits those through
//! [`Swarm::apply_sparse`]; a skipped robot commits nothing. Under ASYNC the activated robots are the
//! looks: a quiet look still draws its delay and goes in flight, with
//! "stay, keep state" as its action, which the swarm parks without an
//! action ([`Swarm::park`]) and no round commits. Positions, states,
//! records and round statistics are bit-identical to computing every
//! activated robot.
//!
//! What a decision read lies within its *reach*: the largest L1 offset
//! any probe of its view touched ([`crate::View`]), where reading a
//! neighbour's plan at offset `d` counts `|d|` plus the reach of that
//! plan's own view ([`crate::Plans::get`]). A pure decision whose probed
//! cells, probed states and read plans are all unchanged runs the same
//! probes in the same order, so it returns the same action. A robot
//! keeps one reach per handle, the largest over the classes it is quiet
//! in. After each apply, a robot loses all its bits when a *changed
//! cell* — the old and new cell of a mover, the cell of a robot whose
//! state changed — lies within its reach. The changed cells are those of
//! the round's commit list (`QuietSet::note`): the computed actions
//! that change their robot, or under ASYNC the parked moves landing and
//! the delay-0 looks, so a parked move wakes its readers when it lands.
//! No decision reads beyond the *ball* of radius `radius + 2` (its own
//! view reaches `radius`; a neighbour up to L1 distance 2 away plans on
//! a view reaching `radius` further). This needs nothing beyond the
//! [`crate::Controller`] contract; in particular it does not rely on
//! `decide_with_plans` agreeing with `decide`. Edits the engine did not
//! make (`states_mut`, `orients_mut`, a swapped-in swarm) show up as a
//! new swarm version and drop every bit. Parking and landing ASYNC looks
//! draw no version: whether a robot is in flight is part of no view.
//!
//! A round whose commit list is empty (every robot it computed stays and
//! keeps its state, as in most rounds of a partial scheduler on a
//! settled swarm) touches nothing: the apply returns before drawing a
//! version, and invalidation, finding no changed cell, only records that
//! unchanged version. Nothing changed, so no robot had a bit to lose and
//! the quiet set stays as a full invalidation would have left it.
//!
//! Most quiet robots read only a few cells, so scanning the whole ball
//! around every changed cell would mostly visit robots too far away to
//! care. The quiet robots are kept in one *reach list* per reach
//! (0 through the ball; swap-removal makes leaving a list O(1)), and
//! marking scans each changed cell's ball only out to the *scan radius*
//! `R` that minimises the probes per changed cell: `ball_cells(R)` plus
//! the quiet robots reading farther than `R`, which are tested directly
//! against every changed cell instead. The two passes wake exactly the
//! robots a full-ball scan would. Marking is skipped, and every bit
//! dropped, when those probes for all changed cells would cost more than
//! computing every robot once.
//!
//! Which robots to compute: a round whose class has no quiet robot (a
//! fresh set's first round of the class, or after every bit dropped)
//! computes every activated robot and lists none. Otherwise a round
//! that activates a subset filters its activation list by the class
//! bits, and an all-active round reads its class's *awake bitset* —
//! one bit per handle, set while the robot is not quiet in the class —
//! whose set bits, in handle order, are the robots to compute in slot
//! order (handles ascend with slots). That costs O(n/64 + computed); a
//! merged-away handle's bit is cleared when the walk first meets it. A
//! class's bitset is built on its first all-active round, so subset
//! schedulers never allocate one.
//!
//! Storage per stable handle (so merges never move an entry): the class
//! bits and the reach (a byte each) and the handle's position in its
//! reach list (4 bytes), allocated zeroed on the first round of a
//! controller that declares classes, so a round touches only the entries
//! of the robots it records or wakes; plus one awake bit per handle per
//! class run all-active, the reach lists, a count of quiet robots per
//! class, and the round's changed-cell list. The engine keeps the list
//! of robots to compute.

use crate::geom::{Point, V2};
use crate::plan::Decided;
use crate::swarm::{Action, RobotState, Swarm};

/// Marking probes worth one robot's compute. Marking costs, per changed
/// cell, a scan of its ball out to the scan radius
/// ([`crate::tile::TileWindow::for_each_in_ball`]) plus one distance
/// test per quiet robot reading farther, each counted as one probe;
/// skipping it (dropping every bit instead) costs at most one compute
/// per robot next time. When this was set, a scanned cell cost about
/// 2 ns and a robot's compute about 400 ns for the paper controller, so
/// marking paid while it probed fewer than ~200 cells per robot.
///
/// A robot's compute, re-measured after interior robots stopped
/// measuring their axis runs, is about 700 ns for the paper
/// controller: the compute phase's seconds per computed robot over the
/// four fsync-gather scenarios at seed 1 (`campaign run --perf
/// --threads 1`, three runs, 2-core Xeon) read 680–780 ns (640–780 ns
/// before), from 290–500 ns on the n = 4096 line to 830–930 ns on the
/// n = 512 hollow square, and one traced decide reads 530 ns
/// (`core.decide_ns`, median of three gatherbench runs; 551 ns before).
///
/// The scan reads one occupancy word per tile row segment and a handle
/// per robot found, and skips the rows that no tile of a band occupies
/// (the tiles' row summaries), so `ball_cells` over-counts its work,
/// most where rows are empty. Timed through `View::for_each_within` at
/// radius 20 over every robot of n = 4096 start swarms (2-core Xeon,
/// best of twelve alternating runs of best of 5), a ball costs 0.11 ns
/// per cell on a line, 0.53 on clusters, 1.36 on a square and 1.85 on a
/// random blob, against 0.35, 0.53, 1.30 and 1.78 ns for the walk over
/// every row it replaced. GoToCenter, which reads its whole view,
/// decides in 90–514 ns on the n = 256 start swarms of the weak-sync
/// cut (mean 331 ns; 267–613 ns, mean 443 ns, walking every row). The
/// value and the model stay as they were, so marking drops every bit in
/// exactly the rounds it did and the engine computes the same robots.
const PROBES_PER_COMPUTE: usize = 200;

/// Round classes ([`crate::Controller::round_class`] is below 8).
const CLASSES: usize = 8;

/// Number of cells within L1 distance `r` of a cell.
fn ball_cells(r: usize) -> usize {
    2 * r * (r + 1) + 1
}

/// Engine-owned quiet bits, reach lists, awake bitsets and the round's
/// changed cells.
#[derive(Debug)]
pub(crate) struct QuietSet {
    /// `radius + 2`: no decision reads farther.
    ball: usize,
    /// Per stable handle: bit `c` set ⇔ quiet in round class `c`.
    bits: Vec<u8>,
    /// Per stable handle: the largest reach over its set bits;
    /// meaningless while its bits are 0.
    reach: Vec<u8>,
    /// Per stable handle: its position in its reach list; meaningless
    /// while its bits are 0.
    at: Vec<u32>,
    /// `lists[s]`: the quiet handles a change wakes from at most `s`
    /// cells away ([`QuietSet::span`]), in no order.
    lists: Vec<Vec<u32>>,
    /// Per round class: how many handles are quiet in it.
    quiet: [usize; CLASSES],
    /// Per round class, from its first all-active round on: bit `h` set
    /// ⇔ handle `h` is not quiet in the class (or merged away and not yet
    /// met by [`QuietSet::select`]).
    awake: [Option<Vec<u64>>; CLASSES],
    /// The swarm's version right after the engine's last apply; 0 (never
    /// a version) until then.
    version: u64,
    /// This round's changed cells (capacity reused across rounds).
    changed: Vec<Point>,
}

impl QuietSet {
    /// An empty set for a controller whose decisions read at most `ball`
    /// cells out.
    pub(crate) fn new(ball: i32) -> Self {
        let ball = ball.max(0) as usize;
        QuietSet {
            ball,
            bits: Vec::new(),
            reach: Vec::new(),
            at: Vec::new(),
            lists: vec![Vec::new(); ball + 1],
            quiet: [0; CLASSES],
            awake: Default::default(),
            version: 0,
            changed: Vec::new(),
        }
    }

    /// Fill `out` with the robots to compute in `class`, in slot order:
    /// those of `active` that are not quiet in it, or, when `active` is
    /// `None` (every robot is activated), every robot not quiet in it.
    /// Returns whether any activated robot was left out; when no robot
    /// is quiet in `class`, returns `false` without touching `out`.
    pub(crate) fn select<S: RobotState>(
        &mut self,
        swarm: &Swarm<S>,
        active: Option<&[usize]>,
        class: u8,
        out: &mut Vec<usize>,
    ) -> bool {
        if swarm.version() != self.version {
            // Edited outside the engine's apply, or swapped: nothing is
            // known to be quiet.
            self.forget(swarm.handle_count());
        }
        let bit = 1u8 << class;
        let none_quiet = self.quiet[usize::from(class)] == 0;
        if let Some(active) = active {
            if none_quiet {
                return false;
            }
            out.clear();
            let handles = swarm.handles();
            let bits = &self.bits;
            out.extend(active.iter().copied().filter(|&i| bits[handles[i] as usize] & bit == 0));
            return out.len() < active.len();
        }
        let (lists, bits) = (&self.lists, &self.bits);
        let awake = self.awake[usize::from(class)].get_or_insert_with(|| {
            let handles = swarm.handle_count();
            let mut awake = vec![u64::MAX; handles.div_ceil(64)];
            if let (Some(last), 1..) = (awake.last_mut(), handles % 64) {
                *last >>= 64 - handles % 64;
            }
            for &h in lists.iter().flatten() {
                if bits[h as usize] & bit != 0 {
                    awake[h as usize / 64] &= !(1 << (h % 64));
                }
            }
            awake
        });
        if none_quiet {
            return false;
        }
        out.clear();
        for (w, word) in awake.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                match swarm.live_slot(w * 64 + b as usize) {
                    Some(slot) => out.push(slot),
                    None => *word &= !(1 << b),
                }
            }
        }
        out.len() < swarm.len()
    }

    /// After compute: `computed[k]` decided `decided[k]` in `class`. A
    /// robot whose action changes nothing ([`Action::changes`]) becomes
    /// quiet in `class` with the decision's reach; any other loses all
    /// its bits.
    pub(crate) fn record<S: RobotState>(
        &mut self,
        swarm: &Swarm<S>,
        computed: &[usize],
        decided: &[Decided],
        class: u8,
    ) {
        let handles = swarm.handles();
        for (&i, decision) in computed.iter().zip(decided) {
            let h = handles[i] as usize;
            if decision.changes() {
                self.wake(h);
            } else {
                self.hush(h, class, decision.reach());
            }
        }
    }

    /// Before the apply: the round's changed cells are those of its
    /// commit list, where the robot in `slots[k]` commits `actions[k]`
    /// and each action changes its robot: the robot's cell, and its
    /// target when it moves. Under ASYNC the list holds the parked moves
    /// landing and the delay-0 looks, so a parked move wakes its readers
    /// in the round it lands.
    pub(crate) fn note<S: RobotState>(
        &mut self,
        swarm: &Swarm<S>,
        slots: &[usize],
        actions: &[Action<S>],
    ) {
        let (positions, orients) = (swarm.positions(), swarm.orients());
        self.changed.clear();
        for (&i, action) in slots.iter().zip(actions) {
            self.changed.push(positions[i]);
            if action.step != V2::ZERO {
                self.changed.push(positions[i] + orients[i].apply(action.step));
            }
        }
    }

    /// After the apply: every robot within its reach of a changed cell
    /// loses all its bits. When marking would cost more than computing
    /// everyone once, every bit goes instead. A round without a changed
    /// cell only records the swarm's version.
    pub(crate) fn invalidate<S: RobotState>(&mut self, swarm: &Swarm<S>) {
        self.version = swarm.version();
        if self.changed.is_empty() {
            return;
        }
        let (scan, probes, quiet) = self.scan_radius();
        if quiet == 0 {
            return;
        }
        if self.changed.len() * probes > PROBES_PER_COMPUTE * swarm.len() {
            self.wake_all();
            return;
        }
        self.changed.sort_unstable();
        self.changed.dedup();
        let changed = std::mem::take(&mut self.changed);
        for &cell in &changed {
            let win = swarm.index().window(cell, scan as i32);
            win.for_each_in_ball(cell, scan as i32, |at, h| {
                let h = h as usize;
                if self.bits[h] != 0 && at.l1(cell) as usize <= self.span(self.reach[h]) {
                    self.wake(h);
                }
            });
        }
        // The scan woke every robot of reach up to `scan` it had to; test
        // the farther readers left. Walking a list backwards keeps its
        // unvisited part in place across swap-removals.
        let positions = swarm.positions();
        for span in scan + 1..=self.ball {
            for k in (0..self.lists[span].len()).rev() {
                let h = self.lists[span][k];
                let p = positions[swarm.slot(h)];
                if changed.iter().any(|&c| p.l1(c) as usize <= span) {
                    self.wake(h as usize);
                }
            }
        }
        self.changed = changed;
    }

    /// The scan radius `R` with the fewest probes per changed cell,
    /// those probes (`ball_cells(R)` plus the quiet robots reading
    /// farther than `R`), and how many robots are quiet.
    fn scan_radius(&self) -> (usize, usize, usize) {
        let (mut best, mut farther) = ((self.ball, ball_cells(self.ball)), 0);
        for r in (0..self.ball).rev() {
            farther += self.lists[r + 1].len();
            if ball_cells(r) + farther < best.1 {
                best = (r, ball_cells(r) + farther);
            }
        }
        (best.0, best.1, farther + self.lists[0].len())
    }

    /// How far from a change a robot whose decisions read `reach` cells
    /// out is woken: no farther than the ball, all of which a saturated
    /// reach byte covers.
    fn span(&self, reach: u8) -> usize {
        if reach == u8::MAX {
            self.ball
        } else {
            usize::from(reach).min(self.ball)
        }
    }

    /// Handle `h` chose to stay in `class`, reading `reach` cells out.
    fn hush(&mut self, h: usize, class: u8, reach: u8) {
        let bits = self.bits[h];
        let reach = if bits == 0 {
            reach
        } else {
            self.unlist(h);
            reach.max(self.reach[h])
        };
        let span = self.span(reach);
        self.at[h] = self.lists[span].len() as u32;
        self.lists[span].push(h as u32);
        self.reach[h] = reach;
        self.bits[h] = bits | 1 << class;
        self.quiet[usize::from(class)] += usize::from(bits & 1 << class == 0);
        if let Some(awake) = &mut self.awake[usize::from(class)] {
            awake[h / 64] &= !(1 << (h % 64));
        }
    }

    /// Handle `h` loses all its bits.
    fn wake(&mut self, h: usize) {
        let bits = std::mem::take(&mut self.bits[h]);
        if bits != 0 {
            self.unlist(h);
            set_awake(&mut self.awake, h, bits);
            let mut rest = bits;
            while rest != 0 {
                self.quiet[rest.trailing_zeros() as usize] -= 1;
                rest &= rest - 1;
            }
        }
    }

    /// Every quiet robot loses all its bits: O(quiet).
    fn wake_all(&mut self) {
        let QuietSet { bits, lists, awake, .. } = self;
        for list in lists.iter_mut() {
            for &h in list.iter() {
                set_awake(awake, h as usize, std::mem::take(&mut bits[h as usize]));
            }
            list.clear();
        }
        self.quiet = [0; CLASSES];
    }

    /// Take quiet handle `h` out of its reach list.
    fn unlist(&mut self, h: usize) {
        let (span, at) = (self.span(self.reach[h]), self.at[h] as usize);
        let list = &mut self.lists[span];
        let last = list.pop().expect("a quiet handle is in its reach list");
        if last as usize != h {
            list[at] = last;
            self.at[last as usize] = at as u32;
        }
    }

    /// Forget every quiet robot of a swarm with `handles` stable
    /// handles, and every awake bitset (a swapped-in swarm may hold
    /// robots a bitset has cleared as merged away).
    fn forget(&mut self, handles: usize) {
        self.wake_all();
        self.awake = Default::default();
        if self.bits.len() != handles {
            // Zeroed allocations: the OS maps their pages only once a
            // round writes them.
            self.bits = vec![0; handles];
            self.reach = vec![0; handles];
            self.at = vec![0; handles];
        }
    }
}

/// Mark handle `h`, no longer quiet in the classes of `bits`, awake in
/// those classes' bitsets.
fn set_awake(awake: &mut [Option<Vec<u64>>; CLASSES], h: usize, bits: u8) {
    for (class, awake) in awake.iter_mut().enumerate() {
        if let (Some(awake), true) = (awake, bits & 1 << class != 0) {
            awake[h / 64] |= 1 << (h % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ConnectivityCheck, Controller, Engine, EngineConfig, RoundCtx};
    use crate::geom::D4;
    use crate::plan::Plans;
    use crate::scheduler::{splitmix64, Scheduler};
    use crate::swarm::OrientationMode;
    use crate::view::{reach_byte, View};
    use std::cell::Cell;
    use std::rc::Rc;

    /// What a [`Rim`] robot remembers: its rim count from its last
    /// class-0 round, the sum of plans from its last class-1 round, how
    /// far it reads, and for walkers a heading in its own frame.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct RimState {
        rim: u32,
        sum: u32,
        depth: i32,
        heading: V2,
    }

    impl RobotState for RimState {
        fn transform(&self, m: D4) -> Self {
            RimState { heading: m.apply(self.heading), ..*self }
        }
    }

    const SCANLINE: [V2; 9] = [
        V2::new(-1, -1),
        V2::new(0, -1),
        V2::new(1, -1),
        V2::new(-1, 0),
        V2::ZERO,
        V2::new(1, 0),
        V2::new(-1, 1),
        V2::new(0, 1),
        V2::new(1, 1),
    ];

    /// An adversary for the quiet set. Every robot's plan is the number
    /// of occupied cells on the east half of a rim of its view (L1
    /// distance exactly `radius`, or its state's `depth` when `by_depth`,
    /// in its own frame); robots of odd depth count with one ball query,
    /// the others probe each rim cell. Class-0 rounds record that count
    /// in the state; class-1 rounds record the sum of the plans of the
    /// robot and its Chebyshev neighbours, which reaches up to
    /// `radius + 2` cells out, the full ball the quiet set scans.
    /// Walkers step along their heading, turn when blocked, and in
    /// class-1 rounds walk north into a non-walker, merging into it.
    struct Rim {
        classes: bool,
        by_depth: bool,
    }

    const RADIUS: i32 = 3;

    impl Rim {
        fn rim_count(&self, view: &View<'_, RimState>) -> u32 {
            let depth = view.self_state().depth;
            let r = if self.by_depth { depth } else { RADIUS };
            if depth % 2 == 1 {
                let mut count = 0;
                view.for_each_within(r, |v| count += u32::from(v.l1() == r && v.x > 0));
                return count;
            }
            let rim = (-r..=r).flat_map(|y| {
                let w = r - y.abs();
                [V2::new(-w, y), V2::new(w, y)]
            });
            rim.filter(|v| v.x > 0 && view.occupied(*v)).count() as u32
        }
    }

    impl Controller for Rim {
        type State = RimState;
        type Plan = u32;

        fn radius(&self) -> i32 {
            RADIUS
        }

        fn decide(&self, _view: &View<'_, RimState>, _ctx: RoundCtx) -> Action<RimState> {
            unreachable!("Rim reads past its view through plans; the engine decides with them")
        }

        fn needs_plan(&self, _state: &RimState, ctx: RoundCtx) -> bool {
            ctx.round % 2 == 1
        }

        fn plan(&self, view: &View<'_, RimState>, _ctx: RoundCtx) -> Option<u32> {
            Some(self.rim_count(view))
        }

        fn decide_with_plans(
            &self,
            view: &View<'_, RimState>,
            ctx: RoundCtx,
            plans: &Plans<'_, RimState, u32>,
        ) -> Action<RimState> {
            let class1 = ctx.round % 2 == 1;
            let mut next = *view.self_state();
            if class1 {
                next.sum = SCANLINE.iter().filter_map(|&d| plans.get(d)).map(|(&p, _)| p).sum();
            } else {
                next.rim = self.rim_count(view);
            }
            let ahead = next.heading;
            let step = match view.state(ahead) {
                _ if ahead == V2::ZERO => V2::ZERO,
                None => ahead,
                Some(s) if class1 && ahead == V2::N && s.heading == V2::ZERO => ahead,
                Some(_) => {
                    next.heading = ahead.rot_ccw();
                    V2::ZERO
                }
            };
            Action { step, state: next }
        }

        fn round_class(&self, ctx: RoundCtx) -> Option<u8> {
            self.classes.then_some((ctx.round % 2) as u8)
        }
    }

    fn config(scheduler: Scheduler, threads: usize) -> EngineConfig {
        EngineConfig {
            threads,
            scheduler,
            connectivity: ConnectivityCheck::Never,
            ..EngineConfig::default()
        }
    }

    fn engine(rim: Rim, scheduler: Scheduler, threads: usize) -> Engine<Rim> {
        // About 1440 robots, above the parallel threshold.
        engine_on(60, rim, scheduler, threads)
    }

    /// A 40 % random fill of a `side`×`side` box with one walker in 64
    /// and read depths spread over 0..=RADIUS.
    fn engine_on(side: i32, rim: Rim, scheduler: Scheduler, threads: usize) -> Engine<Rim> {
        let pts: Vec<Point> = (0..side * side)
            .map(|i| Point::new(i % side, i / side))
            .filter(|p| splitmix64(0x5eed ^ ((p.x as u64) << 8 | p.y as u64)) % 100 < 40)
            .collect();
        let mut e = Engine::from_positions(
            &pts,
            OrientationMode::Scrambled(3),
            rim,
            config(scheduler, threads),
        );
        for (i, s) in e.swarm.states_mut().iter_mut().enumerate() {
            let draw = splitmix64(i as u64);
            if draw.is_multiple_of(256) {
                s.heading = V2::axis_units()[(draw >> 8) as usize % 4];
            }
            s.depth = (draw >> 16) as i32 % (RADIUS + 1);
        }
        e
    }

    /// Attach a profiler that sums the engine's computed robots.
    fn count_computed(e: &mut Engine<Rim>) -> Rc<Cell<u64>> {
        let computed = Rc::new(Cell::new(0u64));
        let sink = Rc::clone(&computed);
        e.set_profiler(Box::new(move |p| sink.set(sink.get() + p.computed)));
        computed
    }

    /// Step `rim` with and without classes for 36 rounds, asserting
    /// equal results every round, across edits made between steps: a
    /// state edit, an orientation edit, and a restored snapshot. Returns
    /// the robots the quiet engine computed.
    fn edited_lockstep(by_depth: bool, scheduler: Scheduler, threads: usize) -> u64 {
        let mut quiet = engine(Rim { classes: true, by_depth }, scheduler, threads);
        let mut full = engine(Rim { classes: false, by_depth }, scheduler, 1);
        let computed = count_computed(&mut quiet);
        let (mut activated, mut merged) = (0, 0);
        let mut snapshot = None;
        let at = format!("{scheduler:?} threads {threads} by depth {by_depth}");
        for round in 0..36 {
            match round {
                6 => snapshot = Some(quiet.swarm.clone()),
                12 => {
                    for e in [&mut quiet.swarm, &mut full.swarm] {
                        let states = e.states_mut();
                        states[5].heading = V2::E;
                        states[17].rim = 999;
                    }
                }
                18 => {
                    for e in [&mut quiet.swarm, &mut full.swarm] {
                        e.orients_mut()[3] = D4 { rot: 2, flip: true };
                        e.orients_mut()[40] = D4::IDENTITY;
                    }
                }
                24 => {
                    let restored = snapshot.take().expect("taken at round 6");
                    quiet.swarm = restored.clone();
                    full.swarm = restored;
                }
                _ => {}
            }
            let stats = quiet.step();
            assert_eq!(stats, full.step(), "{at} round {round}");
            assert_eq!(quiet.swarm.positions(), full.swarm.positions(), "{at} round {round}");
            assert_eq!(quiet.swarm.states(), full.swarm.states(), "{at} round {round}");
            let in_flight = quiet.swarm.in_flight_count();
            assert_eq!(in_flight, full.swarm.in_flight_count(), "{at} round {round}");
            let stats = stats.expect("unchecked steps cannot fail");
            (activated, merged) = (activated + stats.activated, merged + stats.merged);
        }
        assert!(merged > 0, "{at}: no walker ever merged");
        eprintln!("{at}: computed {} of {activated}", computed.get());
        assert!(computed.get() < activated as u64, "{at}: no robot was skipped");
        computed.get()
    }

    /// Quiet skipping decides exactly what computing every activated
    /// robot decides, every round, under every scheduler kind. Robots
    /// reading their whole radius and robots reading to their own depth
    /// both do; the latter compute fewer robots, because changes beyond
    /// a decision's reach do not wake it.
    #[test]
    fn quiet_skipping_equals_full_recomputation() {
        let n0 = engine(Rim { classes: false, by_depth: false }, Scheduler::Fsync, 1).swarm.len();
        for scheduler in [
            Scheduler::Fsync,
            Scheduler::Ssync { seed: 5, p: 50 },
            Scheduler::RoundRobin { k: n0 as u32 / 4 },
            Scheduler::Crash { seed: 5, f: 200, n0: n0 as u32 },
            Scheduler::Async { seed: 5, staleness: 2 },
        ] {
            for threads in [1, 3] {
                let radius = edited_lockstep(false, scheduler, threads);
                let depth = edited_lockstep(true, scheduler, threads);
                assert!(
                    depth < radius,
                    "{scheduler:?} threads {threads}: reading to depth computed {depth} robots, \
                     reading the whole radius {radius}"
                );
            }
        }
    }

    /// Step [`Rim`] reading to depth with and without classes from
    /// `pts` (aligned frames, initial states set by `init`), asserting
    /// equal results every round. Both swarms' states are touched before
    /// each round in `touch`, which drops every quiet bit. Returns the
    /// robots the quiet engine computed and the final positions.
    fn lockstep(
        pts: &[Point],
        init: impl Fn(&mut [RimState]),
        touch: &[u64],
        rounds: u64,
    ) -> (u64, Vec<Point>) {
        let make = |classes| {
            let rim = Rim { classes, by_depth: true };
            let config = config(Scheduler::Fsync, 1);
            let mut e = Engine::from_positions(pts, OrientationMode::Aligned, rim, config);
            init(e.swarm.states_mut());
            e
        };
        let (mut quiet, mut full) = (make(true), make(false));
        let computed = count_computed(&mut quiet);
        for round in 0..rounds {
            if touch.contains(&round) {
                let _ = (quiet.swarm.states_mut(), full.swarm.states_mut());
            }
            assert_eq!(quiet.step(), full.step(), "round {round}");
            assert_eq!(quiet.swarm.positions(), full.swarm.positions(), "round {round}");
            assert_eq!(quiet.swarm.states(), full.swarm.states(), "round {round}");
        }
        (computed.get(), quiet.swarm.positions().to_vec())
    }

    /// A reader of depth 3 at the origin and a walker heading north past
    /// it, three or four columns east. A change at exactly the reader's
    /// reach wakes it; one a cell beyond never does, so the reader is
    /// computed only in the first round of each class.
    #[test]
    fn only_changes_within_reach_wake_a_quiet_robot() {
        const ROUNDS: u64 = 13;
        let run = |lane: i32| {
            let pts = [Point::new(0, 0), Point::new(lane, -6)];
            let init = |s: &mut [RimState]| {
                s[0].depth = RADIUS;
                s[1].heading = V2::N;
            };
            let (computed, end) = lockstep(&pts, init, &[], ROUNDS);
            assert_eq!(end[1], Point::new(lane, 7), "the walker was blocked");
            computed
        };
        assert_eq!(run(RADIUS + 1), ROUNDS + 2, "a change beyond the reach woke the reader");
        let woken = run(RADIUS);
        assert!(woken > ROUNDS + 2, "a change at the reach left the reader quiet ({woken})");
    }

    /// A robot's reach covers every class it is quiet in. The reader at
    /// the origin reads nothing in class 0, but in class 1 it sums its
    /// east neighbour's plan, which reads 3 cells further. Touching the
    /// states before round 3 makes the reader's last compute a class-0
    /// one; the walker then enters the neighbour's rim, 4 cells from the
    /// reader, just before a class-1 round.
    #[test]
    fn reach_spans_every_class_a_robot_is_quiet_in() {
        let pts = [Point::new(0, 0), Point::new(1, 0), Point::new(4, -5)];
        let init = |s: &mut [RimState]| {
            s[1].depth = RADIUS;
            s[2].heading = V2::N;
        };
        lockstep(&pts, init, &[3], 7);
    }

    /// How far a change wakes a robot of `reach` in a ball of `ball`,
    /// from first principles: a full-ball scan wakes it from `d` cells
    /// away when `d <= ball` and the reach byte of `d` is at most
    /// `reach`.
    fn oracle_span(reach: u8, ball: i32) -> i32 {
        (0..=ball).filter(|&d| reach_byte(d) <= reach).max().unwrap_or(-1)
    }

    /// The lists, the per-handle entries, the per-class counts and the
    /// awake bitsets agree: a handle is in exactly the list of its span,
    /// at its position, while it has bits, each class counts the handles
    /// with its bit, and every bitset marks exactly the live handles not
    /// quiet in its class.
    fn assert_consistent(q: &QuietSet, swarm: &Swarm<()>) {
        let listed: usize = q.lists.iter().map(Vec::len).sum();
        assert_eq!(listed, q.bits.iter().filter(|&&b| b != 0).count(), "listed ≠ quiet");
        for (class, &count) in q.quiet.iter().enumerate() {
            let bits = q.bits.iter().filter(|&&b| b & 1 << class != 0).count();
            assert_eq!(count, bits, "class {class} counts {count} quiet handles");
        }
        for (span, list) in q.lists.iter().enumerate() {
            for (at, &h) in list.iter().enumerate() {
                let h = h as usize;
                assert_ne!(q.bits[h], 0, "handle {h} listed without bits");
                assert_eq!(q.span(q.reach[h]), span, "handle {h} in the wrong list");
                assert_eq!(q.at[h] as usize, at, "handle {h} lost its position");
            }
        }
        for (class, awake) in q.awake.iter().enumerate() {
            let Some(awake) = awake else { continue };
            for &h in swarm.handles() {
                let h = h as usize;
                let set = awake[h / 64] & 1 << (h % 64) != 0;
                assert_eq!(set, q.bits[h] & 1 << class == 0, "class {class} handle {h}");
            }
        }
    }

    /// Reach lists wake exactly the robots a full-ball scan would. Random
    /// hush/wake sequences over a 25 % fill give reaches from 0 to the
    /// whole ball (and saturated bytes); each round's changed cells are
    /// clustered around one cell or scattered over the box, sometimes
    /// repeated. After every `invalidate` the woken set must equal the
    /// brute-force set of quiet robots with a changed cell within their
    /// span, computed from a model of the bits and reaches kept here.
    #[test]
    fn reach_lists_wake_exactly_the_robots_a_full_scan_would() {
        const BALL: i32 = 6;
        let pts: Vec<Point> = (0..1600)
            .map(|i| Point::new(i % 40, i / 40))
            .filter(|p| splitmix64(0xface ^ ((p.x as u64) << 8 | p.y as u64)).is_multiple_of(4))
            .collect();
        let swarm: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        let n = swarm.len();
        let mut q = QuietSet::new(BALL);
        let mut out = Vec::new();
        // Classes 0 and 1 get bitsets; class 2 never runs all-active.
        for class in [0, 1] {
            assert!(!q.select(&swarm, None, class, &mut out), "a fresh set computes everyone");
        }
        let (mut bits, mut reach) = (vec![0u8; n], vec![0u8; n]);
        let mut radii = std::collections::BTreeSet::new();
        let mut woken_total = 0;
        for round in 0..400u64 {
            let draw = |k: u64| splitmix64(round << 32 ^ k);
            // Long readers are rare in most rounds and common in others,
            // so the scan radius moves between 0 and the whole ball.
            let long = if round % 5 == 0 { 2 } else { 40 };
            for k in 0..60 {
                let h = (draw(k) % n as u64) as usize;
                if draw(k + 1000) % 6 == 0 {
                    q.wake(h);
                    bits[h] = 0;
                    continue;
                }
                let r = match draw(k + 2000) % long {
                    0 => BALL as u8,
                    1 => u8::MAX,
                    2 => (draw(k + 3000) % (BALL as u64 + 4)) as u8,
                    _ => (draw(k + 3000) % 3) as u8,
                };
                let class = (draw(k + 4000) % 3) as u8;
                q.hush(h, class, r);
                reach[h] = if bits[h] == 0 { r } else { reach[h].max(r) };
                bits[h] |= 1 << class;
            }
            assert_consistent(&q, &swarm);
            let at = pts[(draw(5000) % n as u64) as usize];
            let count = 1 + draw(5001) % 12;
            q.changed = (0..count)
                .map(|k| match round % 2 {
                    0 => at + V2::new((draw(k) % 5) as i32 - 2, (draw(k + 99) % 5) as i32 - 2),
                    _ => Point::new((draw(k) % 50) as i32 - 5, (draw(k + 99) % 50) as i32 - 5),
                })
                .collect();
            let expected: Vec<usize> = (0..n)
                .filter(|&h| {
                    let span = oracle_span(reach[h], BALL);
                    bits[h] != 0 && q.changed.iter().any(|&c| pts[h].l1(c) <= span)
                })
                .collect();
            let (scan, probes, quiet) = q.scan_radius();
            assert_eq!(quiet, bits.iter().filter(|&&b| b != 0).count());
            assert!(q.changed.len() * probes <= PROBES_PER_COMPUTE * n, "marking was skipped");
            radii.insert(scan);
            q.invalidate(&swarm);
            for &h in &expected {
                bits[h] = 0;
            }
            woken_total += expected.len();
            assert_eq!(q.bits, bits, "round {round}: woke other robots than a full scan");
            assert_consistent(&q, &swarm);
        }
        assert!(woken_total > 400, "changes woke only {woken_total} robots");
        assert!(radii.len() >= 3, "the scan radius only took the values {radii:?}");
        assert!(radii.contains(&(BALL as usize)), "never scanned the whole ball: {radii:?}");
    }

    /// Every field of the set that a round's apply and invalidation can
    /// touch, for comparing the set across a round.
    fn snapshot(q: &QuietSet) -> impl PartialEq + std::fmt::Debug {
        (q.bits.clone(), q.reach.clone(), q.lists.clone(), q.quiet, q.awake.clone(), q.version)
    }

    /// A round that commits nothing touches nothing: with an empty commit
    /// list, noting, applying and invalidating leave the swarm's version,
    /// positions and states and every quiet bit, reach and list as they
    /// were, also once a class's awake bitset exists.
    #[test]
    fn an_empty_commit_list_leaves_the_swarm_and_the_quiet_set_alone() {
        for scheduler in [Scheduler::RoundRobin { k: 40 }, Scheduler::Fsync] {
            let mut e = engine_on(30, Rim { classes: true, by_depth: true }, scheduler, 1);
            for _ in 0..12 {
                e.step().expect("unchecked steps cannot fail");
            }
            let quiet = e.quiet.as_mut().expect("Rim declares classes");
            assert!(quiet.quiet.iter().sum::<usize>() > 0, "{scheduler:?}: nobody is quiet");
            let (version, before) = (e.swarm.version(), snapshot(quiet));
            let (positions, states) = (e.swarm.positions().to_vec(), e.swarm.states().to_vec());
            for _ in 0..3 {
                quiet.note(&e.swarm, &[], &[]);
                let outcome = e.swarm.apply_sparse(&[], &mut Vec::new(), None);
                quiet.invalidate(&e.swarm);
                assert_eq!(outcome, crate::swarm::ApplyOutcome::default(), "{scheduler:?}");
                assert_eq!(e.swarm.version(), version, "{scheduler:?}: drew a version");
                assert_eq!(e.swarm.positions(), &positions[..], "{scheduler:?}");
                assert_eq!(e.swarm.states(), &states[..], "{scheduler:?}");
                assert_eq!(snapshot(quiet), before, "{scheduler:?}: the quiet set changed");
            }
        }
    }

    /// Under partial schedulers most rounds of a settled swarm commit
    /// nothing. Across those idle rounds the quiet engine decides what
    /// computing every activated robot decides, its swarm keeps its
    /// version, and no robot loses a quiet bit; it still skips robots.
    #[test]
    fn idle_rounds_equal_full_recomputation() {
        let n0 = engine_on(16, Rim { classes: false, by_depth: false }, Scheduler::Fsync, 1)
            .swarm
            .len() as u32;
        for scheduler in [
            Scheduler::RoundRobin { k: 3 },
            Scheduler::RoundRobin { k: 16 },
            Scheduler::Ssync { seed: 9, p: 5 },
            Scheduler::Crash { seed: 9, f: n0 / 2, n0 },
        ] {
            for by_depth in [false, true] {
                let make = |classes| engine_on(16, Rim { classes, by_depth }, scheduler, 1);
                let (mut quiet, mut full) = (make(true), make(false));
                let computed = count_computed(&mut quiet);
                let (mut idle, mut activated) = (0, 0);
                let at = format!("{scheduler:?} by depth {by_depth}");
                for round in 0..400 {
                    let version = quiet.swarm.version();
                    let positions = quiet.swarm.positions().to_vec();
                    let states = quiet.swarm.states().to_vec();
                    let bits = quiet.quiet.as_ref().map(|q| q.bits.clone());
                    let stats = quiet.step();
                    assert_eq!(stats, full.step(), "{at} round {round}");
                    assert_eq!(
                        quiet.swarm.positions(),
                        full.swarm.positions(),
                        "{at} round {round}"
                    );
                    assert_eq!(quiet.swarm.states(), full.swarm.states(), "{at} round {round}");
                    activated += stats.expect("unchecked steps cannot fail").activated;
                    if quiet.swarm.positions() != positions || quiet.swarm.states() != states {
                        continue;
                    }
                    idle += 1;
                    assert_eq!(quiet.swarm.version(), version, "{at} round {round}: a version");
                    let now = &quiet.quiet.as_ref().expect("Rim declares classes").bits;
                    for (h, (&was, &is)) in bits.iter().flatten().zip(now).enumerate() {
                        assert_eq!(was & !is, 0, "{at} round {round}: handle {h} woke");
                    }
                }
                assert!(idle >= 200, "{at}: only {idle} of 400 rounds were idle");
                assert!(computed.get() < activated as u64, "{at}: no robot was skipped");
            }
        }
    }

    /// The compute map splits a quiet selection, not only the identity
    /// list of a round that computes everyone: on a 120×120 box, rounds
    /// 2 to 13 and 15 of FSYNC select at least `PARALLEL_THRESHOLD`
    /// robots yet leave some out, and over 2, 3 and 8 threads every
    /// round decides what computing every robot on one thread decides.
    #[test]
    fn parallel_subset_selections_equal_full_recomputation() {
        use crate::parallel::PARALLEL_THRESHOLD;
        const ROUNDS: usize = 16;
        let rim = |classes| Rim { classes, by_depth: false };
        let mut full = engine_on(120, rim(false), Scheduler::Fsync, 1);
        let reference: Vec<_> = (0..ROUNDS)
            .map(|_| {
                let stats = full.step();
                (stats, full.swarm.positions().to_vec(), full.swarm.states().to_vec())
            })
            .collect();
        for threads in [2, 3, 8] {
            let mut quiet = engine_on(120, rim(true), Scheduler::Fsync, threads);
            let computed = count_computed(&mut quiet);
            let mut split_subsets = 0;
            for (round, (stats, positions, states)) in reference.iter().enumerate() {
                let (n, before) = (quiet.swarm.len() as u64, computed.get());
                let at = format!("threads {threads} round {round}");
                assert_eq!(&quiet.step(), stats, "{at}");
                assert_eq!(quiet.swarm.positions(), &positions[..], "{at}");
                assert_eq!(quiet.swarm.states(), &states[..], "{at}");
                let selected = computed.get() - before;
                split_subsets += usize::from((PARALLEL_THRESHOLD as u64..n).contains(&selected));
            }
            assert_eq!(split_subsets, 13, "threads {threads}: rounds splitting a strict subset");
        }
    }

    /// An all-active round and a subset round that activates every robot
    /// select the same robots, including once merges have left dead
    /// handles in the awake bitsets.
    #[test]
    fn all_active_selection_equals_the_filtered_activation_list() {
        let mut e = engine(Rim { classes: true, by_depth: true }, Scheduler::Fsync, 1);
        let (mut all_active, mut filtered) = (Vec::new(), Vec::new());
        let mut checked_dead = 0;
        for round in 0..36 {
            e.step().expect("unchecked steps cannot fail");
            let every: Vec<usize> = (0..e.swarm.len()).collect();
            let quiet = e.quiet.as_mut().expect("Rim declares classes");
            for class in [0, 1] {
                let a = quiet.select(&e.swarm, None, class, &mut all_active);
                let b = quiet.select(&e.swarm, Some(&every), class, &mut filtered);
                assert_eq!(all_active, filtered, "round {round} class {class}");
                assert_eq!(a, b, "round {round} class {class}");
            }
            checked_dead += usize::from(e.swarm.len() < e.swarm.handle_count());
        }
        assert!(checked_dead > 10, "merges left dead handles in only {checked_dead} rounds");
    }
}
