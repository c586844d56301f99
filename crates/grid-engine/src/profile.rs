//! Round phase profiler: attributes each engine round's wall time to
//! named phases (compute, merge detection, occupancy rebuild, survivor
//! compaction, …).
//!
//! The design generalises the observer hook's zero-cost-when-unset
//! pattern: the engine holds an `Option<BoxedProfileSink>`, and every
//! timing site goes through [`timed`], which calls the section closure
//! directly — no `Instant`, no branch-per-item — when no profile is
//! being collected. With a sink installed the engine emits one
//! [`RoundProfile`] per round, *after* the round's work, so profiling
//! can never perturb the simulation itself (the bit-identity tests pin
//! this).

use std::time::Instant;

/// Named phases of one engine round. The engine attributes wall time to
/// these slots; everything not covered (scheduler bookkeeping, stats
/// assembly) is the gap between [`RoundProfile::phases_total_ns`] and
/// `wall_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Scheduler activation-set construction. Under FSYNC, SSYNC,
    /// round-robin and crash that is all: the compute map returns the
    /// round's commit list (the computed actions that change their
    /// robot) itself, so on FSYNC workloads the phase reads about 0.
    /// Under ASYNC it also covers landing the looks that fall due
    /// ([`crate::Swarm::land`]), drawing each look's delay and parking
    /// it ([`crate::Swarm::park`]), and joining the landed and delay-0
    /// actions into the commit list.
    Activate = 0,
    /// The look/compute parallel map (controller decisions), which also
    /// keeps only the actions that change their robot.
    Compute = 1,
    /// Target-cell computation, move counting and mover stamping in
    /// the round-apply.
    ApplyTargets = 2,
    /// Merge detection: grouping movers by target cell and resolving
    /// survivors.
    MergeDetect = 3,
    /// Occupancy-index rebuild: clearing old cells, setting survivors.
    OccupancyRebuild = 4,
    /// Survivor commit and compaction: writing the activated robots'
    /// new positions and states, then removing merge losers in slot
    /// order.
    Compact = 5,
    /// Observer record materialisation and emission.
    Observe = 6,
    /// Post-round invariant checks (connectivity, stall detection).
    Invariants = 7,
    /// The quiet set's bookkeeping ([`crate::quiet`]): selecting the
    /// robots to compute, marking quiet robots, and clearing the robots
    /// near the round's changes.
    ActiveList = 8,
}

/// Number of phase slots in a [`RoundProfile`].
pub const PHASE_COUNT: usize = 9;

impl Phase {
    /// Every phase, in slot order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Activate,
        Phase::Compute,
        Phase::ApplyTargets,
        Phase::MergeDetect,
        Phase::OccupancyRebuild,
        Phase::Compact,
        Phase::Observe,
        Phase::Invariants,
        Phase::ActiveList,
    ];

    /// Stable snake_case name, used as the JSON/report field suffix.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Activate => "activate",
            Phase::Compute => "compute",
            Phase::ApplyTargets => "targets",
            Phase::MergeDetect => "merge_detect",
            Phase::OccupancyRebuild => "rebuild",
            Phase::Compact => "compact",
            Phase::Observe => "observe",
            Phase::Invariants => "invariants",
            Phase::ActiveList => "active_list",
        }
    }
}

/// One round's timing breakdown, emitted to the profile sink after the
/// round completes (on failing rounds too — a disconnection is still a
/// round that cost time).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundProfile {
    pub round: u64,
    /// Wall time of the whole `step()` call.
    pub wall_ns: u64,
    /// Per-phase wall time, indexed by `Phase as usize`.
    pub phase_ns: [u64; PHASE_COUNT],
    /// Robots whose compute ran: the activated robots less those the
    /// quiet set skipped.
    pub computed: u64,
}

impl RoundProfile {
    /// Sum of the attributed phase times.
    pub fn phases_total_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Fraction of the round's wall time attributed to named phases
    /// (1.0 when `wall_ns` is zero — nothing was left unattributed).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            1.0
        } else {
            self.phases_total_ns() as f64 / self.wall_ns as f64
        }
    }
}

/// A per-round profile consumer, owned by the engine.
pub type BoxedProfileSink = Box<dyn FnMut(&RoundProfile)>;

/// Time `f` into `prof`'s `phase` slot when a profile is being
/// collected; with profiling off this is a direct call — no clock read.
#[inline]
pub fn timed<T>(prof: &mut Option<&mut RoundProfile>, phase: Phase, f: impl FnOnce() -> T) -> T {
    match prof {
        Some(p) => {
            #[expect(
                clippy::disallowed_methods,
                reason = "the profiler's phase clock; timings never feed back into round results"
            )]
            let start = Instant::now();
            let out = f();
            p.phase_ns[phase as usize] += start.elapsed().as_nanos() as u64;
            out
        }
        None => f(),
    }
}

/// Accumulated profile over a run: per-phase sums and wall time — the
/// shape the bench and campaign layers aggregate into their reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileTotals {
    pub rounds: u64,
    pub wall_ns: u64,
    pub phase_ns: [u64; PHASE_COUNT],
    /// Always 0: the round-apply runs on one thread, so there is no
    /// shard imbalance to measure. Kept because the `gatherbench` probe
    /// reads it.
    pub shard_imbalance_ns: u64,
    /// Always 0, like [`ProfileTotals::shard_imbalance_ns`]: compaction
    /// is sequential.
    pub compact_imbalance_ns: u64,
    /// Robots whose compute ran, summed over rounds.
    pub computed: u64,
}

impl ProfileTotals {
    /// Fold one round's profile into the totals.
    pub fn add(&mut self, p: &RoundProfile) {
        self.rounds += 1;
        self.wall_ns += p.wall_ns;
        self.computed += p.computed;
        for (sum, &ns) in self.phase_ns.iter_mut().zip(&p.phase_ns) {
            *sum += ns;
        }
    }

    /// Total attributed phase time.
    pub fn phases_total_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Fraction of wall time attributed to named phases.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            1.0
        } else {
            self.phases_total_ns() as f64 / self.wall_ns as f64
        }
    }

    /// `phase`'s share of the total wall time.
    pub fn share(&self, phase: Phase) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.phase_ns[phase as usize] as f64 / self.wall_ns as f64
        }
    }

    /// Render the breakdown as aligned `phase  time  share` lines — the
    /// human-readable report `bench_engine --profile` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rounds {}, wall {:.3}s, attributed {:.1}%\n",
            self.rounds,
            self.wall_ns as f64 / 1e9,
            self.coverage() * 100.0,
        ));
        out.push_str(&format!(
            "  computed {} robots, {:.1}/round\n",
            self.computed,
            self.computed as f64 / self.rounds.max(1) as f64,
        ));
        for phase in Phase::ALL {
            out.push_str(&format!(
                "  {:<12} {:>10.3}s  {:>5.1}%\n",
                phase.name(),
                self.phase_ns[phase as usize] as f64 / 1e9,
                self.share(phase) * 100.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_slots_and_names_line_up() {
        for (slot, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(*phase as usize, slot);
        }
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), PHASE_COUNT, "duplicate phase name in {names:?}");
    }

    #[test]
    fn timed_accumulates_only_when_profiling() {
        let mut off: Option<&mut RoundProfile> = None;
        assert_eq!(timed(&mut off, Phase::Compute, || 7), 7);

        let mut profile = RoundProfile::default();
        let mut on = Some(&mut profile);
        let out = timed(&mut on, Phase::Compute, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            41
        });
        assert_eq!(out, 41);
        assert!(profile.phase_ns[Phase::Compute as usize] > 0);
        assert_eq!(profile.phase_ns[Phase::MergeDetect as usize], 0);
    }

    #[test]
    fn totals_fold_rounds_and_compute_shares() {
        let mut totals = ProfileTotals::default();
        let mut p = RoundProfile { round: 0, wall_ns: 100, computed: 7, ..Default::default() };
        p.phase_ns[Phase::Compute as usize] = 60;
        p.phase_ns[Phase::MergeDetect as usize] = 30;
        totals.add(&p);
        totals.add(&p);
        assert_eq!(totals.rounds, 2);
        assert_eq!(totals.wall_ns, 200);
        assert_eq!(totals.phases_total_ns(), 180);
        assert!((totals.coverage() - 0.9).abs() < 1e-9);
        assert!((totals.share(Phase::Compute) - 0.6).abs() < 1e-9);
        assert_eq!(totals.computed, 14);
        let rendered = totals.render();
        assert!(rendered.contains("merge_detect"), "{rendered}");
        assert!(rendered.contains("computed 14 robots"), "{rendered}");
    }

    #[test]
    fn coverage_of_empty_profile_is_total() {
        assert_eq!(RoundProfile::default().coverage(), 1.0);
        assert_eq!(ProfileTotals::default().coverage(), 1.0);
    }
}
