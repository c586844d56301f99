//! Activation schedulers: which robots run look-compute-move in a round.
//!
//! The paper proves its O(n) bound in the fully-synchronous (FSYNC)
//! model, where every robot is activated every round. The wider
//! look-compute-move literature (the Suzuki–Yamashita scheduler
//! hierarchy) also studies semi-synchronous (SSYNC) activation — an
//! arbitrary non-empty subset per round — and asynchronous (ASYNC)
//! adversaries. This module adds those model relatives as engine
//! policies so campaigns can probe how far the linear-round behaviour
//! survives weaker synchrony:
//!
//! * [`Scheduler::Fsync`] — everyone, every round (bit-identical to the
//!   pre-policy engine).
//! * [`Scheduler::Ssync`] — a seeded pseudo-random non-empty subset;
//!   each robot is activated independently with probability `p`%.
//! * [`Scheduler::RoundRobin`] — a deterministic rotating window of `k`
//!   robots, an ASYNC-flavoured adversary (a fair sequential scheduler
//!   when `k = 1`).
//! * [`Scheduler::Crash`] — crash-stop faults: up to `f` seeded victims
//!   are permanently deactivated from their seeded crash round on,
//!   everyone else runs fully synchronously.
//! * [`Scheduler::Async`] — true look/move decoupling: every activation
//!   is a *look* whose move commits up to `staleness` rounds later, so
//!   robots act on stale snapshots (the literature's ASYNC adversary,
//!   discretised to the engine's round clock).
//!
//! Activation sets are pure functions of `(policy, round, n)`, so runs
//! stay reproducible across thread counts, which the campaign resume
//! and determinism tests rely on. The ASYNC policy additionally keeps
//! per-robot in-flight state — that state lives in the
//! [`Swarm`](crate::Swarm) (the engine's deterministic round state),
//! not here, so the policy itself stays a pure function; see
//! [`Scheduler::Async`] for the division of labour.

/// SplitMix64: the seeding mix used everywhere the workspace needs a
/// cheap, statistically solid hash of small integers — scheduler
/// draws, orientation scrambling, swarm digests, and (via the
/// `gather-trace` crate) trace config digests, which is why it is
/// exported rather than duplicated per crate.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Which robots are activated in a given round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// Fully synchronous: every robot, every round (the paper's model).
    #[default]
    Fsync,
    /// Semi-synchronous: each robot activates independently with
    /// probability `p`/100, pseudo-randomly from `(seed, round, index)`.
    /// The subset is forced non-empty (an adversary that activates
    /// nobody forever is excluded by the fairness assumption).
    Ssync {
        seed: u64,
        /// Activation probability in percent, `1..=100`.
        p: u8,
    },
    /// A rotating window of `k` robots (clamped to `1..=n`): robots
    /// `(round·k + 0..k) mod n` in index order. With `k = 1` this is the
    /// classic fair sequential scheduler; any `k < n` is an
    /// ASYNC-flavoured adversary that still activates every robot at
    /// most `⌈n/k⌉` rounds apart.
    RoundRobin { k: u32 },
    /// Crash faults over an otherwise fully-synchronous schedule: up to
    /// `f` seeded victims stop being activated forever once their
    /// (seeded) crash round arrives. A crashed robot keeps its position
    /// and state — it becomes a static obstacle other robots can still
    /// merge into, the classic crash-stop fault model.
    ///
    /// Victim indices and crash rounds are pure functions of
    /// `(seed, n0)`, pinned to the *initial* population `n0` rather
    /// than the live one — drawing against the shrinking live count
    /// would silently re-roll the victim set after every merge and
    /// turn crash-stop into random blinking deactivation. Crash rounds
    /// are drawn from `0..n0+8`: gathering finishes within ~n rounds
    /// (often n/2 on easy families), so a wider horizon would park
    /// most faults after the run already ended. One caveat remains: the engine addresses
    /// robots by current index, and merges compact indices, so a
    /// victim slot can come to denote a different physical robot over
    /// time — a deterministic, adversarial approximation of
    /// physical-identity crash-stop, which a stateless index-based
    /// policy cannot express exactly. The activation set is forced
    /// non-empty: one seeded index is immune, with a fallback when
    /// every live index is crashed.
    Crash {
        seed: u64,
        /// Maximum number of crashed robots (victim draws may collide,
        /// so fewer can crash).
        f: u32,
        /// Initial population the victim draws are pinned to; `0` means
        /// "use the live count" (only sensible for swarms that do not
        /// merge).
        n0: u32,
    },
    /// True asynchrony: a robot's *look* (view snapshot + compute) and
    /// its *move* are decoupled. Each look draws a seeded delay
    /// `d ∈ 0..=staleness`; the move commits `d` rounds later, during
    /// which the robot is *in flight* — it holds its position, cannot
    /// look again, and other robots observe it where it was when it
    /// looked. `staleness = 0` degenerates to FSYNC.
    ///
    /// Division of labour: the in-flight ledger lives in the swarm,
    /// which a pure `(policy, round, n)` function cannot see, so
    /// [`Scheduler::activate`] names every robot a *look candidate*
    /// ([`Activation::All`]). The engine's one round function starts by
    /// landing the looks due by the round
    /// ([`Swarm::land`](crate::Swarm::land)), activates the candidates
    /// not in flight, computes them like any activation, and then draws
    /// each look's delay from `(seed, round, handle)`: it parks the
    /// delayed looks in the swarm ([`Swarm::park`](crate::Swarm::park))
    /// and commits the rest with the landed moves. The whole schedule
    /// is still a deterministic function of the run.
    Async {
        seed: u64,
        /// Maximum rounds between a look and its move, `>= 1` for real
        /// asynchrony (`0` is FSYNC).
        staleness: u32,
    },
}

/// The activation set for one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Every robot is active (FSYNC: no subset allocation; the engine
    /// passes its identity slot list to the one sparse apply).
    All,
    /// The sorted list of active robot indices; non-empty, except in an
    /// ASYNC round where every robot is in flight.
    Subset(Vec<usize>),
}

impl Activation {
    /// Number of robots activated, given the swarm size.
    pub fn len(&self, n: usize) -> usize {
        match self {
            Activation::All => n,
            Activation::Subset(s) => s.len(),
        }
    }
}

impl Scheduler {
    /// The activation set for `round` over a swarm of `n` robots.
    /// Guaranteed non-empty for `n >= 1`; pure in `(self, round, n)`.
    pub fn activate(&self, round: u64, n: usize) -> Activation {
        match *self {
            Scheduler::Fsync => Activation::All,
            Scheduler::Ssync { seed, p } => {
                let p = u64::from(p.clamp(1, 100));
                if p >= 100 {
                    return Activation::All;
                }
                let round_key = splitmix64(seed ^ round.wrapping_mul(0xa076_1d64_78bd_642f));
                let mut active: Vec<usize> =
                    (0..n).filter(|&i| splitmix64(round_key ^ i as u64) % 100 < p).collect();
                if active.is_empty() && n > 0 {
                    active.push((splitmix64(round_key) % n as u64) as usize);
                }
                if active.len() == n {
                    Activation::All
                } else {
                    Activation::Subset(active)
                }
            }
            Scheduler::RoundRobin { k } => {
                let k = (k.max(1) as usize).min(n.max(1));
                if k >= n {
                    return Activation::All;
                }
                let start = ((round as u128 * k as u128) % n.max(1) as u128) as usize;
                let mut active: Vec<usize> = (0..k).map(|j| (start + j) % n).collect();
                active.sort_unstable();
                Activation::Subset(active)
            }
            Scheduler::Crash { seed, f, n0 } => {
                if f == 0 || n == 0 {
                    return Activation::All;
                }
                // All draws are pinned to the initial population m, so
                // the victim set never re-rolls as merges shrink the
                // live count. The fairness fallback: the immune index
                // never crashes, so the set stays non-empty. Victim
                // draws use `j + 1` multipliers so no draw shares the
                // immune index's raw `splitmix64(seed)` stream (with a
                // bare `j`, draw 0 would *always* equal the immune
                // index and silently reduce every `f` to `f - 1`).
                let m = if n0 == 0 { n as u64 } else { u64::from(n0) };
                let immune = (splitmix64(seed) % m) as usize;
                let mut crashed = vec![false; n];
                let mut any = false;
                for j in 1..=u64::from(f) {
                    let victim =
                        (splitmix64(seed ^ j.wrapping_mul(0xa076_1d64_78bd_642f)) % m) as usize;
                    let crash_round =
                        splitmix64(seed ^ j.wrapping_mul(0xe703_7ed1_a0b4_28db)) % (m + 8);
                    if victim != immune && victim < n && round >= crash_round {
                        any |= !crashed[victim];
                        crashed[victim] = true;
                    }
                }
                if !any {
                    return Activation::All;
                }
                let active: Vec<usize> = (0..n).filter(|&i| !crashed[i]).collect();
                if active.is_empty() {
                    // Merges can push every surviving live index into
                    // the crashed set while the immune slot is out of
                    // range; fairness still demands a non-empty round.
                    return Activation::Subset(vec![(splitmix64(seed) % n as u64) as usize]);
                }
                Activation::Subset(active)
            }
            // Every robot is a look *candidate* each round; the engine
            // filters out the in-flight ones (swarm state this pure
            // function cannot see) and schedules the moves.
            Scheduler::Async { .. } => Activation::All,
        }
    }
}

/// The seeded look→move delay for one ASYNC look: uniform over
/// `0..=staleness`, pure in `(seed, round, handle)`. Keyed by the
/// robot's stable *handle* (not its dense slot), so compactions after
/// merges never re-roll another robot's schedule — the property the
/// cross-thread bit-identity of ASYNC runs rests on.
pub(crate) fn async_delay(seed: u64, staleness: u32, round: u64, handle: u32) -> u64 {
    let round_key = splitmix64(seed ^ round.wrapping_mul(0xa076_1d64_78bd_642f));
    splitmix64(round_key ^ u64::from(handle)) % (u64::from(staleness) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_activates_everyone() {
        for round in 0..10 {
            assert_eq!(Scheduler::Fsync.activate(round, 7), Activation::All);
        }
    }

    #[test]
    fn ssync_is_reproducible_and_non_empty() {
        let s = Scheduler::Ssync { seed: 42, p: 50 };
        for round in 0..200 {
            let a = s.activate(round, 33);
            assert_eq!(a, s.activate(round, 33), "round {round} not reproducible");
            assert!(a.len(33) >= 1, "round {round} activated nobody");
            if let Activation::Subset(idx) = &a {
                assert!(idx.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicated subset");
                assert!(idx.iter().all(|&i| i < 33));
            }
        }
    }

    #[test]
    fn ssync_hits_the_target_rate() {
        let s = Scheduler::Ssync { seed: 7, p: 50 };
        let n = 64usize;
        let rounds = 500u64;
        let total: usize = (0..rounds).map(|r| s.activate(r, n).len(n)).sum();
        let rate = total as f64 / (rounds as f64 * n as f64);
        assert!((rate - 0.5).abs() < 0.05, "activation rate {rate}");
    }

    #[test]
    fn ssync_low_p_still_non_empty_on_tiny_swarms() {
        let s = Scheduler::Ssync { seed: 3, p: 1 };
        for round in 0..100 {
            assert!(s.activate(round, 2).len(2) >= 1);
        }
    }

    #[test]
    fn ssync_full_probability_is_fsync() {
        let s = Scheduler::Ssync { seed: 9, p: 100 };
        assert_eq!(s.activate(5, 10), Activation::All);
    }

    #[test]
    fn round_robin_rotates_fairly() {
        let s = Scheduler::RoundRobin { k: 3 };
        let n = 8usize;
        let mut counts = vec![0usize; n];
        for round in 0..(8 * 3) as u64 {
            match s.activate(round, n) {
                Activation::Subset(idx) => {
                    assert_eq!(idx.len(), 3);
                    for i in idx {
                        counts[i] += 1;
                    }
                }
                Activation::All => panic!("k < n must be a strict subset"),
            }
        }
        // 24 rounds × 3 activations = 72 = 9 per robot exactly.
        assert!(counts.iter().all(|&c| c == 9), "{counts:?}");
    }

    #[test]
    fn round_robin_window_wraps() {
        let s = Scheduler::RoundRobin { k: 3 };
        // n = 5, round 3: start = 9 mod 5 = 4 -> {4, 0, 1} sorted.
        assert_eq!(s.activate(3, 5), Activation::Subset(vec![0, 1, 4]));
    }

    #[test]
    fn round_robin_covers_whole_swarm_when_k_large() {
        assert_eq!(Scheduler::RoundRobin { k: 10 }.activate(0, 4), Activation::All);
        assert_eq!(Scheduler::RoundRobin { k: 0 }.activate(0, 1), Activation::All);
    }

    #[test]
    fn crash_deactivates_permanently_and_respects_f() {
        let n = 16usize;
        let s = Scheduler::Crash { seed: 17, f: 3, n0: n as u32 };
        let mut ever_crashed: Vec<bool> = vec![false; n];
        for round in 0..200u64 {
            let a = s.activate(round, n);
            assert_eq!(a, s.activate(round, n), "round {round} not reproducible");
            let active: Vec<usize> = match &a {
                Activation::All => (0..n).collect(),
                Activation::Subset(idx) => {
                    assert!(idx.windows(2).all(|w| w[0] < w[1]), "unsorted subset");
                    idx.clone()
                }
            };
            assert!(!active.is_empty());
            for (i, ever) in ever_crashed.iter_mut().enumerate() {
                let crashed_now = !active.contains(&i);
                // Permanence: once a robot is out it never comes back.
                assert!(crashed_now || !*ever, "robot {i} recovered at round {round}");
                *ever |= crashed_now;
            }
            assert!(ever_crashed.iter().filter(|&&c| c).count() <= 3, "more than f crashed");
        }
        // The seeded victims do crash within the n0+8 horizon.
        assert!(ever_crashed.iter().any(|&c| c), "no victim ever crashed");
    }

    #[test]
    fn crash_f1_actually_crashes_somebody() {
        // Regression: the first victim draw used to coincide with the
        // immune index for *every* seed, making crash-f1 a silent
        // no-op. A genuine 1/n chance collision per seed is fine; a
        // systematic one is not.
        let n = 16usize;
        let late_round = 10 * n as u64; // past the n0+8 crash horizon
        let crashing_seeds = (0..20u64)
            .filter(|&seed| {
                let s = Scheduler::Crash { seed, f: 1, n0: n as u32 };
                s.activate(late_round, n).len(n) < n
            })
            .count();
        assert!(
            crashing_seeds >= 15,
            "crash-f1 crashed someone for only {crashing_seeds}/20 seeds"
        );
    }

    #[test]
    fn crash_stays_non_empty_even_with_huge_f() {
        for n0 in [0u32, 5] {
            let s = Scheduler::Crash { seed: 5, f: 1000, n0 };
            for n in [1usize, 2, 5] {
                for round in [0u64, 10, 100, 10_000] {
                    assert!(s.activate(round, n).len(n) >= 1, "n0={n0} n={n} round={round}");
                }
            }
        }
    }

    #[test]
    fn crash_set_is_stable_under_shrinking_population() {
        // The live count drops as robots merge; pinning draws to n0
        // must keep the crashed index set monotone (no round-to-round
        // re-rolls that resurrect a crashed slot while n is stable,
        // and no new draws appearing because n shrank).
        let n0 = 32u32;
        let s = Scheduler::Crash { seed: 23, f: 6, n0 };
        let late = 10 * u64::from(n0); // beyond the n0+8 horizon
        let crashed_at = |n: usize| -> Vec<usize> {
            match s.activate(late, n) {
                Activation::All => Vec::new(),
                Activation::Subset(active) => (0..n).filter(|i| !active.contains(i)).collect(),
            }
        };
        let full = crashed_at(n0 as usize);
        assert!(!full.is_empty(), "seeded victims must crash within the horizon");
        for n in (1..=n0 as usize).rev() {
            let expected: Vec<usize> = full.iter().copied().filter(|&v| v < n).collect();
            if expected.len() == n {
                // Every live index is a victim: the fairness fallback
                // re-activates one, so exact-set comparison ends here.
                continue;
            }
            assert_eq!(crashed_at(n), expected, "crash set re-rolled at n={n}");
        }
    }

    #[test]
    fn crash_f0_is_fsync() {
        assert_eq!(Scheduler::Crash { seed: 1, f: 0, n0: 9 }.activate(7, 9), Activation::All);
    }

    #[test]
    fn async_activates_all_look_candidates() {
        // The in-flight filter is the engine's job; the pure policy
        // nominates everyone.
        for round in 0..10 {
            assert_eq!(
                Scheduler::Async { seed: 3, staleness: 4 }.activate(round, 7),
                Activation::All
            );
        }
    }

    #[test]
    fn async_delay_is_bounded_seeded_and_handle_keyed() {
        for staleness in [0u32, 1, 4, 7] {
            for round in 0..50u64 {
                for handle in 0..20u32 {
                    let d = async_delay(11, staleness, round, handle);
                    assert!(d <= u64::from(staleness), "delay {d} > staleness {staleness}");
                    assert_eq!(d, async_delay(11, staleness, round, handle), "not reproducible");
                }
            }
        }
        // Different handles (and different rounds) decorrelate: with
        // staleness 4 the draws cannot all coincide.
        let spread: std::collections::BTreeSet<u64> =
            (0..32u32).map(|h| async_delay(11, 4, 3, h)).collect();
        assert!(spread.len() > 1, "delays degenerate across handles");
        let spread: std::collections::BTreeSet<u64> =
            (0..32u64).map(|r| async_delay(11, 4, r, 3)).collect();
        assert!(spread.len() > 1, "delays degenerate across rounds");
    }

    #[test]
    fn async_delay_rate_is_roughly_uniform() {
        let staleness = 3u32;
        let mut counts = [0usize; 4];
        for round in 0..200u64 {
            for handle in 0..16u32 {
                counts[async_delay(9, staleness, round, handle) as usize] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        for (d, &c) in counts.iter().enumerate() {
            let rate = c as f64 / total as f64;
            assert!((rate - 0.25).abs() < 0.05, "delay {d} rate {rate}");
        }
    }
}
