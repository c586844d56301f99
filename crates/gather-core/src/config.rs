//! Algorithm constants (§3/§5 of the paper) and their derived limits.

/// Tunable constants of the gathering algorithm.
///
/// The paper proves correctness with the *unoptimised* constants
/// `radius = 20` and `L = 22` (§5.3) and notes that `radius = 11` /
/// `L = 13` suffice when all interacting runs live on a single quasi
/// line. Experiment E7 sweeps both constants: the
/// `constant_sweep_stays_local_and_gathers` test in
/// `tests/algorithm_props.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GatherConfig {
    /// L1 viewing radius of every robot.
    pub radius: i32,
    /// Run-start period L: every `period`-th round robots check the
    /// Start-A/Start-B patterns (Fig. 7).
    pub period: u64,
}

impl GatherConfig {
    /// The paper's unoptimised constants (§5.3): radius 20, L = 22.
    pub fn paper() -> Self {
        GatherConfig { radius: 20, period: 22 }
    }

    /// Largest merge sub-boundary (the `k` of Fig. 2) this radius
    /// supports: every member must verify the full white/grey pattern
    /// *and* the witness-stationarity of grey robots; runners evaluate
    /// the same predicate up to four cells off-centre when they check
    /// for nearby merges, which costs `2·k_max + 6` cells of vision in
    /// the worst case.
    pub fn k_max(&self) -> i32 {
        ((self.radius - 6) / 2).max(1)
    }

    /// How far along the boundary chain a runner scans for the Table-1
    /// stop conditions (sequent runs, quasi-line endpoints). Chain scans
    /// are evaluated by boundary neighbours too, which costs one extra
    /// cell, and the walk itself probes two cells past its cursor.
    pub fn scan_depth(&self) -> i32 {
        (self.radius - 4).max(2)
    }

    /// Cap on the quasi-line segment length that breaks start-pattern
    /// ties between 4-adjacent starters. The scan runs from robots up to
    /// five cells off-centre (a Chebyshev neighbour replaying a plan
    /// checks start candidates two cells from it, and their
    /// 4-neighbours) and probes `cap - 1` cells along the segment, so
    /// `radius - 6` keeps it inside the view. At the paper's radius and
    /// above the cap is 14.
    pub fn start_scan_cap(&self) -> i32 {
        (self.radius - 6).min(14)
    }

    /// Maximum run lifetime in rounds: two start periods, so at most
    /// two pipelined waves coexist on a chain (Fig. 15) while stale
    /// runs cannot accumulate on closed boundaries and deadlock the
    /// swarm via mutual run-passing suppression.
    pub fn ttl(&self) -> u16 {
        (self.period.saturating_mul(2).saturating_sub(2)).min(u16::MAX as u64) as u16
    }

    /// Sanity-check the constants; called by the controller constructor.
    pub fn validate(&self) -> Result<(), String> {
        // A merge check costs `2·k_max + 6` cells of vision and `k_max`
        // is at least 1, so smaller radii probe past what they see.
        if self.radius < 8 {
            return Err(format!(
                "radius {} < 8 cannot see a whole merge check (2·k_max + 6 cells)",
                self.radius
            ));
        }
        if self.period == 0 {
            return Err("period L must be positive".into());
        }
        Ok(())
    }
}

impl Default for GatherConfig {
    fn default() -> Self {
        GatherConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = GatherConfig::paper();
        assert_eq!(c.radius, 20);
        assert_eq!(c.period, 22);
        assert_eq!(c.k_max(), 7);
        assert_eq!(c.scan_depth(), 16);
        assert_eq!(c.start_scan_cap(), 14);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_tiny_radius() {
        for radius in [4, 6, 7] {
            assert!(GatherConfig { radius, period: 22 }.validate().is_err(), "radius {radius}");
        }
        assert!(GatherConfig { radius: 8, period: 22 }.validate().is_ok());
        assert!(GatherConfig { radius: 20, period: 0 }.validate().is_err());
    }

    #[test]
    fn k_max_scales_with_radius() {
        assert_eq!(GatherConfig { radius: 11, period: 13 }.k_max(), 2);
        assert_eq!(GatherConfig { radius: 24, period: 22 }.k_max(), 9);
    }
}
