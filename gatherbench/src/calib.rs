//! Host-speed calibration.
//!
//! The benchmark shares a few cores of a host with other tenants, and
//! the host runs the same work at a speed that drifts by tens of
//! percent, at times by half, over minutes (README.md, "Measuring on a
//! shared host"). A
//! calibration kernel — fixed work that no change to the repository
//! can touch — runs between the pieces of work a pass measures, on the
//! threads that do the work, and its seconds track the host's speed at
//! that moment. A pass's *slowness* is its median kernel seconds over
//! [`REFERENCE_S`], and the workloads divide measured seconds by it:
//! they report the seconds their work would take on a host where the
//! kernel takes exactly [`REFERENCE_S`].

use std::cell::RefCell;
use std::hint::black_box;

use crate::now;
use crate::stats::median;

/// Kernel seconds on the reference host: about what one kernel call
/// takes on an idle 2-core Xeon VM.
pub const REFERENCE_S: f64 = 0.5e-3;

/// Entries of the kernel's table: 256 KiB of `u32`, about the engine's
/// hot data on a few thousand robots. Of the kernels tried (16 KiB,
/// 256 KiB and 8 MiB tables), this one tracked all three workloads'
/// slowdowns best (README.md, "Measuring on a shared host").
const TABLE: usize = 1 << 16;

/// Random read-modify-writes per kernel call.
const ITERS: u64 = 200_000;

/// Seconds of measured work between two calibration points.
pub const EVERY_S: f64 = 0.05;

thread_local! {
    static SCRATCH: RefCell<Vec<u32>> = RefCell::new(vec![0; TABLE]);
}

/// One kernel call on this thread: xorshift-driven random
/// read-modify-writes over a per-thread table. Returns its seconds.
pub fn kernel() -> f64 {
    SCRATCH.with(|table| {
        let mut table = table.borrow_mut();
        let t = now();
        let mask = table.len() - 1;
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..black_box(ITERS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = table[i];
            table[(i ^ v as usize) & mask] = v.wrapping_add(1);
        }
        black_box(&*table);
        t.elapsed().as_secs_f64()
    })
}

/// The kernel on `threads` threads at once (the caller's and
/// `threads - 1` helpers): the seconds of the slowest, since a parallel
/// round waits for its slowest thread.
pub fn kernel_on(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel();
    }
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(kernel)).collect();
        let own = kernel();
        helpers.into_iter().map(|h| h.join().expect("kernel thread panicked")).fold(own, f64::max)
    })
}

/// Calibration points taken during one pass. The default holds no
/// points and takes them on one thread.
#[derive(Clone, Debug)]
pub struct Calibration {
    threads: usize,
    samples: Vec<f64>,
    work_since: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration { threads: 1, samples: Vec::new(), work_since: 0.0 }
    }
}

impl Calibration {
    /// Calibrate work that runs on `threads` threads; takes a first
    /// point at once.
    pub fn new(threads: usize) -> Self {
        let mut c = Calibration { threads, ..Default::default() };
        c.point();
        c
    }

    /// Take a point now.
    pub fn point(&mut self) {
        self.push(kernel_on(self.threads));
        self.work_since = 0.0;
    }

    /// Record a point taken elsewhere, e.g. by [`kernel`] on a worker
    /// thread after its job.
    pub fn push(&mut self, secs: f64) {
        self.samples.push(secs);
    }

    /// Count `secs` of measured work, and take a point once [`EVERY_S`]
    /// of it has passed since the last one.
    pub fn after(&mut self, secs: f64) {
        self.work_since += secs;
        if self.work_since >= EVERY_S {
            self.point();
        }
    }

    pub fn points(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel seconds over [`REFERENCE_S`]; 1 without points.
    pub fn slowness(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            median(&self.samples) / REFERENCE_S
        }
    }
}

/// One measured pass: the seconds of its work and the host's slowness
/// while it ran.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    pub secs: f64,
    pub slowness: f64,
}

impl Pass {
    pub fn calibrated(&self) -> f64 {
        self.secs / self.slowness
    }

    /// The seconds a run reports: the median over its passes of each
    /// pass's calibrated seconds.
    pub fn calibrated_median(passes: &[Pass]) -> f64 {
        median(&passes.iter().map(Pass::calibrated).collect::<Vec<_>>())
    }

    /// `pass_s=[…] slowness=[…] calibrated_s=[…]`, for the summary.
    pub fn describe(passes: &[Pass]) -> String {
        let list = |f: fn(&Pass) -> f64| {
            passes.iter().map(|p| format!("{:.4}", f(p))).collect::<Vec<_>>().join(",")
        };
        format!(
            "pass_s=[{}] slowness=[{}] calibrated_s=[{}]",
            list(|p| p.secs),
            list(|p| p.slowness),
            list(Pass::calibrated)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_the_median_point_over_the_reference() {
        let mut c = Calibration::default();
        assert_eq!(c.slowness(), 1.0);
        for m in [1.0, 3.0, 2.0] {
            c.push(m * REFERENCE_S);
        }
        assert_eq!(c.slowness(), 2.0);
    }

    #[test]
    fn a_run_reports_the_median_calibrated_pass() {
        let pass = |secs, slowness| Pass { secs, slowness };
        // 4 s at twice the reference time, 3 s at 1.5 times, 9 s at 1.
        let passes = [pass(4.0, 2.0), pass(3.0, 1.5), pass(9.0, 1.0)];
        assert_eq!(passes.map(|p| p.calibrated()), [2.0, 2.0, 9.0]);
        assert_eq!(Pass::calibrated_median(&passes), 2.0);
    }

    #[test]
    fn points_come_every_stretch_of_work() {
        let mut c = Calibration::new(2);
        assert_eq!(c.points(), 1, "a first point at once");
        c.after(EVERY_S / 2.0);
        assert_eq!(c.points(), 1);
        c.after(EVERY_S / 2.0);
        assert_eq!(c.points(), 2);
        assert!(c.slowness() > 0.0);
    }
}
