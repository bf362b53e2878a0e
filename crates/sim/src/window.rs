//! Warm-up and measurement-window run control shared by both simulators.

use crate::SimError;

/// Each processor completes `warmup` references, then `measured` more.
/// The global measurement window opens when the last processor finishes
/// its warm-up; the run is over once every processor has finished its
/// measured references.
pub(crate) struct RunWindow {
    warmup: usize,
    measured: usize,
    /// Per-processor completed references.
    completed: Vec<usize>,
    /// Per-processor time of warm-up completion / measurement completion.
    warm_at: Vec<Option<f64>>,
    done_at: Vec<Option<f64>>,
    /// How many entries of `done_at` are set.
    finished: usize,
    /// Global measurement window start (all processors warm).
    start: Option<f64>,
}

/// What the per-processor windows give once every one has closed.
pub(crate) struct WindowMeasures {
    /// Mean time between references (harmonic mean across processors).
    pub r: f64,
    /// Speedup `Σ_p (τ + T_supply)/R_p`.
    pub speedup: f64,
    /// Length of the global measurement window (at least 1e-9).
    pub length: f64,
}

impl RunWindow {
    pub(crate) fn new(n: usize, warmup: usize, measured: usize) -> Self {
        RunWindow {
            warmup,
            measured,
            completed: vec![0; n],
            warm_at: vec![None; n],
            done_at: vec![None; n],
            finished: 0,
            start: None,
        }
    }

    /// Whether the global measurement window is open.
    #[inline]
    pub(crate) fn measuring(&self) -> bool {
        self.start.is_some()
    }

    /// Whether processor `p` has finished its warm-up.
    #[inline]
    pub(crate) fn is_warm(&self, p: usize) -> bool {
        self.completed[p] >= self.warmup
    }

    /// Whether processor `p` has finished its measured references.
    pub(crate) fn is_done(&self, p: usize) -> bool {
        self.done_at[p].is_some()
    }

    /// Whether every processor has finished its measured references.
    #[inline]
    pub(crate) fn all_done(&self) -> bool {
        self.finished == self.completed.len()
    }

    /// References completed so far, summed over processors.
    pub(crate) fn references(&self) -> usize {
        self.completed.iter().sum()
    }

    /// Records that processor `p` completed a reference at `done`.
    #[inline]
    pub(crate) fn complete(&mut self, p: usize, done: f64) {
        self.completed[p] += 1;
        if self.completed[p] == self.warmup {
            self.warm_at[p] = Some(done);
            if self.warm_at.iter().all(Option::is_some) {
                self.start = Some(done);
            }
        }
        if self.completed[p] == self.warmup + self.measured && self.done_at[p].is_none() {
            self.done_at[p] = Some(done);
            self.finished += 1;
        }
    }

    /// Per-processor `R_p` over its own window, summed in processor order
    /// into the speedup (each think-plus-supply `cycle` over `R_p`) and
    /// the harmonic-mean `R`.
    ///
    /// # Errors
    ///
    /// [`SimError::InsufficientRun`] with per-processor progress when a
    /// processor has not finished its warm-up or its measured references.
    pub(crate) fn finish(&self, cycle: f64) -> Result<WindowMeasures, SimError> {
        let mut speedup = 0.0;
        let mut inv_r = 0.0;
        let mut end = 0.0_f64;
        for (&warm, &done) in self.warm_at.iter().zip(&self.done_at) {
            let (Some(warm), Some(done)) = (warm, done) else {
                return Err(SimError::InsufficientRun {
                    warmup: self.warmup,
                    measured: self.measured,
                    progress: self.completed.clone(),
                });
            };
            let r = (done - warm) / self.measured as f64;
            speedup += cycle / r;
            inv_r += 1.0 / r;
            end = end.max(done);
        }
        Ok(WindowMeasures {
            r: self.completed.len() as f64 / inv_r,
            speedup,
            length: (end - self.start.unwrap_or(0.0)).max(1e-9),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_opens_on_the_last_warm_up_and_closes_on_the_last_measured() {
        let mut w = RunWindow::new(2, 1, 2);
        w.complete(0, 1.0);
        assert!(w.is_warm(0) && !w.is_warm(1) && !w.measuring());
        w.complete(1, 2.0);
        assert!(w.measuring());
        for (p, t) in [(0, 3.0), (0, 5.0), (1, 4.0)] {
            w.complete(p, t);
        }
        assert!(w.is_done(0) && !w.all_done());
        assert!(matches!(w.finish(1.0), Err(SimError::InsufficientRun { .. })));
        w.complete(1, 8.0);
        assert!(w.all_done());
        assert_eq!(w.references(), 6);
        let m = w.finish(3.0).unwrap();
        // R_0 = (5 − 1)/2 = 2, R_1 = (8 − 2)/2 = 3; window [2, 8].
        assert_eq!(m.speedup, 3.0 / 2.0 + 3.0 / 3.0);
        assert_eq!(m.r, 2.0 / (1.0 / 2.0 + 1.0 / 3.0));
        assert_eq!(m.length, 6.0);
    }
}
