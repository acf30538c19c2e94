//! Per-run aggregate telemetry attached to an optimization `Outcome`.
//!
//! Unlike the streaming [`crate::Sink`] path, [`RunTelemetry`] is populated
//! unconditionally by the BO loops with direct `Instant` timing — it is
//! always available on the outcome, whether or not a sink was installed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Wall-clock statistics for one named pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageStats {
    /// Number of times the stage ran.
    pub calls: u64,
    /// Total wall-clock microseconds across all calls.
    pub total_us: u64,
    /// Fastest single call, microseconds.
    pub min_us: u64,
    /// Slowest single call, microseconds.
    pub max_us: u64,
}

impl StageStats {
    /// Mean microseconds per call (0 when the stage never ran).
    fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_us as f64 / self.calls as f64
        }
    }

    fn absorb(&mut self, dur_us: u64) {
        if self.calls == 0 {
            self.min_us = dur_us;
            self.max_us = dur_us;
        } else {
            self.min_us = self.min_us.min(dur_us);
            self.max_us = self.max_us.max(dur_us);
        }
        self.calls += 1;
        self.total_us += dur_us;
    }
}

/// One fidelity-selection decision from the MFBO loop (paper eqs. 11–12:
/// evaluate high iff `max σ²_l < (1 + Nc)·γ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityDecision {
    /// BO iteration index, matching the run history (1-based; the initial
    /// design is iteration 0 and records no decision).
    pub iteration: usize,
    /// Maximum posterior variance of the low-fidelity surrogates at the
    /// candidate point, `max σ²_l`.
    pub max_low_variance: f64,
    /// The switching threshold `(1 + Nc)·γ`.
    pub threshold: f64,
    /// Whether the high-fidelity model was evaluated.
    pub chose_high: bool,
    /// True when the choice was forced (low-fidelity streak cap or
    /// feasibility drive), overriding the variance rule.
    pub forced: bool,
    /// Cumulative evaluation cost after acting on this decision.
    pub cost_after: f64,
}

/// Aggregate telemetry for one optimization run: per-stage wall-clock stats
/// and the fidelity-decision table.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Per-stage timing, keyed by stage name (`surrogate_fit`, `acq_opt`,
    /// `simulate_low`, `simulate_high`, ...). Sorted by key for stable
    /// display.
    pub stages: BTreeMap<&'static str, StageStats>,
    /// One entry per BO iteration of the multi-fidelity loop (empty for
    /// single-fidelity runs).
    pub decisions: Vec<FidelityDecision>,
    /// Total run wall-clock, microseconds.
    pub wall_us: u64,
    /// Aggregated metrics snapshot, when a
    /// [`MetricsRegistry`](crate::metrics::MetricsRegistry) was installed for
    /// the run (the CLI attaches one for `--metrics`).
    pub metrics: Option<crate::metrics::MetricsSnapshot>,
}

impl RunTelemetry {
    /// Folds one timed stage execution into the stats.
    pub fn record_stage(&mut self, name: &'static str, dur: Duration) {
        self.stages
            .entry(name)
            .or_default()
            .absorb(dur.as_micros() as u64);
    }

    /// Appends one fidelity decision.
    pub fn record_decision(&mut self, decision: FidelityDecision) {
        self.decisions.push(decision);
    }

    /// Number of decisions that chose the high-fidelity model.
    pub fn high_count(&self) -> usize {
        self.decisions.iter().filter(|d| d.chose_high).count()
    }

    /// Renders the per-stage timing table (fixed-width text).
    pub fn stage_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>12} {:>12} {:>12} {:>12}",
            "stage", "calls", "total_ms", "mean_ms", "min_ms", "max_ms"
        );
        for (name, s) in &self.stages {
            let _ = writeln!(
                out,
                "{:<16} {:>7} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
                name,
                s.calls,
                s.total_us as f64 / 1e3,
                s.mean_us() / 1e3,
                s.min_us as f64 / 1e3,
                s.max_us as f64 / 1e3,
            );
        }
        if self.wall_us > 0 {
            let _ = writeln!(out, "run wall-clock: {:.3} ms", self.wall_us as f64 / 1e3);
        }
        out
    }

    /// Renders the fidelity-decision table (fixed-width text). Empty string
    /// when no decisions were recorded.
    pub fn decision_table(&self) -> String {
        if self.decisions.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>14} {:>14} {:>6} {:>7} {:>10}",
            "iter", "max_var_low", "threshold", "high", "forced", "cost"
        );
        for d in &self.decisions {
            let _ = writeln!(
                out,
                "{:>5} {:>14.6e} {:>14.6e} {:>6} {:>7} {:>10.2}",
                d.iteration,
                d.max_low_variance,
                d.threshold,
                if d.chose_high { "H" } else { "L" },
                if d.forced { "yes" } else { "" },
                d.cost_after,
            );
        }
        let _ = writeln!(
            out,
            "high-fidelity picks: {}/{}",
            self.high_count(),
            self.decisions.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_stats_accumulate_min_mean_max() {
        let mut t = RunTelemetry::default();
        t.record_stage("surrogate_fit", Duration::from_micros(100));
        t.record_stage("surrogate_fit", Duration::from_micros(300));
        t.record_stage("acq_opt", Duration::from_micros(50));
        let s = t.stages["surrogate_fit"];
        assert_eq!(s.calls, 2);
        assert_eq!(s.total_us, 400);
        assert_eq!(s.min_us, 100);
        assert_eq!(s.max_us, 300);
        assert!((s.mean_us() - 200.0).abs() < 1e-9);
        assert_eq!(t.stages["acq_opt"].calls, 1);
    }

    #[test]
    fn decision_table_counts_high_picks() {
        let mut t = RunTelemetry::default();
        for (i, high) in [false, true, false, true, true].iter().enumerate() {
            t.record_decision(FidelityDecision {
                iteration: i,
                max_low_variance: 0.01 * (i + 1) as f64,
                threshold: 0.02,
                chose_high: *high,
                forced: i == 3,
                cost_after: i as f64 + 1.0,
            });
        }
        assert_eq!(t.high_count(), 3);
        let table = t.decision_table();
        assert!(table.contains("high-fidelity picks: 3/5"), "{table}");
        assert!(table.lines().count() >= 7);
    }

    #[test]
    fn tables_render_without_panicking_when_empty() {
        let t = RunTelemetry::default();
        assert!(t.decision_table().is_empty());
        assert!(t.stage_table().contains("stage"));
    }
}
