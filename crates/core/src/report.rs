//! Plain-text reporting of optimization outcomes: CSV traces and summary
//! blocks.
//!
//! The bench harnesses and examples use these helpers to persist run data
//! for external plotting without pulling a serialization dependency into
//! the workspace.

use crate::history::Outcome;
use crate::problem::Fidelity;
use std::io::{self, Write};

/// Quotes a CSV field per RFC 4180 when it contains a comma, double quote,
/// or line break; passes everything else through unchanged.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Writes the full evaluation trace as CSV:
/// `iteration,fidelity,cost_so_far,objective,violation,feasible,x0,x1,…`.
///
/// The design-vector column count is derived from the history records
/// themselves (not from `outcome.best_x`, whose dimension is unrelated to
/// the trace when the outcome was assembled from heterogeneous data);
/// records shorter than the widest one are padded with empty cells.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_history_csv<W: Write>(outcome: &Outcome, mut w: W) -> io::Result<()> {
    let dim = outcome.history.iter().map(|r| r.x.len()).max().unwrap_or(0);
    write!(
        w,
        "iteration,fidelity,cost_so_far,objective,violation,feasible"
    )?;
    for j in 0..dim {
        write!(w, ",x{j}")?;
    }
    writeln!(w)?;
    for r in &outcome.history {
        write!(
            w,
            "{},{},{},{},{},{}",
            r.iteration,
            csv_field(&r.fidelity.to_string()),
            r.cost_so_far,
            r.evaluation.objective,
            r.evaluation.total_violation(),
            r.evaluation.is_feasible(),
        )?;
        for j in 0..dim {
            match r.x.get(j) {
                Some(v) => write!(w, ",{v}")?,
                None => write!(w, ",")?,
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Writes the convergence trace (`cost,best_feasible_objective`) as CSV.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_convergence_csv<W: Write>(outcome: &Outcome, mut w: W) -> io::Result<()> {
    writeln!(w, "cost,best_objective")?;
    for (cost, best) in outcome.convergence_trace() {
        writeln!(w, "{cost},{best}")?;
    }
    Ok(())
}

/// Renders a human-readable summary block.
pub fn summary(outcome: &Outcome) -> String {
    let mix = format!("{} low + {} high", outcome.n_low, outcome.n_high);
    let mut s = format!(
        "best objective : {:.6}\nfeasible       : {}\nsimulations    : {mix} (equivalent cost {:.2})\ncost to best   : {:.2}\nbest design    : {:?}",
        outcome.best_objective,
        outcome.feasible,
        outcome.total_cost,
        outcome.cost_to_best,
        outcome.best_x,
    );
    let st = &outcome.eval_stats;
    if st.replayed + st.cache_hits + st.warm_started + st.retries + st.quarantined > 0 {
        let served = st.fresh + st.replayed + st.cache_hits;
        let hit_rate = if served > 0 {
            100.0 * st.cache_hits as f64 / served as f64
        } else {
            0.0
        };
        let (low_pct, high_pct) = cost_split_pct(outcome);
        s.push_str(&format!(
            "\ndurability     : {} fresh (cost {:.2}), {} replayed (cost {:.2}), {} cached (cost {:.2}), {} warm-started, {} retries, {} quarantined, cache hit rate {:.1}%, cost split low {:.1}% / high {:.1}%",
            st.fresh,
            st.fresh_cost,
            st.replayed,
            st.replayed_cost,
            st.cache_hits,
            st.cached_cost,
            st.warm_started,
            st.retries,
            st.quarantined,
            hit_rate,
            low_pct,
            high_pct,
        ));
    }
    s
}

/// Percentage of total cost charged by each fidelity, from cumulative-cost
/// differences along the history. `(low_pct, high_pct)`; zeros when the
/// trace is empty or free.
fn cost_split_pct(outcome: &Outcome) -> (f64, f64) {
    let mut low = 0.0;
    let mut high = 0.0;
    let mut prev = 0.0;
    for r in &outcome.history {
        let delta = r.cost_so_far - prev;
        prev = r.cost_so_far;
        match r.fidelity {
            Fidelity::Low => low += delta,
            Fidelity::High => high += delta,
        }
    }
    let total = low + high;
    if total > 0.0 {
        (100.0 * low / total, 100.0 * high / total)
    } else {
        (0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{EvaluationRecord, FidelityData};
    use crate::problem::Evaluation;

    fn toy_outcome() -> Outcome {
        let mut high = FidelityData::new(1);
        high.push(
            vec![0.25, 0.75],
            &Evaluation {
                objective: -3.0,
                constraints: vec![-0.5],
            },
        );
        let mut low = FidelityData::new(1);
        low.push(
            vec![0.1, 0.9],
            &Evaluation {
                objective: -1.0,
                constraints: vec![0.2],
            },
        );
        Outcome::from_data(
            high,
            low,
            vec![
                EvaluationRecord {
                    iteration: 0,
                    x: vec![0.1, 0.9],
                    fidelity: Fidelity::Low,
                    evaluation: Evaluation {
                        objective: -1.0,
                        constraints: vec![0.2],
                    },
                    cost_so_far: 0.1,
                },
                EvaluationRecord {
                    iteration: 1,
                    x: vec![0.25, 0.75],
                    fidelity: Fidelity::High,
                    evaluation: Evaluation {
                        objective: -3.0,
                        constraints: vec![-0.5],
                    },
                    cost_so_far: 1.1,
                },
            ],
        )
    }

    #[test]
    fn history_csv_layout() {
        let mut buf = Vec::new();
        write_history_csv(&toy_outcome(), &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "iteration,fidelity,cost_so_far,objective,violation,feasible,x0,x1"
        );
        assert!(lines[1].starts_with("0,low,0.1,-1,0.2,false,0.1,0.9"));
        assert!(lines[2].starts_with("1,high,1.1,-3,0,true,0.25,0.75"));
    }

    #[test]
    fn history_csv_dim_comes_from_history_not_best_x() {
        // best_x is 2-D, but a record with a 3-D design vector must still be
        // written in full (and the header sized to the widest record).
        let mut o = toy_outcome();
        o.history.push(EvaluationRecord {
            iteration: 2,
            x: vec![0.3, 0.4, 0.5],
            fidelity: Fidelity::High,
            evaluation: Evaluation {
                objective: -2.0,
                constraints: vec![-0.1],
            },
            cost_so_far: 2.1,
        });
        let mut buf = Vec::new();
        write_history_csv(&o, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].ends_with(",x0,x1,x2"));
        // Shorter records are padded so every row has the same arity.
        for line in &lines[1..] {
            assert_eq!(line.matches(',').count(), 8, "{line}");
        }
        assert!(lines[3].contains("0.3,0.4,0.5"));
    }

    #[test]
    fn csv_field_escapes_per_rfc4180() {
        assert_eq!(csv_field("high"), "high");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn convergence_csv_contains_high_improvements() {
        let mut buf = Vec::new();
        write_convergence_csv(&toy_outcome(), &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("cost,best_objective\n"));
        assert!(s.contains("1.1,-3"));
    }

    #[test]
    fn summary_mentions_key_fields() {
        let s = summary(&toy_outcome());
        assert!(s.contains("best objective"));
        assert!(s.contains("1 low + 1 high"));
        assert!(s.contains("true"));
        // No durable session ran, so no durability noise in the block.
        assert!(!s.contains("durability"));
    }

    #[test]
    fn summary_includes_durability_when_session_was_active() {
        let mut o = toy_outcome();
        o.eval_stats.fresh = 3;
        o.eval_stats.fresh_cost = 2.1;
        o.eval_stats.replayed = 9;
        o.eval_stats.replayed_cost = 4.5;
        o.eval_stats.cache_hits = 2;
        let s = summary(&o);
        assert!(s.contains("durability"));
        assert!(s.contains("9 replayed (cost 4.50)"));
        assert!(s.contains("2 cached"));
        // 2 hits out of 3 fresh + 9 replayed + 2 cached = 14 served.
        assert!(s.contains("cache hit rate 14.3%"), "{s}");
        // toy history: 0.1 low cost, 1.0 high cost.
        assert!(s.contains("cost split low 9.1% / high 90.9%"), "{s}");
    }
}
