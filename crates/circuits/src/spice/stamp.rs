//! MNA system assembly and the damped Newton solver shared by the DC and
//! transient analyses.
//!
//! Unknown vector layout: `x = [v_1 … v_{N-1}, i_b1 … i_bM]` — node voltages
//! (ground excluded) followed by one branch current per voltage source and
//! per inductor, in element order.

use super::netlist::{Circuit, Element, MosModel, MosPolarity};
use super::SpiceError;
use mfbo_linalg::{Lu, Matrix};

/// Thermal voltage at room temperature.
const VT: f64 = 0.02585;
/// Exponent clamp for diode equations (exp(40) ≈ 2.4e17 keeps doubles sane).
const EXP_CLAMP: f64 = 40.0;

/// Per-capacitor dynamic state carried between timesteps.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CapState {
    /// Voltage across the capacitor at the previous accepted timestep.
    pub v: f64,
    /// Capacitor current at the previous accepted timestep (trapezoidal
    /// integration only).
    pub i: f64,
}

/// Analysis context for one assembly pass.
pub(crate) enum Mode<'a> {
    /// DC operating point: capacitors open, inductors short, sources at
    /// their DC value scaled by `source_scale` (for source stepping), and
    /// `gmin` from every node to ground.
    Dc {
        /// Scale factor applied to every independent source.
        source_scale: f64,
        /// Minimum conductance to ground.
        gmin: f64,
    },
    /// One transient timestep ending at `time`.
    Transient {
        /// End time of the step.
        time: f64,
        /// Step size.
        dt: f64,
        /// Use backward Euler instead of trapezoidal integration.
        backward_euler: bool,
        /// Full solution vector of the previous timestep.
        prev_x: &'a [f64],
        /// Capacitor states at the previous timestep (indexed by capacitor
        /// ordinal).
        cap_state: &'a [CapState],
        /// Minimum conductance to ground.
        gmin: f64,
    },
}

/// Structural data of an assembled MNA system.
#[derive(Debug, Clone)]
pub(crate) struct MnaLayout {
    /// Total unknowns: (nodes − 1) + branches.
    pub dim: usize,
    /// Number of non-ground nodes.
    pub n_nodes: usize,
    /// `branch_index[element_index]` for V sources and inductors.
    pub branch_of: Vec<Option<usize>>,
    /// `cap_ordinal[element_index]` for capacitors.
    pub cap_of: Vec<Option<usize>>,
    /// Number of capacitors.
    pub n_caps: usize,
}

impl MnaLayout {
    /// Computes the layout for a circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let n_nodes = circuit.num_nodes() - 1;
        let mut branch_of = vec![None; circuit.elements().len()];
        let mut cap_of = vec![None; circuit.elements().len()];
        let mut branches = 0;
        let mut caps = 0;
        for (i, e) in circuit.elements().iter().enumerate() {
            match e {
                Element::VSource { .. } | Element::Inductor { .. } => {
                    branch_of[i] = Some(branches);
                    branches += 1;
                }
                Element::Capacitor { .. } => {
                    cap_of[i] = Some(caps);
                    caps += 1;
                }
                _ => {}
            }
        }
        MnaLayout {
            dim: n_nodes + branches,
            n_nodes,
            branch_of,
            cap_of,
            n_caps: caps,
        }
    }

    /// Index of a node voltage in the unknown vector (`None` for ground).
    #[inline]
    pub fn v_index(&self, node: usize) -> Option<usize> {
        if node == 0 {
            None
        } else {
            Some(node - 1)
        }
    }

    /// Index of a branch current in the unknown vector.
    #[inline]
    pub fn i_index(&self, element: usize) -> Option<usize> {
        self.branch_of[element].map(|b| self.n_nodes + b)
    }
}

/// Reads a node voltage out of a solution vector.
#[inline]
fn v_at(layout: &MnaLayout, x: &[f64], node: usize) -> f64 {
    match layout.v_index(node) {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Level-1 MOSFET evaluation: returns `(id, gm, gds)` for the *drain*
/// current as a function of `(vgs, vds)`, handling polarity and
/// drain/source swap. Current is positive flowing drain → source for NMOS.
pub(crate) fn mosfet_current(
    model: &MosModel,
    w_over_l: f64,
    vgs_in: f64,
    vds_in: f64,
) -> (f64, f64, f64) {
    // Map PMOS onto NMOS equations by sign reflection.
    let sign = match model.polarity {
        MosPolarity::Nmos => 1.0,
        MosPolarity::Pmos => -1.0,
    };
    let mut vgs = sign * vgs_in;
    let mut vds = sign * vds_in;
    // Source/drain swap for reverse operation.
    let swapped = vds < 0.0;
    if swapped {
        // Exchange roles: vgd becomes the controlling voltage.
        vgs -= vds; // vgd
        vds = -vds;
    }
    let beta = model.kp * w_over_l;
    let vov = vgs - model.vth;
    let (id, gm, gds);
    if vov <= 0.0 {
        // Cut-off: a tiny subthreshold-ish leak keeps the Jacobian alive.
        let leak = 1e-12;
        id = leak * vds;
        gm = 0.0;
        gds = leak;
    } else if vds < vov {
        // Triode.
        let clm = 1.0 + model.lambda * vds;
        id = beta * (vov * vds - 0.5 * vds * vds) * clm;
        gm = beta * vds * clm;
        gds = beta * (vov - vds) * clm + beta * (vov * vds - 0.5 * vds * vds) * model.lambda;
    } else {
        // Saturation.
        let clm = 1.0 + model.lambda * vds;
        id = 0.5 * beta * vov * vov * clm;
        gm = beta * vov * clm;
        gds = 0.5 * beta * vov * vov * model.lambda;
    }
    if swapped {
        // Undo the swap. With id(vgs, vds) = −id'(vgs − vds, −vds) the chain
        // rule gives ∂id/∂vgs = −gm' and ∂id/∂vds = gm' + gds'.
        return (sign * (-id), -gm, gm + gds);
    }
    (sign * id, gm, gds)
}

/// Simulator work done on one [`NewtonWorkspace`], accumulated locally and
/// emitted once per analysis rather than per iteration.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SolveStats {
    /// Damped-Newton iterations (one assembly + LU solve each).
    pub newton_iters: u64,
    /// Entries into a DC fallback-ladder rung (g-min or source stepping).
    pub dc_fallbacks: u64,
    /// Warm-started DC solves that fell back to the cold ladder.
    pub dc_warm_misses: u64,
    /// LU refactorizations that replayed a recorded pivot sequence.
    pub lu_replays: u64,
    /// LU refactorizations that did not: a new pivot sequence was recorded,
    /// or the dense kernel ran (including on a singular matrix).
    pub lu_replay_misses: u64,
}

impl SolveStats {
    /// Emits the totals as the `spice_newton_iters`, `spice_dc_fallbacks`,
    /// `spice_dc_warm_misses`, `spice_lu_replays` and
    /// `spice_lu_replay_misses` telemetry counters.
    pub fn emit(&self) {
        mfbo_telemetry::counter!("spice_newton_iters", self.newton_iters);
        mfbo_telemetry::counter!("spice_dc_fallbacks", self.dc_fallbacks);
        mfbo_telemetry::counter!("spice_dc_warm_misses", self.dc_warm_misses);
        mfbo_telemetry::counter!("spice_lu_replays", self.lu_replays);
        mfbo_telemetry::counter!("spice_lu_replay_misses", self.lu_replay_misses);
    }
}

/// Reusable buffers of the damped Newton solver for one circuit topology.
///
/// Every Newton iteration assembles into `a`/`b` (the first of a solve also
/// records the stamped structure into `rows`), refactors `lu` on that
/// structure (replaying a recorded pivot sequence while the dense pivot
/// rule still picks it) and solves into `x_new`, so after the first
/// factorization a solve allocates nothing. Any circuit with the same
/// element structure (the layout only depends on element kinds and order)
/// can be solved on the same workspace; source values may differ between
/// solves.
#[derive(Debug)]
pub(crate) struct NewtonWorkspace {
    /// Unknown-vector layout of the circuit.
    pub layout: MnaLayout,
    a: Matrix,
    /// The stamped structure of `a`, one column mask per row.
    rows: Vec<u64>,
    b: Vec<f64>,
    lu: Lu,
    /// The current iterate: the initial guess going in, the solution after
    /// a successful solve.
    pub x: Vec<f64>,
    x_new: Vec<f64>,
    /// Work counters since construction.
    pub stats: SolveStats,
}

impl NewtonWorkspace {
    /// Allocates the buffers for `circuit`'s layout.
    pub fn new(circuit: &Circuit) -> Self {
        let layout = MnaLayout::new(circuit);
        let dim = layout.dim;
        NewtonWorkspace {
            layout,
            a: Matrix::zeros(dim, dim),
            rows: vec![0; dim],
            b: vec![0.0; dim],
            lu: Lu::default(),
            x: vec![0.0; dim],
            x_new: vec![0.0; dim],
            stats: SolveStats::default(),
        }
    }

    /// Branch current of `element` in the current iterate (`None` for
    /// elements without a branch current).
    pub fn branch_current(&self, element: usize) -> Option<f64> {
        self.layout.i_index(element).map(|i| self.x[i])
    }
}

/// Where [`assemble_into`] stamps the MNA matrix.
trait Stamp {
    /// Zeroes the matrix.
    fn clear(&mut self);
    /// Adds `v` to entry `(i, j)`.
    fn add(&mut self, i: usize, j: usize, v: f64);
    /// Subtracts `v` from entry `(i, j)`.
    fn sub(&mut self, i: usize, j: usize, v: f64);
}

impl Stamp for Matrix {
    fn clear(&mut self) {
        self.as_mut_slice().fill(0.0);
    }

    #[inline]
    fn add(&mut self, i: usize, j: usize, v: f64) {
        self[(i, j)] += v;
    }

    #[inline]
    fn sub(&mut self, i: usize, j: usize, v: f64) {
        self[(i, j)] -= v;
    }
}

/// An MNA matrix under assembly that also records the structure its stamps
/// write: bit `j` of `rows[i]` is set once entry `(i, j)` is stamped, and
/// every other entry stays `+0.0`. Columns past 63 are not recorded; such
/// systems are factored densely.
struct Recording<'a> {
    a: &'a mut Matrix,
    rows: &'a mut [u64],
}

impl Stamp for Recording<'_> {
    fn clear(&mut self) {
        self.a.clear();
        self.rows.fill(0);
    }

    #[inline]
    fn add(&mut self, i: usize, j: usize, v: f64) {
        self.a.add(i, j, v);
        self.rows[i] |= 1u64.checked_shl(j as u32).unwrap_or(0);
    }

    #[inline]
    fn sub(&mut self, i: usize, j: usize, v: f64) {
        self.a.sub(i, j, v);
        self.rows[i] |= 1u64.checked_shl(j as u32).unwrap_or(0);
    }
}

/// Assembles the linearized MNA system `A x = b` around the guess `x0` into
/// `a` and `b`, which are zeroed first. Which entries are stamped depends
/// on the circuit's elements and nodes and on the kind of analysis, never
/// on values.
fn assemble_into<S: Stamp>(
    circuit: &Circuit,
    layout: &MnaLayout,
    x0: &[f64],
    mode: &Mode<'_>,
    a: &mut S,
    b: &mut [f64],
) {
    a.clear();
    b.fill(0.0);

    let gmin = match mode {
        Mode::Dc { gmin, .. } => *gmin,
        Mode::Transient { gmin, .. } => *gmin,
    };
    for i in 0..layout.n_nodes {
        a.add(i, i, gmin);
    }

    // Helper closures for stamping.
    let stamp_g = |a: &mut S, na: usize, nb: usize, g: f64| {
        if let Some(i) = layout.v_index(na) {
            a.add(i, i, g);
        }
        if let Some(j) = layout.v_index(nb) {
            a.add(j, j, g);
        }
        if let (Some(i), Some(j)) = (layout.v_index(na), layout.v_index(nb)) {
            a.sub(i, j, g);
            a.sub(j, i, g);
        }
    };
    let stamp_i = |b: &mut [f64], from: usize, to: usize, i_val: f64| {
        // Current i_val flows from `from` to `to` through the element.
        if let Some(k) = layout.v_index(from) {
            b[k] -= i_val;
        }
        if let Some(k) = layout.v_index(to) {
            b[k] += i_val;
        }
    };

    for (ei, e) in circuit.elements().iter().enumerate() {
        match *e {
            Element::Resistor { a: na, b: nb, r } => {
                stamp_g(a, na, nb, 1.0 / r);
            }
            Element::Capacitor { a: na, b: nb, c } => {
                if let Mode::Transient {
                    dt,
                    backward_euler,
                    cap_state,
                    ..
                } = mode
                {
                    let st = cap_state[layout.cap_of[ei].expect("capacitor ordinal")];
                    let (geq, ieq) = if *backward_euler {
                        (c / dt, -(c / dt) * st.v)
                    } else {
                        let g = 2.0 * c / dt;
                        (g, -g * st.v - st.i)
                    };
                    stamp_g(a, na, nb, geq);
                    // i_cap = geq·v + ieq flows a → b.
                    stamp_i(b, na, nb, ieq);
                }
                // DC: capacitor is open — no stamp.
            }
            Element::Inductor { a: na, b: nb, l } => {
                let br = layout.i_index(ei).expect("inductor branch");
                // Node KCL coupling to the branch current (flows a → b).
                if let Some(i) = layout.v_index(na) {
                    a.add(i, br, 1.0);
                }
                if let Some(j) = layout.v_index(nb) {
                    a.sub(j, br, 1.0);
                }
                // Branch equation.
                if let Some(i) = layout.v_index(na) {
                    a.add(br, i, 1.0);
                }
                if let Some(j) = layout.v_index(nb) {
                    a.sub(br, j, 1.0);
                }
                match mode {
                    Mode::Dc { .. } => {
                        // v_a − v_b = 0 (ideal short); matrix row already set.
                        b[br] = 0.0;
                    }
                    Mode::Transient {
                        dt,
                        backward_euler,
                        prev_x,
                        ..
                    } => {
                        let i_prev = prev_x[br];
                        if *backward_euler {
                            let req = l / dt;
                            a.sub(br, br, req);
                            b[br] = -req * i_prev;
                        } else {
                            let req = 2.0 * l / dt;
                            let v_prev = v_at(layout, prev_x, na) - v_at(layout, prev_x, nb);
                            a.sub(br, br, req);
                            b[br] = -req * i_prev - v_prev;
                        }
                    }
                }
            }
            Element::VSource { p, n, wave } => {
                let br = layout.i_index(ei).expect("vsource branch");
                if let Some(i) = layout.v_index(p) {
                    a.add(i, br, 1.0);
                    a.add(br, i, 1.0);
                }
                if let Some(j) = layout.v_index(n) {
                    a.sub(j, br, 1.0);
                    a.sub(br, j, 1.0);
                }
                b[br] = match mode {
                    Mode::Dc { source_scale, .. } => wave.dc_value() * source_scale,
                    Mode::Transient { time, .. } => wave.value(*time),
                };
            }
            Element::ISource { p, n, wave } => {
                let i_val = match mode {
                    Mode::Dc { source_scale, .. } => wave.dc_value() * source_scale,
                    Mode::Transient { time, .. } => wave.value(*time),
                };
                stamp_i(b, p, n, i_val);
            }
            Element::Diode {
                a: na,
                k: nk,
                is,
                n,
            } => {
                let vd = v_at(layout, x0, na) - v_at(layout, x0, nk);
                let nvt = n * VT;
                let arg = (vd / nvt).min(EXP_CLAMP);
                let ex = arg.exp();
                let id = is * (ex - 1.0);
                let gd = (is / nvt * ex).max(1e-12);
                let ieq = id - gd * vd;
                stamp_g(a, na, nk, gd);
                stamp_i(b, na, nk, ieq);
            }
            Element::Mosfet {
                d,
                g,
                s,
                ref model,
                w_over_l,
            } => {
                let vgs = v_at(layout, x0, g) - v_at(layout, x0, s);
                let vds = v_at(layout, x0, d) - v_at(layout, x0, s);
                let (id, gm, gds) = mosfet_current(model, w_over_l, vgs, vds);
                // Linearization: id ≈ id0 + gm·Δvgs + gds·Δvds.
                let ieq = id - gm * vgs - gds * vds;
                // gm stamps (current source d→s controlled by vgs).
                if let Some(di) = layout.v_index(d) {
                    if let Some(gi) = layout.v_index(g) {
                        a.add(di, gi, gm);
                    }
                    if let Some(si) = layout.v_index(s) {
                        a.sub(di, si, gm);
                    }
                }
                if let Some(si) = layout.v_index(s) {
                    if let Some(gi) = layout.v_index(g) {
                        a.sub(si, gi, gm);
                    }
                    a.add(si, si, gm);
                }
                // gds stamps (conductance d–s).
                stamp_g(a, d, s, gds);
                // Companion current d → s.
                stamp_i(b, d, s, ieq);
            }
        }
    }
}

/// Damped Newton iteration on the nonlinear MNA system, run on `ws`.
///
/// Starts from `ws.x` and leaves the converged solution there. On `Err`
/// `ws.x` holds the last iterate and must be reset before the next solve.
pub(crate) fn solve_newton(
    circuit: &Circuit,
    ws: &mut NewtonWorkspace,
    mode: &Mode<'_>,
    max_iter: usize,
    tol: f64,
    analysis: &'static str,
    step: usize,
) -> Result<(), SpiceError> {
    // Maximum per-iteration node-voltage change (Newton damping).
    const DV_MAX: f64 = 0.5;
    let NewtonWorkspace {
        layout,
        a,
        rows,
        b,
        lu,
        x,
        x_new,
        stats,
    } = ws;
    for iter in 0..max_iter {
        stats.newton_iters += 1;
        // The structure is the same for every iteration of one solve, so
        // only the first records it.
        if iter == 0 {
            let recording = &mut Recording {
                a: &mut *a,
                rows: &mut *rows,
            };
            assemble_into(circuit, layout, x, mode, recording, b);
        } else {
            assemble_into(circuit, layout, x, mode, a, b);
        }
        let factored = lu.refactor_structured(a, rows);
        if let Ok(true) = factored {
            stats.lu_replays += 1;
        } else {
            stats.lu_replay_misses += 1;
        }
        factored.map_err(|_| SpiceError::SingularMatrix)?;
        lu.solve_into(b, x_new);
        #[cfg(test)]
        tests::dense_oracle::check(a, b, x_new);
        // Damped update on the voltage part; currents move freely.
        let mut max_dv: f64 = 0.0;
        for i in 0..layout.dim {
            let dv = x_new[i] - x[i];
            if i < layout.n_nodes {
                let step_v = dv.clamp(-DV_MAX, DV_MAX);
                x[i] += step_v;
                max_dv = max_dv.max(dv.abs());
            } else {
                x[i] = x_new[i];
            }
        }
        if !x.iter().all(|v| v.is_finite()) {
            return Err(SpiceError::NoConvergence { analysis, step });
        }
        if max_dv < tol {
            return Ok(());
        }
    }
    Err(SpiceError::NoConvergence { analysis, step })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spice::Waveform;

    /// The dense kernel as the differential oracle of the structured LU:
    /// while enabled on a thread, every Newton iteration's solution is
    /// compared bitwise with a fresh dense factor and solve of the same
    /// system.
    pub(super) mod dense_oracle {
        use mfbo_linalg::{Lu, Matrix};
        use std::cell::Cell;

        thread_local! {
            /// `(iterations checked, mismatching solutions)` while enabled.
            static CHECKED: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
        }

        pub fn enable() {
            CHECKED.with(|c| c.set(Some((0, 0))));
        }

        /// Disables the oracle and returns its tally.
        pub fn take() -> (u64, u64) {
            CHECKED.with(|c| c.take()).expect("oracle enabled")
        }

        pub fn check(a: &Matrix, b: &[f64], x: &[f64]) {
            let Some((iters, mismatches)) = CHECKED.with(Cell::get) else {
                return;
            };
            let dense = Lu::new(a).expect("the structured factorization succeeded");
            let same = dense
                .solve(b)
                .iter()
                .zip(x)
                .all(|(d, s)| d.to_bits() == s.to_bits());
            CHECKED.with(|c| c.set(Some((iters + 1, mismatches + u64::from(!same)))));
        }
    }

    #[test]
    fn structured_lu_matches_dense_on_every_charge_pump_iteration() {
        use crate::charge_pump::ChargePump;
        use crate::pvt::PvtCorner;
        use mfbo_telemetry::{sinks::CollectSink, Level, Value};
        let sink = std::sync::Arc::new(CollectSink::with_level(Level::Debug));
        let _g = mfbo_telemetry::scoped_sink(sink.clone());
        let counter = |name| match sink.named(name)[0].field("value") {
            Some(&Value::U64(n)) => n,
            other => panic!("{name} value missing or mistyped: {other:?}"),
        };
        dense_oracle::enable();
        ChargePump::new()
            .measure(&ChargePump::reference_design(), &PvtCorner::grid_27())
            .unwrap();
        let (iters, mismatches) = dense_oracle::take();
        assert_eq!(iters, 1767, "the reference measure's Newton iterations");
        assert_eq!(mismatches, 0, "structured solutions that differ from dense");
        assert_eq!(counter("spice_newton_iters"), iters);
        let (replays, misses) = (
            counter("spice_lu_replays"),
            counter("spice_lu_replay_misses"),
        );
        assert_eq!(replays + misses, iters);
        assert!(
            replays > 0 && misses > 0,
            "{replays} replays, {misses} misses"
        );
    }

    #[test]
    fn layout_counts_branches_and_caps() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let n2 = c.node("2");
        c.vsource(n1, Circuit::GND, Waveform::Dc(1.0));
        c.resistor(n1, n2, 100.0);
        c.capacitor(n2, Circuit::GND, 1e-9);
        c.inductor(n2, Circuit::GND, 1e-6);
        let l = MnaLayout::new(&c);
        assert_eq!(l.n_nodes, 2);
        assert_eq!(l.dim, 4); // 2 nodes + vsource + inductor
        assert_eq!(l.n_caps, 1);
        assert_eq!(l.i_index(0), Some(2));
        assert_eq!(l.i_index(3), Some(3));
        assert_eq!(l.v_index(0), None);
        assert_eq!(l.v_index(1), Some(0));
    }

    #[test]
    fn mosfet_regions() {
        let m = MosModel::nmos_default();
        // Cut-off.
        let (id, gm, _) = mosfet_current(&m, 10.0, 0.2, 1.0);
        assert!(id.abs() < 1e-9);
        assert_eq!(gm, 0.0);
        // Saturation: vgs = 1.0, vds = 1.0 > vov = 0.55.
        let (id, gm, gds) = mosfet_current(&m, 10.0, 1.0, 1.0);
        let expect = 0.5 * 200e-6 * 10.0 * 0.55f64.powi(2) * (1.0 + 0.08);
        assert!((id - expect).abs() / expect < 1e-12);
        assert!(gm > 0.0 && gds > 0.0);
        // Triode: vds = 0.1 < vov.
        let (id_t, _, gds_t) = mosfet_current(&m, 10.0, 1.0, 0.1);
        assert!(id_t < id);
        assert!(gds_t > gds);
    }

    #[test]
    fn mosfet_reverse_operation_antisymmetric() {
        // With vds < 0 the device conducts backwards; at vgs chosen so the
        // *swapped* vgd equals the forward vgs, currents mirror.
        let m = MosModel::nmos_default();
        let (fwd, _, _) = mosfet_current(&m, 5.0, 1.0, 0.3);
        let (rev, _, _) = mosfet_current(&m, 5.0, 0.7, -0.3);
        assert!((fwd + rev).abs() < 1e-12, "fwd {fwd} rev {rev}");
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let n = MosModel::nmos_default();
        let mut p = n;
        p.polarity = MosPolarity::Pmos;
        let (idn, _, _) = mosfet_current(&n, 4.0, 1.2, 0.8);
        let (idp, _, _) = mosfet_current(&p, 4.0, -1.2, -0.8);
        assert!((idn + idp).abs() < 1e-15);
    }

    #[test]
    fn mosfet_current_continuous_at_region_boundaries() {
        let m = MosModel::nmos_default();
        let vov = 1.0 - m.vth;
        let (below, _, _) = mosfet_current(&m, 1.0, 1.0, vov - 1e-9);
        let (above, _, _) = mosfet_current(&m, 1.0, 1.0, vov + 1e-9);
        assert!((below - above).abs() < 1e-9);
        // Across vgs = vth.
        let (off, _, _) = mosfet_current(&m, 1.0, m.vth - 1e-9, 0.5);
        let (on, _, _) = mosfet_current(&m, 1.0, m.vth + 1e-9, 0.5);
        assert!((off - on).abs() < 1e-9);
    }
}
