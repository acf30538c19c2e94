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
}

impl SolveStats {
    /// Emits the totals as the `spice_newton_iters`, `spice_dc_fallbacks`
    /// and `spice_dc_warm_misses` telemetry counters.
    pub fn emit(&self) {
        mfbo_telemetry::counter!("spice_newton_iters", self.newton_iters);
        mfbo_telemetry::counter!("spice_dc_fallbacks", self.dc_fallbacks);
        mfbo_telemetry::counter!("spice_dc_warm_misses", self.dc_warm_misses);
    }
}

/// Reusable buffers of the damped Newton solver for one circuit topology.
///
/// Every Newton iteration assembles into `a`/`b`, refactors `lu` in place
/// and solves into `x_new`, so after construction a solve allocates
/// nothing. Any circuit with the same element structure (the layout only
/// depends on element kinds and order) can be solved on the same
/// workspace; source values may differ between solves.
#[derive(Debug)]
pub(crate) struct NewtonWorkspace {
    /// Unknown-vector layout of the circuit.
    pub layout: MnaLayout,
    a: Matrix,
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

/// Assembles the linearized MNA system `A x = b` around the guess `x0` into
/// `a` and `b`, which are zeroed first.
pub(crate) fn assemble_into(
    circuit: &Circuit,
    layout: &MnaLayout,
    x0: &[f64],
    mode: &Mode<'_>,
    a: &mut Matrix,
    b: &mut [f64],
) {
    a.as_mut_slice().fill(0.0);
    b.fill(0.0);

    let gmin = match mode {
        Mode::Dc { gmin, .. } => *gmin,
        Mode::Transient { gmin, .. } => *gmin,
    };
    for i in 0..layout.n_nodes {
        a[(i, i)] += gmin;
    }

    // Helper closures for stamping.
    let stamp_g = |a: &mut Matrix, na: usize, nb: usize, g: f64| {
        if let Some(i) = layout.v_index(na) {
            a[(i, i)] += g;
        }
        if let Some(j) = layout.v_index(nb) {
            a[(j, j)] += g;
        }
        if let (Some(i), Some(j)) = (layout.v_index(na), layout.v_index(nb)) {
            a[(i, j)] -= g;
            a[(j, i)] -= g;
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
                    a[(i, br)] += 1.0;
                }
                if let Some(j) = layout.v_index(nb) {
                    a[(j, br)] -= 1.0;
                }
                // Branch equation.
                if let Some(i) = layout.v_index(na) {
                    a[(br, i)] += 1.0;
                }
                if let Some(j) = layout.v_index(nb) {
                    a[(br, j)] -= 1.0;
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
                            a[(br, br)] -= req;
                            b[br] = -req * i_prev;
                        } else {
                            let req = 2.0 * l / dt;
                            let v_prev = v_at(layout, prev_x, na) - v_at(layout, prev_x, nb);
                            a[(br, br)] -= req;
                            b[br] = -req * i_prev - v_prev;
                        }
                    }
                }
            }
            Element::VSource { p, n, wave } => {
                let br = layout.i_index(ei).expect("vsource branch");
                if let Some(i) = layout.v_index(p) {
                    a[(i, br)] += 1.0;
                    a[(br, i)] += 1.0;
                }
                if let Some(j) = layout.v_index(n) {
                    a[(j, br)] -= 1.0;
                    a[(br, j)] -= 1.0;
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
                        a[(di, gi)] += gm;
                    }
                    if let Some(si) = layout.v_index(s) {
                        a[(di, si)] -= gm;
                    }
                }
                if let Some(si) = layout.v_index(s) {
                    if let Some(gi) = layout.v_index(g) {
                        a[(si, gi)] -= gm;
                    }
                    a[(si, si)] += gm;
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
        b,
        lu,
        x,
        x_new,
        stats,
    } = ws;
    for _ in 0..max_iter {
        stats.newton_iters += 1;
        assemble_into(circuit, layout, x, mode, a, b);
        lu.refactor(a).map_err(|_| SpiceError::SingularMatrix)?;
        lu.solve_into(b, x_new);
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
