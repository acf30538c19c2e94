//! DC operating-point analysis.
//!
//! Straight damped Newton first; if that fails, **g-min stepping** (start
//! with a large conductance to ground everywhere and relax it geometrically)
//! and then **source stepping** (ramp all independent sources from zero).
//! These are the same convergence aids every production SPICE uses.
//!
//! A DC sweep may also seed a point from the previous point's operating
//! point, as SPICE `.dc` sweeps do (`solve_dc_from`): one plain Newton
//! solve from that start, and the full cold ladder above if it fails.

use super::netlist::Circuit;
use super::stamp::{solve_newton, MnaLayout, Mode, NewtonWorkspace};
use super::SpiceError;

/// Result of a DC operating-point solve.
#[derive(Debug, Clone)]
pub struct DcSolution {
    layout: MnaLayout,
    x: Vec<f64>,
}

impl DcSolution {
    /// Voltage of `node` (ground returns `0.0`).
    pub fn voltage(&self, node: usize) -> f64 {
        match self.layout.v_index(node) {
            Some(i) => self.x[i],
            None => 0.0,
        }
    }

    /// Branch current of the voltage source or inductor with the given
    /// element index (positive current flows from the `p`/`a` terminal
    /// through the element to the `n`/`b` terminal).
    ///
    /// Returns `None` for elements without a branch current.
    pub fn branch_current(&self, element: usize) -> Option<f64> {
        self.layout.i_index(element).map(|i| self.x[i])
    }
}

/// Default g-min for the final solution.
const GMIN: f64 = 1e-12;
/// Newton iteration settings.
const MAX_ITER: usize = 200;
const TOL: f64 = 1e-9;

/// Solves the DC operating point of `circuit`.
///
/// # Errors
///
/// Returns [`SpiceError::NoConvergence`] if every strategy fails and
/// [`SpiceError::SingularMatrix`] for structurally singular netlists.
pub fn solve_dc(circuit: &Circuit) -> Result<DcSolution, SpiceError> {
    let mut ws = NewtonWorkspace::new(circuit);
    solve_dc_in(circuit, &mut ws)?;
    Ok(DcSolution {
        layout: ws.layout,
        x: ws.x,
    })
}

/// [`solve_dc`] on a reused workspace: every strategy cold-starts from
/// zero in `ws`, and the operating point is left in `ws.x`.
///
/// `ws` must have been built for a circuit with `circuit`'s element
/// structure.
pub(crate) fn solve_dc_in(circuit: &Circuit, ws: &mut NewtonWorkspace) -> Result<(), SpiceError> {
    debug_assert_eq!(ws.layout.branch_of.len(), circuit.elements().len());
    let dc = |source_scale, gmin| Mode::Dc { source_scale, gmin };

    // 1. Plain Newton from a zero start.
    ws.x.fill(0.0);
    if solve_newton(circuit, ws, &dc(1.0, GMIN), MAX_ITER, TOL, "dc", 0).is_ok() {
        return Ok(());
    }

    // 2. G-min stepping: relax a strong conductance to ground.
    ws.stats.dc_fallbacks += 1;
    ws.x.fill(0.0);
    let mut ok = true;
    let mut gmin = 1e-2;
    while gmin >= GMIN {
        if solve_newton(circuit, ws, &dc(1.0, gmin), MAX_ITER, TOL, "dc", 0).is_err() {
            ok = false;
            break;
        }
        gmin /= 10.0;
    }
    if ok {
        return Ok(());
    }

    // 3. Source stepping: ramp sources from 0 to 100 %.
    ws.stats.dc_fallbacks += 1;
    ws.x.fill(0.0);
    for k in 1..=20 {
        let scale = k as f64 / 20.0;
        solve_newton(circuit, ws, &dc(scale, GMIN), MAX_ITER, TOL, "dc", 0)?;
    }
    Ok(())
}

/// [`solve_dc_in`] warm-started from `start` (a DC-sweep continuation
/// step): plain Newton at the final g-min from `start`, and if that fails,
/// the whole cold ladder of [`solve_dc_in`], counted as a warm miss. So a
/// warm start fails only where the cold solve fails too.
///
/// `start` must have the workspace's dimension.
pub(crate) fn solve_dc_from(
    circuit: &Circuit,
    ws: &mut NewtonWorkspace,
    start: &[f64],
) -> Result<(), SpiceError> {
    ws.x.copy_from_slice(start);
    let warm = Mode::Dc {
        source_scale: 1.0,
        gmin: GMIN,
    };
    if solve_newton(circuit, ws, &warm, MAX_ITER, TOL, "dc", 0).is_ok() {
        return Ok(());
    }
    ws.stats.dc_warm_misses += 1;
    solve_dc_in(circuit, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spice::{MosModel, Waveform};

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.vsource(vin, Circuit::GND, Waveform::Dc(10.0));
        c.resistor(vin, mid, 1e3);
        c.resistor(mid, Circuit::GND, 3e3);
        let sol = solve_dc(&c).unwrap();
        assert!((sol.voltage(mid) - 7.5).abs() < 1e-6);
        assert_eq!(sol.voltage(Circuit::GND), 0.0);
    }

    #[test]
    fn vsource_branch_current() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vs = c.vsource(vin, Circuit::GND, Waveform::Dc(5.0));
        c.resistor(vin, Circuit::GND, 1e3);
        let sol = solve_dc(&c).unwrap();
        // 5 mA flows out of the + terminal through the circuit; the MNA
        // branch current (p → n through the source) is therefore −5 mA.
        let i = sol.branch_current(vs).unwrap();
        assert!((i + 5e-3).abs() < 1e-9, "i = {i}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n = c.node("n");
        // 1 mA pushed into node n.
        c.isource(Circuit::GND, n, Waveform::Dc(1e-3));
        c.resistor(n, Circuit::GND, 2e3);
        let sol = solve_dc(&c).unwrap();
        assert!((sol.voltage(n) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Circuit::GND, Waveform::Dc(1.0));
        let ind = c.inductor(a, b, 1e-6);
        c.resistor(b, Circuit::GND, 100.0);
        let sol = solve_dc(&c).unwrap();
        assert!((sol.voltage(b) - 1.0).abs() < 1e-6);
        let i = sol.branch_current(ind).unwrap();
        assert!((i - 0.01).abs() < 1e-6);
    }

    #[test]
    fn diode_forward_drop() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let k = c.node("k");
        c.vsource(a, Circuit::GND, Waveform::Dc(5.0));
        c.resistor(a, k, 1e3);
        c.diode(k, Circuit::GND, 1e-14, 1.0);
        let sol = solve_dc(&c).unwrap();
        let vd = sol.voltage(k);
        // Silicon-ish drop between 0.5 and 0.8 V.
        assert!(vd > 0.5 && vd < 0.8, "vd = {vd}");
        // KCL: resistor current equals diode current.
        let ir = (5.0 - vd) / 1e3;
        let id = 1e-14 * ((vd / 0.02585).exp() - 1.0);
        assert!((ir - id).abs() / ir < 1e-3);
    }

    #[test]
    fn nmos_common_source_operating_point() {
        // Vdd = 1.8, Rd = 10k, NMOS W/L = 10, Vg = 0.8.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        let g = c.node("g");
        c.vsource(vdd, Circuit::GND, Waveform::Dc(1.8));
        c.vsource(g, Circuit::GND, Waveform::Dc(0.8));
        c.resistor(vdd, d, 10e3);
        c.mosfet(d, g, Circuit::GND, MosModel::nmos_default(), 10.0);
        let sol = solve_dc(&c).unwrap();
        let vd = sol.voltage(d);
        // Device saturated: id ≈ ½·200µ·10·(0.35)²·(1+λvd).
        let id = (1.8 - vd) / 10e3;
        let expect = 0.5 * 200e-6 * 10.0 * 0.35f64.powi(2) * (1.0 + 0.08 * vd);
        assert!(
            (id - expect).abs() / expect < 1e-3,
            "id {id} expect {expect}"
        );
        assert!(vd > 0.35, "device should be in saturation, vd = {vd}");
    }

    #[test]
    fn diode_connected_nmos_self_bias() {
        // Current mirror reference: I into a diode-connected NMOS.
        let mut c = Circuit::new();
        let n = c.node("n");
        c.isource(Circuit::GND, n, Waveform::Dc(100e-6));
        c.mosfet(n, n, Circuit::GND, MosModel::nmos_default(), 20.0);
        let sol = solve_dc(&c).unwrap();
        let v = sol.voltage(n);
        // v = vth + sqrt(2I/(kp·W/L)) approx (ignoring λ) = 0.45 + 0.224.
        assert!((v - 0.67).abs() < 0.02, "v = {v}");
    }

    #[test]
    fn workspace_recovers_after_a_failed_solve() {
        // Same element kinds and order (V, V, R), hence one layout. With
        // both sources on node a the MNA matrix is singular.
        let build = |second_on_a: bool| {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            c.vsource(a, Circuit::GND, Waveform::Dc(1.0));
            c.vsource(
                if second_on_a { a } else { b },
                Circuit::GND,
                Waveform::Dc(2.0),
            );
            c.resistor(a, b, 1e3);
            c
        };
        let (bad, good) = (build(true), build(false));
        let mut ws = NewtonWorkspace::new(&bad);
        assert_eq!(solve_dc_in(&bad, &mut ws), Err(SpiceError::SingularMatrix));
        // Both fallback rungs were tried before giving up.
        assert_eq!(ws.stats.dc_fallbacks, 2);
        solve_dc_in(&good, &mut ws).unwrap();
        let fresh = solve_dc(&good).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ws.x), bits(&fresh.x));
    }

    #[test]
    fn warm_start_hits_or_falls_back_to_the_cold_ladder() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        let g = c.node("g");
        c.vsource(vdd, Circuit::GND, Waveform::Dc(1.8));
        c.vsource(g, Circuit::GND, Waveform::Dc(0.8));
        c.resistor(vdd, d, 10e3);
        c.mosfet(d, g, Circuit::GND, MosModel::nmos_default(), 10.0);
        let cold = solve_dc(&c).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut ws = NewtonWorkspace::new(&c);
        // Seeded at the solution, one iteration confirms it.
        solve_dc_from(&c, &mut ws, &cold.x).unwrap();
        assert_eq!(ws.stats.newton_iters, 1);
        assert_eq!(ws.stats.dc_warm_misses, 0);
        let vd = ws.x[ws.layout.v_index(d).unwrap()];
        assert!((vd - cold.voltage(d)).abs() < 1e-9, "vd = {vd}");
        // A non-finite start fails the warm solve; the cold ladder then
        // reproduces the cold operating point bit for bit.
        let nan = vec![f64::NAN; ws.x.len()];
        solve_dc_from(&c, &mut ws, &nan).unwrap();
        assert_eq!(ws.stats.dc_warm_misses, 1);
        assert_eq!(bits(&ws.x), bits(&cold.x));
    }

    #[test]
    fn floating_node_is_held_by_gmin() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Circuit::GND, Waveform::Dc(1.0));
        c.resistor(a, b, 1e3);
        // b otherwise floating: capacitor is open at DC.
        c.capacitor(b, Circuit::GND, 1e-12);
        let sol = solve_dc(&c).unwrap();
        // No DC path from b, so it floats to the driven value via gmin.
        assert!((sol.voltage(b) - 1.0).abs() < 1e-3);
    }
}
