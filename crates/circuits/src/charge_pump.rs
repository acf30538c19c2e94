//! The charge-pump testbench (paper §5.2).
//!
//! The paper sizes a PLL charge pump in a SMIC 40 nm process with **36
//! design variables**, constraining the source (M1) and sink (M2) currents
//! to a tight window around 40 µA across **27 PVT corners**. The
//! low-fidelity model simulates a single typical corner; the high-fidelity
//! model all 27 — the same fidelity split this module implements.
//!
//! The circuit is rebuilt on the [`crate::spice`] engine after the paper's
//! Figure 4: a 10 µA and a 5 µA bias reference, NMOS→PMOS mirror chains
//! that generate the up/down currents, cascodes, and the four switch
//! devices (`up`, `upb`, `dn`, `dnb`). Eighteen transistors, each with its
//! own width and length → 36 design variables. Channel length enters
//! through channel-length modulation (`λ ∝ 1/L`), which is exactly what
//! makes current matching across output voltage and corners hard.
//!
//! Per corner, the testbench sweeps the output voltage over the compliance
//! range in both switch phases and records the max/avg/min of `I_M1`
//! (sourcing) and `I_M2` (sinking); the paper's specification (eqs. 15–16)
//! is then applied verbatim:
//!
//! ```text
//! max_diff1 = max(I_M1,max − I_M1,avg) < 20 µA     (over corners)
//! max_diff2 = max(I_M1,avg − I_M1,min) < 20 µA
//! max_diff3 = max(I_M2,max − I_M2,avg) <  5 µA
//! max_diff4 = max(I_M2,avg − I_M2,min) <  5 µA
//! deviation = max|I_M1,avg − 40µ| + max|I_M2,avg − 40µ| < 5 µA
//! FOM       = 0.3 Σ max_diff_i + 0.5 deviation        (µA, minimized)
//! ```

use crate::pvt::PvtCorner;
use crate::spice::dc::{solve_dc_from, solve_dc_in};
use crate::spice::{Circuit, MosModel, MosPolarity, NewtonWorkspace, SpiceError, Waveform};
use mfbo::problem::{Evaluation, Fidelity, MultiFidelityProblem};
use mfbo_opt::Bounds;

/// Number of transistors (each contributes a width and a length variable).
pub const NUM_DEVICES: usize = 18;

/// Target pump current in amps.
pub const TARGET_CURRENT: f64 = 40e-6;

/// Current statistics of one transistor over the output-voltage sweep of
/// one corner.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CurrentStats {
    max: f64,
    avg: f64,
    min: f64,
}

/// Running max, sum and min of one transistor's current over a sweep, fed
/// one sample at a time so a corner needs no sample buffer.
struct CurrentSweep {
    max: f64,
    sum: f64,
    min: f64,
    n: usize,
}

impl CurrentSweep {
    fn new() -> Self {
        CurrentSweep {
            max: f64::NEG_INFINITY,
            // −0.0 is the exact additive identity, as in `Iterator::sum`.
            sum: -0.0,
            min: f64::INFINITY,
            n: 0,
        }
    }

    fn push(&mut self, i: f64) {
        self.max = self.max.max(i);
        self.sum += i;
        self.min = self.min.min(i);
        self.n += 1;
    }

    fn stats(&self) -> CurrentStats {
        CurrentStats {
            max: self.max,
            avg: self.sum / self.n as f64,
            min: self.min,
        }
    }
}

/// The paper's per-design summary metrics, all in **µA**.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargePumpMetrics {
    /// `max over corners (I_M1,max − I_M1,avg)`.
    pub max_diff1: f64,
    /// `max over corners (I_M1,avg − I_M1,min)`.
    pub max_diff2: f64,
    /// `max over corners (I_M2,max − I_M2,avg)`.
    pub max_diff3: f64,
    /// `max over corners (I_M2,avg − I_M2,min)`.
    pub max_diff4: f64,
    /// `max|I_M1,avg − 40µ| + max|I_M2,avg − 40µ|`.
    pub deviation: f64,
    /// `0.3 Σ max_diff + 0.5 deviation`.
    pub fom: f64,
}

impl ChargePumpMetrics {
    fn from_corner_stats(per_corner: &[(CurrentStats, CurrentStats)]) -> Self {
        let ua = 1e6;
        let mut d1 = f64::NEG_INFINITY;
        let mut d2 = f64::NEG_INFINITY;
        let mut d3 = f64::NEG_INFINITY;
        let mut d4 = f64::NEG_INFINITY;
        let mut dev1 = f64::NEG_INFINITY;
        let mut dev2 = f64::NEG_INFINITY;
        for (m1, m2) in per_corner {
            d1 = d1.max((m1.max - m1.avg) * ua);
            d2 = d2.max((m1.avg - m1.min) * ua);
            d3 = d3.max((m2.max - m2.avg) * ua);
            d4 = d4.max((m2.avg - m2.min) * ua);
            dev1 = dev1.max((m1.avg - TARGET_CURRENT).abs() * ua);
            dev2 = dev2.max((m2.avg - TARGET_CURRENT).abs() * ua);
        }
        let deviation = dev1 + dev2;
        ChargePumpMetrics {
            max_diff1: d1,
            max_diff2: d2,
            max_diff3: d3,
            max_diff4: d4,
            deviation,
            fom: 0.3 * (d1 + d2 + d3 + d4) + 0.5 * deviation,
        }
    }
}

/// What a charge-pump measurement reuses across corners: one Newton
/// workspace for both switch phases and each phase's last operating point,
/// the warm start of its next sweep point.
struct SweepState {
    ws: NewtonWorkspace,
    up_x: Vec<f64>,
    dn_x: Vec<f64>,
}

impl SweepState {
    fn new(circuit: &Circuit) -> Self {
        let ws = NewtonWorkspace::new(circuit);
        let dim = ws.x.len();
        SweepState {
            ws,
            up_x: vec![0.0; dim],
            dn_x: vec![0.0; dim],
        }
    }

    /// Solves one sweep point of the switch phase `up_on` selects: cold at
    /// the phase's first point, else warm from the phase's previous
    /// solution. The solution is left in `ws.x` and kept as the phase's
    /// next start.
    fn solve(&mut self, circuit: &Circuit, up_on: bool, first: bool) -> Result<(), SpiceError> {
        let prev = if up_on {
            &mut self.up_x
        } else {
            &mut self.dn_x
        };
        if first {
            solve_dc_in(circuit, &mut self.ws)?;
        } else {
            solve_dc_from(circuit, &mut self.ws, prev)?;
        }
        prev.copy_from_slice(&self.ws.x);
        Ok(())
    }
}

/// The charge-pump sizing problem.
///
/// Design vector: `x = [W_1, L_1, W_2, L_2, …, W_18, L_18]` with widths in
/// `[2, 80]` µm and lengths in `[0.12, 1.0]` µm (36 variables total).
#[derive(Debug, Clone)]
pub struct ChargePump {
    /// Nominal supply in volts (scaled per corner).
    vdd_nominal: f64,
    /// Output-voltage sweep points per phase (compliance-range fractions).
    sweep_fractions: Vec<f64>,
}

impl Default for ChargePump {
    fn default() -> Self {
        Self::new()
    }
}

impl ChargePump {
    /// Creates the testbench with a 1.8 V nominal supply and a five-point
    /// output-voltage sweep.
    pub fn new() -> Self {
        ChargePump {
            vdd_nominal: 1.8,
            sweep_fractions: vec![0.25, 0.375, 0.5, 0.625, 0.75],
        }
    }

    /// Nominal supply voltage.
    pub fn vdd_nominal(&self) -> f64 {
        self.vdd_nominal
    }

    /// Splits the flat design vector into per-device `W/L` and `λ(L)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 2 * NUM_DEVICES`.
    fn device_params(x: &[f64]) -> Vec<(f64, f64)> {
        assert_eq!(x.len(), 2 * NUM_DEVICES, "36 design variables expected");
        (0..NUM_DEVICES)
            .map(|i| {
                let w = x[2 * i];
                let l = x[2 * i + 1];
                // λ grows as channels shorten: λ = 0.02 + 0.012/L(µm).
                (w / l, 0.02 + 0.012 / l)
            })
            .collect()
    }

    /// Builds the charge-pump netlist for one corner and one switch phase.
    ///
    /// `up_on` selects the sourcing phase (M1 path active); otherwise the
    /// sinking phase (M2 path). Returns the circuit and the element index
    /// of the output voltage source (whose branch current is the pump
    /// current). Public for inspection/demo purposes; the optimizer-facing
    /// entry points are [`ChargePump::measure`] and the
    /// [`MultiFidelityProblem`] impl.
    pub fn build_netlist(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        up_on: bool,
        vout: f64,
    ) -> (Circuit, usize) {
        let p = Self::device_params(x);
        let vdd = self.vdd_nominal * corner.supply_factor;
        let nmos = |lambda: f64| {
            corner.derate(&MosModel {
                polarity: MosPolarity::Nmos,
                vth: 0.45,
                kp: 200e-6,
                lambda,
            })
        };
        let pmos = |lambda: f64| {
            corner.derate(&MosModel {
                polarity: MosPolarity::Pmos,
                vth: 0.45,
                kp: 80e-6,
                lambda,
            })
        };

        let mut c = Circuit::new();
        let n_vdd = c.node("vdd");
        c.vsource(n_vdd, Circuit::GND, Waveform::Dc(vdd));

        // --- 10 µA bias chain: NMOS diode (M3) -> NMOS mirror (M4) ->
        //     PMOS diode (M5) establishing vbp. ---
        let vbn = c.node("vbn");
        c.isource(n_vdd, vbn, Waveform::Dc(10e-6));
        c.mosfet(vbn, vbn, Circuit::GND, nmos(p[2].1), p[2].0); // M3
        let vbp = c.node("vbp");
        c.mosfet(vbp, vbn, Circuit::GND, nmos(p[3].1), p[3].0); // M4
        c.mosfet(vbp, vbp, n_vdd, pmos(p[4].1), p[4].0); // M5

        // --- 5 µA bias chain: M10..M14 derive the vbn2 gate bias for the
        //     sink device through a second two-stage mirror. ---
        let vbn5 = c.node("vbn5");
        c.isource(n_vdd, vbn5, Waveform::Dc(5e-6));
        c.mosfet(vbn5, vbn5, Circuit::GND, nmos(p[9].1), p[9].0); // M10
        let nf = c.node("nf");
        c.mosfet(nf, vbn5, Circuit::GND, nmos(p[10].1), p[10].0); // M11
        c.mosfet(nf, nf, n_vdd, pmos(p[11].1), p[11].0); // M12
        let ng = c.node("ng");
        c.mosfet(ng, nf, n_vdd, pmos(p[12].1), p[12].0); // M13
        let vbn2 = ng; // M14 is diode-connected at ng
        c.mosfet(ng, ng, Circuit::GND, nmos(p[13].1), p[13].0); // M14

        // --- Output voltage source (the PLL loop-filter stand-in) and the
        //     mid-rail reference that biases the cascodes and terminates the
        //     dummy switches. ---
        let n_out = c.node("cpout");
        let vout_src = c.vsource(n_out, Circuit::GND, Waveform::Dc(vout));
        let n_ref = c.node("vref");
        c.vsource(n_ref, Circuit::GND, Waveform::Dc(vdd * 0.5));

        // --- UP path: M1 (PMOS mirror from vbp) -> M17 (PMOS cascode,
        //     mid-rail biased) -> M8 (PMOS switch) -> cpout. ---
        let n_c1 = c.node("c1");
        let n_c2 = c.node("c2");
        c.mosfet(n_c1, vbp, n_vdd, pmos(p[0].1), p[0].0); // M1
        c.mosfet(n_c2, n_ref, n_c1, pmos(p[16].1), p[16].0); // M17 cascode
        let up_gate = c.node("up_gate");
        c.vsource(
            up_gate,
            Circuit::GND,
            Waveform::Dc(if up_on { 0.0 } else { vdd }),
        );
        c.mosfet(n_out, up_gate, n_c2, pmos(p[7].1), p[7].0); // M8 switch

        // --- Dummy UPB branch: M15 dumps the mirror current to the mid-rail
        //     reference when UP is off (keeps the mirror settled). ---
        let upb_gate = c.node("upb_gate");
        c.vsource(
            upb_gate,
            Circuit::GND,
            Waveform::Dc(if up_on { vdd } else { 0.0 }),
        );
        c.mosfet(n_ref, upb_gate, n_c2, pmos(p[14].1), p[14].0); // M15

        // --- DN path: cpout -> M9 (NMOS switch) -> M18 (NMOS cascode) ->
        //     M2 (NMOS sink biased by vbn2). ---
        let n_d1 = c.node("d1");
        let n_d2 = c.node("d2");
        let dn_gate = c.node("dn_gate");
        c.vsource(
            dn_gate,
            Circuit::GND,
            Waveform::Dc(if up_on { 0.0 } else { vdd }),
        );
        c.mosfet(n_d2, dn_gate, n_out, nmos(p[8].1), p[8].0); // M9 switch
        c.mosfet(n_d2, n_ref, n_d1, nmos(p[17].1), p[17].0); // M18 cascode
        c.mosfet(n_d1, vbn2, Circuit::GND, nmos(p[1].1), p[1].0); // M2 sink

        // --- Dummy DNB branch: M16. ---
        let dnb_gate = c.node("dnb_gate");
        c.vsource(
            dnb_gate,
            Circuit::GND,
            Waveform::Dc(if up_on { vdd } else { 0.0 }),
        );
        c.mosfet(n_d2, dnb_gate, n_ref, nmos(p[15].1), p[15].0); // M16

        // --- Spare bias-chain devices M6, M7 load the vbp rail the way the
        //     real schematic's second output leg would. ---
        let n_spare = c.node("spare");
        c.mosfet(n_spare, vbp, n_vdd, pmos(p[5].1), p[5].0); // M6
        c.mosfet(n_spare, n_spare, Circuit::GND, nmos(p[6].1), p[6].0); // M7

        (c, vout_src)
    }

    /// Sweeps the output voltage at one corner in both switch phases,
    /// calling `point(v_out, I_M1, I_M2)` once per sweep point.
    ///
    /// Both phase netlists are built once; each point only resets the Vout
    /// source's DC value and solves on `state`'s workspace. The first point
    /// of each phase cold-starts; every later one warm-starts from that
    /// phase's previous solution and falls back to the cold ladder if the
    /// warm Newton solve fails. Nothing carries over from the previous
    /// corner. Every corner's netlist has the same topology, so the first
    /// call creates the state and later corners reuse it. Per sweep point
    /// nothing is allocated.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] if a DC solve fails.
    fn sweep(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        state: &mut Option<SweepState>,
        mut point: impl FnMut(f64, f64, f64),
    ) -> Result<(), SpiceError> {
        let vdd = self.vdd_nominal * corner.supply_factor;
        let (mut up, src) = self.build_netlist(x, corner, true, 0.0);
        let (mut dn, _) = self.build_netlist(x, corner, false, 0.0);
        let state = state.get_or_insert_with(|| SweepState::new(&up));
        for (k, &f) in self.sweep_fractions.iter().enumerate() {
            let vout = vdd * f;
            // Sourcing phase: current flows out of the UP branch *into* the
            // Vout source, i.e. positive branch current (p → n internally).
            up.set_source_waveform(src, Waveform::Dc(vout));
            state.solve(&up, true, k == 0)?;
            let i_up = state.ws.branch_current(src).expect("vout branch");
            // Sinking phase: current flows out of the source into the DN
            // branch — negative branch current.
            dn.set_source_waveform(src, Waveform::Dc(vout));
            state.solve(&dn, false, k == 0)?;
            let i_dn = -state.ws.branch_current(src).expect("vout branch");
            point(vout, i_up, i_dn);
        }
        Ok(())
    }

    /// Measures `(I_M1, I_M2)` statistics for one corner by sweeping the
    /// output voltage in both phases.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] if a DC solve fails.
    fn corner_stats(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        state: &mut Option<SweepState>,
    ) -> Result<(CurrentStats, CurrentStats), SpiceError> {
        let (mut i_up, mut i_dn) = (CurrentSweep::new(), CurrentSweep::new());
        self.sweep(x, corner, state, |_, up, dn| {
            i_up.push(up);
            i_dn.push(dn);
        })?;
        Ok((i_up.stats(), i_dn.stats()))
    }

    /// Sweeps the output voltage at one corner and returns
    /// `(v_out, I_M1, I_M2)` triples — the raw data behind the metrics,
    /// useful for plotting current-compliance curves.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] if a DC solve fails.
    pub fn sweep_currents(
        &self,
        x: &[f64],
        corner: &PvtCorner,
    ) -> Result<Vec<(f64, f64, f64)>, SpiceError> {
        let mut out = Vec::with_capacity(self.sweep_fractions.len());
        self.sweep(x, corner, &mut None, |vout, up, dn| {
            out.push((vout, up, dn))
        })?;
        Ok(out)
    }

    /// Evaluates the full metric set over the given corners.
    ///
    /// All corners share one Newton workspace and the two phases' start
    /// buffers; the workspace's work counters are emitted once, when the
    /// measurement ends.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] if any corner fails to solve.
    pub fn measure(
        &self,
        x: &[f64],
        corners: &[PvtCorner],
    ) -> Result<ChargePumpMetrics, SpiceError> {
        let _span = mfbo_telemetry::debug_span!(
            "spice_dc_sweep",
            circuit = "charge_pump",
            corners = corners.len(),
            sweep_points = self.sweep_fractions.len()
        );
        let mut state = None;
        let mut per_corner = Vec::with_capacity(corners.len());
        let swept: Result<(), SpiceError> = corners.iter().try_for_each(|corner| {
            per_corner.push(self.corner_stats(x, corner, &mut state)?);
            Ok(())
        });
        if let Some(state) = &state {
            state.ws.stats.emit();
        }
        swept?;
        Ok(ChargePumpMetrics::from_corner_stats(&per_corner))
    }

    /// Converts metrics into the constrained-minimization form of
    /// eq. (15): objective `FOM`, constraints
    /// `[d1 − 20, d2 − 20, d3 − 5, d4 − 5, deviation − 5]` (µA).
    pub fn to_evaluation(&self, m: &ChargePumpMetrics) -> Evaluation {
        Evaluation {
            objective: m.fom,
            constraints: vec![
                m.max_diff1 - 20.0,
                m.max_diff2 - 20.0,
                m.max_diff3 - 5.0,
                m.max_diff4 - 5.0,
                m.deviation - 5.0,
            ],
        }
    }

    /// A hand-sized reference design: 4:1 source mirror, 8:1 sink ratio
    /// compensation, long channels for the mirrors, short for the switches.
    /// Used by tests and as a sanity anchor — roughly (not optimally)
    /// matched.
    pub fn reference_design() -> Vec<f64> {
        let mut x = Vec::with_capacity(2 * NUM_DEVICES);
        // (W, L) per device, µm. Index = device - 1.
        let wl: [(f64, f64); NUM_DEVICES] = [
            (40.0, 0.5),  // M1  source mirror output (4x of M5)
            (20.0, 0.5),  // M2  sink device
            (10.0, 0.5),  // M3  10µ NMOS diode
            (10.0, 0.5),  // M4  NMOS mirror
            (10.0, 0.5),  // M5  PMOS diode
            (10.0, 0.5),  // M6  spare PMOS leg
            (10.0, 0.5),  // M7  spare NMOS diode
            (30.0, 0.15), // M8  UP switch
            (30.0, 0.15), // M9  DN switch
            (10.0, 0.5),  // M10 5µ NMOS diode
            (20.0, 0.5),  // M11 NMOS mirror (2x)
            (10.0, 0.5),  // M12 PMOS diode
            (20.0, 0.5),  // M13 PMOS mirror (2x)
            (10.0, 0.5),  // M14 NMOS diode → vbn2 (20µ at 2x W = 40µ in M2)
            (30.0, 0.15), // M15 UPB dummy switch
            (30.0, 0.15), // M16 DNB dummy switch
            (40.0, 0.35), // M17 PMOS cascode
            (20.0, 0.35), // M18 NMOS cascode
        ];
        for (w, l) in wl {
            x.push(w);
            x.push(l);
        }
        x
    }
}

impl MultiFidelityProblem for ChargePump {
    fn name(&self) -> &str {
        "charge-pump"
    }

    fn bounds(&self) -> Bounds {
        let mut lo = Vec::with_capacity(2 * NUM_DEVICES);
        let mut hi = Vec::with_capacity(2 * NUM_DEVICES);
        for _ in 0..NUM_DEVICES {
            lo.push(2.0); // W min (µm)
            hi.push(80.0); // W max
            lo.push(0.12); // L min (µm)
            hi.push(1.0); // L max
        }
        Bounds::new(lo, hi)
    }

    fn num_constraints(&self) -> usize {
        5
    }

    fn evaluate(&self, x: &[f64], fidelity: Fidelity) -> Evaluation {
        let corners = match fidelity {
            Fidelity::High => PvtCorner::grid_27(),
            Fidelity::Low => vec![PvtCorner::typical()],
        };
        match self.measure(x, &corners) {
            Ok(m) => self.to_evaluation(&m),
            // Non-convergent designs are reported as terrible but finite.
            Err(_) => Evaluation {
                objective: 1e3,
                constraints: vec![1e3; 5],
            },
        }
    }

    fn cost(&self, fidelity: Fidelity) -> f64 {
        match fidelity {
            Fidelity::High => 1.0,
            // One corner instead of 27.
            Fidelity::Low => 1.0 / 27.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_design_currents_are_in_range() {
        let cp = ChargePump::new();
        let x = ChargePump::reference_design();
        let m = cp.measure(&x, &[PvtCorner::typical()]).unwrap();
        // The hand design should be within a couple of µA of the 40 µA
        // target at the typical corner (mirror ratios are exact; only λ·Vds
        // effects remain).
        assert!(
            m.deviation < 20.0,
            "typical-corner deviation = {} µA",
            m.deviation
        );
        assert!(m.fom.is_finite() && m.fom >= 0.0);
        // Ripple over the sweep exists (λ ≠ 0) but is bounded.
        assert!(
            m.max_diff1 > 0.0 && m.max_diff1 < 30.0,
            "d1 = {}",
            m.max_diff1
        );
    }

    #[test]
    fn corner_spread_increases_metrics() {
        let cp = ChargePump::new();
        let x = ChargePump::reference_design();
        let typical = cp.measure(&x, &[PvtCorner::typical()]).unwrap();
        let all = cp.measure(&x, &PvtCorner::grid_27()).unwrap();
        // Worst case over 27 corners is at least as bad as the typical one.
        assert!(all.deviation >= typical.deviation - 1e-9);
        assert!(all.max_diff1 >= typical.max_diff1 - 1e-9);
        assert!(all.fom >= typical.fom - 1e-9);
    }

    #[test]
    fn longer_output_channels_reduce_ripple() {
        let cp = ChargePump::new();
        let mut short = ChargePump::reference_design();
        // M1 and M2 lengths to the minimum → large λ → strong Vds ripple.
        short[1] = 0.12;
        short[3] = 0.12;
        let mut long = ChargePump::reference_design();
        long[1] = 1.0;
        long[3] = 1.0;
        let m_short = cp.measure(&short, &[PvtCorner::typical()]).unwrap();
        let m_long = cp.measure(&long, &[PvtCorner::typical()]).unwrap();
        assert!(
            m_long.max_diff1 + m_long.max_diff3 < m_short.max_diff1 + m_short.max_diff3,
            "long {} vs short {}",
            m_long.max_diff1 + m_long.max_diff3,
            m_short.max_diff1 + m_short.max_diff3
        );
    }

    #[test]
    fn evaluation_mapping() {
        let cp = ChargePump::new();
        let m = ChargePumpMetrics {
            max_diff1: 6.0,
            max_diff2: 4.0,
            max_diff3: 0.2,
            max_diff4: 0.4,
            deviation: 0.8,
            fom: 0.3 * 10.6 + 0.5 * 0.8,
        };
        let e = cp.to_evaluation(&m);
        assert!(e.is_feasible());
        assert!((e.objective - m.fom).abs() < 1e-12);
        assert_eq!(e.constraints.len(), 5);
    }

    #[test]
    fn problem_interface() {
        let cp = ChargePump::new();
        assert_eq!(cp.dim(), 36);
        assert_eq!(cp.num_constraints(), 5);
        assert!((cp.cost(Fidelity::Low) - 1.0 / 27.0).abs() < 1e-12);
        let b = cp.bounds();
        assert!(b.contains(&ChargePump::reference_design()));
        let e = cp.evaluate(&ChargePump::reference_design(), Fidelity::Low);
        assert!(e.is_finite());
        assert_eq!(e.constraints.len(), 5);
    }

    #[test]
    fn bit_identity_measure_matches_per_corner_sweeps() {
        // `measure` shares one sweep state across all corners;
        // `sweep_currents` starts a fresh one per corner, so the two agree
        // bit for bit only if nothing carries from one corner to the next.
        // tests/properties.rs pins `sweep_currents` to a per-point cold
        // rebuild oracle.
        let cp = ChargePump::new();
        let mut x = ChargePump::reference_design();
        x[1] = 0.12; // short M1: strong λ, so every sweep point differs
        let corners = PvtCorner::grid_27();
        let per_corner: Vec<_> = corners
            .iter()
            .map(|corner| {
                let (mut up, mut dn) = (CurrentSweep::new(), CurrentSweep::new());
                for (_, i_up, i_dn) in cp.sweep_currents(&x, corner).unwrap() {
                    up.push(i_up);
                    dn.push(i_dn);
                }
                (up.stats(), dn.stats())
            })
            .collect();
        let oracle = ChargePumpMetrics::from_corner_stats(&per_corner);
        let fast = cp.measure(&x, &corners).unwrap();
        for (a, b) in [
            (fast.max_diff1, oracle.max_diff1),
            (fast.max_diff2, oracle.max_diff2),
            (fast.max_diff3, oracle.max_diff3),
            (fast.max_diff4, oracle.max_diff4),
            (fast.deviation, oracle.deviation),
            (fast.fom, oracle.fom),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The value of the one `name` counter `sink` collected.
    fn counter(sink: &mfbo_telemetry::sinks::CollectSink, name: &str) -> u64 {
        let recs = sink.named(name);
        assert_eq!(recs.len(), 1, "one {name} emission per measure");
        match recs[0].field("value") {
            Some(&mfbo_telemetry::Value::U64(n)) => n,
            other => panic!("{name} value missing or mistyped: {other:?}"),
        }
    }

    #[test]
    fn measure_emits_work_counters_once() {
        use mfbo_telemetry::{sinks::CollectSink, Level};
        let sink = std::sync::Arc::new(CollectSink::with_level(Level::Debug));
        let _g = mfbo_telemetry::scoped_sink(sink.clone());
        let cp = ChargePump::new();
        cp.measure(&ChargePump::reference_design(), &PvtCorner::grid_27())
            .unwrap();
        // 27 corners × 5 points × 2 phases, each at least one iteration.
        let iters = counter(&sink, "spice_newton_iters");
        assert!(iters >= 270, "{iters} Newton iterations");
        counter(&sink, "spice_dc_fallbacks");
        counter(&sink, "spice_dc_warm_misses");
    }

    #[test]
    fn continuation_takes_fewer_newton_iterations_than_cold_solves() {
        use mfbo_telemetry::{sinks::CollectSink, Level};
        let cp = ChargePump::new();
        let x = ChargePump::reference_design();
        let corners = PvtCorner::grid_27();
        // The cold solves the sweep replaces, one per point and phase, on
        // a workspace of their own.
        let mut cold: Option<NewtonWorkspace> = None;
        for corner in &corners {
            let vdd = cp.vdd_nominal * corner.supply_factor;
            for &f in &cp.sweep_fractions {
                for up_on in [true, false] {
                    let (c, _) = cp.build_netlist(&x, corner, up_on, vdd * f);
                    let ws = cold.get_or_insert_with(|| NewtonWorkspace::new(&c));
                    solve_dc_in(&c, ws).unwrap();
                }
            }
        }
        let cold_iters = cold.unwrap().stats.newton_iters;
        let sink = std::sync::Arc::new(CollectSink::with_level(Level::Debug));
        let _g = mfbo_telemetry::scoped_sink(sink.clone());
        cp.measure(&x, &corners).unwrap();
        let warm_iters = counter(&sink, "spice_newton_iters");
        assert!(
            warm_iters < cold_iters,
            "{warm_iters} Newton iterations with continuation, {cold_iters} cold"
        );
    }

    #[test]
    fn currents_flow_in_the_right_directions() {
        // Directly check the sourcing and sinking phase currents are
        // positive in our sign convention.
        let cp = ChargePump::new();
        let x = ChargePump::reference_design();
        let (m1, m2) = cp
            .corner_stats(&x, &PvtCorner::typical(), &mut None)
            .unwrap();
        assert!(m1.avg > 5e-6, "I_M1 = {} A", m1.avg);
        assert!(m2.avg > 5e-6, "I_M2 = {} A", m2.avg);
        assert!(m1.max >= m1.avg && m1.avg >= m1.min);
        assert!(m2.max >= m2.avg && m2.avg >= m2.min);
    }
}
