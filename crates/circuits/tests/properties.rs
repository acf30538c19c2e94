//! Property-based tests of the circuit engine against circuit theory.

use mfbo_circuits::spice::dc::solve_dc;
use mfbo_circuits::spice::{Circuit, MosModel, Waveform};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn divider_chain_voltage_is_monotone(
        rs in prop::collection::vec(10.0f64..100e3, 2..8),
        v in 0.1f64..10.0,
    ) {
        // A series resistor chain from V to ground: node voltages decrease
        // monotonically and interpolate between V and 0 per the divider
        // rule.
        let mut c = Circuit::new();
        let top = c.node("top");
        c.vsource(top, Circuit::GND, Waveform::Dc(v));
        let mut prev = top;
        let mut nodes = vec![top];
        for (i, r) in rs.iter().enumerate() {
            let n = c.node(&format!("n{i}"));
            c.resistor(prev, n, *r);
            nodes.push(n);
            prev = n;
        }
        // Terminate to ground.
        c.resistor(prev, Circuit::GND, 1e3);
        let sol = solve_dc(&c).unwrap();
        let total: f64 = rs.iter().sum::<f64>() + 1e3;
        let mut acc = 0.0;
        let mut last = v;
        for (i, n) in nodes.iter().enumerate() {
            let vn = sol.voltage(*n);
            prop_assert!(vn <= last + 1e-9, "voltages must fall along the chain");
            // Divider value check.
            if i > 0 {
                acc += rs[i - 1];
            }
            let expect = v * (1.0 - acc / total);
            prop_assert!((vn - expect).abs() < 1e-6 * v.max(1.0), "node {i}: {vn} vs {expect}");
            last = vn;
        }
    }

    #[test]
    fn superposition_of_current_sources(
        i1 in 1e-6f64..1e-3,
        i2 in 1e-6f64..1e-3,
        r in 100.0f64..10e3,
    ) {
        // Linear circuit: response to both sources = sum of individual
        // responses.
        let build = |a: f64, b: f64| {
            let mut c = Circuit::new();
            let n = c.node("n");
            if a > 0.0 {
                c.isource(Circuit::GND, n, Waveform::Dc(a));
            }
            if b > 0.0 {
                c.isource(Circuit::GND, n, Waveform::Dc(b));
            }
            c.resistor(n, Circuit::GND, r);
            let sol = solve_dc(&c).unwrap();
            sol.voltage(n)
        };
        let both = build(i1, i2);
        let only1 = build(i1, 0.0);
        let only2 = build(0.0, i2);
        prop_assert!((both - only1 - only2).abs() < 1e-9 * both.abs().max(1.0));
    }

    #[test]
    fn mirror_ratio_scales_current(
        ratio in 0.5f64..4.0,
        iref in 5e-6f64..100e-6,
    ) {
        // NMOS mirror output tracks W/L ratio to within the λ·Vds error.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let nref = c.node("ref");
        let nout = c.node("out");
        c.vsource(vdd, Circuit::GND, Waveform::Dc(1.8));
        c.isource(vdd, nref, Waveform::Dc(iref));
        c.mosfet(nref, nref, Circuit::GND, MosModel::nmos_default(), 20.0);
        c.mosfet(nout, nref, Circuit::GND, MosModel::nmos_default(), 20.0 * ratio);
        c.resistor(vdd, nout, 1e3);
        let sol = solve_dc(&c).unwrap();
        let iout = (1.8 - sol.voltage(nout)) / 1e3;
        let expect = iref * ratio;
        // λ = 0.08 with |ΔVds| < 1.8 V bounds the mirror error ≲ 15 %.
        prop_assert!(
            (iout - expect).abs() / expect < 0.2,
            "iout = {iout}, expect ≈ {expect}"
        );
    }

    #[test]
    fn dc_sweep_of_diode_is_monotone(steps in 2usize..8) {
        // Increasing drive voltage never decreases the diode current.
        let mut last = 0.0;
        for k in 1..=steps {
            let v = k as f64;
            let mut c = Circuit::new();
            let a = c.node("a");
            let kth = c.node("k");
            c.vsource(a, Circuit::GND, Waveform::Dc(v));
            c.resistor(a, kth, 1e3);
            c.diode(kth, Circuit::GND, 1e-14, 1.0);
            let sol = solve_dc(&c).unwrap();
            let i = (v - sol.voltage(kth)) / 1e3;
            prop_assert!(i >= last - 1e-12);
            last = i;
        }
    }
}

mod pvt_props {
    use mfbo_circuits::pvt::PvtCorner;
    use mfbo_circuits::spice::MosModel;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn derating_preserves_polarity_and_positivity(
            idx in 0usize..27,
            vth in 0.2f64..0.8,
            kp in 50e-6f64..500e-6,
        ) {
            let corner = PvtCorner::grid_27()[idx];
            let nominal = MosModel {
                vth,
                kp,
                ..MosModel::nmos_default()
            };
            let d = corner.derate(&nominal);
            prop_assert_eq!(d.polarity, nominal.polarity);
            prop_assert!(d.vth > 0.0);
            prop_assert!(d.kp > 0.0);
            prop_assert_eq!(d.lambda, nominal.lambda);
        }

        #[test]
        fn ss_always_slower_than_ff(vth in 0.3f64..0.6, t in -40.0f64..125.0) {
            use mfbo_circuits::pvt::ProcessCorner;
            let nominal = MosModel { vth, ..MosModel::nmos_default() };
            let ss = PvtCorner { process: ProcessCorner::Ss, supply_factor: 1.0, temperature_c: t }.derate(&nominal);
            let ff = PvtCorner { process: ProcessCorner::Ff, supply_factor: 1.0, temperature_c: t }.derate(&nominal);
            prop_assert!(ss.kp < ff.kp);
            prop_assert!(ss.vth > ff.vth);
        }
    }
}

mod waveform_props {
    use mfbo_circuits::spice::waveform;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn harmonic_amplitude_is_linear_in_signal(a in 0.1f64..5.0, ph in 0.0f64..std::f64::consts::TAU) {
            let n = 512;
            let dt = 1.0 / n as f64;
            let s: Vec<f64> = (0..n)
                .map(|k| a * (2.0 * std::f64::consts::PI * 3.0 * k as f64 * dt + ph).sin())
                .collect();
            let got = waveform::harmonic_amplitude(&s, dt, 3.0, 1);
            prop_assert!((got - a).abs() < 1e-6 * a);
            // Doubling the waveform doubles the amplitude.
            let s2: Vec<f64> = s.iter().map(|v| 2.0 * v).collect();
            let got2 = waveform::harmonic_amplitude(&s2, dt, 3.0, 1);
            prop_assert!((got2 - 2.0 * got).abs() < 1e-9 * got2.max(1.0));
        }

        #[test]
        fn dbm_round_trip(p in 1e-6f64..10.0) {
            let dbm = waveform::to_dbm(p);
            let back = 1e-3 * 10f64.powf(dbm / 10.0);
            prop_assert!((back - p).abs() < 1e-9 * p);
        }
    }
}

/// Seeded designs over a testbench's full design box: uniform, with about
/// a quarter of the coordinates snapped to a box edge, where the extreme
/// sizings that stress the solver live.
fn design_in_box(bounds: &mfbo_opt::Bounds, seed: u64) -> Vec<f64> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = bounds.sample_uniform(&mut rng);
    for (v, (lo, hi)) in x.iter_mut().zip(bounds.lower().iter().zip(bounds.upper())) {
        match rng.gen_range(0..8) {
            0 => *v = *lo,
            1 => *v = *hi,
            _ => {}
        }
    }
    x
}

/// The charge-pump sweep builds each corner's phase netlists once, solves
/// every point on one reused Newton workspace, and warm-starts each point
/// after a phase's first from that phase's previous solution (DC-sweep
/// continuation). Against an oracle that rebuilds the netlist and
/// cold-starts the public `solve_dc` at every point:
///
/// * wherever the oracle succeeds, the sweep succeeds, and every current
///   agrees within `CURRENT_TOL`;
/// * the sweep fails only where the oracle fails, with the same error (a
///   warm start that misses falls back to the whole cold ladder, so it can
///   only add successes);
/// * the swept output voltages are bit-equal.
mod sweep_continuation {
    use super::design_in_box;
    use mfbo::problem::MultiFidelityProblem;
    use mfbo_circuits::charge_pump::ChargePump;
    use mfbo_circuits::pvt::PvtCorner;
    use mfbo_circuits::spice::dc::solve_dc;
    use mfbo_circuits::spice::SpiceError;
    use proptest::prelude::*;

    /// `ChargePump::new()`'s output-voltage sweep, as fractions of the
    /// corner's supply.
    const SWEEP_FRACTIONS: [f64; 5] = [0.25, 0.375, 0.5, 0.625, 0.75];

    /// Largest |warm − cold| pump current, in amps. Both solves stop at
    /// the same Newton tolerance from different starts; over 300 box
    /// designs × 27 corners × 10 solves the largest difference seen was
    /// 2.1e-16 A (5.6e-11 relative to a 1 µA floor), over three orders
    /// below.
    const CURRENT_TOL: f64 = 1e-12;

    /// Per-point rebuild: `(v_out, I_M1, I_M2)` like `sweep_currents`.
    fn oracle(
        cp: &ChargePump,
        x: &[f64],
        corner: &PvtCorner,
    ) -> Result<Vec<(f64, f64, f64)>, SpiceError> {
        let vdd = cp.vdd_nominal() * corner.supply_factor;
        let mut out = Vec::new();
        for f in SWEEP_FRACTIONS {
            let vout = vdd * f;
            let (c, src) = cp.build_netlist(x, corner, true, vout);
            let i_up = solve_dc(&c)?.branch_current(src).expect("vout branch");
            let (c, src) = cp.build_netlist(x, corner, false, vout);
            let i_dn = -solve_dc(&c)?.branch_current(src).expect("vout branch");
            out.push((vout, i_up, i_dn));
        }
        Ok(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn continuation_sweep_matches_cold_per_point_rebuild(seed in 0u64..u64::MAX) {
            let cp = ChargePump::new();
            let x = design_in_box(&cp.bounds(), seed);
            let grid = PvtCorner::grid_27();
            for idx in [0, 5, 13, 21, 26] {
                let corner = &grid[idx];
                match (cp.sweep_currents(&x, corner), oracle(&cp, &x, corner)) {
                    (Ok(fast), Ok(slow)) => {
                        prop_assert_eq!(fast.len(), slow.len());
                        for (a, b) in fast.iter().zip(&slow) {
                            prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
                            prop_assert!(
                                (a.1 - b.1).abs() <= CURRENT_TOL && (a.2 - b.2).abs() <= CURRENT_TOL,
                                "corner {}, v_out {}: sweep {:?} but oracle {:?}",
                                idx,
                                a.0,
                                (a.1, a.2),
                                (b.1, b.2)
                            );
                        }
                    }
                    (Err(fast), Err(slow)) => prop_assert_eq!(fast, slow),
                    // A warm start may converge where a cold solve does not.
                    (Ok(_), Err(_)) => {}
                    (Err(fast), Ok(_)) => prop_assert!(
                        false,
                        "corner {}: sweep failed with {:?} where the oracle converged",
                        idx,
                        fast
                    ),
                }
            }
        }
    }
}

/// Simulator failures anywhere in the design box (singular MNA matrices,
/// Newton non-convergence) are typed outcomes: `evaluate` maps them to a
/// finite penalty, so it never panics and always returns a finite
/// objective and the problem's number of finite constraints.
mod typed_outcomes {
    use super::design_in_box;
    use mfbo::problem::{Fidelity, MultiFidelityProblem};
    use mfbo_circuits::charge_pump::ChargePump;
    use mfbo_circuits::pa::PowerAmplifier;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    fn check_finite<P: MultiFidelityProblem>(p: &P, seed: u64) -> Result<(), TestCaseError> {
        let x = design_in_box(&p.bounds(), seed);
        for fidelity in [Fidelity::Low, Fidelity::High] {
            let e = p.evaluate(&x, fidelity);
            prop_assert!(
                e.objective.is_finite(),
                "{:?} objective at {:?}",
                fidelity,
                x
            );
            prop_assert_eq!(e.constraints.len(), p.num_constraints());
            prop_assert!(
                e.constraints.iter().all(|c| c.is_finite()),
                "{:?} constraints {:?} at {:?}",
                fidelity,
                e.constraints,
                x
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn charge_pump_outcomes_are_finite_across_the_box(seed in 0u64..u64::MAX) {
            check_finite(&ChargePump::new(), seed)?;
        }

        #[test]
        fn power_amplifier_outcomes_are_finite_across_the_box(seed in 0u64..u64::MAX) {
            check_finite(&PowerAmplifier::new(), seed)?;
        }
    }
}
