//! Cross-analysis consistency checks of the circuit engine: the same
//! circuit analyzed two different ways must agree. These are the strongest
//! correctness tests an in-house simulator can have short of comparing
//! against a reference SPICE.

use mfbo_circuits::spice::dc::solve_dc;
use mfbo_circuits::spice::transient::{Integrator, Transient};
use mfbo_circuits::spice::{waveform, Circuit, MosModel, Waveform};

/// The settled transient amplitude under a sine drive must equal the
/// analytic RC low-pass magnitude `1/√(1+(2πfRC)²)`.
#[test]
fn transient_matches_analytic_rc_magnitude() {
    let r = 1e3;
    let cap = 1e-9;
    let f = 100e3; // below the 159 kHz pole → partial attenuation

    // Drive with a 1 V sine, measure the settled amplitude via the
    // fundamental DFT bin.
    let mut c = Circuit::new();
    let vin = c.node("in");
    let vout = c.node("out");
    c.vsource(
        vin,
        Circuit::GND,
        Waveform::Sine {
            dc: 0.0,
            ampl: 1.0,
            freq: f,
            phase: 0.0,
        },
    );
    c.resistor(vin, vout, r);
    c.capacitor(vout, Circuit::GND, cap);
    let period = 1.0 / f;
    let dt = period / 256.0;
    let res = Transient::new(dt, 30.0 * period).run(&c).unwrap();
    let v = res.voltage(vout);
    let win = waveform::settled_window(&v, dt, f, 10);
    let mag_tr = waveform::harmonic_amplitude(win, dt, f, 1);

    let wrc = 2.0 * std::f64::consts::PI * f * r * cap;
    let mag_exact = 1.0 / (1.0 + wrc * wrc).sqrt();
    assert!(
        (mag_exact - mag_tr).abs() / mag_exact < 0.01,
        "analytic {mag_exact} vs transient {mag_tr}"
    );
}

/// The transient must settle to the DC solution when sources are constant.
#[test]
fn transient_settles_to_dc_operating_point() {
    // Nonlinear circuit: common-source amplifier with a decoupling cap.
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let d = c.node("d");
    let g = c.node("g");
    c.vsource(vdd, Circuit::GND, Waveform::Dc(1.8));
    c.vsource(g, Circuit::GND, Waveform::Dc(0.75));
    c.resistor(vdd, d, 20e3);
    c.capacitor(d, Circuit::GND, 1e-12);
    c.mosfet(d, g, Circuit::GND, MosModel::nmos_default(), 8.0);

    let dc = solve_dc(&c).unwrap();
    let tr = Transient::new(1e-10, 5e-8).run(&c).unwrap();
    let v_end = *tr.voltage(d).last().unwrap();
    assert!(
        (v_end - dc.voltage(d)).abs() < 1e-6,
        "transient {v_end} vs dc {}",
        dc.voltage(d)
    );
}

/// Trapezoidal and backward Euler must converge to the same waveform as the
/// step shrinks (they differ in damping, not in the limit).
#[test]
fn integrators_agree_in_the_small_step_limit() {
    let build = || {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.vsource(
            vin,
            Circuit::GND,
            Waveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 1e-6,
                width: 1.0,
                period: 0.0,
            },
        );
        c.resistor(vin, vout, 1e3);
        c.capacitor(vout, Circuit::GND, 1e-9);
        (c, vout)
    };
    let (c, vout) = build();
    let fine = 1e-8;
    let t_stop = 1e-5;
    let trap = Transient::new(fine, t_stop).run(&c).unwrap();
    let be = Transient::new(fine, t_stop)
        .with_integrator(Integrator::BackwardEuler)
        .run(&c)
        .unwrap();
    let vt = trap.voltage(vout);
    let vb = be.voltage(vout);
    let max_diff = vt
        .iter()
        .zip(&vb)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff < 5e-3, "max integrator disagreement {max_diff}");
}

/// Energy sanity on the PA testbench: output power never exceeds supply
/// power (efficiency < 100 %) across a spread of designs.
#[test]
fn pa_never_breaks_conservation_of_energy() {
    use mfbo_circuits::pa::{PaFidelity, PowerAmplifier};
    let pa = PowerAmplifier::new();
    let designs = [
        [1.2, 0.44, 5000.0, 0.9, 1.9],
        [0.5, 0.2, 500.0, 0.3, 1.0],
        [10.0, 5.0, 6000.0, 1.0, 2.0],
        [2.0, 1.0, 2000.0, 0.6, 1.5],
    ];
    for d in &designs {
        let m = pa.simulate(d, &PaFidelity::high()).unwrap();
        assert!(
            (0.0..=100.0).contains(&m.eff_percent),
            "eff = {} at {d:?}",
            m.eff_percent
        );
        assert!(m.pout_dbm < 35.0, "pout = {} at {d:?}", m.pout_dbm);
    }
}

/// The charge pump's sourcing and sinking currents must scale with the
/// mirror widths across the full corner set (monotone response to the
/// dominant design variables).
#[test]
fn charge_pump_currents_scale_with_mirror_width() {
    use mfbo_circuits::charge_pump::ChargePump;
    use mfbo_circuits::pvt::PvtCorner;
    let cp = ChargePump::new();
    let base = ChargePump::reference_design();
    let mut bigger = base.clone();
    bigger[0] *= 1.3; // M1 width
    let corner = PvtCorner::typical();
    let i_base: f64 = cp
        .sweep_currents(&base, &corner)
        .unwrap()
        .iter()
        .map(|(_, i1, _)| *i1)
        .sum();
    let i_big: f64 = cp
        .sweep_currents(&bigger, &corner)
        .unwrap()
        .iter()
        .map(|(_, i1, _)| *i1)
        .sum();
    assert!(
        i_big > i_base * 1.1,
        "I(base) = {i_base}, I(1.3x) = {i_big}"
    );
}
