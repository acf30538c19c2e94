//! Waveform post-processing: single-bin DFT, harmonic analysis, THD, and
//! power measures.
//!
//! The power-amplifier testbench derives all of its performance figures
//! (output power at the fundamental, efficiency, total harmonic distortion)
//! from these routines, exactly the way a SPICE `.measure`/FFT flow would.

/// Mean of a sampled waveform.
pub fn average(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Root-mean-square of a sampled waveform.
pub fn rms(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|v| v * v).sum::<f64>() / samples.len() as f64).sqrt()
}

/// Peak amplitude of the component at `harmonic × f0` in a
/// waveform sampled at uniform `dt`, analyzed over an integer number of
/// fundamental periods.
///
/// Returns the *peak* amplitude of that harmonic (so a pure
/// `A·sin(2πf0t)` yields `A` at `harmonic = 1`).
///
/// # Panics
///
/// Panics if the window is empty or `harmonic == 0` (use [`average`] for
/// the DC term).
pub fn harmonic_amplitude(samples: &[f64], dt: f64, f0: f64, harmonic: usize) -> f64 {
    assert!(harmonic > 0, "use average() for the DC component");
    assert!(!samples.is_empty(), "empty analysis window");
    let n = samples.len() as f64;
    let w = 2.0 * std::f64::consts::PI * f0 * harmonic as f64;
    let mut re = 0.0;
    let mut im = 0.0;
    for (k, &v) in samples.iter().enumerate() {
        let t = k as f64 * dt;
        re += v * (w * t).cos();
        im += v * (w * t).sin();
    }
    2.0 * (re * re + im * im).sqrt() / n
}

/// Total harmonic distortion in dB:
/// `THD = 20 log10( sqrt(Σ_{k=2..K} A_k²) / A_1 )`.
///
/// Analyzes harmonics 2 through `max_harmonic`. More negative = cleaner;
/// the paper's power-amplifier spec (`thd < 13.65 dB`... reported positive)
/// treats THD as a magnitude ratio — we return dB relative to the
/// fundamental, where 0 dB means distortion as large as the carrier.
///
/// # Panics
///
/// Panics if the fundamental amplitude is zero (degenerate waveform) or
/// `max_harmonic < 2`.
pub fn thd_db(samples: &[f64], dt: f64, f0: f64, max_harmonic: usize) -> f64 {
    assert!(max_harmonic >= 2, "need at least the 2nd harmonic");
    let a1 = harmonic_amplitude(samples, dt, f0, 1);
    assert!(a1 > 0.0, "zero fundamental");
    let mut p = 0.0;
    for k in 2..=max_harmonic {
        let a = harmonic_amplitude(samples, dt, f0, k);
        p += a * a;
    }
    20.0 * (p.sqrt() / a1).log10()
}

/// Average instantaneous power `mean(v·i)` of paired samples.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn average_power(v: &[f64], i: &[f64]) -> f64 {
    assert_eq!(v.len(), i.len(), "power window length mismatch");
    if v.is_empty() {
        return 0.0;
    }
    v.iter().zip(i).map(|(a, b)| a * b).sum::<f64>() / v.len() as f64
}

/// Power in dBm of `watts`.
pub fn to_dbm(watts: f64) -> f64 {
    10.0 * (watts / 1e-3).log10()
}

/// Extracts the last `periods` fundamental periods from a waveform sampled
/// at `dt` (for analyzing only the settled portion of a transient).
///
/// Returns the full waveform if it is shorter than requested.
pub fn settled_window(samples: &[f64], dt: f64, f0: f64, periods: usize) -> &[f64] {
    let per_period = (1.0 / (f0 * dt)).round() as usize;
    let want = per_period * periods;
    if want == 0 || want >= samples.len() {
        samples
    } else {
        &samples[samples.len() - want..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PI: f64 = std::f64::consts::PI;

    fn sine(n: usize, dt: f64, f: f64, a: f64, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|k| a * (2.0 * PI * f * k as f64 * dt + phase).sin())
            .collect()
    }

    #[test]
    fn average_and_rms() {
        assert_eq!(average(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        let s = sine(1000, 1e-3, 1.0, 2.0, 0.0);
        assert!(average(&s).abs() < 1e-12);
        assert!((rms(&s) - 2.0 / 2f64.sqrt()).abs() < 1e-3);
    }

    #[test]
    fn harmonic_amplitude_recovers_pure_tone() {
        let s = sine(1024, 1.0 / 1024.0, 4.0, 1.5, 0.7);
        assert!((harmonic_amplitude(&s, 1.0 / 1024.0, 4.0, 1) - 1.5).abs() < 1e-6);
        // No energy at other harmonics.
        assert!(harmonic_amplitude(&s, 1.0 / 1024.0, 4.0, 2) < 1e-9);
        assert!(harmonic_amplitude(&s, 1.0 / 1024.0, 4.0, 3) < 1e-9);
    }

    #[test]
    fn thd_of_two_tone_mix() {
        // Fundamental 1.0 + 2nd harmonic 0.1 → THD = 20 log10(0.1) = −20 dB.
        let dt = 1.0 / 2048.0;
        let mut s = sine(2048, dt, 2.0, 1.0, 0.0);
        let h2 = sine(2048, dt, 4.0, 0.1, 0.3);
        for (a, b) in s.iter_mut().zip(&h2) {
            *a += b;
        }
        let thd = thd_db(&s, dt, 2.0, 5);
        assert!((thd + 20.0).abs() < 0.1, "thd = {thd}");
    }

    #[test]
    fn power_measures() {
        // v = 2 sin, i = 0.5 sin in phase → P = ½·2·0.5 = 0.5 W.
        let dt = 1.0 / 1000.0;
        let v = sine(1000, dt, 1.0, 2.0, 0.0);
        let i = sine(1000, dt, 1.0, 0.5, 0.0);
        assert!((average_power(&v, &i) - 0.5).abs() < 1e-3);
        assert!((to_dbm(1e-3) - 0.0).abs() < 1e-12);
        assert!((to_dbm(1.0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn settled_window_takes_tail() {
        let s: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // f0 = 0.1 per sample unit, dt = 1 → 10 samples per period.
        let w = settled_window(&s, 1.0, 0.1, 3);
        assert_eq!(w.len(), 30);
        assert_eq!(w[0], 70.0);
        // Longer than available → whole thing.
        let w2 = settled_window(&s, 1.0, 0.1, 50);
        assert_eq!(w2.len(), 100);
    }

    #[test]
    #[should_panic(expected = "DC component")]
    fn harmonic_zero_rejected() {
        let _ = harmonic_amplitude(&[1.0], 1.0, 1.0, 0);
    }
}
