//! Netlist representation: nodes, elements, device models, source
//! waveforms.

use std::collections::HashMap;

/// A node index. Ground is always [`Circuit::GND`] (index 0).
pub type NodeId = usize;

/// Independent-source waveform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// `dc + ampl · sin(2π f t + phase)`.
    Sine {
        /// DC offset.
        dc: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency in Hz.
        freq: f64,
        /// Phase in radians.
        phase: f64,
    },
    /// Two-level pulse train.
    Pulse {
        /// Level before `delay` and during the "low" phase.
        low: f64,
        /// Level during the "high" phase.
        high: f64,
        /// Time of the first rising edge.
        delay: f64,
        /// Width of the high phase.
        width: f64,
        /// Repetition period (`0` = single pulse).
        period: f64,
    },
}

impl Waveform {
    /// Value of the waveform at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        match *self {
            Waveform::Dc(v) => v,
            Waveform::Sine {
                dc,
                ampl,
                freq,
                phase,
            } => dc + ampl * (2.0 * std::f64::consts::PI * freq * t + phase).sin(),
            Waveform::Pulse {
                low,
                high,
                delay,
                width,
                period,
            } => {
                if t < delay {
                    return low;
                }
                let tau = if period > 0.0 {
                    (t - delay) % period
                } else {
                    t - delay
                };
                if tau < width {
                    high
                } else {
                    low
                }
            }
        }
    }

    /// The DC (t = 0⁻, sources off transient components) value used for the
    /// operating-point solve.
    pub fn dc_value(&self) -> f64 {
        match *self {
            Waveform::Dc(v) => v,
            Waveform::Sine { dc, .. } => dc,
            Waveform::Pulse { low, .. } => low,
        }
    }
}

/// MOSFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// Level-1 (square-law) MOSFET model card.
///
/// `id(sat) = ½ kp (W/L) (v_gs − v_th)² (1 + λ v_ds)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosModel {
    /// Polarity.
    pub polarity: MosPolarity,
    /// Threshold voltage (positive for NMOS, positive magnitude for PMOS).
    pub vth: f64,
    /// Transconductance parameter `kp = µ C_ox` in A/V².
    pub kp: f64,
    /// Channel-length modulation λ in 1/V.
    pub lambda: f64,
}

impl MosModel {
    /// A generic short-channel-ish NMOS (vth 0.45 V, kp 200 µA/V², λ 0.08).
    pub fn nmos_default() -> Self {
        MosModel {
            polarity: MosPolarity::Nmos,
            vth: 0.45,
            kp: 200e-6,
            lambda: 0.08,
        }
    }
}

/// One circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (must be positive).
        r: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (must be positive).
        c: f64,
    },
    /// Linear inductor between `a` and `b` (adds a branch-current unknown).
    Inductor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance in henries (must be positive).
        l: f64,
    },
    /// Independent voltage source from `p` (+) to `n` (−); adds a
    /// branch-current unknown.
    VSource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source waveform.
        wave: Waveform,
    },
    /// Independent current source pushing current from `p` through the
    /// source into `n` (current flows out of `n` into the circuit).
    ISource {
        /// Terminal the current is drawn from.
        p: NodeId,
        /// Terminal the current is pushed into.
        n: NodeId,
        /// Source waveform (amps).
        wave: Waveform,
    },
    /// Junction diode from anode `a` to cathode `k`.
    Diode {
        /// Anode.
        a: NodeId,
        /// Cathode.
        k: NodeId,
        /// Saturation current in amps.
        is: f64,
        /// Emission coefficient (ideality factor).
        n: f64,
    },
    /// Level-1 MOSFET.
    Mosfet {
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Model card.
        model: MosModel,
        /// Width/length ratio.
        w_over_l: f64,
    },
    /// Voltage-controlled current source (SPICE `G` element):
    /// current `gm · (v(cp) − v(cn))` flows from `a` through the source to
    /// `b`.
    Vccs {
        /// Current exits this terminal into the source.
        a: NodeId,
        /// Current re-enters the circuit here.
        b: NodeId,
        /// Positive controlling node.
        cp: NodeId,
        /// Negative controlling node.
        cn: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// Voltage-controlled voltage source (SPICE `E` element):
    /// `v(p) − v(n) = gain · (v(cp) − v(cn))`; adds a branch-current
    /// unknown.
    Vcvs {
        /// Positive output terminal.
        p: NodeId,
        /// Negative output terminal.
        n: NodeId,
        /// Positive controlling node.
        cp: NodeId,
        /// Negative controlling node.
        cn: NodeId,
        /// Voltage gain.
        gain: f64,
    },
}

/// A circuit netlist under construction.
///
/// Nodes are created by name via [`Circuit::node`]; ground is pre-defined as
/// [`Circuit::GND`]. Elements are appended with the builder-style methods
/// and referenced later by the index those methods return (used to read
/// branch currents out of solutions).
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    elements: Vec<Element>,
    node_names: HashMap<String, NodeId>,
    num_nodes: usize,
}

impl Circuit {
    /// The ground node (always index 0).
    pub const GND: NodeId = 0;

    /// Creates an empty circuit (ground pre-defined).
    pub fn new() -> Self {
        let mut node_names = HashMap::new();
        node_names.insert("0".to_string(), 0);
        Circuit {
            elements: Vec::new(),
            node_names,
            num_nodes: 1,
        }
    }

    /// Returns the node with the given name, creating it if necessary.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_names.get(name) {
            return id;
        }
        let id = self.num_nodes;
        self.num_nodes += 1;
        self.node_names.insert(name.to_string(), id);
        id
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Looks up a node id by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_names.get(name).copied()
    }

    fn push(&mut self, e: Element) -> usize {
        self.elements.push(e);
        self.elements.len() - 1
    }

    /// Adds a resistor; returns its element index.
    ///
    /// # Panics
    ///
    /// Panics if `r <= 0`.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, r: f64) -> usize {
        assert!(r > 0.0, "resistance must be positive");
        self.push(Element::Resistor { a, b, r })
    }

    /// Adds a capacitor; returns its element index.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0`.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, c: f64) -> usize {
        assert!(c > 0.0, "capacitance must be positive");
        self.push(Element::Capacitor { a, b, c })
    }

    /// Adds an inductor; returns its element index.
    ///
    /// # Panics
    ///
    /// Panics if `l <= 0`.
    pub fn inductor(&mut self, a: NodeId, b: NodeId, l: f64) -> usize {
        assert!(l > 0.0, "inductance must be positive");
        self.push(Element::Inductor { a, b, l })
    }

    /// Adds a voltage source; returns its element index.
    pub fn vsource(&mut self, p: NodeId, n: NodeId, wave: Waveform) -> usize {
        self.push(Element::VSource { p, n, wave })
    }

    /// Adds a current source; returns its element index.
    pub fn isource(&mut self, p: NodeId, n: NodeId, wave: Waveform) -> usize {
        self.push(Element::ISource { p, n, wave })
    }

    /// Replaces the waveform of the voltage or current source at `element`,
    /// e.g. to step a DC sweep's source without rebuilding the netlist.
    ///
    /// # Panics
    ///
    /// Panics if `element` is not an independent source.
    pub fn set_source_waveform(&mut self, element: usize, wave: Waveform) {
        match &mut self.elements[element] {
            Element::VSource { wave: w, .. } | Element::ISource { wave: w, .. } => *w = wave,
            _ => panic!("element {element} is not an independent source"),
        }
    }

    /// Adds a diode; returns its element index.
    pub fn diode(&mut self, a: NodeId, k: NodeId, is: f64, n: f64) -> usize {
        assert!(is > 0.0 && n > 0.0, "diode parameters must be positive");
        self.push(Element::Diode { a, k, is, n })
    }

    /// Adds a voltage-controlled current source; returns its element index.
    pub fn vccs(&mut self, a: NodeId, b: NodeId, cp: NodeId, cn: NodeId, gm: f64) -> usize {
        self.push(Element::Vccs { a, b, cp, cn, gm })
    }

    /// Adds a voltage-controlled voltage source; returns its element index.
    pub fn vcvs(&mut self, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gain: f64) -> usize {
        self.push(Element::Vcvs { p, n, cp, cn, gain })
    }

    /// Adds a MOSFET; returns its element index.
    ///
    /// # Panics
    ///
    /// Panics if `w_over_l <= 0`.
    pub fn mosfet(
        &mut self,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        model: MosModel,
        w_over_l: f64,
    ) -> usize {
        assert!(w_over_l > 0.0, "W/L must be positive");
        self.push(Element::Mosfet {
            d,
            g,
            s,
            model,
            w_over_l,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveform_values() {
        assert_eq!(Waveform::Dc(3.3).value(123.0), 3.3);
        let s = Waveform::Sine {
            dc: 1.0,
            ampl: 2.0,
            freq: 1.0,
            phase: 0.0,
        };
        assert!((s.value(0.25) - 3.0).abs() < 1e-12); // peak at quarter period
        assert_eq!(s.dc_value(), 1.0);

        let p = Waveform::Pulse {
            low: 0.0,
            high: 5.0,
            delay: 1.0,
            width: 0.5,
            period: 2.0,
        };
        assert_eq!(p.value(0.5), 0.0); // before delay
        assert_eq!(p.value(1.2), 5.0); // inside first pulse
        assert_eq!(p.value(1.8), 0.0); // after first pulse
        assert_eq!(p.value(3.2), 5.0); // second period
        assert_eq!(p.dc_value(), 0.0);
    }

    #[test]
    fn single_shot_pulse() {
        let p = Waveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 0.0,
            width: 1.0,
            period: 0.0,
        };
        assert_eq!(p.value(0.5), 1.0);
        assert_eq!(p.value(5.0), 0.0);
    }

    #[test]
    fn node_creation_is_idempotent() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.find_node("0"), Some(Circuit::GND));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn element_indices_are_sequential() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        let i0 = c.resistor(n1, Circuit::GND, 10.0);
        let i1 = c.capacitor(n1, Circuit::GND, 1e-9);
        assert_eq!(i0, 0);
        assert_eq!(i1, 1);
        assert_eq!(c.elements().len(), 2);
    }

    #[test]
    fn set_source_waveform_replaces_only_the_source() {
        let mut c = Circuit::new();
        let n = c.node("n");
        let r = c.resistor(n, Circuit::GND, 10.0);
        let v = c.vsource(n, Circuit::GND, Waveform::Dc(1.0));
        c.set_source_waveform(v, Waveform::Dc(2.5));
        assert!(matches!(
            c.elements()[v],
            Element::VSource {
                wave: Waveform::Dc(w),
                ..
            } if w == 2.5
        ));
        assert!(matches!(c.elements()[r], Element::Resistor { r, .. } if r == 10.0));
    }

    #[test]
    #[should_panic(expected = "is not an independent source")]
    fn set_source_waveform_rejects_other_elements() {
        let mut c = Circuit::new();
        let n = c.node("n");
        let r = c.resistor(n, Circuit::GND, 10.0);
        c.set_source_waveform(r, Waveform::Dc(1.0));
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn rejects_zero_resistor() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.resistor(n, Circuit::GND, 0.0);
    }

    #[test]
    fn model_defaults_are_sane() {
        let n = MosModel::nmos_default();
        assert_eq!(n.polarity, MosPolarity::Nmos);
        assert!(n.vth > 0.0 && n.kp > 0.0 && n.lambda >= 0.0);
    }
}
