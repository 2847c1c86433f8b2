//! Seeded input generation and digests.
//!
//! Every input of a study is a pure function of `(seed, study index)`, so a
//! run can be repeated exactly and a claim rechecked on a held-out seed.

use cordoba_accel::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_accel::params::TechTuning;
use cordoba_carbon::fab::ProcessNode;
use cordoba_carbon::units::Bytes;
use std::collections::HashSet;

/// SplitMix64: tiny, fast, and fully specified, so the stream never
/// depends on a dependency's version.
pub struct Rng(u64);

impl Rng {
    /// The generator for one `(seed, stream)` pair; streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over everything fed to it: the input and output-bits digests.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn config(&mut self, c: &AcceleratorConfig) {
        self.str(c.name());
        self.u64(u64::from(c.mac_units()));
        self.f64(c.sram().value());
        self.u64(match c.integration() {
            MemoryIntegration::OnDie => 0,
            MemoryIntegration::Stacked3d { dies } => u64::from(dies),
        });
        let t = c.tuning();
        self.u64(u64::from(t.node.nanometers()));
        self.f64(t.clock.value());
        self.f64(t.mac_energy.value());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One die shape: everything embodied carbon depends on.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    mac_units: u32,
    /// SRAM per memory die, in 1/256 MiB steps.
    sram_steps: u32,
    /// 0 = on-die (2D), otherwise the number of stacked memory dice.
    dies: u32,
    node: usize,
}

/// Draws `n` distinct die shapes: MAC units and SRAM log-uniform over
/// 1..2048 units and 0.5..1024 MiB, integration from {2D, 3D 2-die, 3D
/// 4-die}, and one of the seven process nodes.
fn distinct_shapes(rng: &mut Rng, n: usize) -> Vec<Shape> {
    let mut seen = HashSet::with_capacity(n);
    let mut shapes = Vec::with_capacity(n);
    while shapes.len() < n {
        let shape = Shape {
            mac_units: 2f64.powf(rng.range(0.0, 11.0)).round() as u32,
            sram_steps: (2f64.powf(rng.range(-1.0, 10.0)) * 256.0).round() as u32,
            dies: [0, 2, 4][rng.below(3)],
            node: rng.below(ProcessNode::ALL.len()),
        };
        if seen.insert(shape) {
            shapes.push(shape);
        }
    }
    shapes
}

/// The per-node tunings, built once per set-up.
pub fn node_tunings() -> Vec<TechTuning> {
    ProcessNode::ALL
        .iter()
        .map(|&node| TechTuning::for_node(node))
        .collect()
}

/// Builds the configuration of `shape` under `tuning` (whose node must be
/// the shape's).
fn config(name: String, shape: Shape, tuning: TechTuning) -> AcceleratorConfig {
    let per_die = Bytes::from_mebibytes(f64::from(shape.sram_steps) / 256.0);
    let (sram, integration) = match shape.dies {
        0 => (per_die, MemoryIntegration::OnDie),
        dies => (
            per_die * f64::from(dies),
            MemoryIntegration::Stacked3d { dies },
        ),
    };
    AcceleratorConfig::with_tuning(name, shape.mac_units, sram, integration, tuning)
        .expect("generated shapes have positive MAC units and SRAM")
}

/// One space of distinct shapes, each at its node's reference tuning.
pub fn unique_space(rng: &mut Rng, tunings: &[TechTuning], n: usize) -> Vec<AcceleratorConfig> {
    distinct_shapes(rng, n)
        .into_iter()
        .enumerate()
        .map(|(i, shape)| config(format!("s{i}"), shape, tunings[shape.node]))
        .collect()
}

/// `shapes` die shapes, each at `clocks` DVFS points: clock scaled by
/// 0.5..1.2 of the node's reference and MAC energy by the square of the
/// matching supply-voltage scale. Every point of one shape shares its
/// embodied carbon.
pub fn dvfs_space(
    rng: &mut Rng,
    tunings: &[TechTuning],
    shapes: usize,
    clocks: usize,
) -> Vec<AcceleratorConfig> {
    let mut configs = Vec::with_capacity(shapes * clocks);
    for (i, shape) in distinct_shapes(rng, shapes).into_iter().enumerate() {
        for j in 0..clocks {
            let scale = 0.5 + 0.7 * j as f64 / (clocks - 1) as f64;
            let volts = 0.7 + 0.3 * scale;
            let base = tunings[shape.node];
            let tuning = TechTuning {
                clock: base.clock * scale,
                mac_energy: base.mac_energy * (volts * volts),
                ..base
            };
            configs.push(config(format!("d{i}f{j}"), shape, tuning));
        }
    }
    configs
}
