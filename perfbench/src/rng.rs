//! The benchmark's own random source. Every input the benchmark feeds
//! the program — arrival times, request shapes, activations, KV memory —
//! is drawn here from `--seed`, so no change to the program's generators
//! can change what the benchmark offers it.

use protea_tensor::Matrix;

/// Independent streams under one seed, one per kind of input.
pub mod stream {
    /// Encoder weights and inputs.
    pub const ENCODER: u64 = 1;
    /// Decoder weights, memories and first tokens.
    pub const DECODER: u64 = 2;
    /// Arrival processes of the fleet workloads.
    pub const ARRIVALS: u64 = 3;
    /// GEMM operands of the kernel timings.
    pub const OPERANDS: u64 = 4;
    /// Weight images of the reload-cost timings.
    pub const CLASSES: u64 = 5;
}

/// SplitMix64 (Steele, Lea and Flood, 2014): one 64-bit word of state,
/// an add and two multiply-xorshift rounds per output.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// The generator at a raw state word.
    pub fn from_state(state: u64) -> Self {
        Self { state }
    }

    /// Stream `purpose` under `seed` (see [`stream`]); further `index`es
    /// derive per-run sub-streams.
    pub fn stream(seed: u64, purpose: u64, index: u64) -> Self {
        let mut mix = Self::from_state(seed ^ purpose.wrapping_mul(GOLDEN));
        let mixed = mix.next_u64() ^ index.wrapping_mul(GOLDEN.rotate_left(17));
        Self::from_state(Self::from_state(mixed).next_u64())
    }

    /// The raw state word (a resumable cursor).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never zero, so `-ln(u)` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; the modulo bias is below 2⁻⁴⁰ for the ranges
    /// drawn here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A `rows × cols` matrix of uniform int8 values.
    pub fn matrix(&mut self, rows: usize, cols: usize) -> Matrix<i8> {
        Matrix::from_fn(rows, cols, |_, _| self.next_u64() as i8)
    }
}
