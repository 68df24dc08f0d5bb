//! The weight image of the host datapath, packed once per load.
//!
//! `Accelerator::forward_functional` runs every projection on the
//! packed microkernel (`protea_tensor::pack`), so each weight matrix is
//! transposed into column-major strips once, at the first functional
//! run after a weight load, and reused by every later run. Integer
//! accumulation is permutation-invariant, so the packed path returns
//! the golden model's bytes exactly; root `tests/equivalence.rs` pins
//! that across shapes, batches and every dispatchable kernel ISA.

use protea_model::QuantizedEncoder;
use protea_tensor::PackedWeights;

/// One layer's weight matrices, transposed/packed for the fast kernel.
#[derive(Debug, Clone)]
pub(crate) struct PackedLayer {
    pub wq: PackedWeights,
    pub wk: PackedWeights,
    pub wv: PackedWeights,
    pub wo: PackedWeights,
    pub w1: PackedWeights,
    pub w2: PackedWeights,
}

/// The whole encoder image packed once at `try_load_weights` — the
/// host-side analogue of the DMA engine reordering the DDR weight image
/// into BRAM-friendly strips before inference starts.
#[derive(Debug, Clone)]
pub(crate) struct PackedEncoder {
    pub layers: Vec<PackedLayer>,
}

impl PackedEncoder {
    /// Pack every projection matrix of every layer.
    #[must_use]
    pub fn pack(weights: &QuantizedEncoder) -> Self {
        let layers = weights
            .layers
            .iter()
            .map(|l| PackedLayer {
                wq: PackedWeights::pack(&l.wq.data),
                wk: PackedWeights::pack(&l.wk.data),
                wv: PackedWeights::pack(&l.wv.data),
                wo: PackedWeights::pack(&l.wo.data),
                w1: PackedWeights::pack(&l.w1.data),
                w2: PackedWeights::pack(&l.w2.data),
            })
            .collect();
        Self { layers }
    }
}
