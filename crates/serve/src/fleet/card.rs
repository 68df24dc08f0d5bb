//! Per-card state and the reprogram-and-load step every dispatch
//! flavor shares.
//!
//! Historically the fault-free and fault-injected dispatch paths each
//! carried their own copy of the "same class? otherwise count a
//! reprogram, price the reload DMA, and re-image the weights" block.
//! [`SimModel::prepare_card`] is that block, once — both paths (and any
//! future one) call it, so the reprogram accounting and the trace span
//! it emits can never drift apart.

use super::sim::{record_span, SimModel};
use crate::error::ServeError;
use crate::request::CapacityClass;
use crate::scheduler::Batch;
use protea_core::{Accelerator, CoreError};
use protea_hwsim::SpanKind;
use protea_model::{EncoderConfig, EncoderWeights, QuantSchedule, QuantizedEncoder};
use std::sync::Arc;

/// One simulated ProTEA card: the accelerator instance, which capacity
/// class's weights it currently carries, and its busy accounting.
pub(super) struct Card {
    pub(super) accel: Accelerator,
    pub(super) loaded_class: Option<CapacityClass>,
    pub(super) busy: bool,
    pub(super) busy_ns: u64,
    /// The device's relative throughput weight
    /// ([`FpgaDevice::relative_capacity`](protea_platform::FpgaDevice::relative_capacity)),
    /// read by capacity-aware placement.
    pub(super) capacity: f64,
}

impl SimModel {
    /// Deterministic per-class weight image (cached, and shared by every
    /// card that loads the class; the simulation models weight
    /// *movement*, so contents only matter for the functional mode's
    /// bit-exactness).
    pub(super) fn weights_for(&mut self, class: CapacityClass) -> Arc<QuantizedEncoder> {
        let image = self.weights.entry(class).or_insert_with(|| {
            let cfg = EncoderConfig::new(class.d_model, class.heads, class.layers, 8);
            let seed = 0x5eed
                ^ (class.d_model as u64) << 32
                ^ (class.heads as u64) << 16
                ^ class.layers as u64;
            let weights = EncoderWeights::random(cfg, seed);
            Arc::new(QuantizedEncoder::from_float(&weights, QuantSchedule::paper()))
        });
        Arc::clone(image)
    }

    /// DMA time to re-image a card with `class`'s weights.
    pub(super) fn reload_ns(&self, class: CapacityClass) -> u64 {
        let d = class.d_model as u64;
        let f = 4 * d; // ffn_mult = 4 throughout the serving model
        let per_layer = 4 * d * d + 2 * d * f + (3 * d + d + f + d) * 4;
        let bytes = per_layer * class.layers as u64;
        (bytes as f64 / self.reload_gbps) as u64
    }

    /// Program `card`'s registers for `batch` and ensure it carries the
    /// batch's class weights, counting a reprogram (and pricing the
    /// reload DMA) when the class changed. Returns the reload time in
    /// ns (zero on a warm card). Emits a [`SpanKind::Reprogram`] span
    /// over the reload window when tracing is armed.
    pub(super) fn prepare_card(
        &mut self,
        card: usize,
        batch: &Batch,
        now_ns: u64,
    ) -> Result<u64, ServeError> {
        let class = batch.requests[0].class();
        let warm = self.cards[card].loaded_class == Some(class);
        let reload_ns = if warm {
            0
        } else {
            self.reprograms += 1;
            self.reload_ns(class)
        };
        let weights = (!warm).then(|| self.weights_for(class));
        let c = &mut self.cards[card];
        c.accel.program(batch.runtime).map_err(CoreError::from)?;
        if let Some(w) = weights {
            c.accel.try_load_weights(w)?;
            c.loaded_class = Some(class);
        }
        record_span(
            &mut self.trace,
            format!("reprogram d{} h{} l{}", class.d_model, class.heads, class.layers),
            SpanKind::Reprogram,
            card,
            now_ns,
            now_ns.saturating_add(reload_ns),
        );
        Ok(reload_ns)
    }
}
