//! The host-software driver — the MicroBlaze program's analogue.
//!
//! The paper's flow: models are trained in PyTorch, saved, parsed by "a
//! Python interpreter" for the hyperparameters, and the C++ driver on the
//! µB softcore "utilizes the extracted data to generate instructions and
//! control signals". Here the saved model is a `protea-model` weight
//! blob, the interpreter is [`peek_config`],
//! and the instruction stream is an explicit [`Instruction`] list the
//! accelerator replays.

use crate::accelerator::Accelerator;
use crate::registers::{Reg, RegisterError, RuntimeConfig};
use crate::synthesis::SynthesisConfig;
use protea_model::serialize::{decode, peek_config, DecodeError};
use protea_model::{QuantSchedule, QuantizedEncoder};

/// One controller instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction {
    /// AXI-lite register write.
    WriteReg(Reg, u32),
    /// Point the weight DMA at layer `layer`'s image (`bytes` long).
    LoadWeights {
        /// Layer index.
        layer: u32,
        /// Image size in bytes.
        bytes: u64,
    },
    /// Kick the encoder pipeline.
    Start,
    /// Read back the output buffer.
    ReadOutput,
}

/// Errors the driver can surface.
#[derive(Debug)]
pub enum DriverError {
    /// The model blob failed to parse.
    Decode(DecodeError),
    /// The extracted hyperparameters exceed the synthesized capacity.
    Register(RegisterError),
}

impl core::fmt::Display for DriverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DriverError::Decode(e) => write!(f, "model parse failed: {e}"),
            DriverError::Register(e) => write!(f, "programming rejected: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// The driver: owns the synthesis-time contract it programs against.
#[derive(Debug, Clone, Copy)]
pub struct Driver {
    synthesis: SynthesisConfig,
}

impl Driver {
    /// A driver for one synthesized design.
    #[must_use]
    pub fn new(synthesis: SynthesisConfig) -> Self {
        Self { synthesis }
    }

    /// Extract hyperparameters from a model blob and build the
    /// register + DMA instruction stream ("only minor software
    /// modifications are necessary" to switch models).
    pub fn compile(&self, blob: &[u8]) -> Result<(RuntimeConfig, Vec<Instruction>), DriverError> {
        let cfg = peek_config(blob).map_err(DriverError::Decode)?;
        let rt = RuntimeConfig::from_model(&cfg, &self.synthesis).map_err(DriverError::Register)?;
        // Register-write order matters: every intermediate state must be
        // valid on the AXI-Lite slave, so transit through heads = 1
        // (always divides) before changing dimensions, and set the final
        // head count last.
        let mut prog: Vec<Instruction> = vec![
            Instruction::WriteReg(Reg::Heads, 1),
            Instruction::WriteReg(Reg::DModel, rt.d_model as u32),
            Instruction::WriteReg(Reg::SeqLen, rt.seq_len as u32),
            Instruction::WriteReg(Reg::Layers, rt.layers as u32),
            Instruction::WriteReg(Reg::Heads, rt.heads as u32),
        ];
        // Per-layer weight image: 3 projections + output proj + 2 FFN
        // matrices + biases, at the quantized byte width.
        let d = cfg.d_model as u64;
        let f = cfg.d_ffn() as u64;
        let bytes = 4 * d * d + 2 * d * f + (3 * d + d + f + d) * 4;
        for layer in 0..cfg.layers as u32 {
            prog.push(Instruction::LoadWeights { layer, bytes });
        }
        prog.push(Instruction::Start);
        prog.push(Instruction::ReadOutput);
        Ok((rt, prog))
    }

    /// Full deployment: parse the blob, quantize the weights, program the
    /// accelerator and load the image. Returns the instruction stream it
    /// replayed.
    pub fn deploy(
        &self,
        accel: &mut Accelerator,
        blob: &[u8],
        schedule: QuantSchedule,
    ) -> Result<Vec<Instruction>, DriverError> {
        let (rt, prog) = self.compile(blob)?;
        let weights = decode(blob).map_err(DriverError::Decode)?;
        accel.program(rt).map_err(DriverError::Register)?;
        accel
            .try_load_weights(QuantizedEncoder::from_float(&weights, schedule))
            .map_err(|e| DriverError::Register(RegisterError::Invalid(e.to_string())))?;
        Ok(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protea_model::serialize::encode;
    use protea_model::{EncoderConfig, EncoderWeights};
    use protea_platform::FpgaDevice;
    use protea_tensor::Matrix;

    fn blob(cfg: EncoderConfig, seed: u64) -> Vec<u8> {
        encode(&EncoderWeights::random(cfg, seed)).to_vec()
    }

    #[test]
    fn compile_emits_registers_then_dma_then_start() {
        let d = Driver::new(SynthesisConfig::paper_default());
        let cfg = EncoderConfig::new(256, 4, 3, 16);
        let (rt, prog) = d.compile(&blob(cfg, 5)).unwrap();
        assert_eq!(rt.d_model, 256);
        assert!(matches!(prog[0], Instruction::WriteReg(Reg::Heads, 1)));
        assert!(matches!(prog[4], Instruction::WriteReg(Reg::Heads, 4)));
        let dma_count =
            prog.iter().filter(|i| matches!(i, Instruction::LoadWeights { .. })).count();
        assert_eq!(dma_count, 3);
        assert_eq!(prog[prog.len() - 2], Instruction::Start);
        assert_eq!(prog[prog.len() - 1], Instruction::ReadOutput);
    }

    #[test]
    fn oversized_model_rejected_at_compile() {
        let d = Driver::new(SynthesisConfig::paper_default());
        let cfg = EncoderConfig::new(1536, 8, 1, 16);
        assert!(matches!(d.compile(&blob(cfg, 5)), Err(DriverError::Register(_))));
    }

    #[test]
    fn corrupt_blob_rejected() {
        let d = Driver::new(SynthesisConfig::paper_default());
        assert!(matches!(d.compile(b"garbage"), Err(DriverError::Decode(_))));
    }

    #[test]
    fn deploy_end_to_end() {
        let syn = SynthesisConfig::paper_default();
        let driver = Driver::new(syn);
        let mut accel = Accelerator::try_new(syn, &FpgaDevice::alveo_u55c())
            .expect("design must fit the device");
        let cfg = EncoderConfig::new(96, 4, 1, 8);
        driver.deploy(&mut accel, &blob(cfg, 9), QuantSchedule::paper()).unwrap();
        let x = Matrix::from_fn(8, 96, |r, c| ((r + c) % 50) as i8);
        let out = accel.run(&x);
        assert_eq!(out.output.shape(), (8, 96));
        assert!(out.latency_ms > 0.0);
    }

    #[test]
    fn redeploy_swaps_models_without_resynthesis() {
        let syn = SynthesisConfig::paper_default();
        let driver = Driver::new(syn);
        let mut accel = Accelerator::try_new(syn, &FpgaDevice::alveo_u55c())
            .expect("design must fit the device");
        driver
            .deploy(&mut accel, &blob(EncoderConfig::new(96, 4, 1, 8), 1), QuantSchedule::paper())
            .unwrap();
        let dsps = accel.design().resources.dsps;
        driver
            .deploy(&mut accel, &blob(EncoderConfig::new(256, 8, 2, 16), 2), QuantSchedule::paper())
            .unwrap();
        assert_eq!(accel.runtime().d_model, 256);
        assert_eq!(accel.design().resources.dsps, dsps);
    }
}
