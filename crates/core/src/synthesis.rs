//! Synthesis-time configuration: what is frozen in the bitstream.
//!
//! "The programmable parameters can be adjusted at runtime, whereas the
//! tile size must be set before synthesis, as it cannot be modified
//! without resynthesizing the entire hardware." This module is that
//! boundary: a [`SynthesisConfig`] fixes the tile sizes, head-engine
//! count, maximum dimensions and timing preset; [`synthesize`](SynthesisConfig::synthesize) binds
//! resources on a device and estimates the achievable clock.

use crate::timing::TimingPreset;
use protea_hls::pragma::ArrayPartition;
use protea_hls::{ArraySpec, FunctionalUnitCost, PeCost};
use protea_mem::AxiPort;
use protea_platform::fmax::{CongestionModel, DesignPoint};
use protea_platform::{FpgaDevice, ResourceReport, ResourceVector};

/// Everything fixed at synthesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisConfig {
    /// MHA tile size (`TS_MHA`; paper: 64).
    pub ts_mha: usize,
    /// FFN tile size (`TS_FFN`; paper: 128).
    pub ts_ffn: usize,
    /// Number of head engines synthesized (paper: 8).
    pub heads: usize,
    /// Maximum embedding dimension (`d_model` capacity; paper: 768).
    pub d_max: usize,
    /// Maximum sequence length (Table I exercises up to 128).
    pub sl_max: usize,
    /// Unroll width of `SV_CE`'s sequence reduction (the Table I DSP
    /// budget implies 64 — see `protea-hls::cost`).
    pub sl_unroll: usize,
    /// Data width in bits (8 = the paper's fixed-point format).
    pub data_bits: u32,
    /// Engine timing parameters.
    pub timing: TimingPreset,
    /// AXI master port configuration for weight/input streaming.
    pub axi: AxiPort,
    /// DMA masters sharing each HBM channel (1 = dedicated channels,
    /// the calibrated default; >1 models a constrained platform where
    /// the weight streams contend — see `mem::arbiter`).
    pub dma_sharing: u32,
}

impl SynthesisConfig {
    /// Start a validated builder seeded with the paper's design point.
    ///
    /// ```
    /// use protea_core::SynthesisConfig;
    /// let syn = SynthesisConfig::builder().heads(8).d_max(512).sl_max(128).build().unwrap();
    /// assert_eq!(syn.dk_max(), 64);
    /// ```
    #[must_use]
    pub fn builder() -> SynthesisConfigBuilder {
        SynthesisConfigBuilder { cfg: Self::paper_default() }
    }

    /// The paper's synthesized design point.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            ts_mha: 64,
            ts_ffn: 128,
            heads: 8,
            d_max: 768,
            sl_max: 128,
            sl_unroll: 64,
            data_bits: 8,
            timing: TimingPreset::paper(),
            axi: AxiPort::new(256),
            dma_sharing: 1,
        }
    }

    /// A design point from tile *counts* (Fig. 7's axes): `tiles_mha`
    /// tiles in MHA, `tiles_ffn` in FFN, everything else as the paper.
    ///
    /// # Panics
    /// Panics if the tile counts do not divide `d_max`.
    #[must_use]
    pub fn with_tile_counts(tiles_mha: usize, tiles_ffn: usize) -> Self {
        let base = Self::paper_default();
        assert!(
            tiles_mha > 0 && base.d_max.is_multiple_of(tiles_mha),
            "tiles_mha ({tiles_mha}) must divide d_max ({})",
            base.d_max
        );
        assert!(
            tiles_ffn > 0 && base.d_max.is_multiple_of(tiles_ffn),
            "tiles_ffn ({tiles_ffn}) must divide d_max ({})",
            base.d_max
        );
        Self { ts_mha: base.d_max / tiles_mha, ts_ffn: base.d_max / tiles_ffn, ..base }
    }

    /// Number of MHA tiles (`d_max / TS_MHA`): fixed loop count.
    #[must_use]
    pub fn tiles_mha(&self) -> usize {
        self.d_max.div_ceil(self.ts_mha)
    }

    /// Number of FFN tiles along `d` (`d_max / TS_FFN`).
    #[must_use]
    pub fn tiles_ffn(&self) -> usize {
        self.d_max.div_ceil(self.ts_ffn)
    }

    /// Synthesized per-head dimension capacity (`d_max / heads`).
    #[must_use]
    pub fn dk_max(&self) -> usize {
        self.d_max / self.heads
    }

    /// PE counts per engine, from the unroll widths of Algorithms 1–4.
    /// Order: QKV (all heads), QK, SV, FFN1, FFN2, FFN3.
    #[must_use]
    pub fn pe_breakdown(&self) -> [(&'static str, u64); 6] {
        let h = self.heads as u64;
        [
            ("QKV_CE", h * 3 * self.ts_mha as u64),
            ("QK_CE", h * self.dk_max() as u64),
            ("SV_CE", h * self.sl_unroll as u64),
            ("FFN1_CE", self.ts_ffn as u64),
            ("FFN2_CE", self.ts_ffn as u64),
            ("FFN3_CE", 4 * self.ts_ffn as u64),
        ]
    }

    /// Total PEs.
    #[must_use]
    pub fn pe_total(&self) -> u64 {
        self.pe_breakdown().iter().map(|(_, n)| n).sum()
    }

    /// The widest unrolled reduction (per engine unroll widths) — the
    /// Fmax model's width input.
    #[must_use]
    pub fn max_unroll_width(&self) -> u64 {
        [
            3 * self.ts_mha as u64, // three parallel chains in QKV_CE
            self.dk_max() as u64,
            self.sl_unroll as u64,
            self.ts_ffn as u64,
            4 * self.ts_ffn as u64,
        ]
        .into_iter()
        .max()
        .unwrap_or(1)
    }

    /// On-chip arrays of the design (Figs. 3–4): per-head weight and
    /// activation buffers, FFN weight tiles, intermediate buffers. All
    /// streamed buffers are double-buffered.
    #[must_use]
    // The buffer list reads as a build-up of named pushes, one per
    // hardware array; a vec![] literal would bury the structure.
    #[allow(clippy::vec_init_then_push)]
    pub fn arrays(&self) -> Vec<ArraySpec> {
        let eb = u64::from(self.data_bits);
        let h = self.heads as u64;
        let dk = self.dk_max() as u64;
        let ts_m = self.ts_mha as u64;
        let ts_f = self.ts_ffn as u64;
        let sl = self.sl_max as u64;
        let d = self.d_max as u64;
        let mut v = Vec::new();
        // Per-head MHA buffers (replicated h times via copies).
        v.push(
            ArraySpec::new("W_q", dk, ts_m, eb)
                .partition_cols(ArrayPartition::Complete)
                .with_copies(2 * h),
        );
        v.push(
            ArraySpec::new("W_k", dk, ts_m, eb)
                .partition_cols(ArrayPartition::Complete)
                .with_copies(2 * h),
        );
        v.push(
            ArraySpec::new("W_v", dk, ts_m, eb)
                .partition_cols(ArrayPartition::Complete)
                .with_copies(2 * h),
        );
        v.push(
            ArraySpec::new("X_i", sl, ts_m, eb)
                .partition_cols(ArrayPartition::Complete)
                .with_copies(2 * h),
        );
        // Q/K/V intermediate buffers (SL × dk per head).
        for name in ["Q_buf", "K_buf", "V_buf"] {
            v.push(
                ArraySpec::new(name, sl, dk, eb)
                    .partition_cols(ArrayPartition::Cyclic(16))
                    .with_copies(h),
            );
        }
        // Attention weight matrix S (SL × SL per head).
        v.push(
            ArraySpec::new("S_buf", sl, sl, eb)
                .partition_cols(ArrayPartition::Cyclic(16))
                .with_copies(h),
        );
        // FFN weight tiles (double buffered).
        v.push(
            ArraySpec::new("W_ffn1", ts_f, ts_f, eb)
                .partition_cols(ArrayPartition::Complete)
                .with_copies(2),
        );
        v.push(
            ArraySpec::new("W_ffn2", ts_f, ts_f, eb)
                .partition_cols(ArrayPartition::Complete)
                .with_copies(2),
        );
        v.push(
            ArraySpec::new("W_ffn3", ts_f, ts_f, eb)
                .partition_cols(ArrayPartition::Complete)
                .with_copies(2),
        );
        // Layer-wide activation buffers: attention out / x1 (SL × d) and
        // the FFN hidden (SL × 4d).
        v.push(ArraySpec::new("attn_buf", sl, d, eb).partition_cols(ArrayPartition::Cyclic(8)));
        v.push(ArraySpec::new("x1_buf", sl, d, eb).partition_cols(ArrayPartition::Cyclic(8)));
        v.push(
            ArraySpec::new("hidden_buf", sl, 4 * d, eb).partition_cols(ArrayPartition::Cyclic(8)),
        );
        v
    }

    /// Resource demand of the whole design.
    #[must_use]
    pub fn resources(&self) -> ResourceVector {
        let mut total = PeCost::calibrated().times(self.pe_total());
        total += FunctionalUnitCost::softmax_unit().times(self.heads as u64);
        total += FunctionalUnitCost::layernorm_unit().times(2);
        total += FunctionalUnitCost::base_infrastructure().resources();
        for a in self.arrays() {
            total += a.resources();
        }
        total
    }

    /// Automatic design-space search: find the fastest feasible
    /// configuration for `device` and `workload`, shrinking head-engine
    /// count and tile sizes as the device demands (the ZCU102 cannot hold
    /// the U55C design point). Greedy but exhaustive over the divisor
    /// lattice; returns `None` if even the smallest candidate overflows.
    #[must_use]
    pub fn fit_to_device(
        device: &FpgaDevice,
        workload: &protea_model::EncoderConfig,
    ) -> Option<SynthesizedDesign> {
        let base = Self::paper_default();
        let mut best: Option<(f64, SynthesizedDesign)> = None;
        for d_max in [768usize, 512, 384, 256] {
            if workload.d_model > d_max {
                continue;
            }
            for heads in [8usize, 4, 2, 1] {
                if workload.heads > heads || d_max % heads != 0 {
                    continue;
                }
                for ts_mha in [64usize, 32, 16] {
                    if d_max % ts_mha != 0 {
                        continue;
                    }
                    for ts_ffn in [128usize, 64, 32] {
                        if d_max % ts_ffn != 0 {
                            continue;
                        }
                        for sl_unroll in [64usize, 32] {
                            let cand = Self {
                                heads,
                                d_max,
                                ts_mha,
                                ts_ffn,
                                sl_unroll,
                                sl_max: base.sl_max.max(workload.seq_len),
                                ..base
                            };
                            let design = cand.synthesize(device);
                            if !design.feasible {
                                continue;
                            }
                            let Ok(rt) =
                                crate::registers::RuntimeConfig::from_model(workload, &cand)
                            else {
                                continue;
                            };
                            let cycles = estimate_workload_cycles(&cand, &rt);
                            let ms = cycles as f64 / (design.fmax_mhz * 1e3);
                            if best.as_ref().is_none_or(|(b, _)| ms < *b) {
                                best = Some((ms, design));
                            }
                        }
                    }
                }
            }
        }
        best.map(|(_, d)| d)
    }

    /// Synthesize onto a device: bind resources, estimate Fmax.
    #[must_use]
    pub fn synthesize(&self, device: &FpgaDevice) -> SynthesizedDesign {
        let resources = self.resources();
        let report = resources.utilization_of(&device.budget);
        let point = DesignPoint {
            lut_frac: report.lut_frac,
            max_unroll_width: self.max_unroll_width(),
            tile_product: (self.tiles_mha() * self.tiles_ffn()) as u64,
        };
        let est = CongestionModel::paper_calibrated().estimate(device, &point);
        SynthesizedDesign {
            config: *self,
            device: *device,
            resources,
            report,
            fmax_mhz: est.fmax_mhz,
            feasible: est.feasible && report.feasible(),
        }
    }
}

/// Builds a [`SynthesisConfig`] with structural validation at
/// [`build`](Self::build) time, so a bad tile size or head count is an
/// error value instead of a downstream panic. Unset fields keep the
/// paper design point's values.
#[derive(Debug, Clone)]
pub struct SynthesisConfigBuilder {
    cfg: SynthesisConfig,
}

impl SynthesisConfigBuilder {
    /// MHA tile size (`TS_MHA`).
    #[must_use]
    pub fn ts_mha(mut self, v: usize) -> Self {
        self.cfg.ts_mha = v;
        self
    }

    /// FFN tile size (`TS_FFN`).
    #[must_use]
    pub fn ts_ffn(mut self, v: usize) -> Self {
        self.cfg.ts_ffn = v;
        self
    }

    /// Number of head engines.
    #[must_use]
    pub fn heads(mut self, v: usize) -> Self {
        self.cfg.heads = v;
        self
    }

    /// Maximum embedding dimension.
    #[must_use]
    pub fn d_max(mut self, v: usize) -> Self {
        self.cfg.d_max = v;
        self
    }

    /// Maximum sequence length.
    #[must_use]
    pub fn sl_max(mut self, v: usize) -> Self {
        self.cfg.sl_max = v;
        self
    }

    /// `SV_CE` sequence-reduction unroll width.
    #[must_use]
    pub fn sl_unroll(mut self, v: usize) -> Self {
        self.cfg.sl_unroll = v;
        self
    }

    /// Engine timing parameters.
    #[must_use]
    pub fn timing(mut self, v: TimingPreset) -> Self {
        self.cfg.timing = v;
        self
    }

    /// AXI master port for weight/input streaming.
    #[must_use]
    pub fn axi(mut self, v: AxiPort) -> Self {
        self.cfg.axi = v;
        self
    }

    /// DMA masters sharing each HBM channel.
    #[must_use]
    pub fn dma_sharing(mut self, v: u32) -> Self {
        self.cfg.dma_sharing = v;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`](crate::CoreError::InvalidConfig) when any field is zero, the head
    /// count does not divide `d_max`, or a tile size does not divide
    /// `d_max` (the frozen loop counts would misprice a ragged final
    /// tile).
    pub fn build(self) -> Result<SynthesisConfig, crate::error::CoreError> {
        let c = self.cfg;
        let invalid = |m: String| Err(crate::error::CoreError::InvalidConfig(m));
        for (name, v) in [
            ("ts_mha", c.ts_mha),
            ("ts_ffn", c.ts_ffn),
            ("heads", c.heads),
            ("d_max", c.d_max),
            ("sl_max", c.sl_max),
            ("sl_unroll", c.sl_unroll),
        ] {
            if v == 0 {
                return invalid(format!("{name} must be nonzero"));
            }
        }
        if c.data_bits == 0 || c.dma_sharing == 0 {
            return invalid("data_bits and dma_sharing must be nonzero".into());
        }
        if !c.d_max.is_multiple_of(c.heads) {
            return invalid(format!("heads ({}) must divide d_max ({})", c.heads, c.d_max));
        }
        if c.ts_mha > c.d_max || !c.d_max.is_multiple_of(c.ts_mha) {
            return invalid(format!("ts_mha ({}) must divide d_max ({})", c.ts_mha, c.d_max));
        }
        if c.ts_ffn > c.d_max || !c.d_max.is_multiple_of(c.ts_ffn) {
            return invalid(format!("ts_ffn ({}) must divide d_max ({})", c.ts_ffn, c.d_max));
        }
        Ok(c)
    }
}

/// Rough per-inference cycle estimate used by the design-space search
/// (compute terms only — ranking, not reporting; the full co-simulation
/// prices the chosen point).
fn estimate_workload_cycles(syn: &SynthesisConfig, rt: &crate::registers::RuntimeConfig) -> u64 {
    let t = &syn.timing;
    let sl = rt.seq_len as u64;
    let dk = rt.dk() as u64;
    let rounds = (rt.heads as u64).div_ceil(syn.heads as u64).max(1);
    let mha = syn.tiles_mha() as u64 * t.qkv_tile_cycles(sl, dk)
        + t.qk_cycles(sl, dk, syn.dk_max() as u64)
        + t.softmax_cycles(sl)
        + t.sv_cycles(sl, dk, syn.sl_unroll as u64);
    let tf = syn.tiles_ffn() as u64;
    let w = rt.ffn_tile_width(syn) as u64;
    let ffn = tf * tf * t.ffn_access_cycles(sl, w)
        + 4 * tf * tf * t.ffn_access_cycles(sl, w)
        + 4 * tf * tf * t.ffn_access_cycles(sl, (rt.d_model as u64).div_ceil(4 * tf));
    let ln = 2 * t.ln_cycles(sl, rt.d_model as u64);
    rt.layers as u64 * (mha * rounds + ffn + ln)
}

impl SynthesizedDesign {
    /// A Vitis-style synthesis report: per-engine PEs, II, and the
    /// per-access latency at the synthesized maximum dimensions —
    /// the table an HLS user reads after a run.
    #[must_use]
    pub fn report_text(&self) -> String {
        use core::fmt::Write as _;
        let syn = &self.config;
        let t = &syn.timing;
        let sl = 64.min(syn.sl_max) as u64; // representative row count
        let dk = syn.dk_max() as u64;
        let rows: [(&str, u64, u32, u64, usize); 6] = [
            (
                "QKV_CE (x heads)",
                3 * syn.ts_mha as u64,
                t.ii_mha,
                t.qkv_tile_cycles(sl, dk),
                syn.tiles_mha(),
            ),
            ("QK_CE  (x heads)", dk, t.ii_mha, t.qk_cycles(sl, dk, dk), 1),
            (
                "SV_CE  (x heads)",
                syn.sl_unroll as u64,
                t.ii_mha,
                t.sv_cycles(sl, dk, syn.sl_unroll as u64),
                1,
            ),
            (
                "FFN1_CE",
                syn.ts_ffn as u64,
                t.ii_ffn,
                t.ffn_access_cycles(sl, syn.ts_ffn as u64),
                syn.tiles_ffn().pow(2),
            ),
            (
                "FFN2_CE",
                syn.ts_ffn as u64,
                t.ii_ffn,
                t.ffn_access_cycles(sl, syn.ts_ffn as u64),
                4 * syn.tiles_ffn().pow(2),
            ),
            (
                "FFN3_CE",
                4 * syn.ts_ffn as u64,
                t.ii_ffn,
                t.ffn_access_cycles(sl, syn.ts_ffn as u64 / 4),
                4 * syn.tiles_ffn().pow(2),
            ),
        ];
        let mut out = String::new();
        let _ = writeln!(out, "== Synthesis report: ProTEA on {} ==", self.device.name);
        let _ = writeln!(
            out,
            "   TS_MHA={} TS_FFN={} heads={} d_max={} sl_max={}",
            syn.ts_mha, syn.ts_ffn, syn.heads, syn.d_max, syn.sl_max
        );
        let _ = writeln!(out, "   Fmax {:.1} MHz | {}", self.fmax_mhz, self.report);
        let _ = writeln!(
            out,
            "   {:<18} {:>6} {:>4} {:>16} {:>10}",
            "engine", "PEs", "II", "cycles/access", "accesses"
        );
        for (name, pes, ii, cyc, acc) in rows {
            let _ = writeln!(out, "   {name:<18} {pes:>6} {ii:>4} {cyc:>16} {acc:>10}");
        }
        out
    }
}

/// The result of synthesis: a bound design on a device.
#[derive(Debug, Clone)]
pub struct SynthesizedDesign {
    /// The synthesis parameters.
    pub config: SynthesisConfig,
    /// The target device.
    pub device: FpgaDevice,
    /// Total resources demanded.
    pub resources: ResourceVector,
    /// Utilization vs the device.
    pub report: ResourceReport,
    /// Achievable clock (MHz) from the congestion model.
    pub fmax_mhz: f64,
    /// Whether the design fits.
    pub feasible: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_tile_counts() {
        let s = SynthesisConfig::paper_default();
        assert_eq!(s.tiles_mha(), 12);
        assert_eq!(s.tiles_ffn(), 6);
        assert_eq!(s.dk_max(), 96);
    }

    #[test]
    fn pe_total_matches_paper_reconstruction() {
        let s = SynthesisConfig::paper_default();
        assert_eq!(s.pe_total(), 3584);
        let map: std::collections::HashMap<_, _> = s.pe_breakdown().into_iter().collect();
        assert_eq!(map["QKV_CE"], 1536);
        assert_eq!(map["FFN3_CE"], 512);
    }

    #[test]
    fn dsp_count_matches_table1() {
        let s = SynthesisConfig::paper_default();
        assert_eq!(s.resources().dsps, 3612);
    }

    #[test]
    fn lut_ff_near_table1() {
        // LUTs include honest LUTRAM for the weight banks on top of the
        // calibrated per-PE cost, so allow a band around the published
        // 993107 / 704115.
        let r = SynthesisConfig::paper_default().resources();
        let lut_err = (r.luts as f64 - 993_107.0).abs() / 993_107.0;
        assert!(lut_err < 0.10, "luts = {} ({:.1}% off)", r.luts, lut_err * 100.0);
        assert_eq!(r.ffs, 704_115);
    }

    #[test]
    fn synthesis_on_u55c_is_feasible_near_200mhz() {
        let d = FpgaDevice::alveo_u55c();
        let syn = SynthesisConfig::paper_default().synthesize(&d);
        assert!(syn.feasible);
        assert!((syn.fmax_mhz - 200.0).abs() < 15.0, "fmax = {:.1}", syn.fmax_mhz);
        assert!((syn.report.dsp_frac - 0.40).abs() < 0.01);
    }

    #[test]
    fn fig7_optimum_is_12_by_6() {
        // Sweep the Fig. 7 axes: every divisor-valid tile count pair.
        let d = FpgaDevice::alveo_u55c();
        let mha_counts = [6usize, 8, 12, 16, 24, 48];
        let ffn_counts = [2usize, 3, 4, 6];
        let mut best = (0usize, 0usize, 0f64);
        for &tm in &mha_counts {
            for &tf in &ffn_counts {
                let syn = SynthesisConfig::with_tile_counts(tm, tf).synthesize(&d);
                if syn.feasible && syn.fmax_mhz > best.2 {
                    best = (tm, tf, syn.fmax_mhz);
                }
            }
        }
        assert_eq!((best.0, best.1), (12, 6), "fmax optimum at {best:?}");
    }

    #[test]
    fn with_tile_counts_round_trips() {
        let s = SynthesisConfig::with_tile_counts(12, 6);
        assert_eq!(s.ts_mha, 64);
        assert_eq!(s.ts_ffn, 128);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn non_divisor_tile_count_rejected() {
        let _ = SynthesisConfig::with_tile_counts(7, 6);
    }

    #[test]
    fn report_text_names_every_engine() {
        let design = SynthesisConfig::paper_default().synthesize(&FpgaDevice::alveo_u55c());
        let text = design.report_text();
        for engine in ["QKV_CE", "QK_CE", "SV_CE", "FFN1_CE", "FFN2_CE", "FFN3_CE"] {
            assert!(text.contains(engine), "missing {engine}");
        }
        assert!(text.contains("TS_MHA=64"));
        assert!(text.contains("Fmax"));
    }

    #[test]
    fn fit_to_device_scales_down_to_zcu102() {
        // EFA-Trans's board: the paper design point does not fit, but a
        // shrunk ProTEA does — automatically found.
        let workload = protea_model::EncoderConfig::new(256, 2, 2, 64);
        let zcu = FpgaDevice::zcu102();
        assert!(!SynthesisConfig::paper_default().synthesize(&zcu).feasible);
        let fitted = SynthesisConfig::fit_to_device(&zcu, &workload)
            .expect("a shrunk design must fit the ZCU102");
        assert!(fitted.feasible);
        assert!(fitted.resources.fits_within(&zcu.budget));
        assert!(fitted.config.d_max >= 256);
    }

    #[test]
    fn fit_to_device_picks_paper_point_on_u55c() {
        // On the paper's own board with the paper workload, the search
        // lands on the published design point's tile sizes.
        let fitted = SynthesisConfig::fit_to_device(
            &FpgaDevice::alveo_u55c(),
            &protea_model::EncoderConfig::paper_test1(),
        )
        .unwrap();
        assert_eq!(fitted.config.ts_mha, 64);
        assert_eq!(fitted.config.ts_ffn, 128);
        assert_eq!(fitted.config.heads, 8);
    }

    #[test]
    fn fit_to_device_none_when_impossible() {
        // A workload larger than every candidate capacity.
        let huge = protea_model::EncoderConfig::new(1536, 8, 1, 64);
        assert!(SynthesisConfig::fit_to_device(&FpgaDevice::zcu102(), &huge).is_none());
    }

    #[test]
    fn builder_defaults_to_paper_point() {
        let built = SynthesisConfig::builder().build().unwrap();
        assert_eq!(built, SynthesisConfig::paper_default());
    }

    #[test]
    fn builder_applies_setters() {
        let s = SynthesisConfig::builder().heads(4).d_max(512).sl_max(256).build().unwrap();
        assert_eq!((s.heads, s.d_max, s.sl_max), (4, 512, 256));
        assert_eq!(s.dk_max(), 128);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        use crate::error::CoreError;
        let cases: [(&str, super::SynthesisConfigBuilder); 4] = [
            ("zero heads", SynthesisConfig::builder().heads(0)),
            ("heads not dividing d_max", SynthesisConfig::builder().heads(7)),
            ("non-divisor ts_mha", SynthesisConfig::builder().ts_mha(100)),
            (
                "ts_ffn wider than d_max",
                SynthesisConfig::builder().d_max(96).ts_mha(96).ts_ffn(96).sl_unroll(0),
            ),
        ];
        for (what, b) in cases {
            let err = b.build().expect_err(what);
            assert!(matches!(err, CoreError::InvalidConfig(_)), "{what}: {err:?}");
        }
    }

    #[test]
    fn bram_demand_nonzero_and_fits() {
        let s = SynthesisConfig::paper_default();
        let r = s.resources();
        assert!(r.bram18 > 0);
        assert!(r.fits_within(&FpgaDevice::alveo_u55c().budget), "{r}");
    }
}
