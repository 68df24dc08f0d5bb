//! Published comparator results, transcribed from the paper.

/// A published FPGA accelerator result (one comparator row of Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishedAccelerator {
    /// Citation key as the paper numbers it.
    pub cite: &'static str,
    /// Short name.
    pub name: &'static str,
    /// Arithmetic precision as reported.
    pub precision: &'static str,
    /// FPGA platform.
    pub platform: &'static str,
    /// DSPs used.
    pub dsps: u64,
    /// Reported latency in milliseconds.
    pub latency_ms: f64,
    /// Reported throughput in GOPS.
    pub gops: f64,
    /// Design methodology (HLS / HDL) where stated.
    pub method: &'static str,
    /// Weight sparsity the design exploits (0.0 = dense).
    pub sparsity: f64,
}

impl PublishedAccelerator {
    /// The paper's normalized-throughput metric: `(GOPS/DSP) × 1000`.
    #[must_use]
    pub fn gops_per_dsp_x1000(&self) -> f64 {
        self.gops / self.dsps as f64 * 1000.0
    }

    /// The paper's sparsity-adjustment arithmetic: what a dense design's
    /// latency "would mathematically be" at this row's sparsity
    /// (`l − l·s`, the calculation the paper applies to ProTEA when
    /// comparing against \[21\] and \[29\]).
    #[must_use]
    pub fn sparsity_adjusted(dense_latency_ms: f64, sparsity: f64) -> f64 {
        assert!((0.0..=1.0).contains(&sparsity));
        dense_latency_ms * (1.0 - sparsity)
    }

    /// Table II comparator rows, in the paper's order.
    #[must_use]
    pub fn table2() -> Vec<PublishedAccelerator> {
        vec![
            PublishedAccelerator {
                cite: "[21]",
                name: "Peng et al. (column-balanced block pruning)",
                precision: "-",
                platform: "Alveo U200",
                dsps: 3368,
                latency_ms: 0.32,
                gops: 555.0,
                method: "HDL",
                sparsity: 0.90,
            },
            PublishedAccelerator {
                cite: "[23]",
                name: "Wojcicki et al. (LHC trigger)",
                precision: "Float32",
                platform: "Alveo U250",
                dsps: 4351,
                latency_ms: 1.2,
                gops: 0.0006,
                method: "HLS",
                sparsity: 0.0,
            },
            PublishedAccelerator {
                cite: "[25]",
                name: "EFA-Trans",
                precision: "Int8",
                platform: "ZCU102",
                dsps: 1024,
                latency_ms: 1.47,
                gops: 279.0,
                method: "HDL",
                sparsity: 0.64,
            },
            PublishedAccelerator {
                cite: "[28]",
                name: "Qi et al. (co-optimization framework)",
                precision: "-",
                platform: "Alveo U200",
                dsps: 4145,
                latency_ms: 15.8,
                gops: 75.94,
                method: "-",
                sparsity: 0.0,
            },
            PublishedAccelerator {
                cite: "[29]",
                name: "FTRANS (block-circulant)",
                precision: "Fix16",
                platform: "VCU118",
                dsps: 5647,
                latency_ms: 2.94,
                gops: 60.0,
                method: "-",
                sparsity: 0.93,
            },
        ]
    }
}

/// A published CPU/GPU baseline (Table III rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishedBaseline {
    /// Which TNN model config (1–4, per the paper's numbering).
    pub model: u32,
    /// Source work.
    pub cite: &'static str,
    /// Platform name.
    pub platform: &'static str,
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Reported latency in milliseconds.
    pub latency_ms: f64,
    /// Whether this row is the table's speedup base.
    pub is_base: bool,
}

impl PublishedBaseline {
    /// Table III baseline rows.
    #[must_use]
    pub fn table3() -> Vec<PublishedBaseline> {
        vec![
            PublishedBaseline {
                model: 1,
                cite: "[21]",
                platform: "Intel i5-5257U CPU",
                freq_ghz: 2.7,
                latency_ms: 3.54,
                is_base: true,
            },
            PublishedBaseline {
                model: 1,
                cite: "[21]",
                platform: "Jetson TX2 GPU",
                freq_ghz: 1.3,
                latency_ms: 0.673,
                is_base: false,
            },
            PublishedBaseline {
                model: 2,
                cite: "[23]",
                platform: "NVIDIA Titan XP GPU",
                freq_ghz: 1.4,
                latency_ms: 1.062,
                is_base: true,
            },
            PublishedBaseline {
                model: 3,
                cite: "[25]",
                platform: "Intel i5-4460 CPU",
                freq_ghz: 3.2,
                latency_ms: 4.66,
                is_base: true,
            },
            PublishedBaseline {
                model: 3,
                cite: "[25]",
                platform: "NVIDIA RTX 3060 GPU",
                freq_ghz: 1.3,
                latency_ms: 0.71,
                is_base: false,
            },
            PublishedBaseline {
                model: 4,
                cite: "[28]",
                platform: "NVIDIA Titan XP GPU",
                freq_ghz: 1.4,
                latency_ms: 147.0,
                is_base: true,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_five_comparators() {
        let rows = PublishedAccelerator::table2();
        assert_eq!(rows.len(), 5);
        let cites: Vec<_> = rows.iter().map(|r| r.cite).collect();
        assert_eq!(cites, vec!["[21]", "[23]", "[25]", "[28]", "[29]"]);
    }

    #[test]
    fn gops_per_dsp_matches_paper() {
        // [21]: 555/3368 × 1000 = 164.8 ≈ paper's 164.
        let rows = PublishedAccelerator::table2();
        assert!((rows[0].gops_per_dsp_x1000() - 164.0).abs() < 2.0);
        // [25]: 279/1024 × 1000 = 272.5 ≈ paper's 272.
        assert!((rows[2].gops_per_dsp_x1000() - 272.0).abs() < 2.0);
        // [29]: 60/5647 × 1000 = 10.6 ≈ paper's 11.
        assert!((rows[4].gops_per_dsp_x1000() - 11.0).abs() < 0.6);
    }

    #[test]
    fn sparsity_adjustment_reproduces_paper_arithmetic() {
        // Paper: 4.48 ms at 90 % sparsity → 0.448 ms.
        let adj = PublishedAccelerator::sparsity_adjusted(4.48, 0.90);
        assert!((adj - 0.448).abs() < 1e-12);
        // Paper: 4.48 ms at 93 % → ≈ 0.31 ms.
        let adj93 = PublishedAccelerator::sparsity_adjusted(4.48, 0.93);
        assert!((adj93 - 0.3136).abs() < 1e-9);
    }

    #[test]
    fn table3_speedup_bases() {
        let rows = PublishedBaseline::table3();
        assert_eq!(rows.len(), 6);
        // one base per model
        for m in 1..=4u32 {
            assert_eq!(rows.iter().filter(|r| r.model == m && r.is_base).count(), 1);
        }
        // paper's Jetson speedup: 3.54/0.673 ≈ 5.3×
        assert!((rows[0].latency_ms / rows[1].latency_ms - 5.26).abs() < 0.05);
    }
}
