//! Array → on-chip memory binding.
//!
//! In HLS, a C array becomes BRAM, LUTRAM or registers depending on its
//! size and partitioning. The paper: "The number of heads, tile size, and
//! array partitioning directives in HLS determine how these arrays are
//! divided to create multiple two-port BRAMs." This module computes the
//! bank structure and the memory resources it consumes:
//!
//! * a bank with > [`LUTRAM_MAX_BITS`] bits of data → BRAM18s (18 Kib
//!   each, ≤ 36 bit native port width),
//! * a smaller bank → distributed LUTRAM (SLICEM LUTs, 64 bits each).

use crate::pragma::ArrayPartition;
use protea_platform::ResourceVector;

/// Banks at or below this many bits bind to LUTRAM instead of BRAM.
pub const LUTRAM_MAX_BITS: u64 = 1024;

/// Bits per BRAM18 block.
pub const BRAM18_BITS: u64 = 18 * 1024;

/// A 2-D array as declared in the HLS source.
#[derive(Debug, Clone, Copy)]
pub struct ArraySpec {
    /// Human-readable name for reports (`"W_q"`, `"X_i"`, …).
    pub name: &'static str,
    /// First (row) dimension extent.
    pub rows: u64,
    /// Second (column) dimension extent.
    pub cols: u64,
    /// Element width in bits (8 for the paper's fixed-point data).
    pub elem_bits: u64,
    /// Partitioning of the column dimension (no array of the design
    /// partitions its rows).
    pub col_partition: ArrayPartition,
    /// Replication factor (double buffering = 2).
    pub copies: u64,
}

/// The memory binding of one array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBinding {
    /// Total banks after partitioning (× copies).
    pub banks: u64,
    /// BRAM18 blocks consumed.
    pub bram18: u64,
    /// LUTs consumed by LUTRAM banks.
    pub lutram_luts: u64,
}

impl ArraySpec {
    /// A plain unpartitioned single-copy array.
    #[must_use]
    pub fn new(name: &'static str, rows: u64, cols: u64, elem_bits: u64) -> Self {
        Self { name, rows, cols, elem_bits, col_partition: ArrayPartition::None, copies: 1 }
    }

    /// Set the column partitioning.
    #[must_use]
    pub fn partition_cols(mut self, p: ArrayPartition) -> Self {
        self.col_partition = p;
        self
    }

    /// Replicate (e.g. `2` for double buffering).
    #[must_use]
    pub fn with_copies(mut self, copies: u64) -> Self {
        assert!(copies >= 1);
        self.copies = copies;
        self
    }

    /// Total data bits in one copy.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.rows * self.cols * self.elem_bits
    }

    /// Banks per copy.
    #[must_use]
    pub fn banks_per_copy(&self) -> u64 {
        self.col_partition.banks(self.cols.max(1))
    }

    /// Compute the memory binding.
    #[must_use]
    pub fn bind(&self) -> MemBinding {
        let banks_per_copy = self.banks_per_copy();
        let banks = banks_per_copy * self.copies;
        if self.total_bits() == 0 {
            return MemBinding { banks, bram18: 0, lutram_luts: 0 };
        }
        let bits_per_bank = self.total_bits().div_ceil(banks_per_copy);
        if bits_per_bank <= LUTRAM_MAX_BITS {
            // Distributed RAM: one SLICEM LUT stores 64 bits.
            let luts_per_bank = bits_per_bank.div_ceil(64);
            MemBinding { banks, bram18: 0, lutram_luts: luts_per_bank * banks }
        } else {
            // BRAM18 blocks: capacity-limited and port-width-limited.
            let by_capacity = bits_per_bank.div_ceil(BRAM18_BITS);
            let by_width = self.elem_bits.div_ceil(36);
            MemBinding { banks, bram18: by_capacity.max(by_width) * banks, lutram_luts: 0 }
        }
    }

    /// Resource vector view of the binding.
    #[must_use]
    pub fn resources(&self) -> ResourceVector {
        let b = self.bind();
        ResourceVector { luts: b.lutram_luts, ffs: 0, dsps: 0, bram18: b.bram18, uram: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bank_binds_to_lutram() {
        // W_q per head: 96 × 64 × 8 bit, partitioned complete along cols →
        // 64 banks of 768 bits each → LUTRAM (768 ≤ 1024).
        let spec = ArraySpec::new("W_q", 96, 64, 8).partition_cols(ArrayPartition::Complete);
        let b = spec.bind();
        assert_eq!(b.banks, 64);
        assert_eq!(b.bram18, 0);
        assert_eq!(b.lutram_luts, 64 * 12); // 768/64 = 12 LUTs per bank
    }

    #[test]
    fn large_bank_binds_to_bram() {
        // Unpartitioned 128 × 768 × 8 bit = 786432 bits → 43 BRAM18.
        let spec = ArraySpec::new("buf", 128, 768, 8);
        let b = spec.bind();
        assert_eq!(b.banks, 1);
        assert_eq!(b.bram18, 786_432u64.div_ceil(BRAM18_BITS));
        assert_eq!(b.lutram_luts, 0);
    }

    #[test]
    fn double_buffering_doubles_everything() {
        let single = ArraySpec::new("w", 128, 512, 8).partition_cols(ArrayPartition::Cyclic(4));
        let double = single.with_copies(2);
        assert_eq!(double.bind().banks, single.bind().banks * 2);
        assert_eq!(double.bind().bram18, single.bind().bram18 * 2);
    }

    #[test]
    fn partitioning_trades_bram_for_lutram() {
        let coarse = ArraySpec::new("w", 128, 128, 8);
        let fine = coarse.partition_cols(ArrayPartition::Complete);
        assert!(coarse.bind().bram18 > 0);
        assert_eq!(fine.bind().bram18, 0);
        assert!(fine.bind().lutram_luts > 0);
    }

    #[test]
    fn wide_elements_need_parallel_brams() {
        let spec = ArraySpec::new("acc", 1024, 16, 72); // 72-bit elements
        let b = spec.bind();
        assert!(b.bram18 >= 2, "wide port needs ≥ 2 BRAM18, got {}", b.bram18);
    }

    #[test]
    fn zero_area_array() {
        let spec = ArraySpec::new("empty", 0, 16, 8);
        let b = spec.bind();
        assert_eq!(b.bram18, 0);
        assert_eq!(b.lutram_luts, 0);
    }

    #[test]
    fn resources_vector_matches_binding() {
        let spec = ArraySpec::new("w", 256, 256, 8).partition_cols(ArrayPartition::Cyclic(2));
        let r = spec.resources();
        let b = spec.bind();
        assert_eq!(r.bram18, b.bram18);
        assert_eq!(r.luts, b.lutram_luts);
        assert_eq!(r.dsps, 0);
    }
}
