//! HLS pragmas as typed values.

/// `#pragma HLS pipeline` state of a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipeline {
    /// `#pragma HLS pipeline off` — iterations execute back-to-back with
    /// control overhead between them (ProTEA's outer row loops).
    Off,
    /// `#pragma HLS pipeline II = n` — one iteration starts every `n`
    /// cycles once the pipeline fills; all loops nested inside are fully
    /// unrolled by the tool.
    Ii(u32),
}

/// `#pragma HLS array_partition` on one dimension of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayPartition {
    /// No partitioning: one memory.
    None,
    /// `complete` — every element its own register bank.
    Complete,
    /// `cyclic factor=f` — element `i` lives in bank `i mod f`.
    Cyclic(u32),
    /// `block factor=f` — contiguous chunks of `ceil(n/f)` per bank.
    Block(u32),
}

impl ArrayPartition {
    /// Number of banks this partitioning produces for a dimension of
    /// extent `n`.
    #[must_use]
    pub fn banks(self, n: u64) -> u64 {
        match self {
            ArrayPartition::None => 1,
            ArrayPartition::Complete => n.max(1),
            ArrayPartition::Cyclic(f) | ArrayPartition::Block(f) => u64::from(f).clamp(1, n.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_counts() {
        assert_eq!(ArrayPartition::None.banks(64), 1);
        assert_eq!(ArrayPartition::Complete.banks(64), 64);
        assert_eq!(ArrayPartition::Cyclic(8).banks(64), 8);
        assert_eq!(ArrayPartition::Block(8).banks(64), 8);
        // factor larger than extent clamps
        assert_eq!(ArrayPartition::Cyclic(100).banks(64), 64);
    }
}
