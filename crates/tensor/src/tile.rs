//! Tiling geometry — the heart of ProTEA's on-chip memory management.
//!
//! The paper partitions weight matrices into tiles that fit in BRAM:
//!
//! * **MHA** (Fig. 5): tiling *only along columns* — "the first dimension
//!   (rows) is already reduced by the number of heads" — so each `d_k ×
//!   d_model` weight is loaded as `d_model / TS_MHA` column strips.
//! * **FFN** (Fig. 6): tiling *along both dimensions*; results accumulate
//!   first along columns, then along rows.
//!
//! [`TileGrid`] enumerates those tiles deterministically in the hardware's
//! load order, and the property tests prove exact cover (every element in
//! exactly one tile), including ragged edges when the dimension is not a
//! multiple of the tile size (the hardware pads; the grid reports true
//! extents so the simulator can skip padded work).

/// One tile of a 2-D iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// First row covered.
    pub r0: usize,
    /// First column covered.
    pub c0: usize,
    /// Rows covered (may be short at a ragged edge).
    pub h: usize,
    /// Columns covered (may be short at a ragged edge).
    pub w: usize,
    /// Row index of this tile in the grid.
    pub tr: usize,
    /// Column index of this tile in the grid.
    pub tc: usize,
}

impl Tile {
    /// Element count.
    #[must_use]
    pub fn area(&self) -> usize {
        self.h * self.w
    }

    /// Whether `(r, c)` falls inside this tile.
    #[must_use]
    pub fn contains(&self, r: usize, c: usize) -> bool {
        r >= self.r0 && r < self.r0 + self.h && c >= self.c0 && c < self.c0 + self.w
    }
}

/// A rectangular tiling of a `rows × cols` space into tiles of at most
/// `tile_h × tile_w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    rows: usize,
    cols: usize,
    tile_h: usize,
    tile_w: usize,
}

impl TileGrid {
    /// Build a grid. Tile dimensions must be nonzero.
    #[must_use]
    pub fn new(rows: usize, cols: usize, tile_h: usize, tile_w: usize) -> Self {
        assert!(tile_h > 0 && tile_w > 0, "tile dimensions must be nonzero");
        Self { rows, cols, tile_h, tile_w }
    }

    /// Tiles along the row dimension (`ceil(rows / tile_h)`).
    #[must_use]
    pub fn tiles_down(&self) -> usize {
        self.rows.div_ceil(self.tile_h)
    }

    /// Tiles along the column dimension (`ceil(cols / tile_w)`).
    #[must_use]
    pub fn tiles_across(&self) -> usize {
        self.cols.div_ceil(self.tile_w)
    }

    /// Total number of tiles (= engine accesses for a weight array).
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles_down() * self.tiles_across()
    }

    /// The tile at grid position `(tr, tc)`.
    #[must_use]
    pub fn tile(&self, tr: usize, tc: usize) -> Tile {
        assert!(tr < self.tiles_down() && tc < self.tiles_across(), "tile index out of range");
        let r0 = tr * self.tile_h;
        let c0 = tc * self.tile_w;
        Tile {
            r0,
            c0,
            h: self.tile_h.min(self.rows - r0),
            w: self.tile_w.min(self.cols - c0),
            tr,
            tc,
        }
    }

    /// Iterate tiles in the hardware load order: row-of-tiles major,
    /// columns within (Fig. 6: "results are first accumulated along the
    /// columns, followed by accumulation along the rows").
    pub fn iter(&self) -> impl Iterator<Item = Tile> + '_ {
        let down = self.tiles_down();
        let across = self.tiles_across();
        (0..down).flat_map(move |tr| (0..across).map(move |tc| self.tile(tr, tc)))
    }

    /// Iterate in column-major tile order (used when the reduction runs
    /// down the shared dimension first).
    pub fn iter_col_major(&self) -> impl Iterator<Item = Tile> + '_ {
        let down = self.tiles_down();
        let across = self.tiles_across();
        (0..across).flat_map(move |tc| (0..down).map(move |tr| self.tile(tr, tc)))
    }

    /// Iteration-space size.
    #[must_use]
    pub fn extent(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division_grid() {
        let g = TileGrid::new(768, 768, 96, 64);
        assert_eq!(g.tiles_down(), 8);
        assert_eq!(g.tiles_across(), 12);
        assert_eq!(g.tile_count(), 96);
        assert!(g.iter().all(|t| t.h == 96 && t.w == 64));
    }

    #[test]
    fn ragged_edges_are_short() {
        let g = TileGrid::new(10, 7, 4, 3);
        assert_eq!(g.tiles_down(), 3);
        assert_eq!(g.tiles_across(), 3);
        let last = g.tile(2, 2);
        assert_eq!((last.h, last.w), (2, 1));
    }

    #[test]
    fn tiles_cover_every_element_exactly_once() {
        for (rows, cols, th, tw) in
            [(10, 7, 4, 3), (1, 1, 5, 5), (64, 768, 64, 64), (13, 17, 13, 17), (5, 9, 2, 4)]
        {
            let g = TileGrid::new(rows, cols, th, tw);
            let mut cover = vec![0u32; rows * cols];
            for t in g.iter() {
                for r in t.r0..t.r0 + t.h {
                    for c in t.c0..t.c0 + t.w {
                        cover[r * cols + c] += 1;
                    }
                }
            }
            assert!(cover.iter().all(|&n| n == 1), "{rows}x{cols}/{th}x{tw}");
            // total area equals iteration space
            let area: usize = g.iter().map(|t| t.area()).sum();
            assert_eq!(area, rows * cols);
        }
    }

    #[test]
    fn col_major_same_tiles_different_order() {
        let g = TileGrid::new(8, 8, 4, 4);
        let mut a: Vec<Tile> = g.iter().collect();
        let mut b: Vec<Tile> = g.iter_col_major().collect();
        assert_ne!(a, b); // different order
        a.sort_by_key(|t| (t.r0, t.c0));
        b.sort_by_key(|t| (t.r0, t.c0));
        assert_eq!(a, b); // same set
    }

    #[test]
    fn mha_grid_is_column_strips() {
        // Per-head weight d_k × d_model = 96 × 768, TS_MHA = 64 → 12 loads.
        // The MHA tiling cuts columns only: one tile spans the full height.
        let g = TileGrid::new(96, 768, 96, 64);
        assert_eq!(g.tile_count(), 12);
        assert!(g.iter().all(|t| t.h == 96));
        assert!(g.iter().all(|t| t.w == 64));
    }

    #[test]
    fn paper_ffn_tile_counts() {
        // FFN1 weight d × d with tiles of d/T: accessed T² = 36 times.
        let d = 768;
        let t = 6;
        let g = TileGrid::new(d, d, d / t, d / t);
        assert_eq!(g.tile_count(), 36);
        // FFN2 weight d × 4d: accessed 4T² = 144 times.
        let g2 = TileGrid::new(d, 4 * d, d / t, d / t);
        assert_eq!(g2.tile_count(), 144);
    }

    #[test]
    fn contains_is_consistent_with_bounds() {
        let g = TileGrid::new(9, 9, 4, 4);
        let t = g.tile(1, 1);
        assert!(t.contains(4, 4));
        assert!(t.contains(7, 7));
        assert!(!t.contains(8, 8));
        assert!(!t.contains(3, 4));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_tile_rejected() {
        let _ = TileGrid::new(4, 4, 0, 2);
    }

    #[test]
    fn empty_space_has_no_tiles() {
        let g = TileGrid::new(0, 5, 2, 2);
        assert_eq!(g.tile_count(), 0);
        assert_eq!(g.iter().count(), 0);
    }
}
