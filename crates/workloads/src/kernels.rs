//! Real compute kernels, moldable SPMD-style: each participant of a
//! width-`w` place calls the kernel with its `rank`, and the kernel
//! partitions rows `rank, rank + w, rank + 2w, …` (cyclic) so any width
//! yields the same result.
//!
//! These are the executable counterparts of the three synthetic-DAG node
//! types of §4.2.2.

/// A square f32 tile, row-major — the unit of work of the MatMul kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct Tile {
    n: usize,
    data: Vec<f32>,
}

impl Tile {
    /// A zero tile of side `n`.
    pub fn zero(n: usize) -> Self {
        Tile {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// A tile filled by `f(row, col)`.
    pub fn from_fn(n: usize, f: impl Fn(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        Tile { n, data }
    }

    /// Element access.
    pub(crate) fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.n + j]
    }

    /// Mutable element access.
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.n + j] = v;
    }
}

/// `C[rows rank::width] += A·B` — one participant's share of a tiled
/// GEMM. Rows are distributed cyclically so widths 1, 2 and 4 partition
/// evenly.
///
/// # Panics
/// Panics if tile sizes disagree or `rank >= width`.
pub fn matmul_rows(a: &Tile, b: &Tile, c: &mut Tile, rank: usize, width: usize) {
    assert!(rank < width, "rank {rank} out of width {width}");
    let n = a.n;
    assert_eq!(b.n, n);
    assert_eq!(c.n, n);
    for i in (rank..n).step_by(width) {
        for k in 0..n {
            let aik = a.get(i, k);
            for j in 0..n {
                let v = c.get(i, j) + aik * b.get(k, j);
                c.set(i, j, v);
            }
        }
    }
}

/// Full sequential GEMM (reference for tests).
pub fn matmul_ref(a: &Tile, b: &Tile) -> Tile {
    let mut c = Tile::zero(a.n);
    matmul_rows(a, b, &mut c, 0, 1);
    c
}

/// One 5-point Jacobi sweep over this participant's cyclic share of the
/// interior rows: `out = 0.25 (N + S + E + W)`. Boundary rows are copied
/// through unchanged by rank 0.
///
/// # Panics
/// Panics if the grids disagree in size, have fewer than 3 rows/cols, or
/// `rank >= width`.
pub(crate) fn stencil_rows(
    input: &[f64],
    out: &mut [f64],
    rows: usize,
    cols: usize,
    rank: usize,
    width: usize,
) {
    assert!(rank < width);
    assert_eq!(input.len(), rows * cols);
    assert_eq!(out.len(), rows * cols);
    assert!(rows >= 3 && cols >= 3, "stencil needs a 3x3 interior");
    if rank == 0 {
        out[..cols].copy_from_slice(&input[..cols]);
        out[(rows - 1) * cols..].copy_from_slice(&input[(rows - 1) * cols..]);
        for r in 1..rows - 1 {
            out[r * cols] = input[r * cols];
            out[r * cols + cols - 1] = input[r * cols + cols - 1];
        }
    }
    for r in (1 + rank..rows - 1).step_by(width) {
        let (above, rest) = input[(r - 1) * cols..(r + 2) * cols].split_at(cols);
        let (here, below) = rest.split_at(cols);
        crate::heat::row(above, here, below, &mut out[r * cols..(r + 1) * cols]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tile::from_fn(8, |i, j| (i * 8 + j) as f32);
        let id = Tile::from_fn(8, |i, j| if i == j { 1.0 } else { 0.0 });
        let c = matmul_ref(&a, &id);
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_partitioned_equals_reference() {
        let a = Tile::from_fn(16, |i, j| ((i + 2 * j) % 7) as f32);
        let b = Tile::from_fn(16, |i, j| ((3 * i + j) % 5) as f32);
        let reference = matmul_ref(&a, &b);
        for width in [1, 2, 4] {
            let mut c = Tile::zero(16);
            for rank in 0..width {
                matmul_rows(&a, &b, &mut c, rank, width);
            }
            assert_eq!(c, reference, "width {width}");
        }
    }

    #[test]
    fn stencil_partitioned_equals_reference() {
        let rows = 10;
        let cols = 12;
        let input: Vec<f64> = (0..rows * cols).map(|x| (x % 13) as f64).collect();
        let mut reference = vec![0.0; rows * cols];
        stencil_rows(&input, &mut reference, rows, cols, 0, 1);
        for width in [2, 3, 4] {
            let mut out = vec![0.0; rows * cols];
            for rank in 0..width {
                stencil_rows(&input, &mut out, rows, cols, rank, width);
            }
            assert_eq!(out, reference, "width {width}");
        }
    }

    #[test]
    fn stencil_averages_neighbours() {
        // A grid that is 0 everywhere except a single hot interior cell;
        // its four neighbours receive a quarter of it.
        let (rows, cols) = (5, 5);
        let mut input = vec![0.0; rows * cols];
        input[2 * cols + 2] = 4.0;
        let mut out = vec![0.0; rows * cols];
        stencil_rows(&input, &mut out, rows, cols, 0, 1);
        assert_eq!(out[cols + 2], 1.0);
        assert_eq!(out[3 * cols + 2], 1.0);
        assert_eq!(out[2 * cols + 1], 1.0);
        assert_eq!(out[2 * cols + 3], 1.0);
        assert_eq!(out[2 * cols + 2], 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_rank_panics() {
        let a = Tile::zero(4);
        let b = Tile::zero(4);
        let mut c = Tile::zero(4);
        matmul_rows(&a, &b, &mut c, 2, 2);
    }
}
