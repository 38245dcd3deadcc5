//! The tiled-microkernel dispatch layer.
//!
//! Every matrix product in the workspace — the four dense [`gemm`]
//! transpose combinations and the whole SDD/DSD/DDS block-sparse family —
//! reduces to the same primitive: accumulate `alpha * A * B` into a small
//! rectangle of an output buffer, where `A` and `B` are strided views over
//! dense storage or sparse blocks. This module owns that primitive. Ops
//! keep their topology iteration (which blocks exist, which bands a worker
//! owns) and delegate every inner product to [`block_gemm`], which
//! dispatches to the selected [`GemmMicrokernel`] backend:
//!
//! * [`scalar`] — the reference triple loop, one dot product per output
//!   element. Obviously correct; the baseline every other backend is
//!   proven against.
//! * [`tiled`] — packed A/B panels with `Mc`/`Nc`/`Kc` cache blocking and
//!   an `MR x NR` register tile whose lanes vectorize across output
//!   columns.
//!
//! # Determinism contract
//!
//! Backends are **bit-identical** by construction, not by testing alone:
//! the trait contract fixes, per output element, a single `f32`
//! accumulator filled in ascending-`k` order, with `alpha` applied exactly
//! once after the reduction (`out[i][j] += alpha * Σ_p a[i][p] *
//! b[p][j]`). Cache blocking only *chunks* that reduction — the sequence
//! of binary `f32` additions per element is unchanged — so a backend
//! switch can never change a single bit of any product, and the exec
//! runtime's cross-worker-count determinism guarantee extends across
//! backends. No backend may skip zero operands (adding `0.0` is not a
//! bitwise no-op when `-0.0` is involved) or reassociate the reduction.
//!
//! [`gemm`]: crate::gemm
//!
//! # Backend selection
//!
//! [`configure_kernel_backend`] wins over the `MEGABLOCKS_KERNEL`
//! environment variable (`scalar` or `tiled`), which wins over the
//! default ([`KernelBackend::Tiled`]). Selection is process-global and
//! re-readable at runtime, so benchmarks can flip backends between
//! measurements.

use megablocks_exec::{Setting, SettingValue};
use megablocks_telemetry as telemetry;

pub mod scalar;
pub mod tiled;

pub use scalar::ScalarKernel;
pub use tiled::TiledKernel;

/// A read-only strided view of one GEMM operand.
///
/// Element `(i, p)` lives at `data[i * row_stride + p * col_stride]`.
/// Transposition is a stride swap, a sparse block is a `bs x bs` view with
/// `row_stride = bs, col_stride = 1`, and a column slab of a row-major
/// dense matrix is the slice starting at the slab with the matrix's full
/// row stride — so one view type covers every operand in the workspace
/// without copying.
#[derive(Debug, Clone, Copy)]
pub struct PanelView<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
}

impl<'a> PanelView<'a> {
    /// A view over `data` with the given strides.
    #[inline]
    pub fn new(data: &'a [f32], row_stride: usize, col_stride: usize) -> Self {
        PanelView {
            data,
            row_stride,
            col_stride,
        }
    }

    /// The backing slice.
    #[inline]
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Stride between consecutive logical rows.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Stride between consecutive logical columns.
    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// Element `(i, p)` of the logical operand.
    #[inline]
    pub fn at(&self, i: usize, p: usize) -> f32 {
        self.data[i * self.row_stride + p * self.col_stride]
    }

    /// Whether an `m x k` logical operand fits inside the backing slice.
    #[inline]
    fn covers(&self, m: usize, k: usize) -> bool {
        m == 0 || k == 0 || (m - 1) * self.row_stride + (k - 1) * self.col_stride < self.data.len()
    }
}

/// One GEMM backend.
///
/// # Contract
///
/// `run` must compute, for every `i < m`, `j < n`:
///
/// ```text
/// out[i * out_stride + j] += alpha * (Σ_{p=0..k} a.at(i, p) * b.at(p, j))
/// ```
///
/// where the reduction uses a single `f32` accumulator per output element,
/// filled in ascending `p` order (chunking the reduction is fine —
/// reordering or splitting it is not), `alpha` multiplies the finished sum
/// exactly once, and no term is skipped (not even exact zeros). Every
/// conforming backend is therefore bit-identical to [`ScalarKernel`].
///
/// Callers reach backends through [`block_gemm`], which validates the
/// geometry (operand coverage, output bounds, row disjointness) before
/// dispatch; `run` may assume it.
pub trait GemmMicrokernel: Sync {
    /// Stable backend name (telemetry label, `MEGABLOCKS_KERNEL` value).
    fn name(&self) -> &'static str;

    /// Accumulates `alpha * a * b` into the `m x n` output rectangle.
    // The argument list is the standard GEMM signature (dims, scale, two
    // operands, output + stride); bundling it into a struct would only
    // move the same eight names one level down at every call site.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: PanelView<'_>,
        b: PanelView<'_>,
        out: &mut [f32],
        out_stride: usize,
    );
}

/// The selectable GEMM backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Reference triple loop ([`ScalarKernel`]).
    Scalar,
    /// Packed panels + register tile ([`TiledKernel`]).
    Tiled,
}

impl KernelBackend {
    /// The backend's stable name.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Tiled => "tiled",
        }
    }
}

impl SettingValue for KernelBackend {
    const EXPECTED: &'static str = "\"scalar\" or \"tiled\"";

    /// Parses a `MEGABLOCKS_KERNEL` value.
    fn parse(s: &str) -> Option<KernelBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "tiled" => Some(KernelBackend::Tiled),
            _ => None,
        }
    }

    fn to_bits(self) -> u64 {
        self as u64
    }

    fn from_bits(bits: u64) -> Self {
        if bits == KernelBackend::Scalar as u64 {
            KernelBackend::Scalar
        } else {
            KernelBackend::Tiled
        }
    }
}

/// [`configure_kernel_backend`] > `MEGABLOCKS_KERNEL` (a typo'd name
/// panics rather than silently benchmarking the default) >
/// [`KernelBackend::Tiled`].
static BACKEND: Setting<KernelBackend> =
    Setting::new(Some("MEGABLOCKS_KERNEL"), || KernelBackend::Tiled);

/// Selects the process-wide GEMM backend, overriding `MEGABLOCKS_KERNEL`
/// and the default. Takes effect for every subsequent product (the switch
/// is re-readable at runtime — backends are bit-identical, so flipping
/// mid-run changes speed, never results). Returns the previous selection.
pub fn configure_kernel_backend(backend: KernelBackend) -> KernelBackend {
    BACKEND.set(backend)
}

/// The currently selected backend: [`configure_kernel_backend`] >
/// `MEGABLOCKS_KERNEL` > [`KernelBackend::Tiled`].
pub fn kernel_backend() -> KernelBackend {
    BACKEND.get()
}

static SCALAR: ScalarKernel = ScalarKernel;
static TILED: TiledKernel = TiledKernel;

/// The selected backend's implementation.
pub fn backend_impl() -> &'static dyn GemmMicrokernel {
    match kernel_backend() {
        KernelBackend::Scalar => &SCALAR,
        KernelBackend::Tiled => &TILED,
    }
}

/// Products at or above this many fused multiply-adds record a
/// `kernel.block_gemm` telemetry span; smaller calls (a single sparse
/// block) only count, so per-block dispatch stays cheap.
const SPAN_FLOPS: usize = 1 << 20;

/// The shared entry every matrix product dispatches through: accumulates
/// `alpha * a * b` into the `m x n` rectangle of `out` (rows `out_stride`
/// apart), on the selected backend.
///
/// `a` is logically `m x k`, `b` is `k x n`. When `k == 0` or
/// `alpha == 0.0` the output is untouched (no `+= 0.0` writeback, on
/// every backend alike).
///
/// # Panics
///
/// Panics if either operand view does not cover its logical shape, if the
/// output rectangle overflows `out`, or if `out_stride < n` would alias
/// output rows (with `m > 1`).
// The argument list is the standard GEMM signature; see
// [`GemmMicrokernel::run`].
#[allow(clippy::too_many_arguments)]
pub fn block_gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: PanelView<'_>,
    b: PanelView<'_>,
    out: &mut [f32],
    out_stride: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        a.covers(m, k),
        "block_gemm: A view ({} floats, strides {}x{}) does not cover {m}x{k}",
        a.data.len(),
        a.row_stride,
        a.col_stride
    );
    assert!(
        b.covers(k, n),
        "block_gemm: B view ({} floats, strides {}x{}) does not cover {k}x{n}",
        b.data.len(),
        b.row_stride,
        b.col_stride
    );
    assert!(
        m <= 1 || out_stride >= n,
        "block_gemm: out_stride {out_stride} < n {n} would alias output rows"
    );
    assert!(
        (m - 1) * out_stride + n <= out.len(),
        "block_gemm: {m}x{n} output (stride {out_stride}) overflows {} floats",
        out.len()
    );
    if k == 0 || alpha == 0.0 {
        return;
    }

    let kernel = backend_impl();
    let flops = 2 * m * n * k;
    telemetry::counter_with("kernel.calls", kernel.name()).inc();
    telemetry::counter_with("kernel.flops", kernel.name()).add(flops as u64);
    let _span = if flops >= SPAN_FLOPS {
        Some(telemetry::span("kernel.block_gemm"))
    } else {
        None
    };
    kernel.run(m, n, k, alpha, a, b, out, out_stride);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in [KernelBackend::Scalar, KernelBackend::Tiled] {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
        }
        assert_eq!(
            KernelBackend::parse(" TILED \n"),
            Some(KernelBackend::Tiled)
        );
        assert_eq!(KernelBackend::parse("cuda"), None);
    }

    #[test]
    fn configure_overrides_and_restores() {
        let original = kernel_backend();
        configure_kernel_backend(KernelBackend::Scalar);
        assert_eq!(kernel_backend(), KernelBackend::Scalar);
        let previous = configure_kernel_backend(KernelBackend::Tiled);
        assert_eq!(previous, KernelBackend::Scalar);
        assert_eq!(kernel_backend(), KernelBackend::Tiled);
        configure_kernel_backend(original);
    }

    #[test]
    fn zero_k_and_zero_alpha_leave_output_untouched() {
        let a = [1.0f32; 4];
        let b = [2.0f32; 4];
        let mut out = [-0.0f32; 4];
        block_gemm(
            2,
            2,
            0,
            1.0,
            PanelView::new(&a, 2, 1),
            PanelView::new(&b, 2, 1),
            &mut out,
            2,
        );
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
        block_gemm(
            2,
            2,
            2,
            0.0,
            PanelView::new(&a, 2, 1),
            PanelView::new(&b, 2, 1),
            &mut out,
            2,
        );
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn undersized_operand_panics() {
        let a = [1.0f32; 3];
        let b = [1.0f32; 4];
        let mut out = [0.0f32; 4];
        block_gemm(
            2,
            2,
            2,
            1.0,
            PanelView::new(&a, 2, 1),
            PanelView::new(&b, 2, 1),
            &mut out,
            2,
        );
    }

    #[test]
    #[should_panic(expected = "would alias")]
    fn aliasing_stride_panics() {
        let a = [1.0f32; 4];
        let b = [1.0f32; 4];
        let mut out = [0.0f32; 4];
        block_gemm(
            2,
            2,
            2,
            1.0,
            PanelView::new(&a, 2, 1),
            PanelView::new(&b, 2, 1),
            &mut out,
            1,
        );
    }
}
