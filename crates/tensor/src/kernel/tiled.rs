//! The tiled backend: packed panels, cache blocking, register tiles.
//!
//! Classic three-level blocking (BLIS-style): the output is processed in
//! `MC x NC` rectangles, the reduction dimension in `KC` chunks. For each
//! chunk, the A panel is packed into `MR`-row strips (strip-major,
//! `p`-innermost) and the B panel into `NR`-column strips, so the
//! microkernel streams both with unit stride regardless of the operands'
//! original strides or transposition. The `MR x NR` register tile
//! accumulates with one scalar per output element while its `NR` lanes
//! vectorize *across output columns* — vectorizing the `k` reduction
//! itself would reassociate float additions and break the bit-exactness
//! contract, but independent output elements in parallel lanes do not.
//!
//! Bit-exactness with [`ScalarKernel`] falls out of the accumulator
//! discipline: each output element's partial sum lives in the packed
//! accumulator tile across `KC` chunks, so the per-element sequence of
//! `f32` additions is exactly the ascending-`k` order the contract
//! prescribes, and `alpha` is applied once at writeback. Edge tiles are
//! zero-padded in the packed panels and the padded lanes discarded at
//! writeback; the padding multiplies into accumulators that are never
//! read, so it cannot perturb any retained element.
//!
//! Packing buffers and the accumulator tile come from the exec runtime's
//! thread-local [`workspace`] arena — each band of a launch plan packs
//! into its own worker's recycled buffers, so steady-state products
//! allocate nothing.
//!
//! [`workspace`]: megablocks_exec::workspace

use megablocks_exec::workspace;

use super::scalar::ScalarKernel;
use super::{GemmMicrokernel, PanelView};

/// Register-tile rows.
pub const MR: usize = 4;
/// Register-tile columns (the autovectorized lanes).
pub const NR: usize = 8;
/// Row cache block (multiple of `MR`).
const MC: usize = 64;
/// Column cache block (multiple of `NR`).
const NC: usize = 128;
/// Reduction cache block.
const KC: usize = 256;

/// Products below this many fused multiply-adds delegate to the scalar
/// backend: packing would cost more than it saves on a tiny tile, and the
/// contract makes the results bit-identical either way.
const SMALL_MULADDS: usize = 1 << 14;

/// The packed/tiled backend.
#[derive(Debug, Default)]
pub struct TiledKernel;

impl GemmMicrokernel for TiledKernel {
    fn name(&self) -> &'static str {
        "tiled"
    }

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
    ) {
        if m * n * k < SMALL_MULADDS {
            return ScalarKernel.run(m, n, k, alpha, a, b, out, out_stride);
        }
        run_blocked(m, n, k, alpha, a, b, out, out_stride);
    }
}

/// The blocked path proper, with no size cutoff — separated from
/// [`TiledKernel::run`] so tests can drive the packing machinery on
/// shapes below the scalar-delegation threshold.
#[allow(clippy::too_many_arguments)]
fn run_blocked(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: PanelView<'_>,
    b: PanelView<'_>,
    out: &mut [f32],
    out_stride: usize,
) {
    // Sized to the problem, not to the largest tile: a 16x16 sparse block
    // must not pay for (and zero) a 64x256 pack buffer. Nothing below
    // depends on the zero-fill — `pack_*` writes every lane the
    // microkernel reads and `acc` is cleared per output tile.
    let mc_max = MC.min(m.div_ceil(MR) * MR);
    let nc_max = NC.min(n.div_ceil(NR) * NR);
    let kc_max = KC.min(k);
    let mut a_pack = workspace::take_zeroed(mc_max * kc_max);
    let mut b_pack = workspace::take_zeroed(kc_max * nc_max);
    let mut acc = workspace::take_zeroed(mc_max * nc_max);

    'tiles: for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nc_pad = nc.div_ceil(NR) * NR;
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            let mc_pad = mc.div_ceil(MR) * MR;
            acc[..mc_pad * nc_pad].fill(0.0);
            for kc0 in (0..k).step_by(KC) {
                // Cooperative cancellation point, once per packed
                // `MC x NC x KC` chunk (millions of muladds, so the poll
                // — one thread-local read when no context is installed —
                // is free at kernel granularity). A cancelled launch's
                // output is discarded with the launch error, so bailing
                // mid-accumulation cannot be observed.
                if megablocks_exec::cancel::poll_cancelled() {
                    break 'tiles;
                }
                let kc = KC.min(k - kc0);
                pack_a(&mut a_pack, &a, ic, mc, mc_pad, kc0, kc);
                pack_b(&mut b_pack, &b, jc, nc, nc_pad, kc0, kc);
                for t in 0..nc_pad / NR {
                    let b_strip = &b_pack[t * kc * NR..(t + 1) * kc * NR];
                    for s in 0..mc_pad / MR {
                        let a_strip = &a_pack[s * kc * MR..(s + 1) * kc * MR];
                        micro(
                            a_strip,
                            b_strip,
                            &mut acc[s * MR * nc_pad + t * NR..],
                            nc_pad,
                        );
                    }
                }
            }
            for i in 0..mc {
                let arow = &acc[i * nc_pad..i * nc_pad + nc];
                let o0 = (ic + i) * out_stride + jc;
                for (o, &v) in out[o0..o0 + nc].iter_mut().zip(arow) {
                    *o += alpha * v;
                }
            }
        }
    }

    workspace::recycle(acc);
    workspace::recycle(b_pack);
    workspace::recycle(a_pack);
}

/// Packs rows `[ic, ic + mc)` x columns `[kc0, kc0 + kc)` of `a` into
/// `MR`-row strips: strip `s`, element `(p, ii)` lands at
/// `s * kc * MR + p * MR + ii`. Rows past `mc` (edge padding up to
/// `mc_pad`) are zero-filled.
fn pack_a(
    dst: &mut [f32],
    a: &PanelView<'_>,
    ic: usize,
    mc: usize,
    mc_pad: usize,
    kc0: usize,
    kc: usize,
) {
    let data = a.data();
    let (rs, cs) = (a.row_stride(), a.col_stride());
    for s in 0..mc_pad / MR {
        let strip = &mut dst[s * kc * MR..(s + 1) * kc * MR];
        for ii in 0..MR {
            let row = s * MR + ii;
            if row >= mc {
                for p in 0..kc {
                    strip[p * MR + ii] = 0.0;
                }
                continue;
            }
            let mut src = (ic + row) * rs + kc0 * cs;
            for p in 0..kc {
                strip[p * MR + ii] = data[src];
                src += cs;
            }
        }
    }
}

/// Packs rows `[kc0, kc0 + kc)` x columns `[jc, jc + nc)` of `b` into
/// `NR`-column strips: strip `t`, element `(p, jj)` lands at
/// `t * kc * NR + p * NR + jj`. Columns past `nc` are zero-filled.
fn pack_b(
    dst: &mut [f32],
    b: &PanelView<'_>,
    jc: usize,
    nc: usize,
    nc_pad: usize,
    kc0: usize,
    kc: usize,
) {
    let data = b.data();
    let (rs, cs) = (b.row_stride(), b.col_stride());
    for t in 0..nc_pad / NR {
        let strip = &mut dst[t * kc * NR..(t + 1) * kc * NR];
        let cols = NR.min(nc.saturating_sub(t * NR));
        for p in 0..kc {
            let row = &mut strip[p * NR..(p + 1) * NR];
            let mut src = (kc0 + p) * rs + (jc + t * NR) * cs;
            for v in row.iter_mut().take(cols) {
                *v = data[src];
                src += cs;
            }
            for v in row.iter_mut().skip(cols) {
                *v = 0.0;
            }
        }
    }
}

/// The register-tile microkernel: continues the `MR x NR` accumulator
/// tile at `acc[.. stride ..]` through one packed `kc` chunk. The local
/// tile is loaded from `acc`, updated in ascending-`p` order (one `f32`
/// accumulator per element — the `jj` lanes are independent elements, so
/// the compiler may vectorize across them without reassociating any
/// element's reduction), and stored back.
#[inline]
fn micro(a_strip: &[f32], b_strip: &[f32], acc: &mut [f32], stride: usize) {
    let mut tile = [[0.0f32; NR]; MR];
    for (ii, row) in tile.iter_mut().enumerate() {
        row.copy_from_slice(&acc[ii * stride..ii * stride + NR]);
    }
    for (av, bv) in a_strip.chunks_exact(MR).zip(b_strip.chunks_exact(NR)) {
        for (ii, row) in tile.iter_mut().enumerate() {
            let a = av[ii];
            for (jj, v) in row.iter_mut().enumerate() {
                *v += a * bv[jj];
            }
        }
    }
    for (ii, row) in tile.iter().enumerate() {
        acc[ii * stride..ii * stride + NR].copy_from_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::super::KernelBackend;
    use super::*;

    fn lcg_fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    /// Bit-exactness against the scalar oracle across shapes straddling
    /// every blocking edge (tile, register strip, reduction chunk).
    #[test]
    fn bit_identical_to_scalar_across_blocking_edges() {
        let shapes = [
            (1usize, 1usize, 1usize),
            (MR, NR, 3),
            (MR + 1, NR + 3, KC + 7),
            (MC, NC, 64),
            (MC + 5, NC + 17, KC + 1),
            (3, 200, 50),
            (130, 90, 70),
        ];
        for &(m, n, k) in &shapes {
            let a = lcg_fill(m * k, 1 + m as u64);
            let b = lcg_fill(k * n, 2 + n as u64);
            let mut want = lcg_fill(m * n, 3);
            let mut got = want.clone();
            let alpha = 0.75f32;
            ScalarKernel.run(
                m,
                n,
                k,
                alpha,
                PanelView::new(&a, k, 1),
                PanelView::new(&b, n, 1),
                &mut want,
                n,
            );
            // run_blocked directly: exercises the packing machinery even
            // on shapes below the scalar-delegation threshold.
            run_blocked(
                m,
                n,
                k,
                alpha,
                PanelView::new(&a, k, 1),
                PanelView::new(&b, n, 1),
                &mut got,
                n,
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "m={m} n={n} k={k}: element {i} differs ({g} vs {w})"
                );
            }
        }
    }

    #[test]
    fn strided_and_transposed_views_match_scalar() {
        let (m, n, k) = (70, 40, 90);
        let a = lcg_fill(k * m, 11); // stored k x m => view A^T
        let b = lcg_fill(n * k, 12); // stored n x k => view B^T
        let av = PanelView::new(&a, 1, m);
        let bv = PanelView::new(&b, 1, k);
        let mut want = vec![0.0f32; m * n];
        let mut got = vec![0.0f32; m * n];
        ScalarKernel.run(m, n, k, 1.0, av, bv, &mut want, n);
        TiledKernel.run(m, n, k, 1.0, av, bv, &mut got, n);
        assert!(
            got.iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits()),
            "transposed views diverged from scalar"
        );
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(TiledKernel.name(), KernelBackend::Tiled.name());
        assert_eq!(ScalarKernel.name(), KernelBackend::Scalar.name());
    }
}
