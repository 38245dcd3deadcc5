//! The tiled routine: packed panels, cache blocking, register tiles.
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
//! Bit-exactness with [`scalar`] falls out of the accumulator
//! discipline: each output element's partial sum lives in the packed
//! accumulator tile across `KC` chunks, so the per-element sequence of
//! `f32` additions is exactly the ascending-`k` order the contract
//! prescribes, and `alpha` is applied once at writeback. Edge tiles are
//! zero-padded in the packed panels and the padded lanes discarded at
//! writeback; the padding multiplies into accumulators that are never
//! read, so it cannot perturb any retained element.
//!
//! [`run`] picks its routine from what it can observe, never from a
//! setting: [`scalar`]'s loop below [`SMALL_MULADDS`], else the blocked
//! routine, written once, generic over `MR x NR`, and instantiated per
//! instruction set (`Variant`): `4 x 8` at the build's default target
//! features and, on x86-64, `4 x 16` under `avx2` — picked per call by
//! CPU detection and never with `fma`, so every variant rounds exactly as
//! [`scalar`] does, on every machine. A product of fewer than four rows
//! (a decode step, an expert holding a few tokens) runs `few_rows` in the
//! same variant instead: no packed panel and no zero row, B read where it
//! lies, down one `W`-column strip at a time into local accumulators that
//! are written back once (only a transposed B and a partial last strip
//! are packed).
//!
//! Packing buffers and the accumulator tile come from the exec runtime's
//! thread-local [`workspace`] arena — each band of a launch plan packs
//! into its own worker's shelved buffers, which go back when dropped, so
//! steady-state products allocate nothing.
//!
//! [`scalar`]: super::scalar
//! [`workspace`]: megablocks_exec::workspace

use std::cell::Cell;
use std::sync::Once;

use megablocks_exec::cancel::poll_cancelled;
use megablocks_exec::workspace::{self, Buffer};
use megablocks_telemetry as telemetry;

use super::scalar::dot_products;
use super::{OutView, PanelView};

/// Row cache block (a multiple of every variant's `MR`).
const MC: usize = 64;
/// Column cache block (a multiple of every variant's `NR`).
const NC: usize = 128;
/// Reduction cache block.
const KC: usize = 256;
/// Height of every variant's register tile; fewer rows run [`few_rows`].
const TILE_ROWS: usize = 4;
/// [`few_rows`]'s strip width at one row and at two or three rows
/// (sweep in EXPERIMENTS.md).
const ONE_ROW_W: usize = 64;
const FEW_ROWS_W: usize = 32;

/// Products below this many multiply-adds (`m * n * k`) run
/// [`scalar`](super::scalar)'s loop: a call's fixed cost outweighs the
/// work, and the contract makes the results bit-identical either way.
/// Measured crossover (EXPERIMENTS.md): from `2^11` up the blocked path
/// wins at every shape with `m` = 1..16 on the AVX2 variant. Re-swept at
/// `m` = 1–3 against [`few_rows`]: below it a product whose columns fill
/// a strip still wins and one that packs a partial strip (a router's 8
/// columns) loses, so the constant stays.
const SMALL_MULADDS: usize = 1 << 11;

/// Accumulates `alpha * a * b` into `out` on views
/// [`block_gemm`](super::block_gemm) has checked: [`SMALL_MULADDS`]
/// decides between the scalar loop and the detected [`Variant`].
pub(super) fn run(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: PanelView<'_>,
    b: PanelView<'_>,
    out: OutView<'_>,
) {
    if m * n * k < SMALL_MULADDS {
        return dot_products(m, n, k, alpha, a, b, out);
    }
    let variant = Variant::detect();
    // So a run's summary and JSONL export name their microkernel.
    static RECORDED: Once = Once::new();
    RECORDED.call_once(|| telemetry::counter_with("kernel.variant", variant.name()).inc());
    variant.run_blocked(m, n, k, alpha, a, b, out);
}

/// The instantiations of the one blocked routine: per instruction set,
/// the register tile its lanes hold without spilling (sweep in DESIGN
/// §12). All are bit-identical to [`scalar`](super::scalar); the choice
/// is speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Variant {
    /// `4 x 8` at the build's default target features (128-bit lanes on
    /// baseline x86-64); the only variant on other architectures.
    Baseline,
    /// `4 x 16` compiled for 256-bit lanes: `avx2`, never `fma`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Variant {
    /// Every variant this build contains, widest first.
    pub(crate) const ALL: &'static [Variant] = &[
        #[cfg(target_arch = "x86_64")]
        Variant::Avx2,
        Variant::Baseline,
    ];

    /// Whether the running CPU can execute this variant.
    pub(crate) fn supported(self) -> bool {
        match self {
            Variant::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Variant::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        }
    }

    /// The widest supported variant (a cached atomic load per call).
    pub(crate) fn detect() -> Variant {
        let widest = Variant::ALL.iter().copied().find(|v| v.supported());
        widest.unwrap_or(Variant::Baseline)
    }

    /// Stable name: instruction set and register tile.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline-4x8",
            #[cfg(target_arch = "x86_64")]
            Variant::Avx2 => "avx2-4x16",
        }
    }

    /// The blocked path proper, with no size cutoff — separated from
    /// [`run`] so tests can drive each variant's machinery
    /// on shapes below the scalar-delegation threshold. Panics if the
    /// running CPU does not support the variant.
    #[allow(
        clippy::too_many_arguments,
        reason = "`block_gemm`'s seven arguments plus the variant it dispatches on"
    )]
    pub(crate) fn run_blocked(
        self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: PanelView<'_>,
        b: PanelView<'_>,
        out: OutView<'_>,
    ) {
        assert!(self.supported(), "{}: unsupported CPU", self.name());
        match self {
            Variant::Baseline => by_rows::<8>(m, n, k, alpha, a, b, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported` was just asserted, and for this variant
            // it is `is_x86_feature_detected!("avx2")` — the one feature
            // `by_rows_avx2` enables.
            Variant::Avx2 => unsafe { by_rows_avx2(m, n, k, alpha, a, b, out) },
        }
    }
}

/// [`by_rows`] at `NR = 16`, compiled for 256-bit lanes together with
/// everything `#[inline(always)]` into it. `fma` is deliberately not
/// enabled: with no fused instruction available the compiler cannot
/// contract `acc + a * b`, so each lane rounds the product and the sum
/// separately, as the 128-bit and scalar forms do.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn by_rows_avx2(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: PanelView<'_>,
    b: PanelView<'_>,
    out: OutView<'_>,
) {
    by_rows::<16>(m, n, k, alpha, a, b, out);
}

/// One variant's product: [`few_rows`] under [`TILE_ROWS`] rows, so no
/// zero row is multiplied (an element depends only on its own row of A:
/// no bit moves), else [`run_blocked`] at the `TILE_ROWS x NR` tile.
#[inline(always)]
fn by_rows<const NR: usize>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: PanelView<'_>,
    b: PanelView<'_>,
    out: OutView<'_>,
) {
    match m {
        1 => few_rows::<1, ONE_ROW_W>(n, k, alpha, a, b, out),
        2 => few_rows::<2, FEW_ROWS_W>(n, k, alpha, a, b, out),
        3 => few_rows::<3, FEW_ROWS_W>(n, k, alpha, a, b, out),
        _ => run_blocked::<NR>(m, n, k, alpha, a, b, out),
    }
}

/// The blocked routine at the `TILE_ROWS x NR` register tile (`NR` the
/// autovectorized lanes); instantiated only by [`by_rows`].
#[inline(always)]
fn run_blocked<const NR: usize>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: PanelView<'_>,
    b: PanelView<'_>,
    mut out: OutView<'_>,
) {
    const MR: usize = TILE_ROWS;
    const { assert!(MC.is_multiple_of(MR) && NC.is_multiple_of(NR)) };
    // Sized to the problem, not to the largest tile: a small rectangle
    // must not pay for (and zero) a 64x256 pack buffer. Nothing below
    // depends on the zero-fill — `pack_*` writes every lane the
    // microkernel reads and `acc` is cleared per output tile.
    let mc_max = MC.min(m.div_ceil(MR) * MR);
    let nc_max = NC.min(n.div_ceil(NR) * NR);
    let kc_max = KC.min(k);
    let mut a_pack = workspace::take_zeroed(mc_max * kc_max);
    let mut b_pack = workspace::take_zeroed(kc_max * nc_max);
    let mut acc = workspace::take_zeroed(mc_max * nc_max);
    // A reduction of one `KC` chunk has one B panel per column block,
    // whatever the row block: pack it once, ahead of the rows. If the
    // rows are one `MC` block as well (an expert's tokens, a prefill)
    // there is one A panel for the whole product: pack it up front.
    let b_once = k <= KC;
    let a_once = b_once && m <= MC;
    if a_once {
        pack_a::<MR>(&mut a_pack, &a, 0, m, mc_max, 0, k);
    }

    'tiles: for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nc_pad = nc.div_ceil(NR) * NR;
        if b_once {
            pack_b::<NR>(&mut b_pack, &b, jc, nc, nc_pad, 0, k);
        }
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
                if poll_cancelled() {
                    break 'tiles;
                }
                let kc = KC.min(k - kc0);
                if !a_once {
                    pack_a::<MR>(&mut a_pack, &a, ic, mc, mc_pad, kc0, kc);
                }
                if !b_once {
                    pack_b::<NR>(&mut b_pack, &b, jc, nc, nc_pad, kc0, kc);
                }
                for t in 0..nc_pad / NR {
                    let b_strip = &b_pack[t * kc * NR..(t + 1) * kc * NR];
                    for s in 0..mc_pad / MR {
                        let a_strip = &a_pack[s * kc * MR..(s + 1) * kc * MR];
                        micro::<MR, NR>(
                            a_strip,
                            b_strip,
                            &mut acc[s * MR * nc_pad + t * NR..],
                            nc_pad,
                        );
                    }
                }
            }
            // Writeback scatters through the output view: a dense band is
            // one unit-stride run per row, block storage one run per block.
            for i in 0..mc {
                out.add_row(ic + i, jc, &acc[i * nc_pad..i * nc_pad + nc], alpha);
            }
        }
    }
}

thread_local! {
    /// [`few_rows`]'s B row offsets, per thread (the arena holds `f32`s).
    static B_ROWS: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
}

/// The product of `M < TILE_ROWS` rows, with B read where it lies. A's
/// rows are gathered once and B's row offsets tabulated once; B's
/// columns are taken as maximal unit-stride runs (an expert's adjacent
/// `w1` panels are one run), each walked in `W`-column strips, every
/// strip down all of `p` in ascending order into `M x W` local
/// accumulators that are written back once, with `alpha`. Columns that
/// are not unit-stride (a transposed B) and a run's last `< W` columns
/// are packed into a zero-padded `k x W` strip and run the same loop.
#[inline(always)]
fn few_rows<const M: usize, const W: usize>(
    n: usize,
    k: usize,
    alpha: f32,
    a: PanelView<'_>,
    b: PanelView<'_>,
    mut out: OutView<'_>,
) {
    // `p`-major: row `i`'s element `p` at `p * M + i`.
    let mut a_rows = workspace::take_zeroed(k * M);
    pack_a::<M>(&mut a_rows, &a, 0, M, M, 0, k);
    let mut b_rows = B_ROWS.take();
    b_rows.clear();
    b_rows.extend((0..k).map(|p| b.rows().offset(p)));
    let mut packed = Buffer::default();
    let mut put = |j: usize, acc: &[[f32; W]; M], width: usize| {
        for (i, vals) in acc.iter().enumerate() {
            out.add_row(i, j, &vals[..width], alpha);
        }
    };
    let live = |_: &usize| !poll_cancelled();
    let mut j0 = 0;
    while j0 < n {
        let (off, step, count) = b.cols().run_from(j0, n - j0);
        let in_place = if step == 1 { count / W * W } else { 0 };
        for s in (0..in_place).step_by(W).take_while(live) {
            let rows = b_rows.iter().copied();
            put(j0 + s, &strip::<M, W>(&a_rows, b.data(), rows, off + s), W);
        }
        for s in (in_place..count).step_by(W).take_while(live) {
            let width = W.min(count - s);
            if packed.is_empty() {
                packed = workspace::take_zeroed(k * W);
            }
            // A row-by-row copy here, not in `pack_b`: a runtime-length
            // copy there slows the `4 x NR` tile's packing (EXPERIMENTS.md).
            if step == 1 {
                for (lanes, &row) in packed.chunks_exact_mut(W).zip(b_rows.iter()) {
                    lanes[..width].copy_from_slice(&b.data()[row + off + s..][..width]);
                    lanes[width..].fill(0.0);
                }
            } else {
                pack_b::<W>(&mut packed, &b, j0 + s, width, W, 0, k);
            }
            let rows = (0..k).map(|p| p * W);
            put(j0 + s, &strip::<M, W>(&a_rows, &packed, rows, 0), width);
        }
        j0 += count;
    }
    B_ROWS.set(b_rows);
}

/// One `M x W` strip of the product: element `(p, j)` of B at
/// `data[row_p + c + j]`, `row_p` the `p`-th of `rows`, against the
/// gathered rows `a`. One `f32` accumulator per element, ascending `p`
/// (the `W` lanes are independent elements, so the compiler may
/// vectorize across them without reassociating any element's reduction).
#[inline(always)]
fn strip<const M: usize, const W: usize>(
    a: &[f32],
    data: &[f32],
    rows: impl Iterator<Item = usize>,
    c: usize,
) -> [[f32; W]; M] {
    let mut acc = [[0.0f32; W]; M];
    for (av, row) in a.as_chunks::<M>().0.iter().zip(rows) {
        let bv = &data[row + c..row + c + W];
        for (acc, &av) in acc.iter_mut().zip(av) {
            for (v, &b) in acc.iter_mut().zip(bv) {
                *v += av * b;
            }
        }
    }
    acc
}

impl OutView<'_> {
    /// `out(i, j0 + q) += alpha * vals[q]`: one row's writeback, one pass
    /// per run of the output's columns (one for a dense band, one per
    /// block of block storage).
    #[inline(always)]
    fn add_row(&mut self, i: usize, j0: usize, vals: &[f32], alpha: f32) {
        let (out, row) = (&mut *self.data, self.rows.offset(i));
        self.cols
            .for_each_run(j0, vals.len(), |at, off, step, count| {
                let vals = &vals[at..at + count];
                if step == 1 {
                    for (o, &v) in out[row + off..row + off + count].iter_mut().zip(vals) {
                        *o += alpha * v;
                    }
                } else {
                    for (q, &v) in vals.iter().enumerate() {
                        out[row + off + q * step] += alpha * v;
                    }
                }
            });
    }
}

/// Packs rows `[ic, ic + mc)` x columns `[kc0, kc0 + kc)` of `a` into
/// `MR`-row strips: strip `s`, element `(p, ii)` lands at
/// `s * kc * MR + p * MR + ii`. Rows past `mc` (edge padding up to
/// `mc_pad`) are zero-filled.
#[inline(always)]
fn pack_a<const MR: usize>(
    dst: &mut [f32],
    a: &PanelView<'_>,
    ic: usize,
    mc: usize,
    mc_pad: usize,
    kc0: usize,
    kc: usize,
) {
    let data = a.data();
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
            let row_off = a.rows().offset(ic + row);
            a.cols().for_each_run(kc0, kc, |at, off, step, count| {
                let mut src = row_off + off;
                for p in at..at + count {
                    strip[p * MR + ii] = data[src];
                    src += step;
                }
            });
        }
    }
}

/// Packs rows `[kc0, kc0 + kc)` x columns `[jc, jc + nc)` of `b` into
/// `NR`-column strips: strip `t`, element `(p, jj)` lands at
/// `t * kc * NR + p * NR + jj`. Columns past `nc` are zero-filled.
#[inline(always)]
fn pack_b<const NR: usize>(
    dst: &mut [f32],
    b: &PanelView<'_>,
    jc: usize,
    nc: usize,
    nc_pad: usize,
    kc0: usize,
    kc: usize,
) {
    let data = b.data();
    for t in 0..nc_pad / NR {
        let strip = &mut dst[t * kc * NR..(t + 1) * kc * NR];
        let cols = NR.min(nc.saturating_sub(t * NR));
        let mut lane_off = [0usize; NR];
        for (jj, off) in lane_off.iter_mut().enumerate().take(cols) {
            *off = b.cols().offset(jc + t * NR + jj);
        }
        // A full strip of adjacent floats (a row-major operand, or sparse
        // blocks read along their rows) is one copy per `p`.
        let adjacent = cols == NR && (1..NR).all(|jj| lane_off[jj] == lane_off[0] + jj);
        b.rows().for_each_run(kc0, kc, |at, off, step, count| {
            let mut src = off;
            for p in at..at + count {
                let lanes = &mut strip[p * NR..(p + 1) * NR];
                if adjacent {
                    let first = src + lane_off[0];
                    lanes.copy_from_slice(&data[first..first + NR]);
                } else {
                    for (v, &lane) in lanes.iter_mut().zip(&lane_off).take(cols) {
                        *v = data[src + lane];
                    }
                    lanes[cols..].fill(0.0);
                }
                src += step;
            }
        });
    }
}

/// The register-tile microkernel: continues the `MR x NR` accumulator
/// tile at `acc[.. stride ..]` through a packed A strip's `MR`-wide steps
/// against a packed B strip's `NR`-wide rows. The local tile is loaded
/// from `acc`, updated in ascending-`p` order (one `f32` accumulator per
/// element — the `jj` lanes are independent elements, so the compiler may
/// vectorize across them without reassociating any element's reduction),
/// and stored back.
#[inline(always)]
fn micro<const MR: usize, const NR: usize>(
    a_strip: &[f32],
    b_strip: &[f32],
    acc: &mut [f32],
    stride: usize,
) {
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
    use super::super::{block_gemm, scalar, Axis};
    use super::*;
    use crate::testutil::{hash_bits, lcg_fill};

    /// The variants the running CPU supports — every test below drives
    /// each of them, not only the dispatched one: CI runners have AVX2, so
    /// the baseline instantiation would otherwise never run.
    fn supported_variants() -> impl Iterator<Item = Variant> {
        let variants = Variant::ALL.iter().copied().filter(|v| v.supported());
        assert_eq!(variants.clone().next(), Some(Variant::detect()));
        assert_eq!(variants.clone().next_back(), Some(Variant::Baseline));
        variants
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {i} differs ({g} vs {w})"
            );
        }
    }

    /// Bit-exactness against the scalar oracle across shapes straddling
    /// every blocking edge (tile, register strip of either width, the
    /// few-row switch at `m < TILE_ROWS` and its strip widths, reduction
    /// chunk, the pack-once boundaries `k = KC` and `m = MC`).
    #[test]
    fn bit_identical_to_scalar_across_blocking_edges() {
        let mut shapes = vec![
            (1usize, 1usize, 1usize),
            (4, 8, 3),
            (4, 16, 3),
            (5, 11, KC + 7),
            (5, 19, KC + 7),
            (MC, NC, 64),
            (MC + 5, NC + 17, KC + 1),
            (MC + 5, NC + 17, KC),
            (MC, NC + 17, KC),
            (3, 200, 50),
            (130, 90, 70),
            // One short of, exactly and one past the 16-column tile.
            (7, 15, 40),
            (7, 16, 40),
            (7, 17, 40),
            (7, 33, 40),
            // One-token decode steps: a single row, and 16 of them.
            (1, 512, 128),
            (16, 512, 128),
        ];
        // Both sides of the few-row switch, against every strip width.
        for m in 1..=TILE_ROWS + 1 {
            for nr in [16, FEW_ROWS_W, ONE_ROW_W] {
                for n in [nr - 1, 2 * nr, 3 * nr + 5] {
                    shapes.extend([1, KC, KC + 7].map(|k| (m, n, k)));
                }
            }
        }
        for &(m, n, k) in &shapes {
            let a = lcg_fill(m * k, 1 + m as u64);
            let b = lcg_fill(k * n, 2 + n as u64);
            let init = lcg_fill(m * n, 3);
            let alpha = 0.75f32;
            let run = |kernel: &dyn Fn(PanelView<'_>, PanelView<'_>, OutView<'_>)| {
                let mut out = init.clone();
                kernel(
                    PanelView::new(&a, k, 1),
                    PanelView::new(&b, n, 1),
                    OutView::new(&mut out, n),
                );
                out
            };
            let want = run(&|a, b, out| scalar(m, n, k, alpha, a, b, out));
            for variant in supported_variants() {
                // run_blocked directly: exercises the packing machinery
                // even on shapes below the scalar-delegation threshold.
                let got = run(&|a, b, out| variant.run_blocked(m, n, k, alpha, a, b, out));
                let what = format!("{} m={m} n={n} k={k}", variant.name());
                assert_same_bits(&got, &want, &what);
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
        scalar(m, n, k, 1.0, av, bv, OutView::new(&mut want, n));
        for variant in supported_variants() {
            let mut got = vec![0.0f32; m * n];
            variant.run_blocked(m, n, k, 1.0, av, bv, OutView::new(&mut got, n));
            assert_same_bits(&got, &want, variant.name());
        }
        let mut got = vec![0.0f32; m * n];
        block_gemm(m, n, k, 1.0, av, bv, OutView::new(&mut got, n));
        assert_same_bits(&got, &want, "dispatched");
    }

    /// Tiled axes on all three views — `A` a rectangle of sparse blocks,
    /// `B` a gather of dense row panels, the output block storage — give
    /// the bits of the same product over plain strided copies, on scalar
    /// and every variant, including a gathered reduction longer than `KC`
    /// and few-row products (`rows < TILE_ROWS`), which read the gathered
    /// panels in place.
    #[test]
    fn tiled_axes_match_the_strided_product() {
        // (block size, block rows, gathered blocks along k, output block
        // cols, rows multiplied)
        for &(bs, r, w, c, rows) in &[
            (4usize, 3usize, 5usize, 3usize, 12usize),
            (16, 2, 17, 2, 32),
            (1, 5, 3, 9, 5),
            (16, 1, 3, 2, 1),
            (16, 2, 17, 2, 3),
            (4, 1, 9, 10, 2),
        ] {
            let (m, k, n) = (r * bs, w * bs, c * bs);
            let area = bs * bs;
            let a_dense = lcg_fill(m * k, 21);
            let big_k = 2 * w + 1;
            let b_big = lcg_fill(big_k * bs * n, 22);
            // Panels of `b_big` gathered along k: every other one.
            let panels: Vec<usize> = (0..w).map(|j| 2 * j + 1).collect();
            let b_dense: Vec<f32> = panels
                .iter()
                .flat_map(|&g| b_big[g * bs * n..(g + 1) * bs * n].iter().copied())
                .collect();
            let mut want = lcg_fill(m * n, 23);
            let out_init = want.clone();
            scalar(
                rows,
                n,
                k,
                0.5,
                PanelView::new(&a_dense, k, 1),
                PanelView::new(&b_dense, n, 1),
                OutView::new(&mut want, n),
            );

            // Block layout: block (t, j) of an `rows x cols`-block
            // rectangle at slot `t * cols + j`, row-major inside.
            let to_blocks = |dense: &[f32], cols_blocks: usize, width: usize| {
                let mut blocks = vec![0.0f32; dense.len()];
                for (idx, &v) in dense.iter().enumerate() {
                    let (i, j) = (idx / width, idx % width);
                    let slot = (i / bs) * cols_blocks + j / bs;
                    blocks[slot * area + (i % bs) * bs + j % bs] = v;
                }
                blocks
            };
            let a_blocks = to_blocks(&a_dense, w, k);
            let a_rows: Vec<usize> = (0..r).map(|t| t * w * area).collect();
            let a_cols: Vec<usize> = (0..w).map(|j| j * area).collect();
            let b_rows: Vec<usize> = panels.iter().map(|&g| g * bs * n).collect();
            let o_rows: Vec<usize> = (0..r).map(|t| t * c * area).collect();
            let o_cols: Vec<usize> = (0..c).map(|j| j * area).collect();
            let tiled = |tile_off, inner| Axis::tiled(tile_off, bs, inner);
            let av = PanelView::with_axes(&a_blocks, tiled(&a_rows, bs), tiled(&a_cols, 1));
            let bv = PanelView::with_axes(&b_big, tiled(&b_rows, n), Axis::Strided(1));
            let want_blocks = to_blocks(&want, c, n);
            for variant in std::iter::once(None).chain(supported_variants().map(Some)) {
                let mut got = to_blocks(&out_init, c, n);
                let ov = OutView::with_axes(&mut got, tiled(&o_rows, bs), tiled(&o_cols, 1));
                match variant {
                    Some(variant) => variant.run_blocked(rows, n, k, 0.5, av, bv, ov),
                    None => scalar(rows, n, k, 0.5, av, bv, ov),
                }
                let what = format!(
                    "bs={bs} rows={rows} {}",
                    variant.map_or("scalar", Variant::name)
                );
                assert_same_bits(&got, &want_blocks, &what);
            }
        }
    }

    /// `few_rows` at one, two and three rows, on every B layout the
    /// products hand it, against scalar over a row-major B: row-major,
    /// column panels side by side (one merged run, an expert's `w1`) and
    /// with gaps (a run per panel), gathered row panels (the DSD's `w2`)
    /// and a transposed B (packed strips), with `n` leaving a packed tail
    /// after the full strips at either width, and `k > KC`;
    /// into a dense band and into block storage, with `alpha != 1` onto
    /// a nonzero output.
    #[test]
    fn few_row_products_match_scalar_on_every_layout() {
        let (bs, c) = (4, 35);
        let (n, k) = (c * bs, 67 * bs);
        assert!(k > KC && n % ONE_ROW_W > 0 && n % FEW_ROWS_W > 0);
        let b = lcg_fill(k * n, 41);
        let b_t: Vec<f32> = (0..n * k).map(|idx| b[(idx % k) * n + idx / k]).collect();
        // Column panel `j` at storage column `panel(j)` of a wider B, row
        // panel `t` at storage row `row_panel(t)` of a taller one.
        let cols_in = |panel: &dyn Fn(usize) -> usize, width: usize| {
            let mut big = vec![0.0f32; k * width];
            for (idx, &v) in b.iter().enumerate() {
                let (p, j) = (idx / n, idx % n);
                big[p * width + panel(j / bs) + j % bs] = v;
            }
            big
        };
        let (near, gapped) = (|j: usize| (j + 1) * bs, |j: usize| (2 * j + 1) * bs);
        let (b_near, b_gapped) = (cols_in(&near, n + bs), cols_in(&gapped, (2 * c + 1) * bs));
        let near_off: Vec<usize> = (0..c).map(near).collect();
        let gapped_off: Vec<usize> = (0..c).map(gapped).collect();
        let row_panels: Vec<usize> = (0..k / bs).map(|t| (2 * t + 1) * bs * n).collect();
        let mut b_tall = vec![0.0f32; (2 * k + bs) * n];
        for (t, &at) in row_panels.iter().enumerate() {
            b_tall[at..at + bs * n].copy_from_slice(&b[t * bs * n..(t + 1) * bs * n]);
        }
        let layouts = [
            ("row-major", PanelView::new(&b, n, 1)),
            (
                "adjacent column panels",
                PanelView::with_axes(
                    &b_near,
                    Axis::Strided(n + bs),
                    Axis::tiled(&near_off, bs, 1),
                ),
            ),
            (
                "column panels with gaps",
                PanelView::with_axes(
                    &b_gapped,
                    Axis::Strided((2 * c + 1) * bs),
                    Axis::tiled(&gapped_off, bs, 1),
                ),
            ),
            (
                "gathered row panels",
                PanelView::with_axes(&b_tall, Axis::tiled(&row_panels, bs, n), Axis::Strided(1)),
            ),
            ("transposed", PanelView::new(&b_t, 1, k)),
        ];
        // Block storage: the rows are one block row, block `j` at slot `j`.
        let (o_rows, o_cols) = ([0], (0..c).map(|j| j * bs * bs).collect::<Vec<_>>());
        for m in 1..TILE_ROWS {
            let a = lcg_fill(m * k, 42 + m as u64);
            let av = PanelView::new(&a, k, 1);
            for blocks in [false, true] {
                let init = lcg_fill(if blocks { c * bs * bs } else { m * n }, 43);
                let run = |b: PanelView<'_>, variant: Option<Variant>| {
                    let mut got = init.clone();
                    let ov = if blocks {
                        let (rows, cols) =
                            (Axis::tiled(&o_rows, bs, bs), Axis::tiled(&o_cols, bs, 1));
                        OutView::with_axes(&mut got, rows, cols)
                    } else {
                        OutView::new(&mut got, n)
                    };
                    match variant {
                        Some(variant) => variant.run_blocked(m, n, k, 1.5, av, b, ov),
                        None => scalar(m, n, k, 1.5, av, b, ov),
                    }
                    got
                };
                let want = run(layouts[0].1, None);
                for &(layout, bv) in &layouts {
                    let variants = std::iter::once(None).chain(supported_variants().map(Some));
                    for variant in variants {
                        let name = variant.map_or("scalar", Variant::name);
                        let what = format!("{layout} m={m} blocks={blocks} {name}");
                        assert_same_bits(&run(bv, variant), &want, &what);
                    }
                }
            }
        }
    }

    /// Golden bits of two- and three-row products over the one-row
    /// product's shape: full strips and a packed tail, `k > KC`.
    #[test]
    fn golden_bits_of_a_few_row_product() {
        for (m, golden) in [(2, 0x438c_c08e_a83e_fbc2), (3, 0x1574_f5bd_f1ee_121f)] {
            let (n, k) = (65, 300);
            let a = lcg_fill(m * k, 37);
            let b = lcg_fill(k * n, 38);
            let init = lcg_fill(m * n, 39);
            let (av, bv) = (PanelView::new(&a, k, 1), PanelView::new(&b, n, 1));
            let mut out = init.clone();
            scalar(m, n, k, 0.75, av, bv, OutView::new(&mut out, n));
            let hash = hash_bits(&out);
            assert_eq!(hash, golden, "scalar m={m}: {hash:#018x}");
            for variant in supported_variants() {
                let mut out = init.clone();
                variant.run_blocked(m, n, k, 0.75, av, bv, OutView::new(&mut out, n));
                assert_eq!(hash_bits(&out), golden, "{} m={m}", variant.name());
            }
        }
    }

    /// Golden bits of a one-row product: a full strip and a packed tail,
    /// `k > KC`.
    #[test]
    fn golden_bits_of_a_one_row_product() {
        const GOLDEN: u64 = 0x9feb_a957_0e8d_5c27;
        let (m, n, k) = (1, 65, 300);
        let a = lcg_fill(m * k, 34);
        let b = lcg_fill(k * n, 35);
        let init = lcg_fill(m * n, 36);
        let (av, bv) = (PanelView::new(&a, k, 1), PanelView::new(&b, n, 1));
        let mut out = init.clone();
        scalar(m, n, k, 0.75, av, bv, OutView::new(&mut out, n));
        assert_eq!(hash_bits(&out), GOLDEN, "scalar: {:#018x}", hash_bits(&out));
        for variant in supported_variants() {
            let mut out = init.clone();
            variant.run_blocked(m, n, k, 0.75, av, bv, OutView::new(&mut out, n));
            assert_eq!(hash_bits(&out), GOLDEN, "{}", variant.name());
        }
    }

    /// The largest error of `got` against `init + alpha * a * b` computed in
    /// `f64` (`a` is `m x k` and `b` is `k x n`, both row-major), each
    /// element's error taken relative to the magnitude of what it sums,
    /// `|init| + |alpha| * Σ_p |a_ip * b_pj|`: the scale an `f32`
    /// accumulation's rounding error grows with, so an element that cancels
    /// to near zero reads its real error, not a huge quotient.
    #[allow(
        clippy::too_many_arguments,
        reason = "a product's shape, scale, two operands and output, as the kernel takes them"
    )]
    fn max_relative_error(
        got: &[f32],
        init: &[f32],
        alpha: f32,
        a: &[f32],
        b: &[f32],
        m: usize,
        n: usize,
        k: usize,
    ) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..m {
            for j in 0..n {
                let (mut sum, mut size) = (0.0f64, 0.0f64);
                for p in 0..k {
                    let term = f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
                    sum += term;
                    size += term.abs();
                }
                let alpha = f64::from(alpha);
                let exact = f64::from(init[i * n + j]) + alpha * sum;
                let scale = f64::from(init[i * n + j]).abs() + alpha.abs() * size;
                let err = (f64::from(got[i * n + j]) - exact).abs();
                if scale > 0.0 {
                    worst = worst.max(err / scale);
                }
            }
        }
        worst
    }

    /// Golden bits: scalar ≡ tiled on one machine cannot see a build in
    /// which *both* drift (a toolchain flag that contracts `a * b + c`
    /// into an FMA, a different float environment); a constant can. The
    /// operands are LCG-filled, so the value depends on nothing but the
    /// contract's arithmetic. A constant cannot see a contract that is
    /// wrong from the start; the `f64` product can: the `f32` result's
    /// largest relative error (read 1.37e-7) stays under `MAX_REL_ERR`.
    #[test]
    fn golden_bits_of_a_dense_product() {
        const GOLDEN: u64 = 0x104a_90d5_20f3_1153;
        const MAX_REL_ERR: f64 = 1.5e-7;
        let (m, n, k) = (70, 65, 300);
        let a = lcg_fill(m * k, 31);
        let b = lcg_fill(k * n, 32);
        let init = lcg_fill(m * n, 33);
        let (av, bv) = (PanelView::new(&a, k, 1), PanelView::new(&b, n, 1));
        let mut out = init.clone();
        scalar(m, n, k, 0.75, av, bv, OutView::new(&mut out, n));
        assert_eq!(hash_bits(&out), GOLDEN, "scalar: {:#018x}", hash_bits(&out));
        let err = max_relative_error(&out, &init, 0.75, &a, &b, m, n, k);
        assert!(err < MAX_REL_ERR, "relative error {err:.3e} against f64");
        for variant in supported_variants() {
            let mut out = init.clone();
            variant.run_blocked(m, n, k, 0.75, av, bv, OutView::new(&mut out, n));
            assert_eq!(hash_bits(&out), GOLDEN, "{}", variant.name());
        }
    }
}
