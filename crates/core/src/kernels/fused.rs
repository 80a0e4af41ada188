//! The fused per-row pass: `dist_calc → sort_&_incl_scan →
//! update_mat_prof` as **one** dispatch per reference row.
//!
//! The unfused pipeline launches three host dispatches per row and
//! materializes an intermediate `scanned` plane between the second and
//! third. The fused pass walks the row once, column chunk by column chunk:
//! for every query column `j` it evaluates the streaming QT/dist update
//! (Eq. 1) into a `d_pad` fiber, runs the *identical* Bitonic comparator
//! network and Hillis–Steele scan order on that fiber in place (Eq. 2), and
//! folds the strictly-less min/argmin straight into the profile planes
//! (Eq. 3) — two of three dispatches and the `scanned` plane are gone.
//!
//! ## Bit-identity to the unfused path
//!
//! Every floating-point expression is shared with the unfused kernels:
//! [`qt_step`]/[`dist_value`] with `dist_calc`, the cached comparator
//! schedule and divisor table with `sort_&_incl_scan`
//! ([`comparator_schedule`], [`scan_divisors`]), and the strictly-less
//! update with `update_mat_prof`. Elements of a row are mutually
//! independent (the QT recurrence couples *successive rows*), so changing
//! the traversal from three plane sweeps to one column sweep reorders only
//! independent operations — the value computed for every `(j, k)` is the
//! same expression over the same inputs, hence the same bits, and the
//! strictly-less fold over rows `i = 0, 1, …` preserves argmin ties
//! (earliest row wins) exactly.
//!
//! ## Plane layout and lane batching
//!
//! The fused path keeps its planes **`k`-major** (`d × n_q`), the same
//! layout as the unfused kernels: the recurrence reads the previous row's
//! QT at `j − 1` — one element to the left in the same plane row — and all
//! query-side statistics are contiguous in `j`. Columns are processed
//! [`LANES`] at a time through a small structure-of-arrays scratch block
//! (`d_pad × LANES`, lane-minor): the comparator network, the
//! Hillis–Steele scan and the min fold run the *same* per-fiber operation
//! sequence on `LANES` independent fibers in lock-step — straight-line
//! loops over a contiguous lane axis the compiler turns into SIMD, the
//! host analogue of the GPU kernel's thread-per-column mapping. Lanes
//! never interact, so each fiber sees exactly the scalar sequence and the
//! results stay bit-identical; the remainder columns (and the `j = 0`
//! initial-QT column) take the scalar path, which shares every
//! expression.
//!
//! For multi-worker dispatch each `k`-plane is pre-split into one
//! contiguous sub-slice per column chunk (safe disjoint `&mut` views — no
//! locks, no unsafe), so chunk boundaries cannot affect results.
//!
//! ## Two entry points, one walk
//!
//! [`fused_row`] runs the streaming recurrence of the vector modes;
//! [`fused_gemm_row`] runs the blocked-GEMM QT step of the tensor-core
//! modes (see [`super::gemm`]). They differ only in how a column's QT is
//! produced: both hand a lane and a scalar QT closure to one private walk,
//! which owns the column chunking, the distance step and the lane and
//! scalar sort/scan/fold tails — so that code exists once. The lane GEMM
//! step, [`mdmp_gpu_sim::mma_dot_rounded_lanes`], keeps each column's
//! product order and `chunk_k` grouping, so a fused TC row is bit-identical
//! to `gemm_row` + `sort_scan_row` + `update_profile_row` by the same
//! independence argument.

use super::dist::{dist_value, dist_value_lanes, qt_step, DistParams};
use super::gemm::{gemm_accumulate, QueryOperands, MAX_PANEL_OPERANDS};
use super::sort_scan::{bitonic_sort_fiber, inclusive_scan_avg_with, Comparator};
use super::{dist_cost, sort_scan_cost, update_cost};
use crate::precalc::Stats;
use mdmp_gpu_sim::{round_operands, KernelCost, MmaConfig};
use mdmp_precision::{Format, Real};
use rayon::prelude::*;

/// Fibers processed per structure-of-arrays group: 8 × f32 fills one
/// 256-bit vector; wider types simply split into two.
pub const LANES: usize = 8;

/// One lane-parallel compare-exchange of the Bitonic network: the same
/// key-compare/select as the scalar network, applied to corresponding
/// elements of `LANES` independent fibers. `ii`/`ll` are the flat offsets
/// of the two compared fiber positions (`ii < ll`).
///
/// Phrased as three elementary lane loops — compare, key select, value
/// select — with [`core::hint::select_unpredictable`] so each loop
/// vectorizes; a single loop with `if` selects fully unrolls into scalar
/// `cmov` chains instead. The per-lane semantics are exactly the scalar
/// network's: swap iff strictly out of order.
#[inline(always)]
fn lane_compare_exchange<T: Real, const ASC: bool>(
    keys: &mut [T::SortKey],
    vals: &mut [T],
    ii: usize,
    ll: usize,
) {
    use core::hint::select_unpredictable as sel;
    let (khead, ktail) = keys.split_at_mut(ll);
    let ka = &mut khead[ii..ii + LANES];
    let kb = &mut ktail[..LANES];
    let (vhead, vtail) = vals.split_at_mut(ll);
    let va = &mut vhead[ii..ii + LANES];
    let vb = &mut vtail[..LANES];
    let mut ooo = [false; LANES];
    for lane in 0..LANES {
        let (kx, ky) = (ka[lane], kb[lane]);
        ooo[lane] = if ASC { kx > ky } else { kx < ky };
    }
    for lane in 0..LANES {
        let (kx, ky) = (ka[lane], kb[lane]);
        ka[lane] = sel(ooo[lane], ky, kx);
        kb[lane] = sel(ooo[lane], kx, ky);
    }
    for lane in 0..LANES {
        let (x, y) = (va[lane], vb[lane]);
        va[lane] = sel(ooo[lane], y, x);
        vb[lane] = sel(ooo[lane], x, y);
    }
}

/// One column chunk's disjoint mutable views of the QT-next, profile, and
/// index planes (`views[k]` is plane `k`'s `j`-range for the chunk).
type ChunkViews<'a, T> = (Vec<&'a mut [T]>, Vec<&'a mut [T]>, Vec<&'a mut [i64]>);

/// Split each of the `d` `k`-major plane rows into one contiguous sub-slice
/// per column chunk: `result[chunk][k]` is that chunk's `j`-range of plane
/// `k`. Disjoint `&mut` views — chunked workers write without locks.
fn split_plane_chunks<V>(plane: &mut [V], n_q: usize, cols_per: usize) -> Vec<Vec<&mut [V]>> {
    let n_chunks = n_q.div_ceil(cols_per);
    let mut parts: Vec<Vec<&mut [V]>> = (0..n_chunks).map(|_| Vec::new()).collect();
    for row in plane.chunks_mut(n_q) {
        let mut rest = row;
        for chunk in parts.iter_mut() {
            let take = cols_per.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            chunk.push(head);
            rest = tail;
        }
    }
    parts
}

/// Execute one fused row pass.
///
/// * `qt_row0` / `qt_col0` — precalculated initial QT (dimension-major,
///   as produced by the precalculation);
/// * `qt_prev` / `qt_next` — the QT double buffer, **`k`-major**
///   (`d × n_q`, same layout as the unfused pipeline);
/// * `p_plane` / `i_plane` — running profile and index planes, `k`-major;
/// * `schedule` / `divisors` — per-`d_pad` comparator schedule and
///   per-`d` divisor table (hoisted out by the caller, once per tile);
/// * `global_row` — the global reference-segment index of row `i`.
///
/// The per-column fibers live in a small per-worker scratch block, not a
/// plane: fusion eliminates both the unfused `dist` and `scanned` planes.
#[allow(clippy::too_many_arguments)]
pub fn fused_row<T: Real>(
    i: usize,
    qt_row0: &[T],
    qt_col0: &[T],
    qt_prev: &[T],
    qt_next: &mut [T],
    p_plane: &mut [T],
    i_plane: &mut [i64],
    rstats: &Stats<T>,
    qstats: &Stats<T>,
    params: &DistParams<T>,
    schedule: &[Comparator],
    divisors: &[T],
    global_row: i64,
) {
    let n_r = rstats.n;
    let n_q = qstats.n;
    let d = rstats.d;
    debug_assert!(i < n_r);

    // This row's reference-side operands, gathered once for all columns.
    let rdf: Vec<T> = (0..d).map(|k| rstats.df[k * n_r + i]).collect();
    let rdg: Vec<T> = (0..d).map(|k| rstats.dg[k * n_r + i]).collect();
    let (rdf, rdg) = (&rdf[..], &rdg[..]);

    // Streaming recurrence (Eq. 1); the initial-QT column `j = 0` is
    // peeled onto the scalar path so the lanes only ever run `qt_step`.
    let lane_qt = |k: usize, j: usize| {
        let mut qt = [T::zero(); LANES];
        if i == 0 {
            qt.copy_from_slice(&qt_row0[k * n_q + j..][..LANES]);
        } else {
            let prev = &qt_prev[k * n_q + j - 1..][..LANES];
            let qdg = &qstats.dg[k * n_q + j..][..LANES];
            let qdf = &qstats.df[k * n_q + j..][..LANES];
            for lane in 0..LANES {
                qt[lane] = qt_step(prev[lane], rdf[k], qdg[lane], qdf[lane], rdg[k]);
            }
        }
        qt
    };
    let scalar_qt = |k: usize, j: usize| {
        if i == 0 {
            qt_row0[k * n_q + j]
        } else if j == 0 {
            qt_col0[k * n_r + i]
        } else {
            qt_step(
                qt_prev[k * n_q + j - 1],
                rdf[k],
                qstats.dg[k * n_q + j],
                qstats.df[k * n_q + j],
                rdg[k],
            )
        }
    };
    let epilogue = RowEpilogue::new(i, rstats, qstats, params, schedule, divisors, global_row);
    walk_row(
        &epilogue,
        usize::from(i > 0),
        (qt_next, p_plane, i_plane),
        lane_qt,
        scalar_qt,
    );
}

/// Execute one fused tensor-core row: the blocked-GEMM QT/distance step of
/// [`gemm_row`](super::gemm_row), the Bitonic sort and Hillis–Steele scan,
/// and the strictly-less profile fold as **one** dispatch.
///
/// Arguments are those of [`fused_row`], except that the recurrence reads
/// the panel base plane `qt_base` of row `base_idx` (as in `gemm_row`) and
/// the query-side operands come pre-rounded, once per tile, in `query`.
/// The `t = i − base_idx ≤ chunk_k` reference-side panel values are rounded
/// here, once per row.
///
/// Columns `j ≥ t` run [`LANES`] at a time through
/// [`mdmp_gpu_sim::mma_dot_rounded_lanes`]; row 0 (whose QT is the
/// precalculated first row) and the columns `j < t` (which chain into
/// `qt_col0`) take the scalar path through [`gemm_accumulate`], the same
/// product order as the lanes — so every QT, profile and index value is
/// bit-identical to `gemm_row` + `sort_scan_row` + `update_profile_row`.
#[allow(clippy::too_many_arguments)]
pub fn fused_gemm_row<T: Real>(
    i: usize,
    base_idx: usize,
    qt_row0: &[T],
    qt_col0: &[T],
    qt_base: &[T],
    qt_next: &mut [T],
    p_plane: &mut [T],
    i_plane: &mut [i64],
    rstats: &Stats<T>,
    qstats: &Stats<T>,
    query: &QueryOperands,
    params: &DistParams<T>,
    mma: &MmaConfig,
    schedule: &[Comparator],
    divisors: &[T],
    global_row: i64,
) {
    let n_r = rstats.n;
    let n_q = qstats.n;
    let d = rstats.d;
    let t = i - base_idx;
    debug_assert!(i < n_r);
    debug_assert!(t <= mma.chunk_k, "panel height exceeds the MMA chunk");
    let (dfq, dgq) = query.planes(mma.input, n_q * d);

    // The panel's reference operands, rounded once for the row:
    // `rf[k][u]` = df_r[i − u], `rg[k][u]` = dg_r[i − u], `u < t`.
    const PANEL: usize = MAX_PANEL_OPERANDS / 2;
    let mut rf = vec![[0.0f32; PANEL]; d];
    let mut rg = vec![[0.0f32; PANEL]; d];
    for k in 0..d {
        let rows = k * n_r + i + 1 - t..k * n_r + i + 1;
        round_operands(&rstats.df[rows.clone()], mma.input, &mut rf[k][..t]);
        round_operands(&rstats.dg[rows], mma.input, &mut rg[k][..t]);
        rf[k][..t].reverse();
        rg[k][..t].reverse();
    }
    let (rf, rg) = (&rf[..], &rg[..]);

    let lane_qt = |k: usize, j: usize| {
        let q = k * n_q + j + 1 - t..k * n_q + j + LANES;
        mdmp_gpu_sim::mma_dot_rounded_lanes::<T, LANES>(
            &qt_base[k * n_q + j - t..],
            &rf[k][..t],
            &rg[k][..t],
            &dfq[q.clone()],
            &dgq[q],
            mma,
        )
    };
    let scalar_qt = |k: usize, j: usize| {
        if i == 0 {
            return qt_row0[k * n_q + j];
        }
        let steps = t.min(j);
        let base = if steps == t {
            qt_base[k * n_q + j - t]
        } else {
            qt_col0[k * n_r + i - j]
        };
        let mut a = [0.0f32; MAX_PANEL_OPERANDS];
        let mut b = [0.0f32; MAX_PANEL_OPERANDS];
        for u in 0..steps {
            a[2 * u] = rf[k][u];
            b[2 * u] = dgq[k * n_q + j - u];
            a[2 * u + 1] = dfq[k * n_q + j - u];
            b[2 * u + 1] = rg[k][u];
        }
        gemm_accumulate(base, &a[..2 * steps], &b[..2 * steps], mma)
    };
    let epilogue = RowEpilogue::new(i, rstats, qstats, params, schedule, divisors, global_row);
    let peel = if i == 0 { n_q } else { t };
    walk_row(
        &epilogue,
        peel,
        (qt_next, p_plane, i_plane),
        lane_qt,
        scalar_qt,
    );
}

/// What both fused entry points share past the QT step: the row's
/// distance inputs, the comparator schedule and divisor table, and the
/// global row index the profile fold records.
struct RowEpilogue<'a, T: Real> {
    global_i: usize,
    /// This row's reference-side `inv`, one per dimension.
    rinv: Vec<T>,
    /// The query-side `inv` plane (`k`-major, `d × n_q`).
    qinv: &'a [T],
    params: &'a DistParams<T>,
    schedule: &'a [Comparator],
    divisors: &'a [T],
    global_row: i64,
}

impl<'a, T: Real> RowEpilogue<'a, T> {
    fn new(
        i: usize,
        rstats: &Stats<T>,
        qstats: &'a Stats<T>,
        params: &'a DistParams<T>,
        schedule: &'a [Comparator],
        divisors: &'a [T],
        global_row: i64,
    ) -> Self {
        debug_assert_eq!(divisors.len(), rstats.d);
        RowEpilogue {
            global_i: params.row_offset + i,
            rinv: (0..rstats.d)
                .map(|k| rstats.inv[k * rstats.n + i])
                .collect(),
            qinv: &qstats.inv,
            params,
            schedule,
            divisors,
            global_row,
        }
    }

    fn excluded(&self, j: usize) -> bool {
        self.params
            .exclusion
            .is_some_and(|excl| self.global_i.abs_diff(self.params.col_offset + j) < excl)
    }
}

/// Walk one row, column chunk by column chunk — one contiguous chunk per
/// worker, so the whole row is a single dispatch and chunk boundaries
/// cannot affect results (columns are independent). `lane_qt(k, j)` yields
/// dimension `k`'s QT for columns `j .. j + LANES` and `scalar_qt(k, j)`
/// that of column `j`; columns `j < peel` always take the scalar path.
/// Every column's QT is stored into `qt_next`, turned into distances, then
/// sorted, scanned and folded into the profile planes.
fn walk_row<T: Real, L, S>(
    ep: &RowEpilogue<'_, T>,
    peel: usize,
    (qt_next, p_plane, i_plane): (&mut [T], &mut [T], &mut [i64]),
    lane_qt: L,
    scalar_qt: S,
) where
    L: Fn(usize, usize) -> [T; LANES] + Sync,
    S: Fn(usize, usize) -> T + Sync,
{
    let d = ep.rinv.len();
    let d_pad = d.next_power_of_two();
    let n_q = ep.qinv.len() / d;
    debug_assert_eq!(qt_next.len(), n_q * d);
    debug_assert_eq!(p_plane.len(), n_q * d);
    debug_assert_eq!(i_plane.len(), n_q * d);
    let (params, rinv, qinv) = (ep.params, &ep.rinv[..], ep.qinv);

    let cols_per = n_q.div_ceil(rayon::current_num_threads().max(1));
    let qn_parts = split_plane_chunks(qt_next, n_q, cols_per);
    let pc_parts = split_plane_chunks(p_plane, n_q, cols_per);
    let ic_parts = split_plane_chunks(i_plane, n_q, cols_per);
    let tasks: Vec<(usize, ChunkViews<'_, T>)> = qn_parts
        .into_iter()
        .zip(pc_parts)
        .zip(ic_parts)
        .map(|((qn, pc), ic)| (qn, pc, ic))
        .enumerate()
        .collect();

    tasks
        .into_par_iter()
        .for_each(|(ci, (mut qn, mut pc, mut ic))| {
            let j0 = ci * cols_per;
            let chunk_cols = qn[0].len();

            // Per-worker SoA scratch: LANES fibers side by side (`k`-major,
            // lane-minor) plus their integer sort keys.
            let mut fib = vec![T::zero(); d_pad * LANES];
            let mut keys = vec![T::zero().sort_key(); d_pad * LANES];

            // Scalar path for one column (peeled columns and lane remainder):
            // identical expressions, same comparator/scan sequence.
            let scalar_column = |jj: usize,
                                 qn: &mut [&mut [T]],
                                 pc: &mut [&mut [T]],
                                 ic: &mut [&mut [i64]],
                                 fiber: &mut [T]| {
                let j = j0 + jj;
                let excluded = ep.excluded(j);
                for k in 0..d {
                    let qt = scalar_qt(k, j);
                    qn[k][jj] = qt;
                    fiber[k] = dist_value(
                        qt,
                        rinv[k],
                        qinv[k * n_q + j],
                        params.two_m,
                        params.clamp,
                        excluded,
                    );
                }
                scalar_tail(fiber, d, ep, pc, ic, jj);
            };

            let peeled = peel.saturating_sub(j0).min(chunk_cols);
            for jj in 0..peeled {
                scalar_column(jj, &mut qn, &mut pc, &mut ic, &mut fib[..d_pad]);
            }
            let mut jj = peeled;
            while jj + LANES <= chunk_cols {
                let jbase = j0 + jj;
                let mut excluded = [false; LANES];
                for (lane, e) in excluded.iter_mut().enumerate() {
                    *e = ep.excluded(jbase + lane);
                }
                // Dist phase: LANES QT values + distances per dimension. With
                // k-major planes every read and write is contiguous in j.
                for k in 0..d {
                    let qt = lane_qt(k, jbase);
                    qn[k][jj..jj + LANES].copy_from_slice(&qt);
                    dist_value_lanes::<T, LANES>(
                        &qt,
                        rinv[k],
                        &qinv[k * n_q + jbase..],
                        params.two_m,
                        params.clamp,
                        &excluded,
                        &mut fib[k * LANES..(k + 1) * LANES],
                    );
                }
                lane_tail(&mut fib, &mut keys, d, ep, &mut pc, &mut ic, jj);
                jj += LANES;
            }
            while jj < chunk_cols {
                scalar_column(jj, &mut qn, &mut pc, &mut ic, &mut fib[..d_pad]);
                jj += 1;
            }
        });
}

/// The scalar tail of one column: pad the fiber, sort, scan + divide, and
/// fold into column `jj` of the chunk's profile planes.
fn scalar_tail<T: Real>(
    fiber: &mut [T],
    d: usize,
    ep: &RowEpilogue<'_, T>,
    pc: &mut [&mut [T]],
    ic: &mut [&mut [i64]],
    jj: usize,
) {
    for pad in fiber[d..].iter_mut() {
        *pad = T::infinity();
    }
    bitonic_sort_fiber(fiber, ep.schedule);
    inclusive_scan_avg_with(fiber, d, ep.divisors);
    for k in 0..d {
        let v = fiber[k];
        if v < pc[k][jj] {
            pc[k][jj] = v;
            ic[k][jj] = ep.global_row;
        }
    }
}

/// The lane tail of [`LANES`] columns `jj .. jj + LANES` whose distances sit
/// in `fib` (`k`-major, lane-minor): pad, sort keys, the comparator
/// network, the Hillis–Steele scan, the divide and the select fold — each
/// fiber sees exactly the scalar tail's operation sequence.
fn lane_tail<T: Real>(
    fib: &mut [T],
    keys: &mut [T::SortKey],
    d: usize,
    ep: &RowEpilogue<'_, T>,
    pc: &mut [&mut [T]],
    ic: &mut [&mut [i64]],
    jj: usize,
) {
    for pad in fib[d * LANES..].iter_mut() {
        *pad = T::infinity();
    }
    // Sort: the schedule's comparator sequence, each applied to all LANES
    // fibers in lock-step.
    for (key, v) in keys.iter_mut().zip(fib.iter()) {
        *key = v.sort_key();
    }
    for &(ci, li, ascending) in ep.schedule {
        let (ii, ll) = (ci as usize * LANES, li as usize * LANES);
        if ascending {
            lane_compare_exchange::<T, true>(keys, fib, ii, ll);
        } else {
            lane_compare_exchange::<T, false>(keys, fib, ii, ll);
        }
    }
    // Hillis–Steele inclusive scan + divide, lane-parallel with the scalar
    // association order per fiber.
    let mut s = 1;
    while s < d {
        let mut k = d - 1;
        while k >= s {
            let (lo, hi) = fib.split_at_mut(k * LANES);
            let src = &lo[(k - s) * LANES..(k - s + 1) * LANES];
            let dst = &mut hi[..LANES];
            for lane in 0..LANES {
                dst[lane] += src[lane];
            }
            k -= 1;
        }
        s <<= 1;
    }
    for k in 0..d {
        let div = ep.divisors[k];
        for f in fib[k * LANES..(k + 1) * LANES].iter_mut() {
            *f = *f / div;
        }
    }
    // Strictly-less min fold into the k-major profile planes — select form
    // of `if v < p { p = v; i = row }`, contiguous per dimension.
    for k in 0..d {
        let frow = &fib[k * LANES..(k + 1) * LANES];
        let pk = &mut pc[k][jj..jj + LANES];
        let ik = &mut ic[k][jj..jj + LANES];
        let mut better = [false; LANES];
        for lane in 0..LANES {
            better[lane] = frow[lane] < pk[lane];
        }
        for lane in 0..LANES {
            pk[lane] = core::hint::select_unpredictable(better[lane], frow[lane], pk[lane]);
        }
        for lane in 0..LANES {
            ik[lane] = core::hint::select_unpredictable(better[lane], ep.global_row, ik[lane]);
        }
    }
}

/// Dispatches eliminated per fused row relative to the three-kernel
/// pipeline (`dist_calc` + `sort_&_incl_scan` + `update_mat_prof` → one).
pub const DISPATCHES_ELIMINATED_PER_ROW: u64 = 2;

/// The modelled cost of one fused row launch: the three component kernels'
/// device-side work (traffic, FLOPs, shared-memory ops, intra-kernel
/// barriers) with their launches collapsed to **one** and a grid-wide sync
/// per eliminated launch boundary (see [`KernelCost::fuse`]).
///
/// The driver's ledger still charges the three per-class costs so the
/// paper's Fig. 4/5 breakdowns (and modeled device seconds) are unchanged —
/// on the modelled GPU, the fused kernel's cooperative grid syncs cost what
/// the launches they replace cost; what fusion removes is *host* dispatch
/// overhead. This cost exists to quantify the launch collapse.
pub fn fused_row_cost(n_q: usize, d: usize, format: Format) -> KernelCost {
    KernelCost::fuse(&[
        dist_cost(n_q, d, format),
        sort_scan_cost(n_q, d, format),
        update_cost(n_q, d, format),
    ])
}

#[cfg(test)]
mod tests {
    use super::super::{
        comparator_schedule, dist_row, gemm_row, scan_divisors, sort_scan_row, update_profile_row,
    };
    use super::*;
    use crate::precalc::{compute_stats, initial_qt, SeriesDevice};
    use mdmp_data::MultiDimSeries;
    use mdmp_gpu_sim::{KernelClass, MMA_CHUNK_SIZES};
    use mdmp_precision::Half;

    fn series(seed: u64, d: usize, len: usize) -> MultiDimSeries {
        let dims: Vec<Vec<f64>> = (0..d)
            .map(|k| {
                (0..len)
                    .map(|t| {
                        let x = (t as f64 + seed as f64 * 7.0) * (0.09 + 0.04 * k as f64);
                        x.sin() + 0.25 * (1.7 * x).cos()
                    })
                    .collect()
            })
            .collect();
        MultiDimSeries::from_dims(dims)
    }

    /// Drive both pipelines over a full tile and compare every plane
    /// bitwise, row by row.
    fn assert_fused_matches_unfused<T: Real>(d: usize, m: usize, exclusion: Option<usize>) {
        let r = series(1, d, 70 + m);
        let q = series(2, d, 60 + m);
        let rd = SeriesDevice::<T>::load(&r, 0, 70 + m);
        let qd = SeriesDevice::<T>::load(&q, 0, 60 + m);
        let rstats = compute_stats(&rd, m, false);
        let qstats = compute_stats(&qd, m, false);
        let (qt_row0, qt_col0) = initial_qt(&rd, &rstats, &qd, &qstats, m, false);
        let (n_r, n_q) = (rstats.n, qstats.n);
        let d_pad = d.next_power_of_two();
        let params = DistParams::<T>::new(m, true, 0, 0, exclusion);
        let schedule = comparator_schedule(d_pad);
        let divisors = scan_divisors::<T>(d);

        // Unfused reference (k-major planes).
        let mut u_qt_prev = vec![T::zero(); n_q * d];
        let mut u_qt_next = vec![T::zero(); n_q * d];
        let mut u_dist = vec![T::zero(); n_q * d];
        let mut u_scanned = vec![T::zero(); n_q * d_pad];
        let mut u_p = vec![T::infinity(); n_q * d];
        let mut u_i = vec![-1i64; n_q * d];

        // Fused (k-major planes, same layout as unfused).
        let mut f_qt_prev = vec![T::zero(); n_q * d];
        let mut f_qt_next = vec![T::zero(); n_q * d];
        let mut f_p = vec![T::infinity(); n_q * d];
        let mut f_i = vec![-1i64; n_q * d];

        for i in 0..n_r {
            dist_row(
                i,
                &qt_row0,
                &qt_col0,
                &u_qt_prev,
                &mut u_qt_next,
                &mut u_dist,
                &rstats,
                &qstats,
                &params,
            );
            sort_scan_row(&u_dist, &mut u_scanned, n_q, d);
            update_profile_row(&u_scanned, &mut u_p, &mut u_i, n_q, d, i as i64);
            std::mem::swap(&mut u_qt_prev, &mut u_qt_next);

            fused_row(
                i,
                &qt_row0,
                &qt_col0,
                &f_qt_prev,
                &mut f_qt_next,
                &mut f_p,
                &mut f_i,
                &rstats,
                &qstats,
                &params,
                &schedule,
                &divisors,
                i as i64,
            );
            std::mem::swap(&mut f_qt_prev, &mut f_qt_next);

            for k in 0..d {
                for j in 0..n_q {
                    assert_eq!(
                        u_qt_prev[k * n_q + j].to_f64().to_bits(),
                        f_qt_prev[k * n_q + j].to_f64().to_bits(),
                        "QT diverged at row {i}, (j={j}, k={k})"
                    );
                }
            }
        }
        for k in 0..d {
            for j in 0..n_q {
                assert_eq!(
                    u_p[k * n_q + j].to_f64().to_bits(),
                    f_p[k * n_q + j].to_f64().to_bits(),
                    "profile diverged at (j={j}, k={k})"
                );
                assert_eq!(
                    u_i[k * n_q + j],
                    f_i[k * n_q + j],
                    "argmin diverged at (j={j}, k={k})"
                );
            }
        }
    }

    #[test]
    fn fused_matches_unfused_f64() {
        assert_fused_matches_unfused::<f64>(3, 10, None);
    }

    #[test]
    fn fused_matches_unfused_f32_with_exclusion() {
        assert_fused_matches_unfused::<f32>(2, 8, Some(4));
    }

    #[test]
    fn fused_matches_unfused_half() {
        assert_fused_matches_unfused::<Half>(4, 12, None);
    }

    /// Drive `fused_gemm_row` and the three-kernel TC pipeline over a full
    /// tile (37 rows: several panels at every chunk width; 29 columns: a
    /// lane remainder under every chunking, and peeled `j < t` columns that
    /// cross chunk boundaries) and compare QT, profile and index planes
    /// bitwise, row by row.
    fn assert_fused_gemm_matches_unfused(
        input: Format,
        chunk_k: usize,
        d: usize,
        exclusion: Option<usize>,
    ) {
        let m = 9;
        let (n_r, n_q) = (37, 29);
        let rd = SeriesDevice::<f32>::load(&series(3, d, n_r + m - 1), 0, n_r + m - 1);
        let qd = SeriesDevice::<f32>::load(&series(4, d, n_q + m - 1), 0, n_q + m - 1);
        let rstats = compute_stats(&rd, m, false);
        let qstats = compute_stats(&qd, m, false);
        let (qt_row0, qt_col0) = initial_qt(&rd, &rstats, &qd, &qstats, m, false);
        let params = DistParams::<f32>::new(m, true, 0, 0, exclusion);
        let mma = MmaConfig::new(input).with_chunk_k(chunk_k);
        let schedule = comparator_schedule(d.next_power_of_two());
        let divisors = scan_divisors::<f32>(d);
        let mut query = QueryOperands::default();
        query.stage(&qstats, input);

        let plane = n_q * d;
        let new_planes = || {
            (
                vec![0.0f32; plane],
                vec![0.0f32; plane],
                vec![f32::INFINITY; plane],
                vec![-1i64; plane],
            )
        };
        let (mut u_base, mut u_next, mut u_p, mut u_i) = new_planes();
        let (mut f_base, mut f_next, mut f_p, mut f_i) = new_planes();
        let mut dist = vec![0.0f32; plane];
        let mut scanned = vec![0.0f32; n_q * d.next_power_of_two()];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut base_idx = 0;
        for i in 0..n_r {
            gemm_row(
                i,
                base_idx,
                &qt_row0,
                &qt_col0,
                &u_base,
                &mut u_next,
                &mut dist,
                &rstats,
                &qstats,
                &params,
                &mma,
            );
            sort_scan_row(&dist, &mut scanned, n_q, d);
            update_profile_row(&scanned, &mut u_p, &mut u_i, n_q, d, i as i64);
            fused_gemm_row(
                i,
                base_idx,
                &qt_row0,
                &qt_col0,
                &f_base,
                &mut f_next,
                &mut f_p,
                &mut f_i,
                &rstats,
                &qstats,
                &query,
                &params,
                &mma,
                &schedule,
                &divisors,
                i as i64,
            );
            let what = format!("{input} k={chunk_k} d={d} excl={exclusion:?} row {i}");
            assert_eq!(bits(&u_next), bits(&f_next), "{what}: QT differs");
            assert_eq!(bits(&u_p), bits(&f_p), "{what}: profile differs");
            assert_eq!(u_i, f_i, "{what}: index differs");
            if i - base_idx == chunk_k || i == 0 {
                u_base.copy_from_slice(&u_next);
                f_base.copy_from_slice(&f_next);
                base_idx = i;
            }
        }
    }

    #[test]
    fn fused_gemm_matches_unfused_gemm_pipeline() {
        // 1, 2 and 3 workers move the column-chunk boundaries.
        for threads in 1..=3 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                for input in [Format::Fp16, Format::Bf16, Format::Tf32] {
                    for chunk_k in MMA_CHUNK_SIZES {
                        for d in [1, 3, 5, 8] {
                            for exclusion in [None, Some(4)] {
                                assert_fused_gemm_matches_unfused(input, chunk_k, d, exclusion);
                            }
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn fused_cost_is_one_launch_with_component_work() {
        let fmt = Format::Fp32;
        let (n_q, d) = (256, 8);
        let fused = fused_row_cost(n_q, d, fmt);
        let parts = [
            dist_cost(n_q, d, fmt),
            sort_scan_cost(n_q, d, fmt),
            update_cost(n_q, d, fmt),
        ];
        assert_eq!(fused.class, KernelClass::FusedRow);
        assert_eq!(fused.launches, 1);
        assert_eq!(fused.flops, parts.iter().map(|c| c.flops).sum::<u64>());
        assert_eq!(fused.bytes(), parts.iter().map(|c| c.bytes()).sum::<u64>());
        assert_eq!(
            fused.barriers,
            parts.iter().map(|c| c.barriers).sum::<u64>() + DISPATCHES_ELIMINATED_PER_ROW
        );
    }
}
