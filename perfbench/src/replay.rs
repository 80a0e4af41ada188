//! The measured precision modes and the kernel-by-kernel replay.
//!
//! The replay runs a job's tiles one after another through the public
//! kernel functions of `mdmp_core::kernels`, timing each kernel, and
//! merges the tiles exactly as the driver does. Its profile must be
//! bit-identical to `run_with_mode` on the same job; that is checked.

use crate::trace::Tracer;
use mdmp_core::kernels::{
    comparator_schedule, dist_row, fused_row, gemm_row, scan_divisors, sort_scan_row,
    update_profile_row, DistParams,
};
use mdmp_core::{
    compute_tile_list, compute_tile_precalc, convert_qt, MatrixProfile, MdmpConfig, Stats,
};
use mdmp_data::MultiDimSeries;
use mdmp_gpu_sim::MmaConfig;
use mdmp_precision::{Bf16, Fp8E4M3, Half, PrecisionMode, Real, Tf32};
use std::time::Instant;

/// One representative mode per main-loop type: Mixed and FP16C share the
/// `Half` loop, E5M2 the `Flex` loop of E4M3, and BF16-TC/TF32-TC the MMA
/// path of FP16-TC.
pub const MODES: [(&str, PrecisionMode); 7] = [
    ("fp64", PrecisionMode::Fp64),
    ("fp32", PrecisionMode::Fp32),
    ("fp16", PrecisionMode::Fp16),
    ("bf16", PrecisionMode::Bf16),
    ("tf32", PrecisionMode::Tf32),
    ("fp8_e4m3", PrecisionMode::Fp8E4M3),
    ("fp16_tc", PrecisionMode::Fp16Tc),
];

/// Host seconds spent in each kernel over all tiles of one replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelTimes {
    pub precalc_s: f64,
    /// `fused_row` (vector modes) or `gemm_row` (tensor-core modes).
    pub row_s: f64,
    /// `dist_row` of the unfused replay; `gemm_row` for tensor-core modes,
    /// whose blocked GEMM is the `dist_calc` kernel.
    pub dist_s: f64,
    pub sort_scan_s: f64,
    pub update_s: f64,
}

impl KernelTimes {
    /// Kernel seconds on the path `run_with_mode` takes (precalculation
    /// plus the fused row, or plus the whole GEMM pipeline).
    pub fn main_path_s(&self, tensor_cores: bool) -> f64 {
        if tensor_cores {
            self.precalc_s + self.row_s + self.sort_scan_s + self.update_s
        } else {
            self.precalc_s + self.row_s
        }
    }
}

#[derive(Debug)]
pub struct Replay {
    /// The profile of the path `run_with_mode` takes.
    pub main: MatrixProfile,
    /// The three-kernel (unfused) profile; `None` for tensor-core modes.
    pub unfused: Option<MatrixProfile>,
    pub times: KernelTimes,
}

/// Replay `cfg`'s job kernel by kernel.
pub fn replay(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
    tracer: &Tracer,
    lane: u32,
    job: u64,
) -> Result<Replay, String> {
    match cfg.mode {
        PrecisionMode::Fp64 => replay_typed::<f64, f64>(reference, query, cfg, tracer, lane, job),
        PrecisionMode::Fp32
        | PrecisionMode::Fp16Tc
        | PrecisionMode::Bf16Tc
        | PrecisionMode::Tf32Tc => {
            replay_typed::<f32, f32>(reference, query, cfg, tracer, lane, job)
        }
        PrecisionMode::Fp16 => replay_typed::<Half, Half>(reference, query, cfg, tracer, lane, job),
        PrecisionMode::Bf16 => replay_typed::<Bf16, Bf16>(reference, query, cfg, tracer, lane, job),
        PrecisionMode::Tf32 => replay_typed::<Tf32, Tf32>(reference, query, cfg, tracer, lane, job),
        PrecisionMode::Fp8E4M3 => {
            replay_typed::<f32, Fp8E4M3>(reference, query, cfg, tracer, lane, job)
        }
        other => Err(format!("mode {other} is not one of the measured modes")),
    }
}

fn replay_typed<P: Real, M: Real>(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
    tracer: &Tracer,
    lane: u32,
    job: u64,
) -> Result<Replay, String> {
    let kahan = cfg.mode.compensated_precalc();
    let n_r = reference.n_segments(cfg.m);
    let n_q = query.n_segments(cfg.m);
    let d = reference.dims();
    let d_pad = d.next_power_of_two();
    let tiles = compute_tile_list(n_r, n_q, cfg.n_tiles).map_err(|e| e.to_string())?;
    let tc = cfg.mode.tc_input();
    let mut main = MatrixProfile::new_unset(n_q, d);
    let mut unfused = tc.is_none().then(|| MatrixProfile::new_unset(n_q, d));
    let mut t = KernelTimes::default();
    let schedule = comparator_schedule(d_pad);
    let divisors = scan_divisors::<M>(d);

    for tile in &tiles {
        let start = Instant::now();
        let pre = compute_tile_precalc::<P>(reference, query, tile, cfg, kahan);
        let end = Instant::now();
        t.precalc_s += end.duration_since(start).as_secs_f64();
        tracer.record(
            "kernels",
            "compute_tile_precalc",
            lane,
            job,
            start,
            end,
            vec![("tile", tile.index as f64)],
        );

        let rstats: Stats<M> = pre.rstats.convert();
        let qstats: Stats<M> = pre.qstats.convert();
        let qt_row0: Vec<M> = convert_qt(&pre.qt_row0);
        let qt_col0: Vec<M> = convert_qt(&pre.qt_col0);
        let params =
            DistParams::<M>::new(cfg.m, cfg.clamp, tile.row0, tile.col0, cfg.exclusion_zone);
        let plane = tile.cols * d;
        let (n_rows, n_cols) = (tile.rows, tile.cols);

        // The path run_with_mode takes: fused rows, or the blocked GEMM.
        let mut qt_prev = vec![M::zero(); plane];
        let mut qt_next = vec![M::zero(); plane];
        let mut p_plane = vec![M::infinity(); plane];
        let mut i_plane = vec![-1i64; plane];
        let loop_start = Instant::now();
        let (mut row_s, mut sort_s, mut upd_s) = (0.0, 0.0, 0.0);
        if let Some(input) = tc {
            let mma = MmaConfig::new(input).with_chunk_k(cfg.resolved_tc_chunk_k(input));
            let mut dist = vec![M::zero(); plane];
            let mut scanned = vec![M::zero(); n_cols * d_pad];
            let mut base_idx = 0usize;
            for i in 0..n_rows {
                let a = Instant::now();
                gemm_row(
                    i,
                    base_idx,
                    &qt_row0,
                    &qt_col0,
                    &qt_prev,
                    &mut qt_next,
                    &mut dist,
                    &rstats,
                    &qstats,
                    &params,
                    &mma,
                );
                let b = Instant::now();
                sort_scan_row(&dist, &mut scanned, n_cols, d);
                let c = Instant::now();
                update_profile_row(
                    &scanned,
                    &mut p_plane,
                    &mut i_plane,
                    n_cols,
                    d,
                    (tile.row0 + i) as i64,
                );
                let e = Instant::now();
                row_s += b.duration_since(a).as_secs_f64();
                sort_s += c.duration_since(b).as_secs_f64();
                upd_s += e.duration_since(c).as_secs_f64();
                if i - base_idx == mma.chunk_k || i == 0 {
                    qt_prev.copy_from_slice(&qt_next);
                    base_idx = i;
                }
            }
            t.row_s += row_s;
            t.dist_s += row_s;
            t.sort_scan_s += sort_s;
            t.update_s += upd_s;
        } else {
            for i in 0..n_rows {
                let a = Instant::now();
                fused_row(
                    i,
                    &qt_row0,
                    &qt_col0,
                    &qt_prev,
                    &mut qt_next,
                    &mut p_plane,
                    &mut i_plane,
                    &rstats,
                    &qstats,
                    &params,
                    &schedule,
                    &divisors,
                    (tile.row0 + i) as i64,
                );
                row_s += a.elapsed().as_secs_f64();
                std::mem::swap(&mut qt_prev, &mut qt_next);
            }
            t.row_s += row_s;
        }
        let loop_end = Instant::now();
        tracer.record(
            "kernels",
            if tc.is_some() {
                "gemm_row+sort_scan_row+update_profile_row"
            } else {
                "fused_row"
            },
            lane,
            job,
            loop_start,
            loop_end,
            vec![
                ("tile", tile.index as f64),
                ("row_s", row_s),
                ("sort_scan_s", sort_s),
                ("update_s", upd_s),
            ],
        );
        main.merge_min_columns(&widen(&p_plane, i_plane, n_cols, d), tile.col0);

        // The three-kernel pipeline over the same precalculation.
        if let Some(unfused) = unfused.as_mut() {
            let mut qt_prev = vec![M::zero(); plane];
            let mut qt_next = vec![M::zero(); plane];
            let mut dist = vec![M::zero(); plane];
            let mut scanned = vec![M::zero(); n_cols * d_pad];
            let mut p_plane = vec![M::infinity(); plane];
            let mut i_plane = vec![-1i64; plane];
            let loop_start = Instant::now();
            let (mut dist_s, mut sort_s, mut upd_s) = (0.0, 0.0, 0.0);
            for i in 0..n_rows {
                let a = Instant::now();
                dist_row(
                    i,
                    &qt_row0,
                    &qt_col0,
                    &qt_prev,
                    &mut qt_next,
                    &mut dist,
                    &rstats,
                    &qstats,
                    &params,
                );
                let b = Instant::now();
                sort_scan_row(&dist, &mut scanned, n_cols, d);
                let c = Instant::now();
                update_profile_row(
                    &scanned,
                    &mut p_plane,
                    &mut i_plane,
                    n_cols,
                    d,
                    (tile.row0 + i) as i64,
                );
                let e = Instant::now();
                dist_s += b.duration_since(a).as_secs_f64();
                sort_s += c.duration_since(b).as_secs_f64();
                upd_s += e.duration_since(c).as_secs_f64();
                std::mem::swap(&mut qt_prev, &mut qt_next);
            }
            t.dist_s += dist_s;
            t.sort_scan_s += sort_s;
            t.update_s += upd_s;
            tracer.record(
                "kernels",
                "dist_row+sort_scan_row+update_profile_row",
                lane,
                job,
                loop_start,
                Instant::now(),
                vec![
                    ("tile", tile.index as f64),
                    ("dist_s", dist_s),
                    ("sort_scan_s", sort_s),
                    ("update_s", upd_s),
                ],
            );
            unfused.merge_min_columns(&widen(&p_plane, i_plane, n_cols, d), tile.col0);
        }
    }
    Ok(Replay {
        main,
        unfused,
        times: t,
    })
}

/// Widen a tile's planes exactly to f64, as the driver's D2H step does.
fn widen<M: Real>(p_plane: &[M], i_plane: Vec<i64>, n_q: usize, d: usize) -> MatrixProfile {
    let p: Vec<f64> = p_plane.iter().map(|&v| v.to_f64()).collect();
    MatrixProfile::from_raw(p, i_plane, n_q, d)
}

/// `Ok` when both profiles have the same shape, value bits and indices.
pub fn identical(expected: &MatrixProfile, got: &MatrixProfile) -> Result<(), String> {
    if expected.n_query() != got.n_query() || expected.dims() != got.dims() {
        return Err(format!(
            "shape {}x{} vs {}x{}",
            expected.n_query(),
            expected.dims(),
            got.n_query(),
            got.dims()
        ));
    }
    for k in 0..expected.dims() {
        let (ep, gp) = (expected.profile_dim(k), got.profile_dim(k));
        let (ei, gi) = (expected.index_dim(k), got.index_dim(k));
        for j in 0..expected.n_query() {
            if ep[j].to_bits() != gp[j].to_bits() || ei[j] != gi[j] {
                return Err(format!(
                    "first difference at column {j} dim {k}: ({}, {}) vs ({}, {})",
                    ep[j], ei[j], gp[j], gi[j]
                ));
            }
        }
    }
    Ok(())
}
