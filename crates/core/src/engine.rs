//! The tile-attempt engine: the one place a tile runs "safely".
//!
//! The paper runs every tile as its own matrix profile and merges the
//! results (Pseudocode 2). Every path that executes tiles — the local
//! driver, the remote tile subset and the streaming delta tiles — does so
//! through [`TileEngine::run`], which owns the per-tile resilience loop
//! (DESIGN.md §9): planned fault → execute → poison → validation gate →
//! deadline → device-health bookkeeping → capped backoff → retry, and
//! finally a typed [`MdmpError::TileFailed`]. The engine also owns the
//! shared job preamble ([`job_tiles`]), the tile → device assignment, the
//! [`DeviceHealth`] ledger and the run's resilience tallies.
//!
//! Cost submission and merging stay with the callers, in their own order:
//! that is what keeps modelled seconds bit-identical across paths.

use crate::config::{MdmpConfig, MdmpError, TileError};
use crate::driver::PrecalcStore;
use crate::tile_exec::{
    apply_plane_fault, compute_tile_precalc, execute_tile_from_precalc_pooled, max_profile_value,
    validate_profile_plane, PlaneBuffers, TileOutput,
};
use crate::tiling::{assign_tiles_weighted, compute_tile_list, Tile};
use mdmp_data::MultiDimSeries;
use mdmp_faults::FaultKind;
use mdmp_gpu_sim::{DeviceHealth, DeviceSpec, GpuSystem};
use mdmp_precision::Real;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A successful tile: its output, whether the precalculation came from a
/// store, and the device it finally ran on.
pub(crate) type TileSuccess = (TileOutput, bool, usize);

/// The job preamble shared by every series-level entry point: matching
/// dimensionality, series at least one segment long, a valid
/// configuration, and the job's global tiling.
pub(crate) fn job_tiles(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
) -> Result<Vec<Tile>, MdmpError> {
    if reference.dims() != query.dims() {
        return Err(MdmpError::DimensionalityMismatch {
            reference: reference.dims(),
            query: query.dims(),
        });
    }
    if reference.len() < cfg.m || query.len() < cfg.m {
        return Err(MdmpError::BadConfig(
            "series shorter than the segment length".into(),
        ));
    }
    tile_list(reference.n_segments(cfg.m), query.n_segments(cfg.m), cfg)
}

/// The validated tiling of an `n_r × n_q` distance matrix.
pub(crate) fn tile_list(n_r: usize, n_q: usize, cfg: &MdmpConfig) -> Result<Vec<Tile>, MdmpError> {
    cfg.validate(n_r, n_q)?;
    compute_tile_list(n_r, n_q, cfg.n_tiles)
}

/// Assign tiles to devices weighted by effective memory bandwidth (the
/// dominant cost of every kernel class).
pub(crate) fn assign_by_bandwidth<'a>(
    tiles: &[Tile],
    specs: impl Iterator<Item = &'a DeviceSpec>,
    cfg: &MdmpConfig,
) -> Vec<usize> {
    let weights: Vec<f64> = specs
        .map(|spec| spec.mem_bandwidth * spec.mem_eff_fp64)
        .collect();
    assign_tiles_weighted(tiles, &weights, cfg.schedule)
}

/// One tile's precalculation (served from `store` when it holds it) and
/// main loop on pooled plane buffers — the execute step of a job tile.
pub(crate) fn execute_job_tile<P: Real, M: Real>(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    tile: &Tile,
    cfg: &MdmpConfig,
    store: Option<&dyn PrecalcStore>,
    bufs: &mut PlaneBuffers<M>,
) -> (TileOutput, bool) {
    let kahan = cfg.mode.compensated_precalc();
    let mut compute = || {
        Arc::new(compute_tile_precalc::<P>(
            reference, query, tile, cfg, kahan,
        ))
    };
    let (pre, cached) = match store {
        Some(s) => s.fetch_or_compute(tile.index, &mut compute),
        None => (compute(), false),
    };
    let out = execute_tile_from_precalc_pooled::<M>(&pre, tile, cfg, kahan, cached, bufs);
    (out, cached)
}

/// Capped exponential backoff: `base · 2^attempt`, never above `cap`.
fn retry_backoff(base: Duration, cap: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16)).min(cap)
}

/// Per-run resilience state: tile → device assignment, the device health
/// ledger and the fault tallies. Shared by reference across host workers.
pub(crate) struct TileEngine<'a> {
    cfg: &'a MdmpConfig,
    assignment: Vec<usize>,
    health: DeviceHealth,
    value_bound: f64,
    retries: AtomicU64,
    validation_failures: AtomicU64,
    faults_injected: AtomicU64,
}

impl<'a> TileEngine<'a> {
    /// An engine for `tiles` on `system`'s devices.
    pub(crate) fn new(cfg: &'a MdmpConfig, tiles: &[Tile], system: &GpuSystem) -> Self {
        let n_gpu = system.device_count();
        let specs = (0..n_gpu).map(|i| &system.device(i).spec);
        TileEngine::with_assignment(cfg, assign_by_bandwidth(tiles, specs, cfg), n_gpu)
    }

    /// A one-device engine: every tile prefers device 0, and a lone device
    /// is never quarantined, so only the retry loop and tallies matter.
    pub(crate) fn single_device(cfg: &'a MdmpConfig) -> Self {
        TileEngine::with_assignment(cfg, Vec::new(), 1)
    }

    fn with_assignment(cfg: &'a MdmpConfig, assignment: Vec<usize>, n_devices: usize) -> Self {
        TileEngine {
            cfg,
            assignment,
            health: DeviceHealth::new(n_devices, cfg.quarantine_threshold),
            value_bound: max_profile_value(cfg.m),
            retries: AtomicU64::new(0),
            validation_failures: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
        }
    }

    /// Run `tile` until an attempt passes every check or the retry budget
    /// is spent. `execute` performs one attempt's precalculation and main
    /// loop and reports whether the precalculation was cached. A failed
    /// attempt is retried with capped exponential backoff, re-dispatched
    /// away from quarantined devices.
    pub(crate) fn run(
        &self,
        tile: &Tile,
        mut execute: impl FnMut() -> (TileOutput, bool),
    ) -> Result<TileSuccess, MdmpError> {
        // Tiles outside the job tiling (streaming arrivals) prefer device 0.
        let preferred = self.assignment.get(tile.index).copied().unwrap_or(0);
        let mut attempt: u32 = 0;
        loop {
            let dev = self.health.dispatch(preferred, attempt as usize);
            match self.attempt(tile, attempt, &mut execute) {
                Ok((out, cached)) => return Ok((out, cached, dev)),
                Err(source) => {
                    self.health.record_failure(dev);
                    if attempt >= self.cfg.tile_retries {
                        return Err(MdmpError::TileFailed {
                            tile: tile.index,
                            attempts: self.cfg.tile_retries + 1,
                            source,
                        });
                    }
                    // relaxed-ok: reporting tally, read once the run is
                    // over (after the worker scope has joined).
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(retry_backoff(
                        self.cfg.tile_retry_base,
                        self.cfg.tile_retry_cap,
                        attempt,
                    ));
                    attempt += 1;
                }
            }
        }
    }

    /// One attempt: inject the planned fault (if any), execute, poison the
    /// result plane if asked, then run the validation gate and the
    /// per-kernel deadline check.
    fn attempt(
        &self,
        tile: &Tile,
        attempt: u32,
        execute: &mut impl FnMut() -> (TileOutput, bool),
    ) -> Result<(TileOutput, bool), TileError> {
        let start = Instant::now();
        let cfg = self.cfg;
        let fault = cfg
            .fault_plan
            .as_deref()
            .and_then(|plan| plan.tile_fault(tile.index, attempt));
        if fault.is_some() {
            // relaxed-ok: reporting tally, read after the run (see above).
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        match fault {
            Some(FaultKind::Kernel) => return Err(TileError::Kernel { tile: tile.index }),
            Some(FaultKind::Stall { millis }) => std::thread::sleep(Duration::from_millis(millis)),
            _ => {}
        }
        let (mut out, cached) = execute();
        if let Some(kind) = fault {
            apply_plane_fault(&mut out.profile, kind);
        }
        // The gate guards every result, faulted or not — but only when
        // clamping is on; the unclamped ablation produces legitimate NaNs.
        if cfg.clamp {
            if let Err(violation) = validate_profile_plane(&out.profile, self.value_bound) {
                // relaxed-ok: reporting tally, read after the run.
                self.validation_failures.fetch_add(1, Ordering::Relaxed);
                return Err(TileError::PoisonedPlane {
                    tile: tile.index,
                    violation,
                });
            }
        }
        if let Some(deadline) = cfg.tile_deadline {
            let elapsed = start.elapsed();
            if elapsed > deadline {
                return Err(TileError::Timeout {
                    tile: tile.index,
                    elapsed_ms: elapsed.as_millis() as u64,
                    deadline_ms: deadline.as_millis() as u64,
                });
            }
        }
        Ok((out, cached))
    }

    /// Failed attempts that were retried.
    pub(crate) fn tile_retries(&self) -> u64 {
        // relaxed-ok: read after every attempt has returned.
        self.retries.load(Ordering::Relaxed)
    }

    /// Result planes the validation gate rejected.
    pub(crate) fn plane_validation_failures(&self) -> u64 {
        // relaxed-ok: read after every attempt has returned.
        self.validation_failures.load(Ordering::Relaxed)
    }

    /// Faults the configured plan injected.
    pub(crate) fn faults_injected(&self) -> u64 {
        // relaxed-ok: read after every attempt has returned.
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// Devices the health ledger quarantined, ascending.
    pub(crate) fn quarantined_devices(&self) -> Vec<usize> {
        self.health.quarantined()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdmp_faults::FaultPlan;
    use mdmp_precision::PrecisionMode;

    /// A stand-in execute step: a clean one-column, one-dimension plane.
    fn clean_output() -> (TileOutput, bool) {
        let mut profile = crate::MatrixProfile::new_unset(1, 1);
        let (values, indices) = profile.planes_mut();
        values[0] = 1.0;
        indices[0] = 0;
        let out = TileOutput {
            profile,
            kernel_costs: Vec::new(),
            h2d_bytes: 0,
            d2h_bytes: 0,
            device_bytes: 0,
            eliminated_dispatches: 0,
        };
        (out, false)
    }

    #[test]
    fn retry_backoff_is_capped_exponential() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(50);
        assert_eq!(retry_backoff(base, cap, 0), Duration::from_millis(1));
        assert_eq!(retry_backoff(base, cap, 1), Duration::from_millis(2));
        assert_eq!(retry_backoff(base, cap, 5), Duration::from_millis(32));
        assert_eq!(retry_backoff(base, cap, 6), cap);
        assert_eq!(retry_backoff(base, cap, 63), cap);
    }

    #[test]
    fn every_recoverable_fault_is_retried_and_tallied() {
        let plan = FaultPlan::new()
            .with_fault(0, FaultKind::Kernel)
            .with_fault(1, FaultKind::PoisonNan)
            .with_fault(2, FaultKind::PoisonInf);
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64)
            .with_fault_plan(Some(Arc::new(plan)))
            .with_tile_backoff(Duration::ZERO, Duration::ZERO);
        let engine = TileEngine::single_device(&cfg);
        let mut executions = 0;
        for index in 0..4 {
            let tile = Tile {
                index,
                row0: 0,
                rows: 1,
                col0: 0,
                cols: 1,
            };
            let (out, cached, dev) = engine
                .run(&tile, || {
                    executions += 1;
                    clean_output()
                })
                .unwrap();
            assert_eq!(out.profile.value(0, 0), 1.0);
            assert!(!cached);
            assert_eq!(dev, 0);
        }
        // A kernel fault fails before executing; poisoned planes execute
        // and are thrown away.
        assert_eq!(executions, 6);
        assert_eq!(engine.faults_injected(), 3);
        assert_eq!(engine.tile_retries(), 3);
        assert_eq!(engine.plane_validation_failures(), 2);
        assert!(engine.quarantined_devices().is_empty(), "lone device");
    }
}
