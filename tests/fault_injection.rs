//! Chaos suite: deterministic fault injection against the tile pipeline
//! and the job service.
//!
//! The invariants under test:
//!
//! 1. Any recoverable fault plan (kernel failures, stalls, poisoned
//!    planes) with retries enabled is *invisible*: the merged profile is
//!    bit-identical to the fault-free run, in every paper precision mode.
//! 2. Exhausted retries yield a clean typed error — never a partial
//!    profile.
//! 3. A failed job is reported over the JSON-lines wire, and the
//!    resilience counters show up on the Prometheus metrics page.

use mdmp_core::{
    job_tile_count, run_tile_subset, run_with_mode, MatrixProfile, MdmpConfig, MdmpError,
    TileError, TileSubsetRun,
};
use mdmp_data::MultiDimSeries;
use mdmp_faults::{FaultKind, FaultPlan};
use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
use mdmp_precision::PrecisionMode;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The five precision modes of the source paper.
const PAPER_MODES: [PrecisionMode; 5] = [
    PrecisionMode::Fp64,
    PrecisionMode::Fp32,
    PrecisionMode::Fp16,
    PrecisionMode::Mixed,
    PrecisionMode::Fp16c,
];

fn series(seed: u64, len: usize, d: usize) -> MultiDimSeries {
    let dims: Vec<Vec<f64>> = (0..d)
        .map(|k| {
            let mut state = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(k as u64);
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
                })
                .collect()
        })
        .collect();
    MultiDimSeries::from_dims(dims)
}

fn run(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
    gpus: usize,
) -> Result<mdmp_core::MdmpRun, MdmpError> {
    let mut system = GpuSystem::homogeneous(DeviceSpec::a100(), gpus);
    run_with_mode(reference, query, cfg, &mut system)
}

/// Every tile of the job through the remote-subset path, one node.
fn run_subset(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
    gpus: usize,
) -> Result<TileSubsetRun, MdmpError> {
    let m = cfg.m;
    let n_tiles = job_tile_count(reference.n_segments(m), query.n_segments(m), cfg)?;
    let indices: Vec<usize> = (0..n_tiles).collect();
    let mut system = GpuSystem::homogeneous(DeviceSpec::a100(), gpus);
    run_tile_subset(reference, query, cfg, &mut system, None, &indices)
}

/// A subset run's tiles min-merged in tile order, as a coordinator does.
fn merged(run: &TileSubsetRun, n_query: usize, dims: usize) -> MatrixProfile {
    let mut profile = MatrixProfile::new_unset(n_query, dims);
    for t in &run.results {
        profile.merge_min_columns(&t.profile, t.tile.col0);
    }
    profile
}

/// Bit-identical comparison: values by their f64 bit patterns, indices
/// exactly.
fn assert_bit_identical(a: &MatrixProfile, b: &MatrixProfile, label: &str) {
    assert_eq!(a.n_query(), b.n_query(), "{label}: query count");
    assert_eq!(a.dims(), b.dims(), "{label}: dims");
    for k in 0..a.dims() {
        for j in 0..a.n_query() {
            assert_eq!(
                a.value(j, k).to_bits(),
                b.value(j, k).to_bits(),
                "{label}: P[{j}][{k}] {} vs {}",
                a.value(j, k),
                b.value(j, k)
            );
            assert_eq!(a.index(j, k), b.index(j, k), "{label}: I[{j}][{k}]");
        }
    }
}

/// The fault kinds a retry always recovers from with a detectable
/// signature. Bit flips are excluded by design: a flip of a low mantissa
/// bit of a small value stays inside the validation bound and is the
/// documented residual risk (see `DESIGN.md` §9); they get dedicated unit
/// tests in `tile_exec` instead.
fn recoverable_kind(tag: u8) -> FaultKind {
    match tag % 4 {
        0 => FaultKind::Kernel,
        1 => FaultKind::PoisonNan,
        2 => FaultKind::PoisonInf,
        _ => FaultKind::Stall { millis: 2 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: any seeded plan of recoverable faults, with the default
    /// retry budget, produces a profile bit-identical to the fault-free
    /// run — in all five paper modes.
    #[test]
    fn recoverable_fault_plans_are_invisible_with_retries(
        seed in 0u64..10_000,
        // Each element encodes one (tile, kind) directive.
        faults in prop::collection::vec(0u64..16, 1..=4),
        d in 1usize..3,
    ) {
        let reference = series(seed, 70, d);
        let query = series(seed ^ 0x9e3779b97f4a7c15, 70, d);
        let mut plan = FaultPlan::new().with_seed(seed);
        for &code in &faults {
            let (tile, tag) = ((code % 4) as usize, (code / 4) as u8);
            plan = plan.with_fault(tile, recoverable_kind(tag));
        }
        let plan = Arc::new(plan);
        for mode in PAPER_MODES {
            let cfg = MdmpConfig::new(8, mode).with_tiles(4);
            let clean = run(&reference, &query, &cfg, 2).unwrap();
            let faulted = run(
                &reference,
                &query,
                &cfg.clone().with_fault_plan(Some(Arc::clone(&plan))),
                2,
            )
            .unwrap();
            prop_assert!(faulted.faults_injected > 0, "{mode}: plan never fired");
            assert_bit_identical(&clean.profile, &faulted.profile, &format!("{mode}"));
        }
    }

    /// Property: when every attempt faults and the retry budget runs out,
    /// the run fails with a typed per-tile error — it never returns a
    /// partial profile — on the driver and the remote-subset path alike.
    #[test]
    fn exhausted_retries_fail_typed_never_partial(
        seed in 0u64..10_000,
        tile in 0usize..4,
        mode_idx in 0usize..5,
    ) {
        let reference = series(seed, 70, 1);
        let plan = FaultPlan::new()
            .with_seed(seed)
            .with_fault(tile, FaultKind::Kernel)
            .always();
        let cfg = MdmpConfig::new(8, PAPER_MODES[mode_idx])
            .with_tiles(4)
            .with_fault_plan(Some(Arc::new(plan)))
            .with_tile_retries(1);
        match run(&reference, &reference, &cfg, 2) {
            Err(MdmpError::TileFailed { tile: t, attempts, source }) => {
                prop_assert_eq!(t, tile);
                prop_assert_eq!(attempts, 2);
                let is_kernel = matches!(source, TileError::Kernel { .. });
                prop_assert!(is_kernel, "source was {}", source);
            }
            other => prop_assert!(false, "expected TileFailed, got {:?}", other.map(|r| r.profile.n_query())),
        }
        match run_subset(&reference, &reference, &cfg, 2) {
            Err(MdmpError::TileFailed { tile: t, attempts, source }) => {
                prop_assert_eq!(t, tile);
                prop_assert_eq!(attempts, 2);
                let is_kernel = matches!(source, TileError::Kernel { .. });
                prop_assert!(is_kernel, "subset source was {}", source);
            }
            other => prop_assert!(false, "subset: expected TileFailed, got {:?}", other.map(|r| r.results.len())),
        }
    }
}

/// Acceptance scenario: a seeded plan injecting one kernel failure, one
/// stall past the deadline, and one poisoned plane recovers to a
/// bit-identical profile in every paper mode — through the driver and
/// through the remote-subset path, with the same resilience tallies.
#[test]
fn kernel_stall_and_poison_recover_bit_identical_in_all_modes() {
    let reference = series(11, 90, 2);
    let query = series(23, 90, 2);
    // The stall must sit well above the per-kernel deadline, and the
    // deadline well above a debug-build tile compute (~10 ms).
    let plan = Arc::new(
        FaultPlan::new()
            .with_seed(7)
            .with_fault(0, FaultKind::Kernel)
            .with_fault(1, FaultKind::Stall { millis: 600 })
            .with_fault(2, FaultKind::PoisonNan),
    );
    for mode in PAPER_MODES {
        let cfg = MdmpConfig::new(8, mode).with_tiles(4);
        let clean = run(&reference, &query, &cfg, 2).unwrap();
        let faulted = run(
            &reference,
            &query,
            &cfg.clone()
                .with_fault_plan(Some(Arc::clone(&plan)))
                .with_tile_deadline(Some(Duration::from_millis(250))),
            2,
        )
        .unwrap();
        assert_eq!(faulted.faults_injected, 3, "{mode}");
        assert_eq!(faulted.tile_retries, 3, "{mode}");
        assert_eq!(faulted.plane_validation_failures, 1, "{mode}");
        assert_bit_identical(&clean.profile, &faulted.profile, &format!("{mode}"));

        let subset = run_subset(
            &reference,
            &query,
            &cfg.clone()
                .with_fault_plan(Some(Arc::clone(&plan)))
                .with_tile_deadline(Some(Duration::from_millis(250))),
            2,
        )
        .unwrap();
        assert_eq!(subset.faults_injected, 3, "{mode} subset");
        assert_eq!(subset.tile_retries, 3, "{mode} subset");
        assert_eq!(subset.plane_validation_failures, 1, "{mode} subset");
        let (n_query, dims) = (clean.profile.n_query(), clean.profile.dims());
        assert_bit_identical(
            &clean.profile,
            &merged(&subset, n_query, dims),
            &format!("{mode} subset"),
        );
    }
}

/// The same plan expressed as a spec string — the CLI/wire surface —
/// parses to the same behaviour.
#[test]
fn spec_string_plan_behaves_like_the_built_one() {
    let reference = series(31, 70, 1);
    let plan: FaultPlan = "seed=7,kernel@0,nan@2".parse().unwrap();
    let cfg = MdmpConfig::new(8, PrecisionMode::Fp16)
        .with_tiles(4)
        .with_fault_plan(Some(Arc::new(plan)));
    let clean = run(
        &reference,
        &reference,
        &MdmpConfig::new(8, PrecisionMode::Fp16).with_tiles(4),
        2,
    )
    .unwrap();
    let faulted = run(&reference, &reference, &cfg, 2).unwrap();
    assert_eq!(faulted.faults_injected, 2);
    assert_bit_identical(&clean.profile, &faulted.profile, "fp16 spec string");
}

/// Strategy: one arbitrary explicit directive, spanning every [`FaultKind`].
fn arb_directive() -> impl Strategy<Value = (usize, FaultKind)> {
    (0usize..64, 0u8..5, 0u64..10_000, 0u8..64).prop_map(|(tile, tag, millis, bit)| {
        let kind = match tag {
            0 => FaultKind::Kernel,
            1 => FaultKind::Stall { millis },
            2 => FaultKind::PoisonNan,
            3 => FaultKind::PoisonInf,
            _ => FaultKind::BitFlip { bit },
        };
        (tile, kind)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: the spec-string grammar is a fixpoint under
    /// `Display -> parse -> Display`. Rendering any plan, parsing it
    /// back, and rendering again yields the identical string, so specs
    /// logged by the service replay the exact same plan.
    #[test]
    fn spec_string_display_parse_fixpoint(
        directives in prop::collection::vec(arb_directive(), 0..=5),
        seed in prop::option::of(1u64..u64::MAX),
        pkernel in prop::option::of(0.0f64..=1.0),
        pstall in prop::option::of(0.0f64..=1.0),
        pnan in prop::option::of(0.0f64..=1.0),
        stall_ms in prop::option::of(0u64..10_000),
        attempts in prop::option::of(prop_oneof![2u32..100, Just(u32::MAX)]),
        budget in prop::option::of(0u64..1_000_000),
        drop_conn in any::<bool>(),
    ) {
        let mut plan = FaultPlan::new();
        for &(tile, kind) in &directives {
            plan = plan.with_fault(tile, kind);
        }
        if let Some(s) = seed { plan = plan.with_seed(s); }
        if let Some(p) = pkernel { plan = plan.with_p_kernel(p); }
        if let Some(p) = pstall { plan = plan.with_p_stall(p); }
        if let Some(p) = pnan { plan = plan.with_p_nan(p); }
        if let Some(ms) = stall_ms { plan = plan.with_stall_ms(ms); }
        if let Some(n) = attempts { plan = plan.with_faulty_attempts(n); }
        if let Some(b) = budget { plan = plan.with_budget(b); }
        if drop_conn { plan = plan.with_connection_drop(); }

        let rendered = plan.to_string();
        let reparsed: FaultPlan = rendered.parse().unwrap_or_else(|e| {
            panic!("rendered spec `{rendered}` must reparse: {e}")
        });
        prop_assert_eq!(
            reparsed.to_string(),
            rendered.clone(),
            "Display -> parse -> Display is not a fixpoint for `{}`",
            rendered
        );
    }
}

mod wire {
    use super::*;
    use mdmp_service::{parse_job_spec, request, serve, Json, Service, ServiceConfig};

    fn metric_value(page: &str, name: &str) -> Option<f64> {
        page.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l[name.len() + 1..].trim().parse().ok())
    }

    fn synthetic_job(extra: Vec<(&str, Json)>) -> Json {
        let mut pairs = vec![
            (
                "input",
                Json::obj(vec![
                    ("kind", Json::str("synthetic")),
                    ("n", Json::num(64.0)),
                    ("d", Json::num(1.0)),
                    ("seed", Json::num(5.0)),
                ]),
            ),
            ("m", Json::num(8.0)),
            ("mode", Json::str("fp16")),
            ("tiles", Json::num(8.0)),
            ("gpus", Json::num(2.0)),
        ];
        pairs.extend(extra);
        Json::obj(pairs)
    }

    fn submit(addr: &str, job: Json) -> u64 {
        let response = request(
            addr,
            &Json::obj(vec![("op", Json::str("submit")), ("job", job)]),
        )
        .unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
        response.get("id").unwrap().as_u64().unwrap()
    }

    fn wait(addr: &str, id: u64) -> Json {
        request(
            addr,
            &Json::obj(vec![
                ("op", Json::str("wait")),
                ("id", Json::num(id as f64)),
                ("timeout_seconds", Json::num(60.0)),
            ]),
        )
        .unwrap()
        .get("job")
        .unwrap()
        .clone()
    }

    /// Acceptance: with retries disabled a faulted job fails with a typed
    /// error visible over the wire, and the retry / validation /
    /// quarantine counters are visible on the Prometheus page.
    #[test]
    fn failed_job_and_resilience_counters_over_the_wire() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 2,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        // Job 1: three kernel faults on device 0's tiles plus one poisoned
        // plane; retries recover, device 0 is quarantined (threshold 3),
        // the job completes.
        let id = submit(
            &addr,
            synthetic_job(vec![
                (
                    "fault_plan",
                    Json::str("seed=7,kernel@0,kernel@2,kernel@4,nan@6"),
                ),
                ("tile_retries", Json::num(2.0)),
            ]),
        );
        let job = wait(&addr, id);
        assert_eq!(job.get("state").unwrap().as_str(), Some("done"), "{job}");

        // Job 2: the same kernel fault on every attempt with per-tile
        // retries disabled: the job must fail with the typed tile error.
        let id = submit(
            &addr,
            synthetic_job(vec![
                ("fault_plan", Json::str("seed=7,kernel@0,attempts=all")),
                ("tile_retries", Json::num(0.0)),
            ]),
        );
        let job = wait(&addr, id);
        assert_eq!(job.get("state").unwrap().as_str(), Some("failed"), "{job}");
        let error = job.get("error").unwrap().as_str().unwrap();
        assert!(error.contains("tile 0"), "typed error on the wire: {error}");

        // The Prometheus page reflects all of it.
        let page = request(&addr, &Json::obj(vec![("op", Json::str("metrics"))])).unwrap();
        let page = page.get("text").unwrap().as_str().unwrap().to_string();
        assert!(
            metric_value(&page, "mdmp_tile_retries_total").unwrap() >= 4.0,
            "{page}"
        );
        assert!(metric_value(&page, "mdmp_plane_validation_failures_total").unwrap() >= 1.0);
        assert!(metric_value(&page, "mdmp_device_quarantined").unwrap() >= 1.0);
        assert!(metric_value(&page, "mdmp_jobs_failed_total").unwrap() >= 1.0);

        server.stop();
        service.shutdown(true);
    }

    /// A malformed fault plan is rejected at submission, not at run time.
    #[test]
    fn bad_fault_plan_is_rejected_at_parse() {
        let job = synthetic_job(vec![("fault_plan", Json::str("explode@0"))]);
        let err = parse_job_spec(&job).unwrap_err();
        assert!(err.contains("fault_plan"), "{err}");
    }
}
