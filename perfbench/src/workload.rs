//! The three workloads and the episode that runs one of them end to end:
//! set-up (simulation, initial regrid, staging service, workflow), a fixed
//! number of producer steps, and `finish()`.

use crate::gen::{self, Blast, Blob};
use crate::trace::{self, Span, Timed};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;
use xlayer::adapt::Placement;
use xlayer::amr::hierarchy::{AmrHierarchy, HierarchyConfig};
use xlayer::amr::{IBox, ProblemDomain};
use xlayer::net::cluster::StagingCluster;
use xlayer::net::hist::LatencySnapshot;
use xlayer::net::service::{ServiceConfig, StagingService};
use xlayer::net::wire::ServiceSnapshot;
use xlayer::solvers::euler::{ENERGY, RHO};
use xlayer::solvers::{
    AdvectDiffuseSolver, AmrSimulation, DriverConfig, EulerSolver, LevelSolver, VelocityField,
};
use xlayer::workflow::{NativeConfig, NativeWorkflow};

/// Where a workload stages its data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Staging {
    /// The workflow's in-process space: no wire traffic at all.
    InProcess,
    /// A loopback cluster of this many single-server shards.
    Cluster(usize),
    /// One loopback service whose memory cap is half of one step's
    /// staged bytes, with a disk tier attached, so puts spill and analysis
    /// gets promote.
    Tiered,
}

/// Which application solver, and the field it starts from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum App {
    /// Polytropic gas; analysis extracts a density isosurface.
    Gas,
    /// Advection–diffusion of a scalar with this diffusion coefficient.
    Scalar { diffusion: f64 },
}

/// One workload: a fixed problem and staging deployment.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub app: App,
    /// Base domain side, cells.
    pub n: i64,
    pub max_levels: usize,
    /// Largest grid side at every level.
    pub max_box: i64,
    pub regrid_interval: u64,
    /// Producer steps per episode.
    pub steps: usize,
    /// Undivided-gradient refinement threshold.
    pub tag_threshold: f64,
    pub iso: f64,
    pub staging: Staging,
    /// Base cells per seed-chosen shift of the initial field (see
    /// [`gen::blast`]).
    pub shift_stride: i64,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "euler_blast",
        app: App::Gas,
        n: 48,
        max_levels: 2,
        max_box: 24,
        regrid_interval: 4,
        steps: 12,
        tag_threshold: 0.5,
        iso: 1.05,
        staging: Staging::InProcess,
        shift_stride: 4,
    },
    Spec {
        name: "sharded_bulk",
        app: App::Scalar { diffusion: 0.05 },
        n: 96,
        max_levels: 1,
        max_box: 32,
        regrid_interval: 0,
        steps: 8,
        tag_threshold: 0.04,
        iso: 0.4,
        staging: Staging::Cluster(2),
        shift_stride: 32,
    },
    Spec {
        name: "tiered_fine",
        app: App::Scalar { diffusion: 0.0 },
        n: 40,
        max_levels: 2,
        max_box: 8,
        regrid_interval: 4,
        steps: 12,
        tag_threshold: 0.04,
        iso: 0.4,
        staging: Staging::Tiered,
        shift_stride: 8,
    },
];

/// The seeded initial field of one run.
#[derive(Clone, Debug)]
pub enum Inputs {
    Gas(Blast),
    Scalar(Vec<Blob>),
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn inputs(&self, seed: u64) -> Inputs {
        match self.app {
            App::Gas => Inputs::Gas(gen::blast(seed, self.n, self.shift_stride, self.max_levels)),
            App::Scalar { .. } => Inputs::Scalar(gen::blobs(seed, self.n, 3, self.shift_stride)),
        }
    }
}

/// How an episode runs.
#[derive(Clone, Copy, Debug)]
pub enum Mode<'a> {
    /// The oracle: generates the initial field from the inputs, stages in
    /// process with room to spare and puts synchronously inside `step()`.
    /// It records the generated field for the measured episodes.
    Reference(&'a Inputs),
    /// The workload's own staging deployment, overlapped transport,
    /// starting from the field the reference generated.
    Measured { field: &'a Field, traced: bool },
}

impl Mode<'_> {
    fn traced(&self) -> bool {
        matches!(self, Mode::Measured { traced: true, .. })
    }
}

/// Every fab's storage (ghost cells included), level by level.
type Storage = Vec<Vec<Vec<f64>>>;

/// The seeded initial field as the generator leaves it in the hierarchy:
/// before the initial regrid (`base`, level 0 only) and after it
/// (`refined`, every level; empty on a single-level workload). The
/// reference episode generates it once per seed; measured episodes copy
/// it in, so `setup_s` times the program initialising its state but not
/// the benchmark's generator.
#[derive(Debug, Default)]
pub struct Field {
    base: Storage,
    refined: Storage,
}

fn snapshot(h: &AmrHierarchy) -> Storage {
    (0..h.num_levels())
        .map(|l| {
            let level = h.level(l);
            (0..level.len())
                .map(|i| level.fab(i).as_slice().to_vec())
                .collect()
        })
        .collect()
}

/// Copy `storage` into `h`, whose layout must be the one it was taken
/// from.
fn restore(h: &mut AmrHierarchy, storage: &Storage) {
    assert_eq!(h.num_levels(), storage.len(), "level count changed");
    for (l, fabs) in storage.iter().enumerate() {
        let level = h.level_mut(l);
        assert_eq!(level.len(), fabs.len(), "grid count changed on level {l}");
        for (i, data) in fabs.iter().enumerate() {
            level.fab_mut(i).as_mut_slice().copy_from_slice(data);
        }
    }
}

/// Client-side histograms and summed service snapshots of one episode.
#[derive(Clone, Debug, Default)]
pub struct Wire {
    pub put: LatencySnapshot,
    pub get: LatencySnapshot,
    pub retries: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub busy_frames: u64,
    pub tier_spilled: u64,
    pub tier_promoted: u64,
    pub tier_disk_hits: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// Put requests served, per shard (one entry for a single service).
    pub puts_per_shard: Vec<u64>,
}

/// Everything one episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    pub setup_s: f64,
    pub tts_s: f64,
    pub step_ms: Vec<f64>,
    /// `(version, triangles, mesh_bytes)` per analysed version, in
    /// version order.
    pub outcomes: Vec<(u64, usize, u64)>,
    pub analysis_ms: Vec<f64>,
    /// Objects the producer packed (one per grid per level per step).
    pub enqueued: u64,
    pub delivered: u64,
    pub delivered_bytes: u64,
    pub rejected: u64,
    pub failed: u64,
    /// Smallest per-step staged byte count.
    pub min_step_bytes: u64,
    /// Composite-grid cells summed over steps.
    pub cells: u64,
    /// Peak resident memory of the process during the episode.
    pub peak_rss_mib: f64,
    /// Whether staging stayed in process (no remote backend).
    pub in_process: bool,
    pub wire: Option<Wire>,
    pub spans: Vec<Span>,
    /// The generated initial field (reference episodes only).
    pub field: Field,
}

/// A staging deployment started for one episode.
enum Service {
    None,
    Single(StagingService),
    Cluster(StagingCluster),
}

impl Service {
    fn snapshots(&self) -> Vec<ServiceSnapshot> {
        match self {
            Service::None => Vec::new(),
            Service::Single(s) => vec![s.stats().snapshot(s.space(), s.pool())],
            Service::Cluster(c) => c.snapshots().into_iter().flatten().collect(),
        }
    }

    fn shutdown(self) {
        match self {
            Service::None => {}
            Service::Single(s) => s.shutdown(),
            Service::Cluster(c) => c.shutdown(),
        }
    }
}

/// Directory (inside the working tree) for spill logs and trace files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

fn service_config(memory: u64, disk_dir: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        servers: 1,
        memory_per_server: memory,
        disk_dir,
        ..Default::default()
    }
}

fn fill(h: &mut AmrHierarchy, inputs: &Inputs) {
    match inputs {
        Inputs::Gas(b) => gen::fill_gas(h, b),
        Inputs::Scalar(blobs) => gen::fill_scalar(h, blobs),
    }
}

/// Run one episode of `spec`. `tier_cap` is the tiered service's memory
/// cap in bytes (ignored by the other deployments); `id` names the
/// episode in trace spans and spill directories.
pub fn run(spec: &Spec, mode: Mode, tier_cap: u64, id: u32) -> Episode {
    match (spec.app, mode.traced()) {
        (App::Gas, false) => episode(spec, mode, tier_cap, id, gas()),
        (App::Gas, true) => episode(spec, mode, tier_cap, id, Timed(gas())),
        (App::Scalar { diffusion }, false) => {
            episode(spec, mode, tier_cap, id, advect(spec, diffusion))
        }
        (App::Scalar { diffusion }, true) => {
            episode(spec, mode, tier_cap, id, Timed(advect(spec, diffusion)))
        }
    }
}

/// Refinement follows the energy jump: the blast starts at uniform
/// density, so density tagging would leave the first steps unrefined and
/// every episode would open with a cheap single-level transient.
fn gas() -> EulerSolver {
    EulerSolver {
        tag_comp: ENERGY,
        ..Default::default()
    }
}

fn advect(spec: &Spec, diffusion: f64) -> AdvectDiffuseSolver {
    AdvectDiffuseSolver::new(VelocityField::Constant([1.0, 0.5, 0.25]), diffusion, spec.n)
}

fn episode<S: LevelSolver>(spec: &Spec, mode: Mode, tier_cap: u64, id: u32, solver: S) -> Episode {
    if mode.traced() {
        trace::start_run(id);
    }
    let mut ep = Episode::default();
    let tier_dir = out_dir().join(format!("tier-{}-{id}", std::process::id()));

    reset_peak_rss();
    let setup = trace::span("setup");
    let t_setup = Instant::now();
    let mut hier = HierarchyConfig {
        max_levels: spec.max_levels,
        base_max_box: spec.max_box,
        ..Default::default()
    };
    hier.cluster.max_box_size = spec.max_box;
    let domain = match spec.app {
        App::Gas => ProblemDomain::new(IBox::cube(spec.n)),
        App::Scalar { .. } => ProblemDomain::periodic(IBox::cube(spec.n)),
    };
    let driver = DriverConfig {
        cfl: 0.3,
        regrid_interval: spec.regrid_interval,
        tag_threshold: spec.tag_threshold,
        ..Default::default()
    };
    let mut sim = AmrSimulation::new(domain, hier, solver, driver);
    match mode {
        Mode::Reference(inputs) => {
            fill(&mut sim.hierarchy, inputs);
            ep.field.base = snapshot(&sim.hierarchy);
            if spec.max_levels > 1 {
                sim.regrid_now();
                fill(&mut sim.hierarchy, inputs);
                ep.field.refined = snapshot(&sim.hierarchy);
            }
        }
        Mode::Measured { field, .. } => {
            restore(&mut sim.hierarchy, &field.base);
            if spec.max_levels > 1 {
                sim.regrid_now();
                restore(&mut sim.hierarchy, &field.refined);
            }
        }
    }
    let staging = match mode {
        Mode::Reference(_) => Staging::InProcess,
        Mode::Measured { .. } => spec.staging,
    };
    let service = match staging {
        Staging::InProcess => Service::None,
        Staging::Cluster(shards) => Service::Cluster(
            StagingCluster::start(shards, &service_config(256 << 20, None))
                .expect("start loopback staging cluster"),
        ),
        Staging::Tiered => {
            std::fs::create_dir_all(&tier_dir).expect("create spill directory");
            Service::Single(
                StagingService::start(service_config(tier_cap, Some(tier_dir.clone())))
                    .expect("start loopback staging service"),
            )
        }
    };
    let remote = match &service {
        Service::None => None,
        Service::Single(s) => Some(s.local_addr().to_string()),
        Service::Cluster(c) => Some(c.addr_list()),
    };
    let cfg = NativeConfig {
        iso_value: spec.iso,
        comp: match spec.app {
            App::Gas => RHO,
            App::Scalar { .. } => 0,
        },
        staging_servers: 1,
        staging_memory: 1 << 30,
        workers: 1,
        overlap_staging: matches!(mode, Mode::Measured { .. }),
        placement_override: Some(Placement::InTransit),
        shard_span: spec.max_box,
        remote,
        ..Default::default()
    };
    let mut wf = NativeWorkflow::new(sim, cfg);
    ep.setup_s = t_setup.elapsed().as_secs_f64();
    drop(setup);

    let transport = wf.transport_stats().expect("overlapped transport running");
    ep.in_process = wf.space().is_some();
    let single = wf.remote_client().cloned();
    let sharded = wf.sharded_client().cloned();

    let t_loop = Instant::now();
    for _ in 0..spec.steps {
        let t = Instant::now();
        {
            let _s = trace::span("step");
            wf.step();
        }
        ep.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let h = &wf.sim().hierarchy;
        ep.enqueued += (0..h.num_levels())
            .map(|l| h.level(l).len() as u64)
            .sum::<u64>();
        ep.cells += h.total_cells();
    }
    let (steps, outcomes, _) = {
        let _s = trace::span("finish");
        wf.finish()
    };
    ep.tts_s = t_loop.elapsed().as_secs_f64();
    ep.spans = trace::stop_run();

    ep.delivered = transport.delivered.load(Ordering::Relaxed);
    ep.delivered_bytes = transport.bytes.load(Ordering::Relaxed);
    ep.rejected = transport.rejected.load(Ordering::Relaxed);
    ep.failed = transport.failed.load(Ordering::Relaxed);
    ep.min_step_bytes = steps.iter().map(|s| s.moved_bytes).min().unwrap_or(0);
    ep.outcomes = outcomes
        .iter()
        .map(|o| (o.version, o.triangles, o.mesh_bytes))
        .collect();
    ep.analysis_ms = outcomes.iter().map(|o| o.seconds * 1e3).collect();

    let snaps = service.snapshots();
    if !snaps.is_empty() {
        let (put, get, retries) = match (&single, &sharded) {
            (Some(c), _) => (c.put_latency(), c.get_latency(), c.client_stats().total()),
            (_, Some(c)) => (
                c.put_latency(),
                c.get_latency(),
                c.client_stats_total().total(),
            ),
            _ => Default::default(),
        };
        let sum = |f: fn(&ServiceSnapshot) -> u64| snaps.iter().map(f).sum::<u64>();
        ep.wire = Some(Wire {
            put,
            get,
            retries,
            bytes_in: sum(|s| s.bytes_in),
            bytes_out: sum(|s| s.bytes_out),
            busy_frames: sum(|s| s.busy_frames),
            tier_spilled: sum(|s| s.tier_spilled),
            tier_promoted: sum(|s| s.tier_promoted),
            tier_disk_hits: sum(|s| s.tier_disk_hits),
            pool_hits: sum(|s| s.pool_hits),
            pool_misses: sum(|s| s.pool_misses),
            puts_per_shard: snaps.iter().map(|s| s.puts).collect(),
        });
    }
    ep.peak_rss_mib = peak_rss_mib();
    service.shutdown();
    if staging == Staging::Tiered {
        // Best effort: a leftover spill log only costs disk space.
        let _ = std::fs::remove_dir_all(&tier_dir);
    }
    ep
}

/// Reset the kernel's peak-resident mark for this process (Linux
/// `clear_refs` value 5), so the next [`peak_rss_mib`] covers only what
/// follows. Staging memory and the disk tier's buffers live in this
/// process, so its peak is the run's. Where the reset is unavailable the
/// peak covers the process lifetime instead.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory (`VmHWM`) since the last reset, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Remove the output directory if nothing is left in it.
pub fn tidy_out_dir() {
    let _ = std::fs::remove_dir(out_dir());
}
