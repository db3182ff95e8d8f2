//! End-to-end benchmark of the native coupled pipeline: AMR solve → pack
//! → stage → in-transit marching cubes, on three seeded workloads.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload euler_blast --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced episodes;
//! `--trace 1` alternates untraced and traced episodes and reports the
//! per-layer split. Every episode's analysis output is checked against a
//! reference computed once per seed on the synchronous in-process path,
//! and that path's output at a fixed check seed against a pinned table.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for the metric table.

mod gen;
mod golden;
mod stats;
mod trace;
mod workload;

use std::time::{Duration, Instant};
use workload::{Episode, Mode, Spec, Staging};

const USAGE: &str = "usage: perfbench --workload <euler_blast|sharded_bulk|tiered_fine> \
--seed <u64> --seconds <n> --trace <0|1>";

/// Traced/untraced episode pairs a `--trace 1` run makes at the least.
const MIN_TRACE_PAIRS: usize = 3;

/// Producer steps a `--trace 0` run measures at the least, whatever
/// `--seconds` says; the tail percentile is fixed from this.
const MIN_STEPS: usize = 100;

/// Percentile reported as `analysis_ms_tail`: the upper quartile, not
/// the steps' p90. The analysis worker runs while the producer's solver
/// keeps both of a 2-vCPU host's cores busy, so a version's analysis time
/// is set by how the scheduler shares them. Over ten seeds its p90
/// spread 0.22 and 0.33 of the median on `euler_blast` in two sets, past
/// the 0.25 bound, while its p75 spreads as little as its median.
const ANALYSIS_TAIL_Q: f64 = 0.75;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Why an episode is not correct (empty when it is).
fn check(spec: &Spec, ep: &Episode, reference: &Episode) -> Vec<String> {
    let mut errs = Vec::new();
    if ep.outcomes.len() != spec.steps {
        errs.push(format!(
            "{} of {} steps analysed",
            ep.outcomes.len(),
            spec.steps
        ));
    }
    if ep.outcomes != reference.outcomes {
        errs.push(format!(
            "analysis output differs from the synchronous reference: {:?} vs {:?}",
            ep.outcomes, reference.outcomes
        ));
    }
    let processed = ep.delivered + ep.rejected + ep.failed;
    if processed != ep.enqueued {
        errs.push(format!(
            "delivered {} + rejected {} + failed {} != enqueued {}",
            ep.delivered, ep.rejected, ep.failed, ep.enqueued
        ));
    }
    // Health: each workload must still exercise the layer it was built for.
    let wire = ep.wire.clone().unwrap_or_default();
    match spec.staging {
        Staging::InProcess => {
            if !ep.in_process || wire.bytes_in + wire.bytes_out > 0 {
                errs.push("in-process workload moved bytes over the wire".into());
            }
        }
        Staging::Cluster(shards) => {
            let busy = wire.puts_per_shard.iter().filter(|&&p| p > 0).count();
            if ep.in_process || busy != shards {
                errs.push(format!(
                    "cluster workload used {busy} of {shards} shards: {:?}",
                    wire.puts_per_shard
                ));
            }
        }
        Staging::Tiered => {
            if ep.in_process || wire.tier_spilled == 0 {
                errs.push("tiered workload never spilled to the disk tier".into());
            }
        }
    }
    errs
}

/// Rejected and failed staged objects plus missing analyses.
fn failed_ops(spec: &Spec, ep: &Episode) -> u64 {
    ep.rejected + ep.failed + spec.steps.saturating_sub(ep.outcomes.len()) as u64
}

fn end_to_end(spec: &Spec, eps: &[Episode]) -> (Vec<Metric>, String) {
    let mut tts: Vec<f64> = eps.iter().map(|e| e.tts_s).collect();
    let mut setup: Vec<f64> = eps.iter().map(|e| e.setup_s).collect();
    let mut rss: Vec<f64> = eps.iter().map(|e| e.peak_rss_mib).collect();
    let mut step: Vec<f64> = eps.iter().flat_map(|e| e.step_ms.iter().copied()).collect();
    let mut analysis: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.analysis_ms.iter().copied())
        .collect();
    let q = stats::tail_quantile(MIN_STEPS);
    let attempted: u64 = eps.iter().map(|e| e.enqueued + spec.steps as u64).sum();
    let failed: u64 = eps.iter().map(|e| failed_ops(spec, e)).sum();
    let detail = format!(
        "episodes={} steps_per_episode={} objects_per_episode={} cells_per_step={} \
         step_tail=p{} analysis_tail=p{} step_n={} analysis_n={}",
        eps.len(),
        spec.steps,
        eps.iter().map(|e| e.enqueued).sum::<u64>() / eps.len() as u64,
        eps.iter().map(|e| e.cells).sum::<u64>() / (eps.len() * spec.steps) as u64,
        q * 100.0,
        ANALYSIS_TAIL_Q * 100.0,
        step.len(),
        analysis.len()
    );
    let metrics = vec![
        m("time_to_solution_s", stats::median(&mut tts), "s"),
        m("step_ms_p50", stats::median(&mut step), "ms"),
        m("step_ms_tail", stats::quantile(&mut step, q), "ms"),
        m("analysis_ms_p50", stats::median(&mut analysis), "ms"),
        m(
            "analysis_ms_tail",
            stats::quantile(&mut analysis, ANALYSIS_TAIL_Q),
            "ms",
        ),
        m(
            "ok_ops_frac",
            1.0 - failed as f64 / attempted as f64,
            "frac",
        ),
        m("peak_rss_mib", stats::median(&mut rss), "MiB"),
        m("setup_s", stats::median(&mut setup), "s"),
    ];
    (metrics, detail)
}

const MIB: f64 = (1u64 << 20) as f64;

fn per_layer(spec: &Spec, traced: &[Episode], untraced: &[Episode]) -> Vec<Metric> {
    let n_ep = traced.len() as f64;
    let n_steps = (traced.len() * spec.steps) as f64;
    let (mut advance, mut wave, mut tag, mut step_self, mut finish) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut cells_advanced, mut regrids, mut loop_ns) = (0u64, 0u64, 0u64);
    for ep in traced {
        let spans = &ep.spans;
        let mut first_step = None;
        for (i, s) in spans.iter().enumerate() {
            let children: Vec<&trace::Span> =
                spans.iter().filter(|c| c.parent == Some(i)).collect();
            match s.name {
                "step" => {
                    first_step.get_or_insert(s.start_ns);
                    step_self += trace::self_ns(s, &children);
                    regrids += u64::from(children.iter().any(|c| c.name == "solvers.tag"));
                }
                "finish" => {
                    finish += trace::self_ns(s, &children);
                    loop_ns += s.end_ns - first_step.unwrap_or(s.start_ns);
                }
                _ => {}
            }
            // Solver self time counts only inside the producer loop; the
            // initial regrid's tagging belongs to set-up.
            let in_setup = s.parent.is_some_and(|p| spans[p].name == "setup");
            if !in_setup {
                match s.name {
                    "solvers.advance" => {
                        advance += s.duration_ns();
                        cells_advanced += s.work;
                    }
                    "solvers.wave_speed" => wave += s.duration_ns(),
                    "solvers.tag" => tag += s.duration_ns(),
                    _ => {}
                }
            }
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_ep = |f: &dyn Fn(&Episode) -> u64| traced.iter().map(f).sum::<u64>() as f64 / n_ep;
    let wires: Vec<workload::Wire> = traced.iter().filter_map(|e| e.wire.clone()).collect();
    let wire_med = |f: &dyn Fn(&workload::Wire) -> u64| {
        let mut v: Vec<f64> = wires.iter().map(|w| f(w) as f64).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&mut v)
        }
    };
    let wire_sum = |f: &dyn Fn(&workload::Wire) -> u64| wires.iter().map(f).sum::<u64>() as f64;
    let ops = wire_sum(&|w| w.put.count + w.get.count);
    let retry_amplification = if ops > 0.0 {
        (ops + wire_sum(&|w| w.retries)) / ops
    } else {
        0.0
    };
    let pool = wire_sum(&|w| w.pool_hits + w.pool_misses);
    let pool_hit_ratio = if pool > 0.0 {
        wire_sum(&|w| w.pool_hits) / pool
    } else {
        0.0
    };
    let mut analysis: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.analysis_ms.iter().copied())
        .collect();
    let get_p50_ms = wire_med(&|w| w.get.p50_ns) / 1e6;
    let analysis_self = (stats::median(&mut analysis) - get_p50_ms).max(0.0);
    let versions: usize = traced.iter().map(|e| e.outcomes.len()).sum();
    let triangles: usize = traced
        .iter()
        .flat_map(|e| e.outcomes.iter().map(|o| o.1))
        .sum();
    let mut tts_traced: Vec<f64> = traced.iter().map(|e| e.tts_s).collect();
    let mut tts_untraced: Vec<f64> = untraced.iter().map(|e| e.tts_s).collect();
    let covered = advance + wave + tag + step_self + finish;
    vec![
        m("solvers.advance_ms", ms(advance) / n_steps, "ms"),
        m("solvers.wave_speed_ms", ms(wave) / n_steps, "ms"),
        m("solvers.tag_ms", ms(tag) / n_steps, "ms"),
        m(
            "solvers.cell_updates_per_s",
            cells_advanced as f64 / (advance.max(1) as f64 / 1e9),
            "1/s",
        ),
        m("workflow.step_self_ms", ms(step_self) / n_steps, "ms"),
        m("workflow.finish_ms", ms(finish) / n_ep, "ms"),
        m(
            "amr.grids",
            per_ep(&|e| e.enqueued) / spec.steps as f64,
            "count",
        ),
        m(
            "amr.cells",
            per_ep(&|e| e.cells) / spec.steps as f64,
            "count",
        ),
        m("amr.regrids", regrids as f64 / n_ep, "count"),
        m("staging.objects", per_ep(&|e| e.delivered), "count"),
        m("staging.mib", per_ep(&|e| e.delivered_bytes) / MIB, "MiB"),
        m("staging.rejected", per_ep(&|e| e.rejected), "count"),
        m("staging.failed", per_ep(&|e| e.failed), "count"),
        m(
            "staging.tier_spilled",
            wire_sum(&|w| w.tier_spilled) / n_ep,
            "count",
        ),
        m(
            "staging.tier_promoted",
            wire_sum(&|w| w.tier_promoted) / n_ep,
            "count",
        ),
        m(
            "staging.tier_disk_hits",
            wire_sum(&|w| w.tier_disk_hits) / n_ep,
            "count",
        ),
        m("staging.pool_hit_ratio", pool_hit_ratio, "ratio"),
        m("net.put_us_p50", wire_med(&|w| w.put.p50_ns) / 1e3, "us"),
        m("net.put_us_p99", wire_med(&|w| w.put.p99_ns) / 1e3, "us"),
        m("net.put_count", wire_sum(&|w| w.put.count) / n_ep, "count"),
        m("net.get_us_p50", get_p50_ms * 1e3, "us"),
        m("net.get_us_p99", wire_med(&|w| w.get.p99_ns) / 1e3, "us"),
        m("net.get_count", wire_sum(&|w| w.get.count) / n_ep, "count"),
        m("net.mib_in", wire_sum(&|w| w.bytes_in) / n_ep / MIB, "MiB"),
        m(
            "net.mib_out",
            wire_sum(&|w| w.bytes_out) / n_ep / MIB,
            "MiB",
        ),
        m("net.retry_amplification", retry_amplification, "ratio"),
        m(
            "net.busy_frames",
            wire_sum(&|w| w.busy_frames) / n_ep,
            "count",
        ),
        m("viz.analysis_self_ms", analysis_self, "ms"),
        m(
            "viz.triangles",
            triangles as f64 / versions.max(1) as f64,
            "count",
        ),
        m(
            "layer_coverage",
            covered as f64 / loop_ns.max(1) as f64,
            "ratio",
        ),
        m(
            "trace_overhead",
            stats::median(&mut tts_traced) / stats::median(&mut tts_untraced),
            "ratio",
        ),
    ]
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Fix glibc's allocation thresholds before anything is measured. By
/// default glibc raises its mmap threshold, and its trim threshold with
/// it, to the size of each mmapped block freed, so where they end up
/// depends on which thread frees first. Each process then settled into
/// one of two allocation regimes, and `setup_s` on `sharded_bulk` read
/// about 3 ms or about 8 ms depending on the process. Fixing them at the
/// values that raising converges to (32 MiB, and twice that for trimming)
/// gives every process the same regime. Fixing the mmap threshold alone
/// leaves trimming at 128 KiB, which made analysis on `euler_blast` about
/// half as slow again as under the default.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn settle_allocator() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: mallopt only sets allocator parameters, and runs before the
    // benchmark starts any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn settle_allocator() {}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = args.spec;
    settle_allocator();
    // The oracle, and the warm-up: computed once per seed, untimed.
    let reference = workload::run(&spec, Mode::Reference(&spec.inputs(args.seed)), 0, 0);
    // The oracle's own check: the synchronous path at the check seed must
    // still produce the pinned output.
    let pinned_check = if args.seed == golden::CHECK_SEED {
        golden::check(spec.name, &reference.outcomes)
    } else {
        let check_inputs = spec.inputs(golden::CHECK_SEED);
        let check_ref = workload::run(&spec, Mode::Reference(&check_inputs), 0, 0);
        golden::check(spec.name, &check_ref.outcomes)
    };
    // Below one step's staged bytes, so the tier must spill every step.
    let tier_cap = (reference.min_step_bytes / 2).max(1);

    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut id = 1;
    loop {
        untraced.push(workload::run(
            &spec,
            Mode::Measured {
                field: &reference.field,
                traced: false,
            },
            tier_cap,
            id,
        ));
        id += 1;
        if args.trace {
            traced.push(workload::run(
                &spec,
                Mode::Measured {
                    field: &reference.field,
                    traced: true,
                },
                tier_cap,
                id,
            ));
            id += 1;
        }
        let enough = if args.trace {
            traced.len() >= MIN_TRACE_PAIRS
        } else {
            untraced.len() * spec.steps >= MIN_STEPS
        };
        if enough && t0.elapsed() >= budget {
            break;
        }
    }

    let all: Vec<&Episode> = untraced.iter().chain(&traced).collect();
    let errors: Vec<String> = pinned_check
        .into_iter()
        .chain(all.iter().flat_map(|e| check(&spec, e, &reference)))
        .collect();
    for e in errors.iter().take(5) {
        eprintln!("perfbench: {}: {e}", spec.name);
    }
    let attempted: u64 = all.iter().map(|e| e.enqueued + spec.steps as u64).sum();
    let failed: u64 = all.iter().map(|e| failed_ops(&spec, e)).sum();

    println!(
        "meta: workload={} seed={} nproc={} rustc=\"{}\" commit={}",
        spec.name,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    );
    let metrics = if args.trace {
        let lines: String = traced.iter().map(|e| trace::to_jsonl(&e.spans)).collect();
        let path = workload::out_dir().join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
        let written = std::fs::create_dir_all(workload::out_dir())
            .and_then(|()| std::fs::write(&path, lines));
        match written {
            Ok(()) => println!("spans: written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        per_layer(&spec, &traced, &untraced)
    } else {
        let (metrics, detail) = end_to_end(&spec, &untraced);
        println!("detail: {detail}");
        metrics
    };
    for x in &metrics {
        println!("{:<28} {:>16.6} {}", x.name, x.value, x.unit);
    }
    workload::tidy_out_dir();
    println!("{}", json(errors.is_empty(), attempted, failed, &metrics));
}
