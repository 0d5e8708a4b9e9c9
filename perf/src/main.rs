//! MultiEdge benchmark driver. See `perf/README.md`.
//!
//! `perf --workload W` runs one workload in this process and ends with the
//! JSON result line; without `--workload` every workload runs in a fresh
//! child process, in fixed order. `--noise`, `--determinism` and `--smoke`
//! are built on the same child runs.

mod layers;
mod mesh;
mod report;
mod sim2;
mod spans;
mod suite;
mod udp;
mod util;

use multiedge::SystemConfig;
use report::{result_line, Facts, RunOut, END_TO_END};
use spans::Spans;
use std::process::ExitCode;
use std::rc::Rc;

#[global_allocator]
static ALLOCATOR: util::CountingAlloc = util::CountingAlloc;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// `--seconds` value the op counts below are sized for.
pub const BASE_SECONDS: f64 = 10.0;
/// Setup repetitions per untraced run (`setup_s` is their median).
const SETUP_REPS: usize = 3;
/// Share of the ops a traced run replays.
const TRACE_SHARE: f64 = 0.2;

/// The workloads, in run order.
pub const WORKLOADS: [&str; 6] = [
    "sim_stream",
    "sim_smallop",
    "sim_lossy",
    "sim_mesh64",
    "udp_stream",
    "udp_pingpong",
];

const SIM_STREAM: sim2::Spec = sim2::Spec {
    name: "sim_stream",
    cfg: SystemConfig::two_link_1g_unordered,
    loss: (0.0, 0.0),
    op_bytes: 64 << 10,
    depth: 8,
    ops_per_dir: 80_000,
    mixed: false,
    planes: false,
};
const SIM_SMALLOP: sim2::Spec = sim2::Spec {
    name: "sim_smallop",
    cfg: SystemConfig::one_link_10g,
    loss: (0.0, 0.0),
    op_bytes: 64,
    depth: 16,
    ops_per_dir: 2_000_000,
    mixed: true,
    planes: false,
};
const SIM_LOSSY: sim2::Spec = sim2::Spec {
    name: "sim_lossy",
    loss: (0.01, 0.002),
    ..SIM_STREAM
};
/// `sim_stream` with every observability plane on.
const SIM_STREAM_PLANES: sim2::Spec = sim2::Spec {
    planes: true,
    ..SIM_STREAM
};

enum Kind {
    Sim2(&'static sim2::Spec),
    Mesh,
    Udp(&'static udp::Spec),
}

fn kind(name: &str) -> Kind {
    match name {
        "sim_stream" => Kind::Sim2(&SIM_STREAM),
        "sim_smallop" => Kind::Sim2(&SIM_SMALLOP),
        "sim_lossy" => Kind::Sim2(&SIM_LOSSY),
        "sim_mesh64" => Kind::Mesh,
        "udp_stream" => Kind::Udp(&udp::STREAM),
        "udp_pingpong" => Kind::Udp(&udp::PINGPONG),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

impl Kind {
    /// Run the workload once at `scale` of its op counts.
    fn run(&self, seed: u64, scale: f64, reps: usize, spans: Option<Rc<Spans>>) -> (RunOut, Facts) {
        match self {
            Kind::Sim2(spec) => sim2::run(spec, seed, scale, reps, spans),
            Kind::Mesh => mesh::run(seed, scale, reps, spans),
            Kind::Udp(spec) => udp::run(spec, seed, scale, reps, spans),
        }
    }

    fn shape(&self, seed: u64) -> layers::Shape {
        match self {
            Kind::Sim2(spec) => {
                let mut cfg = (spec.cfg)(2);
                cfg.seed = seed;
                layers::Shape {
                    op_bytes: spec.op_bytes,
                    rails: cfg.rails,
                    fabric: Some(cfg.cluster_spec()),
                }
            }
            Kind::Mesh => layers::Shape {
                op_bytes: mesh::OP_BYTES,
                rails: mesh::RAILS,
                fabric: Some(mesh::config(seed).cluster_spec()),
            },
            Kind::Udp(spec) => layers::Shape {
                op_bytes: spec.op_bytes,
                rails: udp::RAILS,
                fabric: None,
            },
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub noise: Option<usize>,
    pub determinism: bool,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: BASE_SECONDS,
        trace: false,
        noise: None,
        determinism: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    // An optional value: consumed only when the next token is not a flag.
    fn opt(it: &mut std::iter::Peekable<impl Iterator<Item = String>>) -> Option<String> {
        it.next_if(|v| !v.starts_with("--"))
    }
    while let Some(flag) = it.next() {
        let mut need = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(need("a workload name")?),
            "--seed" => {
                a.seed = need("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = need("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => a.trace = opt(&mut it).is_none_or(|v| v != "0"),
            "--noise" => {
                let k = opt(&mut it).map_or(Ok(5), |v| v.parse());
                a.noise = Some(k.map_err(|e| format!("--noise: {e}"))?);
                if a.noise < Some(2) {
                    return Err("--noise needs at least 2 runs per set".into());
                }
            }
            "--determinism" => a.determinism = true,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(a)
}

fn print_checks(out: &RunOut) {
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    println!(
        "ops_attempted {}  ops_failed {}  checks {}",
        out.attempted,
        out.failed,
        if out.errors.is_empty() {
            "ok"
        } else {
            "FAILED"
        }
    );
    if let Some(fp) = out.fingerprint {
        println!("virtual_fingerprint {fp:016x}");
    }
}

/// One workload in this process: metric lines, then the result line.
fn run_workload(name: &str, a: &Args) {
    let scale = a.seconds / BASE_SECONDS * if a.smoke { 0.02 } else { 1.0 };
    println!(
        "== {name}  seed {}  scale {scale:.4}  trace {}",
        a.seed, a.trace as u8
    );
    let k = kind(name);
    let (out, metrics) = if a.trace {
        // End-to-end numbers are never taken from here: the same reduced
        // run goes once without spans and once with, then the layer drives.
        let share = scale * TRACE_SHARE;
        let plain = k.run(a.seed, share, 1, None);
        let spans = Rc::new(Spans::default());
        util::count_allocs(true);
        let traced = k.run(a.seed, share, 1, Some(spans.clone()));
        util::count_allocs(false);
        let planes_fps = (name == "sim_stream").then(|| {
            let (o, _) = sim2::run(&SIM_STREAM_PLANES, a.seed, share, 1, None);
            o.frames as f64 / o.wall_s
        });
        let metrics = layers::per_layer(&k.shape(a.seed), &plain, &traced, &spans, planes_fps);
        let path = std::path::Path::new("out").join(format!("trace_{name}.json"));
        let written = std::fs::create_dir_all("out")
            .and_then(|()| std::fs::write(&path, spans.to_json(name).render()));
        match written {
            Ok(()) => println!("spans written to perf/{}", path.display()),
            Err(e) => println!("could not write perf/{}: {e}", path.display()),
        }
        let (mut out, plain) = (traced.0, plain.0);
        out.errors.extend(plain.errors);
        out.failed += plain.failed;
        out.attempted += plain.attempted;
        (out, metrics)
    } else {
        let (mut out, _) = k.run(a.seed, scale, SETUP_REPS, None);
        let metrics = END_TO_END
            .iter()
            .zip(out.end_to_end())
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
        (out, metrics)
    };
    print_checks(&out);
    for (n, u, v) in &metrics {
        println!("{n:<32} {v:>16.4} {u}");
    }
    if !a.trace {
        println!(
            "measured phase: {:.3} s host wall, {:.3} s transport clock, {} latency samples, rss drift {:.2} %",
            out.wall_s,
            out.transport_ns as f64 / 1e9,
            out.lat.len(),
            out.rss_drift() * 100.0
        );
    }
    println!("{}", result_line(&out, &metrics));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some(k) = args.noise {
        suite::noise(&args, k)
    } else if args.determinism {
        suite::determinism(&args)
    } else if let Some(w) = &args.workload {
        // The result line carries the verdict; the exit code says it printed.
        run_workload(w, &args);
        true
    } else {
        suite::all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
