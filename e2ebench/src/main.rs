//! End-to-end benchmark: `evaluate` on every executor and the serve door,
//! with a layer trace timed from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload uniform_d5 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` composes the
//! program's public layer calls, times each from outside, prints the
//! per-layer metrics and writes the spans to `e2ebench/traces/`. Every
//! output is checked (bitwise against the serial executor, bitwise
//! against a local `Fmm::evaluate` for served replies, finite
//! everywhere); any failure makes the command exit non-zero. The last
//! line of standard output is one JSON object. See `README.md`.

use e2ebench::{
    catalogue_problems, chrome_trace, median, per_layer, result_line, self_times_ns, Metric,
    SplitMix, Summary, Tracer, END_TO_END, SPMD_PHASES, WORKLOADS,
};
use fmm_bench::workloads::{mixed_charges, unit_charges, Distribution};
use fmm_core::driver::{eval_local, p2o};
use fmm_core::field::FieldHierarchy;
use fmm_core::near::near_field_forces_softened;
use fmm_core::particles::BinnedParticles;
use fmm_core::traversal::{downward_pass, upward_pass, Aggregation, TraversalFlops};
use fmm_core::{
    near_field_travelling_with, relative_error_stats, Domain, EvalOutput, Executor, Fmm, FmmConfig,
    FmmError, Kernel, SpmdReport,
};
use fmm_machine::VuGrid;
use fmm_serve::protocol::{self, EvalRequest, EvalResponse, Shape};
use fmm_serve::{ServeConfig, Server};
use fmm_tree::Hierarchy;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Particles per served request and its depth.
const REQUEST_PARTICLES: usize = 64;
const REQUEST_DEPTH: u32 = 2;
/// Distinct served requests per run (cycled), each with a precomputed
/// local answer.
const REQUEST_POOL: usize = 256;
/// Targets of the direct-sum accuracy check.
const ACCURACY_TARGETS: usize = 1024;

#[derive(Clone, Copy)]
enum Charges {
    Unit,
    Mixed,
}

/// One workload: the evaluate problem, and the shape of the served
/// requests (same distribution, charges, order and output kind).
struct Spec {
    name: &'static str,
    dist: Distribution,
    n: usize,
    order: usize,
    /// `None` keeps the library's auto depth policy.
    depth: Option<u32>,
    charges: Charges,
    forces: bool,
    /// Open-loop request rate of the latency phase, well below the
    /// server's capacity for this request shape.
    serve_rps: f64,
}

const SPECS: [Spec; 3] = [
    Spec {
        name: "uniform_d5",
        dist: Distribution::Uniform,
        n: 131_072,
        order: 5,
        depth: None,
        charges: Charges::Unit,
        forces: false,
        serve_rps: 200.0,
    },
    Spec {
        name: "uniform_d14",
        dist: Distribution::Uniform,
        n: 32_768,
        order: 14,
        depth: Some(3),
        charges: Charges::Unit,
        forces: false,
        // An order-14 request costs about four times an order-5 one; the
        // server's capacity for them is below 200 req/s.
        serve_rps: 50.0,
    },
    Spec {
        name: "plummer_forces",
        dist: Distribution::Plummer,
        n: 32_768,
        order: 5,
        depth: None,
        charges: Charges::Mixed,
        forces: true,
        serve_rps: 200.0,
    },
];

impl Spec {
    fn charges(&self, n: usize, seed: u64) -> Vec<f64> {
        match self.charges {
            Charges::Unit => unit_charges(n),
            Charges::Mixed => mixed_charges(n, seed ^ 0xC4A2_6E5D),
        }
    }

    fn config(&self, exec: Exec) -> FmmConfig {
        let mut c = FmmConfig::order(self.order);
        if let Some(d) = self.depth {
            c = c.depth(d);
        }
        match exec {
            // `sequential()` is what turns the shared-memory path serial;
            // `Executor::Serial` alone only names the plan key.
            Exec::Serial => c.executor(Executor::Serial).sequential(),
            Exec::Rayon => c.executor(Executor::Rayon),
            Exec::Spmd2 => c.executor(Executor::spmd(2)),
        }
    }

    fn shape(&self) -> Shape {
        Shape {
            order: self.order as u16,
            depth: REQUEST_DEPTH,
            separation: 2,
            mixed: false,
            forces: self.forces,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Exec {
    Serial,
    Rayon,
    Spmd2,
}

const EXECS: [Exec; 3] = [Exec::Serial, Exec::Rayon, Exec::Spmd2];

impl Exec {
    fn label(self) -> &'static str {
        match self {
            Exec::Serial => "serial",
            Exec::Rayon => "rayon",
            Exec::Spmd2 => "spmd2",
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Overrides the workload's particle count (for quick smoke runs).
    particles: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut particles = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--particles" => {
                particles = Some(match value.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("--particles takes a positive count, not {value}")),
                })
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        particles,
    })
}

/// Counts attempted and failed checks; a failure is an error, a
/// non-finite output, or an output that differs bitwise from its
/// reference. The first few failures are described on stderr.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED: {}", what());
            }
        }
        ok
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Potentials and fields, flattened, in particle order.
#[derive(Clone)]
struct Answer {
    potentials: Vec<f64>,
    fields: Vec<f64>,
}

impl Answer {
    fn of(pot: Vec<f64>, fields: Option<Vec<[f64; 3]>>) -> Answer {
        Answer {
            potentials: pot,
            fields: fields.unwrap_or_default().into_iter().flatten().collect(),
        }
    }

    fn from_eval(o: EvalOutput) -> Answer {
        Answer::of(o.potentials, o.fields)
    }

    fn finite(&self) -> bool {
        self.potentials
            .iter()
            .chain(&self.fields)
            .all(|v| v.is_finite())
    }

    fn same_bits(&self, other: &Answer) -> bool {
        bits_equal(&self.potentials, &other.potentials) && bits_equal(&self.fields, &other.fields)
    }
}

fn evaluate(fmm: &Fmm, forces: bool, pos: &[[f64; 3]], q: &[f64]) -> Result<EvalOutput, FmmError> {
    if forces {
        fmm.evaluate_forces(pos, q)
    } else {
        fmm.evaluate(pos, q)
    }
}

/// Time one evaluate and check it: no error, finite, and (when a
/// reference is given) bitwise equal to it.
fn timed_eval(
    gate: &mut Gate,
    fmm: &Fmm,
    spec: &Spec,
    exec: Exec,
    pos: &[[f64; 3]],
    q: &[f64],
    reference: Option<&Answer>,
) -> (f64, Option<(Answer, EvalOutput)>) {
    let t = Instant::now();
    let out = evaluate(fmm, spec.forces, pos, q);
    let dt = t.elapsed().as_secs_f64();
    match out {
        Err(e) => {
            gate.check(false, || {
                format!("{} evaluate on {}: {e}", exec.label(), spec.name)
            });
            (dt, None)
        }
        Ok(mut o) => {
            let ans = Answer::of(std::mem::take(&mut o.potentials), o.fields.take());
            let ok = ans.finite() && reference.is_none_or(|r| ans.same_bits(r));
            gate.check(ok, || {
                format!(
                    "{} evaluate on {} is non-finite or differs bitwise from serial",
                    exec.label(),
                    spec.name
                )
            });
            (dt, Some((ans, o)))
        }
    }
}

/// The workload's evaluate problem, made from the seed.
struct Problem {
    pos: Vec<[f64; 3]>,
    q: Vec<f64>,
}

impl Problem {
    fn new(spec: &Spec, n: usize, seed: u64) -> Problem {
        Problem {
            pos: spec.dist.positions(n, seed),
            q: spec.charges(n, seed),
        }
    }
}

/// Repeat the set-up, `Fmm::new(cfg)` + `plan_for(depth)`, cold each
/// time, cycling through the executors: at least once per executor,
/// then until `budget_s` is spent. Returns the last instance of each
/// executor and every set-up time. An executor's previous instance is
/// dropped before its next one is built, so the repeat count does not
/// move the memory high-water mark.
fn set_up(spec: &Spec, n: usize, budget_s: f64) -> (Vec<Fmm>, Vec<f64>) {
    let mut fmms: Vec<Option<Fmm>> = EXECS.iter().map(|_| None).collect();
    let mut times = Vec::new();
    let start = Instant::now();
    let depth = spec.config(Exec::Serial).depth.resolve(n);
    for rep in 0..200 {
        if rep >= EXECS.len() && start.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let slot = rep % EXECS.len();
        fmms[slot] = None;
        let t = Instant::now();
        let fmm = Fmm::new(spec.config(EXECS[slot])).expect("workload configurations are valid");
        black_box(fmm.plan_for(depth));
        times.push(t.elapsed().as_secs_f64());
        fmms[slot] = Some(fmm);
    }
    (fmms.into_iter().flatten().collect(), times)
}

/// −log10 of the RMS relative error of `potentials` at seeded sampled
/// targets against an O(kN) direct sum. Returns the target count too.
fn accuracy_digits(seed: u64, p: &Problem, potentials: &[f64]) -> (f64, usize) {
    let targets = SplitMix(seed ^ 0xACC0_0ACC).sample_indices(p.pos.len(), ACCURACY_TARGETS);
    let reference: Vec<f64> = targets
        .iter()
        .map(|&i| {
            let t = p.pos[i];
            let mut acc = 0.0;
            for (j, (s, q)) in p.pos.iter().zip(&p.q).enumerate() {
                if j != i {
                    let d = [t[0] - s[0], t[1] - s[1], t[2] - s[2]];
                    acc += q / (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                }
            }
            acc
        })
        .collect();
    let approx: Vec<f64> = targets.iter().map(|&i| potentials[i]).collect();
    (
        relative_error_stats(&approx, &reference).digits(),
        targets.len(),
    )
}

/// Served requests with their locally computed answers.
struct Load {
    requests: Vec<EvalRequest>,
    expected: Vec<Answer>,
    /// The local instance that produced `expected`.
    local: Fmm,
}

impl Load {
    fn new(spec: &Spec, seed: u64) -> Load {
        let shape = spec.shape();
        let local = Fmm::new(
            FmmConfig::order(spec.order)
                .depth(REQUEST_DEPTH)
                .separation(fmm_core::Separation::Two),
        )
        .expect("served shape is valid");
        let mut requests = Vec::with_capacity(REQUEST_POOL);
        let mut expected = Vec::with_capacity(REQUEST_POOL);
        for i in 0..REQUEST_POOL as u64 {
            let p = Problem::new(spec, REQUEST_PARTICLES, seed ^ (0x5E4E_0000 + i) << 8);
            let out = evaluate(&local, spec.forces, &p.pos, &p.q)
                .expect("local evaluate of a served request");
            expected.push(Answer::from_eval(out));
            requests.push(EvalRequest {
                shape,
                positions: p.pos,
                charges: p.q,
            });
        }
        Load {
            requests,
            expected,
            local,
        }
    }
}

/// One binary-door connection.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&protocol::MAGIC)?;
        Ok(Client { stream })
    }

    fn call(&mut self, req: &EvalRequest) -> Result<EvalResponse, String> {
        protocol::write_frame(&mut self.stream, &protocol::encode_evaluate(req))
            .map_err(|e| e.to_string())?;
        let frame = protocol::read_frame(&mut self.stream).map_err(|e| e.to_string())?;
        protocol::decode_eval_response(&frame, req.shape.forces)
    }
}

/// What one phase of served traffic observed.
#[derive(Default)]
struct Traffic {
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    batch_sizes: Vec<usize>,
    attempted: u64,
    failed: u64,
    completed: u64,
    elapsed_s: f64,
}

impl Traffic {
    fn merge(&mut self, o: Traffic) {
        self.latency_ms.extend(o.latency_ms);
        self.lateness_ms.extend(o.lateness_ms);
        self.batch_sizes.extend(o.batch_sizes);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.completed += o.completed;
        self.elapsed_s = self.elapsed_s.max(o.elapsed_s);
    }

    /// Checked replies per second.
    fn rate(&self) -> f64 {
        self.completed as f64 / self.elapsed_s.max(1e-9)
    }

    /// Connect, counting a refused connection as a failed operation.
    fn connect(&mut self, addr: SocketAddr) -> Option<Client> {
        match Client::connect(addr) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("FAILED: connect: {e}");
                self.attempted += 1;
                self.failed += 1;
                None
            }
        }
    }

    /// Send request `i` of the pool and check the reply bitwise. Returns
    /// false when the connection broke.
    fn exchange(&mut self, client: &mut Client, load: &Load, i: usize) -> bool {
        let idx = i % load.requests.len();
        self.attempted += 1;
        match client.call(&load.requests[idx]) {
            Ok(resp) => {
                let ans = Answer::of(resp.potentials, resp.fields);
                if ans.finite() && ans.same_bits(&load.expected[idx]) {
                    self.completed += 1;
                    self.batch_sizes.push(resp.batch_size);
                    true
                } else {
                    self.failed += 1;
                    if self.failed <= 3 {
                        eprintln!("FAILED: served reply {idx} differs bitwise from local evaluate");
                    }
                    true
                }
            }
            Err(e) => {
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("FAILED: served request {idx}: {e}");
                }
                false
            }
        }
    }
}

/// Open loop: `conns` generator threads, one connection each, sending
/// on a fixed schedule at `rate` requests/s in total. Latency is timed
/// from when each request was due; lateness is how late it was sent.
fn open_loop(addr: SocketAddr, load: &Load, rate: f64, conns: usize, dur: f64) -> Traffic {
    let interval = Duration::from_secs_f64(conns as f64 / rate);
    let t0 = Instant::now() + Duration::from_millis(5);
    let end = t0 + Duration::from_secs_f64(dur);
    let mut total = Traffic::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut tr = Traffic::default();
                    let Some(mut client) = tr.connect(addr) else {
                        return tr;
                    };
                    let offset = interval.mul_f64(c as f64 / conns as f64);
                    for i in 0.. {
                        let due = t0 + offset + interval * i;
                        if due >= end {
                            break;
                        }
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let ok = tr.exchange(&mut client, load, c + conns * i as usize);
                        let done = Instant::now();
                        tr.lateness_ms.push((sent - due).as_secs_f64() * 1e3);
                        tr.latency_ms.push((done - due).as_secs_f64() * 1e3);
                        if !ok {
                            break;
                        }
                    }
                    tr.elapsed_s = t0.elapsed().as_secs_f64();
                    tr
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("open-loop generator thread"));
        }
    });
    total
}

/// Closed loop: `conns` clients, each sending its next request when the
/// previous reply arrives, for `dur` seconds.
fn closed_loop(addr: SocketAddr, load: &Load, conns: usize, dur: f64) -> Traffic {
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(dur);
    let mut total = Traffic::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut tr = Traffic::default();
                    let Some(mut client) = tr.connect(addr) else {
                        return tr;
                    };
                    let mut i = c;
                    while Instant::now() < end {
                        if !tr.exchange(&mut client, load, i) {
                            break;
                        }
                        i += conns;
                    }
                    tr.elapsed_s = t0.elapsed().as_secs_f64();
                    tr
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("closed-loop client thread"));
        }
    });
    total
}

/// An in-process server with its default configuration, warmed with one
/// request so the first measured one does not pay for the instance.
fn start_server(load: &Load, gate: &mut Gate) -> Server {
    let server = Server::start(ServeConfig::default()).expect("bind a loopback port");
    let mut warm = Traffic::default();
    if let Some(mut c) = warm.connect(server.local_addr()) {
        warm.exchange(&mut c, load, 0);
    }
    gate.attempted += warm.attempted;
    gate.failed += warm.failed;
    server
}

fn stop_server(server: Server) {
    server.shutdown();
    server.join();
}

/// Steal and total ticks of all CPUs, from `/proc/stat`: the share of
/// time the hypervisor gave to other guests.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The process high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Connections of the latency and capacity phases: `min(nproc, 2)`
/// generators, and `nproc` closed-loop clients bounded by the server's
/// connection threads (each connection holds one for its lifetime).
fn connections() -> (usize, usize) {
    let n = nproc();
    (n.min(2), n.min(ServeConfig::default().conn_threads))
}

/// Everything a run reports besides its metrics.
struct Outcome {
    metrics: Vec<Metric>,
    gate: Gate,
    /// Sample counts, printed with the host metadata.
    samples: BTreeMap<&'static str, usize>,
    /// Metrics printed on `#` lines only, outside the result line.
    ungated: Vec<Metric>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Warm every executor once. The serial output is the bitwise reference
/// (`None` if the serial evaluate failed).
fn warm_up(gate: &mut Gate, fmms: &[Fmm], spec: &Spec, p: &Problem) -> Option<Answer> {
    let (_, out) = timed_eval(gate, &fmms[0], spec, Exec::Serial, &p.pos, &p.q, None);
    let reference = out.map(|(a, _)| a);
    for (fmm, exec) in fmms.iter().zip(EXECS).skip(1) {
        timed_eval(gate, fmm, spec, exec, &p.pos, &p.q, reference.as_ref());
    }
    reference
}

/// `--trace 0`: the end-to-end metrics.
fn timed_run(spec: &Spec, n: usize, seed: u64, secs: f64) -> Outcome {
    let mut gate = Gate::default();
    let mut samples = BTreeMap::new();
    let (fmms, setup_times) = set_up(spec, n, 0.15 * secs);
    samples.insert("setup_s", setup_times.len());
    let p = Problem::new(spec, n, seed);
    let reference = warm_up(&mut gate, &fmms, spec, &p);

    let mut times: [Vec<f64>; 3] = Default::default();
    let eval_start = Instant::now();
    for round in 0.. {
        if round >= 3 && eval_start.elapsed().as_secs_f64() > 0.55 * secs {
            break;
        }
        for (i, (fmm, exec)) in fmms.iter().zip(EXECS).enumerate() {
            let (dt, _) = timed_eval(&mut gate, fmm, spec, exec, &p.pos, &p.q, reference.as_ref());
            times[i].push(dt);
        }
    }
    drop(fmms);
    samples.insert("eval_s_p50", times[0].len());
    for (exec, t) in EXECS.iter().zip(&times) {
        let s = Summary::of(t);
        let max = t.iter().copied().fold(f64::MIN, f64::max);
        eprintln!(
            "eval_s.{}: n={} p50={:.6} p99={:.6} max={:.6}",
            exec.label(),
            s.n,
            s.p50,
            s.p99,
            max
        );
    }

    let (digits, targets) = match &reference {
        Some(r) => accuracy_digits(seed, &p, &r.potentials),
        None => (f64::NAN, 0),
    };
    samples.insert("accuracy_targets", targets);
    let setup_s = median(&setup_times);

    let load = Load::new(spec, seed);
    let server = start_server(&load, &mut gate);
    let addr = server.local_addr();
    let (open_conns, closed_conns) = connections();
    let open = open_loop(addr, &load, spec.serve_rps, open_conns, 0.2 * secs);
    let closed = closed_loop(addr, &load, closed_conns, 0.1 * secs);
    stop_server(server);
    for t in [&open, &closed] {
        gate.attempted += t.attempted;
        gate.failed += t.failed;
    }
    let lat = Summary::of(&open.latency_ms);
    samples.insert("serve_latency_ms", lat.n);
    samples.insert("serve_latency_beyond_p99", lat.beyond_p99());
    samples.insert("serve_capacity_replies", closed.completed as usize);

    Outcome {
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("eval_s_p50.serial", median(&times[0]), "s"),
            metric("eval_s_p50.rayon", median(&times[1]), "s"),
            metric("eval_s_p50.spmd2", median(&times[2]), "s"),
            metric("accuracy_digits", digits, "digits"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        gate,
        samples,
        ungated: vec![
            metric("serve_latency_ms_p50", lat.p50, "ms"),
            metric("serve_latency_ms_p99", lat.p99, "ms"),
            metric("serve_capacity_rps", closed.rate(), "1/s"),
        ],
    }
}

/// Layer names of one composed evaluate, in call order. Their self times
/// add up to the composed wall time less the root span's own gaps.
const LAYERS: [&str; 8] = [
    "tree.sort",
    "core.alloc",
    "core.p2o",
    "core.t1",
    "core.t2t3",
    "core.eval",
    "core.near",
    "core.scatter",
];

/// Work counts returned by the layers of one composed evaluate.
struct LayerCounts {
    max_leaf: usize,
    p2o_flops: u64,
    up: TraversalFlops,
    down: TraversalFlops,
    eval_flops: u64,
    near_pairs: u64,
    near_flops: u64,
}

/// One evaluate composed from the program's public layer calls in the
/// order the unfused driver makes them, each call inside its own span.
fn composed(
    t: &mut Tracer,
    fmm: &Fmm,
    forces: bool,
    pos: &[[f64; 3]],
    q: &[f64],
) -> (Answer, LayerCounts) {
    let cfg = fmm.config();
    let par = cfg.parallel;
    let depth = cfg.depth.resolve(pos.len());
    let plan = fmm.plan_for(depth);
    let (rule, ts) = (fmm.rule(), fmm.translations());
    let root = t.enter("pipeline");
    let domain = Domain::bounding(pos);
    let bp = t.span("tree.sort", || {
        BinnedParticles::build(pos, q, domain, depth)
    });
    let n = bp.len();
    let (mut fh, mut far_pot, mut far_field, mut near_pot, mut near_f) =
        t.span("core.alloc", || {
            (
                FieldHierarchy::new(Hierarchy::new(depth), fmm.k()),
                vec![0.0; n],
                forces.then(|| vec![[0.0; 3]; n]),
                vec![0.0; n],
                vec![[0.0; 3]; if forces { n } else { 0 }],
            )
        });
    let leaf_side = domain.box_side(depth);
    let a_leaf = cfg.outer_ratio * leaf_side;
    let b_leaf = cfg.inner_ratio * leaf_side;
    let p2o_flops = t.span("core.p2o", || {
        p2o(&bp, rule, a_leaf, depth, par, &mut fh.far[depth as usize])
    });
    let up = t.span("core.t1", || {
        upward_pass(&mut fh, ts, &plan, Aggregation::Gemm, par)
    });
    let down = t.span("core.t2t3", || {
        downward_pass(&mut fh, ts, &plan, cfg.supernodes, Aggregation::Gemm, par)
    });
    let eval_flops = t.span("core.eval", || {
        eval_local(
            &bp,
            rule,
            cfg.m_trunc,
            b_leaf,
            depth,
            par,
            &fh.local[depth as usize],
            &mut far_pot,
            far_field.as_deref_mut(),
        )
    });
    let near = t.span("core.near", || {
        if forces {
            near_field_forces_softened(
                &bp,
                cfg.separation,
                par,
                cfg.softening,
                &mut near_pot,
                &mut near_f,
            )
        } else {
            near_field_travelling_with(
                plan.kernel,
                &bp,
                cfg.separation,
                par,
                cfg.softening,
                &mut near_pot,
            )
        }
    });
    let answer = t.span("core.scatter", || {
        if let Some(ff) = far_field.as_mut() {
            for (a, b) in ff.iter_mut().zip(&near_f) {
                for d in 0..3 {
                    a[d] += b[d];
                }
            }
        }
        for (f, nf) in far_pot.iter_mut().zip(&near_pot) {
            *f += nf;
        }
        Answer::of(
            bp.binning.scatter(&far_pot),
            far_field.map(|ff| bp.binning.scatter(&ff)),
        )
    });
    t.exit(root);
    let counts = LayerCounts {
        max_leaf: bp.occupancy().1,
        p2o_flops,
        up,
        down,
        eval_flops,
        near_pairs: near.pair_interactions,
        near_flops: near.flops,
    };
    (answer, counts)
}

/// Rate of `gemm_acc` at the workload's K: an m×K panel times a K×K
/// matrix, the shape of one aggregated translation.
fn gemm_gflops(k: usize, budget_s: f64) -> f64 {
    let m = 512;
    let mut rng = SplitMix(k as u64);
    let mut fill = |len: usize| -> Vec<f64> {
        (0..len)
            .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
            .collect()
    };
    let (a, b) = (fill(m * k), fill(k * k));
    let mut c = vec![0.0; m * k];
    fmm_linalg::gemm_acc(m, k, k, &a, &b, &mut c);
    let flops = 2.0 * (m * k * k) as f64;
    let per_batch = ((2e7 / flops).ceil() as usize).max(1);
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..per_batch {
            fmm_linalg::gemm_acc(m, k, k, black_box(&a), black_box(&b), &mut c);
        }
        rates.push(flops * per_batch as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    black_box(&c);
    median(&rates)
}

/// Ping-pong of `words` f64 words between two ranks of the in-process
/// fabric (`channel_ctxs`, `WorkerCtx::send`/`recv`), in µs per round trip.
fn fabric_roundtrip_us(words: usize) -> f64 {
    const BATCHES: usize = 10;
    const PER_BATCH: usize = 100;
    let mut ctxs = fmm_spmd::channel_ctxs(VuGrid::new([2, 1, 1]));
    let mut echo = ctxs.pop().expect("rank 1");
    let mut ping = ctxs.pop().expect("rank 0");
    std::thread::scope(|s| {
        s.spawn(move || {
            for tag in 0..(BATCHES * PER_BATCH) as u64 {
                let v = echo.recv(0, tag);
                echo.send(0, tag, v);
            }
        });
        let mut v = vec![1.0; words.max(1)];
        let mut per_trip = Vec::with_capacity(BATCHES);
        for b in 0..BATCHES {
            let t = Instant::now();
            for i in 0..PER_BATCH {
                let tag = (b * PER_BATCH + i) as u64;
                ping.send(1, tag, v);
                v = ping.recv(1, tag);
            }
            per_trip.push(t.elapsed().as_secs_f64() * 1e6 / PER_BATCH as f64);
        }
        median(&per_trip)
    })
}

/// Median over `reps` runs of `f`, in seconds per call, timing batches of
/// `per_batch` calls.
fn time_per_call(reps: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        per_call.push(t.elapsed().as_secs_f64() / per_batch as f64);
    }
    median(&per_call)
}

/// `--trace 1`: the per-layer metrics.
fn traced_run(spec: &Spec, n: usize, seed: u64, secs: f64) -> Outcome {
    let mut gate = Gate::default();
    let mut samples = BTreeMap::new();
    let mut t = Tracer::default();
    let depth = spec.config(Exec::Serial).depth.resolve(n);

    // Set-up layers, once per executor.
    let fmms: Vec<Fmm> = EXECS
        .iter()
        .map(|&exec| {
            t.next_run();
            let fmm = t.span("core.translations", || {
                Fmm::new(spec.config(exec)).expect("workload configurations are valid")
            });
            black_box(t.span("core.plan", || fmm.plan_for(depth)));
            fmm
        })
        .collect();
    let p = Problem::new(spec, n, seed);
    let reference = warm_up(&mut gate, &fmms, spec, &p);

    // Composed pipelines next to timed evaluates, round by round.
    let mut run_exec = BTreeMap::new();
    let mut times: [Vec<f64>; 3] = Default::default();
    let mut counts = None;
    let mut report: Option<SpmdReport> = None;
    let start = Instant::now();
    for round in 0.. {
        if round >= 2 && start.elapsed().as_secs_f64() > 0.45 * secs {
            break;
        }
        for (i, exec) in EXECS.iter().copied().enumerate() {
            let fmm = &fmms[i];
            if exec != Exec::Spmd2 {
                run_exec.insert(t.next_run(), exec);
                let (ans, c) = composed(&mut t, fmm, spec.forces, &p.pos, &p.q);
                gate.check(
                    reference
                        .as_ref()
                        .is_some_and(|r| ans.finite() && ans.same_bits(r)),
                    || {
                        format!(
                            "composed {} layers differ bitwise from the serial evaluate",
                            exec.label()
                        )
                    },
                );
                counts = Some(c);
            }
            let (dt, out) =
                timed_eval(&mut gate, fmm, spec, exec, &p.pos, &p.q, reference.as_ref());
            times[i].push(dt);
            if let Some((_, o)) = out {
                report = o.spmd.or(report);
            }
        }
    }
    samples.insert("eval_rounds", times[0].len());
    let counts = counts.expect("at least one composed run");
    let report = report.unwrap_or_default();
    let eval_p50: Vec<f64> = times.iter().map(|v| median(v)).collect();

    // Median self time per (executor, layer), over the composed runs.
    let self_ns = self_times_ns(t.spans());
    let mut by_layer: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for (s, &self_t) in t.spans().iter().zip(&self_ns) {
        let label = match run_exec.get(&s.run) {
            Some(e) => e.label(),
            None => "setup",
        };
        let v = if s.name == "pipeline" {
            s.duration_ns()
        } else {
            self_t
        };
        by_layer
            .entry((label, s.name))
            .or_default()
            .push(v as f64 * 1e-9);
    }
    let layer_s = |label: &str, name: &str| -> f64 {
        by_layer.get(&(label, name)).map_or(f64::NAN, |v| median(v))
    };
    let span_cost_ns = {
        let mut scratch = Tracer::default();
        let reps = 20_000;
        let t0 = Instant::now();
        for _ in 0..reps {
            let id = scratch.enter("x");
            scratch.exit(id);
        }
        t0.elapsed().as_secs_f64() * 1e9 / reps as f64
    };
    write_trace(spec.name, seed, &t);

    let k = fmms[0].k();
    let gemm = gemm_gflops(k, 0.05 * secs);
    let phases = report.phases.phases();
    let down = &phases[3];
    let fabric_us = fabric_roundtrip_us((down.bytes / down.messages.max(1) / 8) as usize);
    drop(fmms);

    // The serve door: a short open loop for the engine statistics, and the
    // compute and codec floors of one request.
    let load = Load::new(spec, seed);
    let server = start_server(&load, &mut gate);
    let addr = server.local_addr();
    let (open_conns, closed_conns) = connections();
    let open = open_loop(addr, &load, spec.serve_rps, open_conns, 0.15 * secs);
    let closed = closed_loop(addr, &load, closed_conns, 0.1 * secs);
    let registry = server.engine().registry().stats();
    let queue_peak = server
        .engine()
        .metrics
        .queue_depth_peak
        .load(Ordering::Relaxed);
    stop_server(server);
    for t in [&open, &closed] {
        gate.attempted += t.attempted;
        gate.failed += t.failed;
    }
    let latency = Summary::of(&open.latency_ms);
    samples.insert("serve_latency_ms", latency.n);
    samples.insert("serve_capacity_replies", closed.completed as usize);
    let req = &load.requests[0];
    let solo_s = time_per_call(25, 8, || {
        black_box(evaluate(&load.local, spec.forces, &req.positions, &req.charges).ok());
    });
    let reply = protocol::encode_eval_response(&EvalResponse {
        potentials: load.expected[0].potentials.clone(),
        fields: spec.forces.then(|| {
            load.expected[0]
                .fields
                .chunks_exact(3)
                .map(|c| [c[0], c[1], c[2]])
                .collect()
        }),
        batch_size: 1,
    });
    let codec_s = time_per_call(25, 200, || {
        black_box(protocol::encode_evaluate(black_box(req)));
        black_box(protocol::decode_eval_response(black_box(&reply), spec.forces).ok());
    });
    let batches: Vec<f64> = open.batch_sizes.iter().map(|&b| b as f64).collect();

    let coverage = |label: &str, i: usize| -> f64 {
        LAYERS.iter().map(|l| layer_s(label, l)).sum::<f64>() / eval_p50[i]
    };
    let t2_gflops =
        |label: &str| -> f64 { counts.down.t2 as f64 / layer_s(label, "core.t2t3") / 1e9 };
    let mut metrics = vec![
        metric("tree.sort_s", layer_s("serial", "tree.sort"), "s"),
        metric("tree.max_leaf", counts.max_leaf as f64, "count"),
        metric(
            "core.translations_s",
            layer_s("setup", "core.translations"),
            "s",
        ),
        metric("core.plan_s", layer_s("setup", "core.plan"), "s"),
        metric("core.p2o_s", layer_s("serial", "core.p2o"), "s"),
        metric("core.p2o_flops", counts.p2o_flops as f64, "flop"),
        metric("core.t1_s", layer_s("serial", "core.t1"), "s"),
        metric("core.t1_flops", counts.up.t1 as f64, "flop"),
        metric("core.t2t3_s", layer_s("serial", "core.t2t3"), "s"),
        metric("core.t2_flops", counts.down.t2 as f64, "flop"),
        metric("core.t3_flops", counts.down.t3 as f64, "flop"),
        metric(
            "core.copied_words",
            (counts.up.copied + counts.down.copied) as f64,
            "words",
        ),
        metric("core.t2_gflops.serial", t2_gflops("serial"), "GF/s"),
        metric("core.t2_gflops.rayon", t2_gflops("rayon"), "GF/s"),
        metric("core.eval_s", layer_s("serial", "core.eval"), "s"),
        metric("core.eval_flops", counts.eval_flops as f64, "flop"),
        metric("core.near_s", layer_s("serial", "core.near"), "s"),
        metric("core.near_pairs", counts.near_pairs as f64, "count"),
        metric("core.near_flops", counts.near_flops as f64, "flop"),
        metric("linalg.gemm_gflops", gemm, "GF/s"),
    ];
    for (i, name) in SPMD_PHASES.iter().enumerate() {
        metrics.push(metric(
            format!("spmd.msgs.{name}"),
            phases[i].messages as f64,
            "count",
        ));
        metrics.push(metric(
            format!("spmd.bytes.{name}"),
            phases[i].bytes as f64,
            "B",
        ));
    }
    metrics.extend([
        metric("spmd.flop_imbalance", report.flop_imbalance(), "ratio"),
        metric("spmd.busy_imbalance", report.busy_imbalance(), "ratio"),
        metric("spmd.excess_s", eval_p50[2] - eval_p50[0], "s"),
        metric("fabric.roundtrip_us", fabric_us, "us"),
        metric("serve.solo_eval_ms", solo_s * 1e3, "ms"),
        metric("serve.codec_us", codec_s * 1e6, "us"),
        metric(
            "serve.mean_batch",
            batches.iter().sum::<f64>() / batches.len().max(1) as f64,
            "count",
        ),
        metric(
            "serve.max_batch",
            batches.iter().copied().fold(0.0, f64::max),
            "count",
        ),
        metric("serve.plan_builds", registry.plan_builds as f64, "count"),
        metric("serve.plan_hits", registry.plan_hits as f64, "count"),
        metric("serve.queue_depth_peak", queue_peak as f64, "count"),
        metric("serve.latency_ms_p50", latency.p50, "ms"),
        metric("serve.latency_ms_p99", latency.p99, "ms"),
        metric("serve.capacity_rps", closed.rate(), "1/s"),
        metric(
            "serve.lateness_ms_p99",
            Summary::of(&open.lateness_ms).p99,
            "ms",
        ),
        metric("trace.coverage.serial", coverage("serial", 0), "ratio"),
        metric("trace.coverage.rayon", coverage("rayon", 1), "ratio"),
        metric(
            "trace.composed_s.serial",
            layer_s("serial", "pipeline"),
            "s",
        ),
        metric("trace.composed_s.rayon", layer_s("rayon", "pipeline"), "s"),
        metric(
            "trace.overhead_s.serial",
            layer_s("serial", "pipeline") - eval_p50[0],
            "s",
        ),
        metric(
            "trace.overhead_s.rayon",
            layer_s("rayon", "pipeline") - eval_p50[1],
            "s",
        ),
        metric("trace.span_cost_ns", span_cost_ns, "ns"),
    ]);
    Outcome {
        metrics,
        gate,
        samples,
        ungated: Vec::new(),
    }
}

/// Write the spans of a traced run as Chrome trace-event JSON next to
/// the benchmark's sources.
fn write_trace(workload: &str, seed: u64, t: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, chrome_trace(t.spans())));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--particles <n>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    fmm_spmd::install();
    let ticks_at_start = cpu_ticks();
    let spec = SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .expect("parse_args accepts only known workloads");
    let n = args.particles.unwrap_or(spec.n);
    let out = if args.trace {
        traced_run(spec, n, args.seed, args.seconds)
    } else {
        timed_run(spec, n, args.seed, args.seconds)
    };
    let catalogue: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let problems = catalogue_problems(&out.metrics, &catalogue);
    for p in &problems {
        eprintln!("FAILED: {p}");
    }

    let steal_frac = match (ticks_at_start, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "# host {{\"nproc\": {}, \"available_parallelism\": {}, \"kernel\": \"{}\", \"cpu\": \"{}\", \
         \"steal_frac\": {:.4}, \"workload\": \"{}\", \"particles\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"samples\": {{{}}}}}",
        nproc(),
        available_parallelism(),
        Kernel::detect().name(),
        cpu_model(),
        steal_frac,
        spec.name,
        n,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        samples.join(", ")
    );
    for m in &out.metrics {
        println!("# {:<26} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for m in &out.ungated {
        println!(
            "# {:<26} {:>18.6} {} (printed only, not gated)",
            m.name, m.value, m.unit
        );
    }
    let g = &out.gate;
    println!(
        "# failed_frac {} ({} of {} checks failed)",
        g.failed as f64 / g.attempted.max(1) as f64,
        g.failed,
        g.attempted
    );
    let correct = g.failed == 0 && g.attempted > 0 && problems.is_empty();
    println!(
        "{}",
        result_line(correct, g.attempted.max(1), g.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
