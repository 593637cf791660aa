//! Arithmetic and bookkeeping of the end-to-end benchmark, kept apart
//! from `main.rs` so the tests can reach it: percentiles, spans and their
//! self time, the metric catalogue, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["uniform_d5", "uniform_d14", "plummer_forces"];

/// End-to-end metrics `(name, unit)`, printed by every workload with
/// `--trace 0`. The served-traffic metrics (`serve_latency_ms_p50`,
/// `serve_latency_ms_p99`, `serve_capacity_rps`) are printed on `#` lines
/// but are not gated: on a shared host their run-to-run spread exceeds
/// any bound the benchmark may set. The traced run reports them as
/// `serve.latency_ms_p50`, `serve.latency_ms_p99` and `serve.capacity_rps`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("eval_s_p50.serial", "s"),
    ("eval_s_p50.rayon", "s"),
    ("eval_s_p50.spmd2", "s"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
];

/// Short metric names of the six SPMD program phases, in
/// `SpmdReport::PHASE_NAMES` order.
pub const SPMD_PHASES: [&str; 6] = ["sort", "p2o", "upward", "downward", "eval", "near"];

/// Per-layer metrics `(name, unit)`, printed by every workload with
/// `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("tree.sort_s", "s"),
        ("tree.max_leaf", "count"),
        ("core.translations_s", "s"),
        ("core.plan_s", "s"),
        ("core.p2o_s", "s"),
        ("core.p2o_flops", "flop"),
        ("core.t1_s", "s"),
        ("core.t1_flops", "flop"),
        ("core.t2t3_s", "s"),
        ("core.t2_flops", "flop"),
        ("core.t3_flops", "flop"),
        ("core.copied_words", "words"),
        ("core.t2_gflops.serial", "GF/s"),
        ("core.t2_gflops.rayon", "GF/s"),
        ("core.eval_s", "s"),
        ("core.eval_flops", "flop"),
        ("core.near_s", "s"),
        ("core.near_pairs", "count"),
        ("core.near_flops", "flop"),
        ("linalg.gemm_gflops", "GF/s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for p in SPMD_PHASES {
        out.push((format!("spmd.msgs.{p}"), "count"));
        out.push((format!("spmd.bytes.{p}"), "B"));
    }
    for (n, u) in [
        ("spmd.flop_imbalance", "ratio"),
        ("spmd.busy_imbalance", "ratio"),
        ("spmd.excess_s", "s"),
        ("fabric.roundtrip_us", "us"),
        ("serve.solo_eval_ms", "ms"),
        ("serve.codec_us", "us"),
        ("serve.mean_batch", "count"),
        ("serve.max_batch", "count"),
        ("serve.plan_builds", "count"),
        ("serve.plan_hits", "count"),
        ("serve.queue_depth_peak", "count"),
        ("serve.latency_ms_p50", "ms"),
        ("serve.latency_ms_p99", "ms"),
        ("serve.capacity_rps", "1/s"),
        ("serve.lateness_ms_p99", "ms"),
        ("trace.coverage.serial", "ratio"),
        ("trace.coverage.rayon", "ratio"),
        ("trace.composed_s.serial", "s"),
        ("trace.composed_s.rayon", "s"),
        ("trace.overhead_s.serial", "s"),
        ("trace.overhead_s.rayon", "s"),
        ("trace.span_cost_ns", "ns"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `q`-quantile (0 ≤ q ≤ 1) of ascending `sorted`, interpolating
/// linearly between the two closest ranks. Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and 99th percentile of a sample, with its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    /// The summary of `values`; NaN percentiles when there are none.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                n: 0,
                p50: f64::NAN,
                p99: f64::NAN,
            };
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p50: percentile(&v, 0.5),
            p99: percentile(&v, 0.99),
        }
    }

    /// Samples strictly above the 99th percentile. A percentile means
    /// little with fewer than ten samples beyond it.
    pub fn beyond_p99(&self) -> usize {
        if self.n == 0 {
            return 0;
        }
        self.n - (0.99 * (self.n - 1) as f64).floor() as usize - 1
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// One timed call into a layer, recorded by the benchmark around the
/// layer's public function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one composed evaluation share a run id.
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; spans nest through [`Tracer::enter`] /
/// [`Tracer::exit`] and are written out once, at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }
}

impl Tracer {
    /// Start a new run id for the spans that follow.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans as Chrome trace-event JSON (opens in Perfetto or
/// `chrome://tracing`); each run id becomes one track.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut s = String::from("{\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            sp.name,
            sp.run,
            sp.start_ns as f64 / 1e3,
            sp.duration_ns() as f64 / 1e3,
            i,
            parent
        );
    }
    s.push_str("]}\n");
    s
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`. Values print with all their digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // A non-finite value is a failed run; keep the line valid JSON.
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_string()
        };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Check that `metrics` are exactly the catalogue `expected`, in any
/// order, with matching units and finite values. Returns the problems.
pub fn catalogue_problems(metrics: &[Metric], expected: &[(String, &str)]) -> Vec<String> {
    let want: BTreeMap<&str, &str> = expected.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    let mut problems = Vec::new();
    let mut seen = BTreeMap::new();
    for m in metrics {
        if !valid_name(&m.name) {
            problems.push(format!("illegal metric name {:?}", m.name));
        }
        if seen.insert(m.name.as_str(), ()).is_some() {
            problems.push(format!("metric {} emitted twice", m.name));
        }
        match want.get(m.name.as_str()) {
            None => problems.push(format!("metric {} is not in the catalogue", m.name)),
            Some(u) if *u != m.unit => {
                problems.push(format!("metric {} has unit {}, want {}", m.name, m.unit, u))
            }
            _ => {}
        }
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    for n in want.keys() {
        if !seen.contains_key(n) {
            problems.push(format!("metric {n} was not emitted"));
        }
    }
    problems
}

/// SplitMix64: the benchmark's own seeded index stream (input data comes
/// from `fmm_bench::workloads`).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `count` distinct indices below `n` (all of them when `count ≥ n`),
    /// ascending.
    pub fn sample_indices(&mut self, n: usize, count: usize) -> Vec<usize> {
        if count >= n {
            return (0..n).collect();
        }
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < count {
            picked.insert((self.next_u64() % n as u64) as usize);
        }
        picked.into_iter().collect()
    }
}
