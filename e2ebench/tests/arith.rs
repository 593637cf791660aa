//! The benchmark's own arithmetic: percentiles, span self time, metric
//! names, and agreement between `BENCHMARK.json` and what the command
//! emits.

use e2ebench::{
    catalogue_problems, per_layer, percentile, result_line, self_times_ns, valid_name, Metric,
    Span, SplitMix, Summary, Tracer, END_TO_END, WORKLOADS,
};
use std::collections::BTreeSet;
use std::process::Command;

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        run: 1,
    }
}

#[test]
fn percentiles_interpolate_between_ranks() {
    assert_eq!(percentile(&[7.0], 0.5), 7.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
    assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert!((percentile(&hundred, 0.99) - 99.01).abs() < 1e-9);
    assert_eq!(percentile(&hundred, 0.0), 1.0);
    assert_eq!(percentile(&hundred, 1.0), 100.0);
}

#[test]
fn summary_reports_its_sample_count() {
    let s = Summary::of(&[3.0, 1.0, 2.0, 10.0]);
    assert_eq!(s.n, 4);
    assert_eq!(s.p50, 2.5);
    // Unsorted input is sorted first.
    assert!((s.p99 - (3.0 + 7.0 * 0.97)).abs() < 1e-9);
    let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
    let s = Summary::of(&thousand);
    assert_eq!(s.n, 1000);
    assert_eq!(s.beyond_p99(), 10, "p99 of 1000 samples has ten beyond it");
    let hundred: Vec<f64> = (0..100).map(f64::from).collect();
    assert_eq!(Summary::of(&hundred).beyond_p99(), 1);
    let none = Summary::of(&[]);
    assert_eq!((none.n, none.beyond_p99()), (0, 0));
    assert!(none.p50.is_nan() && none.p99.is_nan());
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span("root", 0, 100, None),
        // Overlapping children count once: [10, 50) is covered.
        span("a", 10, 30, Some(0)),
        span("b", 20, 50, Some(0)),
        // A child running past its parent's end is clipped to [90, 100).
        span("c", 90, 120, Some(0)),
        // A grandchild is covered by its parent, not by the root.
        span("d", 12, 18, Some(1)),
    ];
    let st = self_times_ns(&spans);
    assert_eq!(st, vec![50, 14, 30, 30, 6]);
}

#[test]
fn nested_tracer_spans_add_up_to_the_parent() {
    let mut t = Tracer::default();
    let run = t.next_run();
    let root = t.enter("root");
    t.span("child", || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    t.span("child", || std::hint::black_box(1 + 1));
    t.exit(root);
    let spans = t.spans();
    assert_eq!(spans.len(), 3);
    assert!(spans.iter().all(|s| s.run == run));
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[1].duration_ns() >= 2_000_000);
    let st = self_times_ns(spans);
    assert_eq!(st[0] + st[1] + st[2], spans[0].duration_ns());
}

#[test]
fn metric_names_are_legal() {
    for (n, _) in END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer())
    {
        assert!(valid_name(&n), "illegal metric name {n}");
    }
    for w in WORKLOADS {
        assert!(valid_name(w), "illegal workload name {w}");
    }
    for bad in [
        "",
        "a b",
        "-lead",
        ".lead",
        "upward(T1)",
        "x+y",
        &"n".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
}

#[test]
fn catalogue_check_names_every_problem() {
    let cat = vec![("a".to_string(), "s"), ("b".to_string(), "ms")];
    let ok = [
        Metric {
            name: "b".into(),
            value: 2.0,
            unit: "ms",
        },
        Metric {
            name: "a".into(),
            value: 1.0,
            unit: "s",
        },
    ];
    assert!(catalogue_problems(&ok, &cat).is_empty());
    let bad = [
        Metric {
            name: "a".into(),
            value: f64::NAN,
            unit: "ms",
        },
        Metric {
            name: "z".into(),
            value: 1.0,
            unit: "s",
        },
    ];
    let p = catalogue_problems(&bad, &cat);
    assert_eq!(p.len(), 4, "{p:?}");
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let line = result_line(
        true,
        3,
        0,
        &[
            Metric {
                name: "x".into(),
                value: 0.125,
                unit: "s",
            },
            Metric {
                name: "y".into(),
                value: f64::INFINITY,
                unit: "ms",
            },
        ],
    );
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 0.125, \"unit\": \"s\"}, \"y\": {\"value\": null, \"unit\": \"ms\"}}}"
    );
}

#[test]
fn sampled_indices_are_distinct_and_seeded() {
    let a = SplitMix(7).sample_indices(1000, 50);
    assert_eq!(a, SplitMix(7).sample_indices(1000, 50));
    assert_ne!(a, SplitMix(8).sample_indices(1000, 50));
    assert_eq!(a.iter().collect::<BTreeSet<_>>().len(), 50);
    assert!(a.iter().all(|&i| i < 1000));
    assert_eq!(SplitMix(1).sample_indices(5, 9), vec![0, 1, 2, 3, 4]);
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> BTreeSet<String> {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let open = at + json[at..].find('[').expect("an array");
    let close = open + json[open..].find(']').expect("a closed array");
    let mut out = BTreeSet::new();
    let mut rest = &json[open..close];
    while let Some(i) = rest.find("\"name\"") {
        rest = &rest[i + 6..];
        let q0 = rest.find('"').expect("a name value") + 1;
        let q1 = q0 + rest[q0..].find('"').expect("a closed string");
        assert!(
            out.insert(rest[q0..q1].to_string()),
            "{key}: duplicate name"
        );
        rest = &rest[q1 + 1..];
    }
    out
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn end_to_end_names() -> BTreeSet<String> {
    END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
}

fn per_layer_names() -> BTreeSet<String> {
    per_layer().into_iter().map(|(n, _)| n).collect()
}

#[test]
fn benchmark_json_names_match_the_catalogue() {
    let json = benchmark_json();
    assert_eq!(names_in(&json, "end_to_end"), end_to_end_names());
    assert_eq!(names_in(&json, "per_layer"), per_layer_names());
    let workloads: BTreeSet<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
}

/// The metric names of the command's result line, from a short run of
/// the workload's code path with fewer particles.
fn emitted(workload: &str, trace: u8) -> BTreeSet<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--particles", "1500"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    let mut names = BTreeSet::new();
    for part in metrics.split("}, ") {
        let q0 = part.find('"').expect("a metric name") + 1;
        let q1 = q0 + part[q0..].find('"').expect("a closed name");
        names.insert(part[q0..q1].to_string());
    }
    names
}

#[test]
fn every_workload_emits_every_listed_metric() {
    let json = benchmark_json();
    for w in names_in(&json, "workloads") {
        assert_eq!(emitted(&w, 0), names_in(&json, "end_to_end"), "{w}");
        assert_eq!(emitted(&w, 1), names_in(&json, "per_layer"), "{w}");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "uniform_d5", "--trace", "2"][..],
        &["--workload", "uniform_d5", "--particles", "0"][..],
        &["--seed"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
