//! The benchmark's own arithmetic: percentiles, quartiles, geometric
//! means, self-time folding, seeded sequences and the access-log parser.

use pps_perfbench::accesslog::parse_line;
use pps_perfbench::mix::{Mix, Rng};
use pps_perfbench::report::{MetricSpec, Report, Spec};
use pps_perfbench::stats::{geomean, median, percentile, quartiles, spread};
use pps_perfbench::trace::{self, Span};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn nearest_rank_percentile_needs_ten_samples_beyond() {
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&values, 99.0), Ok(990.0));
    assert!(percentile(&values[..999], 99.0)
        .unwrap_err()
        .contains("1000 samples"));
    assert_eq!(percentile(&values[..100], 90.0), Ok(90.0));
    assert!(percentile(&values[..99], 90.0).is_err());
    assert_eq!(percentile(&values[..200], 95.0), Ok(190.0));
    assert!(percentile(&values[..199], 95.0).is_err());
    assert!(percentile(&[], 50.0).is_err());
    assert!(percentile(&values, 100.0).is_err());
    // Order of the input does not matter.
    let mut reversed = values.clone();
    reversed.reverse();
    assert_eq!(percentile(&reversed, 99.0), Ok(990.0));
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    // Expected values from `statistics.quantiles(values, n=4)`.
    // (values, (q1, median, q3))
    type Case = (&'static [f64], (f64, f64, f64));
    let cases: [Case; 5] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            (2.75, 5.5, 8.25),
        ),
        (&[1.0, 2.0, 3.0, 4.0], (1.25, 2.5, 3.75)),
        (&[5.0, 1.0, 3.0], (1.0, 3.0, 5.0)),
        (&[2.0, 8.0], (0.5, 5.0, 9.5)),
        (
            &[10.2, 9.8, 10.0, 10.1, 9.9, 10.4, 9.7, 10.3, 10.0, 9.6],
            (9.775, 10.0, 10.225),
        ),
    ];
    for (values, (q1, q2, q3)) in cases {
        let (a, b, c) = quartiles(values).unwrap();
        assert!(
            close(a, q1) && close(b, q2) && close(c, q3),
            "{values:?}: {a} {b} {c}"
        );
    }
    assert_eq!(quartiles(&[1.0]), None);
    let s = spread(&[10.2, 9.8, 10.0, 10.1, 9.9, 10.4, 9.7, 10.3, 10.0, 9.6]).unwrap();
    assert!(close(s, 0.045), "{s}");
}

#[test]
fn geomean_of_ratios() {
    assert!(close(geomean(&[2.0, 8.0]).unwrap(), 4.0));
    assert!(close(geomean(&[0.5, 2.0, 1.0]).unwrap(), 1.0));
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[1.0, -2.0]), None);
}

fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        name,
        op: 0,
        tid: 0,
        start_ns: start,
        end_ns: end,
    }
}

#[test]
fn self_time_subtracts_nested_and_overlapping_children_once() {
    let spans = vec![
        span(1, None, "run", 0, 100),
        // Two siblings, then a child nested in the first.
        span(2, Some(1), "a", 10, 40),
        span(3, Some(1), "b", 50, 70),
        span(4, Some(2), "c", 15, 25),
        // Children on two threads overlapping each other: covered once.
        span(5, None, "load", 200, 300),
        span(6, Some(5), "conn", 200, 290),
        span(7, Some(5), "conn", 210, 300),
        // A child reaching past its parent counts only inside it.
        span(8, None, "p", 400, 410),
        span(9, Some(8), "q", 405, 420),
    ];
    let selfs = trace::self_times(&spans);
    assert_eq!(selfs, vec![50, 20, 20, 10, 0, 90, 90, 5, 15]);
    let folded = trace::fold(&spans);
    assert_eq!(folded["conn"].count, 2);
    assert_eq!(folded["conn"].self_ns, 180);
    assert_eq!(folded["run"].total_ns, 100);
    assert_eq!(folded["run"].self_ns, 50);
}

#[test]
fn coverage_leaves_out_the_untraced_phase() {
    let spans = vec![
        span(1, None, trace::ROOT, 0, 200),
        span(2, Some(1), trace::UNTRACED, 0, 100),
        span(3, Some(1), "core.guard", 100, 190),
    ];
    assert_eq!(trace::traced_wall_ns(&spans), Some(100));
    assert!(close(trace::coverage(&spans).unwrap(), 0.9));
}

#[test]
fn tracer_records_parents_on_one_thread_and_across_threads() {
    let tracer = trace::Tracer::new(true);
    {
        let root = tracer.span(trace::ROOT, 0);
        let root_id = root.id();
        {
            let _a = tracer.span("a", 1);
            let _b = tracer.span("b", 1);
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _c = tracer.span_under("c", root_id, 2);
                let _d = tracer.span("d", 2);
            });
        });
    }
    let spans = tracer.spans();
    let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
    assert_eq!(by("a").parent, Some(by(trace::ROOT).id));
    assert_eq!(by("b").parent, Some(by("a").id));
    assert_eq!(by("c").parent, Some(by(trace::ROOT).id));
    assert_eq!(by("d").parent, Some(by("c").id));
    assert_ne!(by("d").tid, by("a").tid);
    assert!(trace::chrome_json(&spans).starts_with("{\"traceEvents\":["));

    let off = trace::Tracer::new(false);
    drop(off.span("x", 0));
    assert!(off.spans().is_empty());
}

#[test]
fn seeded_sequences_repeat_per_seed_and_differ_across_seeds() {
    let mix = Mix::uniform(128);
    let run = |seed| {
        let mut rng = Rng::new(seed);
        (0..3).flat_map(|_| mix.cycle(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
    // Each cycle holds every type once, whatever the seed.
    let mut rng = Rng::new(9);
    let mut cycle = mix.cycle(&mut rng);
    cycle.sort_unstable();
    assert_eq!(cycle, (0..128).collect::<Vec<_>>());
}

#[test]
fn triangular_skew_has_linear_tiers() {
    // serve-hot's mix: 64 artifacts in 4 tiers of 16.
    let mix = Mix::triangular(64, 4);
    assert_eq!(mix.cycle_len(), 160);
    let mut counts = [0usize; 64];
    for t in mix.cycle(&mut Rng::new(3)) {
        counts[t] += 1;
    }
    for (rank, &c) in counts.iter().enumerate() {
        assert_eq!(c, 4 - rank / 16, "rank {rank}");
    }
    // The hottest tier draws 4/10 of the traffic, the coldest 1/10.
    let tier = |t: usize| counts[t * 16..t * 16 + 16].iter().sum::<usize>();
    assert_eq!((tier(0), tier(1), tier(2), tier(3)), (64, 48, 32, 16));
    // Uneven cuts still give every rank a weight from `tiers` down to 1.
    let odd = Mix::triangular(10, 3);
    assert_eq!(odd.cycle_len(), 3 * 4 + 2 * 3 + 3);
}

#[test]
fn below_is_uniform_enough() {
    let mut rng = Rng::new(1);
    let mut counts = [0u32; 6];
    for _ in 0..60_000 {
        counts[rng.below(6)] += 1;
    }
    assert!(
        counts.iter().all(|&c| (9_400..10_600).contains(&c)),
        "{counts:?}"
    );
}

#[test]
fn access_log_line_from_pps_serve_parses() {
    // Written by `pps-serve --access-log` for a Profile request.
    let line = r#"{"ts_ms":1792113773180,"trace_id":1,"type":"profile","outcome":"ok","retcode":0,"queue_wait_ms":0.047027,"service_ms":9.042511,"total_ms":9.194074,"bytes":18028}"#;
    let r = parse_line(line).unwrap();
    assert_eq!(
        (r.trace_id, r.kind.as_str(), r.retcode, r.bytes),
        (1, "profile", 0, 18028)
    );
    assert!(close(r.queue_wait_ms, 0.047027));
    assert!(close(r.service_ms, 9.042511));
    assert!(close(r.total_ms, 9.194074));
    let shutdown = r#"{"ts_ms":1792113773231,"trace_id":4,"type":"shutdown","outcome":"shutting-down","retcode":2,"queue_wait_ms":0,"service_ms":0,"total_ms":0.017574000000000003,"bytes":1}"#;
    assert_eq!(parse_line(shutdown).unwrap().retcode, 2);
    assert!(parse_line(&line.replace("\"service_ms\"", "\"svc\"")).is_err());
    assert!(parse_line("{\"type\":").is_err());
}

#[test]
fn result_line_lists_exactly_the_declared_metrics() {
    let m = |name: &str| MetricSpec {
        name: name.into(),
        unit: "ms".into(),
        better: "lower".into(),
        bound: None,
    };
    let metrics = [m("a"), m("b")];
    let mut report = Report::default();
    report.op(None);
    report.set("a", 1.5);
    assert!(report.to_json(&metrics, false).unwrap_err().contains("`b`"));
    let line = report.to_json(&metrics, true).unwrap();
    assert_eq!(
        line,
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1.5,"unit":"ms"},"b":{"value":0,"unit":"ms"}}}"#
    );
    report.set("stray", 1.0);
    assert!(report.to_json(&metrics, true).is_err());
}

#[test]
fn benchmark_json_declares_the_workloads_and_setup_time() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Spec::load(path).unwrap();
    assert_eq!(
        spec.workloads,
        ["paper-eval", "profile-s4", "serve-cold", "serve-hot"]
    );
    let setup = spec.metric("setup_s").unwrap();
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let largest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest));
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
}
