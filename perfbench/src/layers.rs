//! Per-layer metrics of a traced run, computed from its spans and the
//! counts taken at the same boundaries.  A layer the workload never calls
//! reads 0.

use crate::report::Metrics;
use crate::stack::Counts;
use std::collections::BTreeMap;

use crate::report::median;
use crate::trace::{self_by_layer, self_by_name, Span};

/// The serve layer, measured from outside through the protocol and /proc.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeLayer {
    /// Admission→reply p50 from the `stats` verb, µs.
    pub server_p50_us: f64,
    /// Admission→reply p99 from the `stats` verb, µs.
    pub server_p99_us: f64,
    /// Client-observed p50 minus `server_p50_us`.
    pub outside_p50_us: f64,
    /// Median in-process generate + schedule time of one request, µs.
    pub inproc_us: f64,
    /// Shed / (admitted + shed).
    pub shed_frac: f64,
    /// Median latency of the first request on a fresh connection, µs.
    pub first_reply_us: f64,
    /// Daemon RSS growth per accepted connection, KiB.
    pub rss_kb_per_conn: f64,
    /// Daemon threads at the end of the run.
    pub threads: f64,
}

/// Values a workload measures outside the span tree.
#[derive(Clone, Copy, Debug, Default)]
pub struct Extra {
    /// Traced per-item time over untraced per-item time, minus one.
    pub overhead_frac: f64,
    /// Span self time on the timed path over untraced per-item time.
    pub accounted_frac: f64,
    /// Median `Engine::schedule_batch(jobs=1)` of one request, µs.
    pub engine_batch_us: f64,
    /// Median engine batch minus inline scheduling of the same blocks, µs.
    pub engine_overhead_us: f64,
    /// Diagnostics over the workload's descriptions.
    pub diags: usize,
    /// Guard incidents over the workload's descriptions.
    pub incidents: usize,
    /// The serve layer, for `serve-churn`.
    pub serve: Option<ServeLayer>,
}

/// Layers reported with a self-time share, in report order.
pub const LAYERS: [&str; 9] = [
    "sched", "core", "opt", "guard", "lang", "analyze", "workload", "engine", "serve",
];

/// Builds the per-layer metrics.
pub fn per_layer(spans: &[Span], counts: &Counts, extra: &Extra) -> Metrics {
    let by_name = self_by_name(spans);
    let self_ns = |name: &str| by_name.get(name).map_or(0, |&(_, ns)| ns) as f64;
    let mean_us = |name: &str| match by_name.get(name) {
        Some(&(n, ns)) if n > 0 => ns as f64 / n as f64 / 1e3,
        _ => 0.0,
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let pipeline: Vec<&Span> = spans.iter().filter(|s| s.name == "opt.pipeline").collect();
    let pipeline_us = ratio(
        pipeline.iter().map(|s| s.duration_ns() as f64).sum::<f64>() / 1e3,
        pipeline.len() as f64,
    );
    let exact = &counts.exact;

    let mut m = Metrics::default();
    m.set(
        "sched.depgraph_ns_per_op",
        ratio(self_ns("sched.depgraph"), counts.sched_ops as f64),
        "ns",
    );
    m.set(
        "sched.list_ns_per_op",
        ratio(self_ns("sched.list"), counts.sched_ops as f64),
        "ns",
    );
    m.set(
        "sched.verify_ns_per_op",
        ratio(self_ns("sched.verify"), counts.verify_ops as f64),
        "ns",
    );
    m.set(
        "sched.attempts_per_op",
        exact.attempts_per_op(),
        "attempts/op",
    );
    m.set(
        "core.checker_ns_per_attempt",
        ratio(self_ns("core.checker"), counts.replay_attempts as f64),
        "ns",
    );
    m.set(
        "core.checks_per_attempt",
        exact.checks_per_attempt(),
        "checks/attempt",
    );
    m.set(
        "core.options_per_attempt",
        exact.options_per_attempt_avg(),
        "options/attempt",
    );
    m.set(
        "core.attempt_success_frac",
        ratio(exact.successes as f64, exact.attempts as f64),
        "frac",
    );
    m.set("core.compile_us", mean_us("core.compile"), "us");
    m.set("core.lmdes_write_us", mean_us("core.lmdes_write"), "us");
    m.set("core.lmdes_scan_us", mean_us("core.lmdes_scan"), "us");
    m.set(
        "core.lmdes_materialize_us",
        mean_us("core.lmdes_materialize"),
        "us",
    );
    m.set("opt.pipeline_us", pipeline_us, "us");
    for stage in [
        "redundancy",
        "dominance",
        "shifting",
        "sortzero",
        "treesort",
        "factor",
    ] {
        m.set(
            &format!("opt.{stage}_us"),
            mean_us(&format!("opt.{stage}")),
            "us",
        );
    }
    m.set("guard.optimize_us", mean_us("guard.optimize"), "us");
    m.set("guard.vet_image_us", mean_us("guard.vet_image"), "us");
    m.set("guard.incidents", extra.incidents as f64, "count");
    m.set("lang.compile_us", mean_us("lang.compile"), "us");
    m.set("analyze.spec_us", mean_us("analyze.spec"), "us");
    m.set("analyze.diags", extra.diags as f64, "count");
    m.set(
        "workload.generate_ns_per_op",
        ratio(
            self_ns("workload.generate") + self_ns("workload.request_gen"),
            counts.gen_ops as f64,
        ),
        "ns",
    );
    m.set(
        "workload.request_gen_us",
        mean_us("workload.request_gen"),
        "us",
    );
    m.set("engine.batch_us", extra.engine_batch_us, "us");
    m.set("engine.overhead_us", extra.engine_overhead_us, "us");
    let serve = extra.serve.unwrap_or_default();
    m.set("serve.server_p50_us", serve.server_p50_us, "us");
    m.set("serve.server_p99_us", serve.server_p99_us, "us");
    m.set("serve.outside_p50_us", serve.outside_p50_us, "us");
    m.set("serve.inproc_us", serve.inproc_us, "us");
    m.set("serve.shed_frac", serve.shed_frac, "frac");
    m.set("serve.first_reply_us", serve.first_reply_us, "us");
    m.set("serve.rss_kb_per_conn", serve.rss_kb_per_conn, "KiB/conn");
    m.set("serve.threads", serve.threads, "count");

    let by_layer = self_by_layer(spans);
    let total: u64 = by_layer.values().sum();
    for layer in LAYERS {
        let own = by_layer.get(layer).copied().unwrap_or(0);
        m.set(
            &format!("{layer}.self_frac"),
            ratio(own as f64, total as f64),
            "frac",
        );
    }
    m.set("trace.overhead_frac", extra.overhead_frac, "frac");
    m.set("trace.accounted_frac", extra.accounted_frac, "frac");
    m
}

/// Exact per-layer counts that must repeat for one seed.
pub fn exact_counts(counts: &Counts, extra: &Extra) -> Vec<(&'static str, String)> {
    let e = &counts.exact;
    vec![
        ("ref.operations", e.operations.to_string()),
        ("ref.attempts", e.attempts.to_string()),
        ("ref.successes", e.successes.to_string()),
        ("ref.options_checked", e.options_checked.to_string()),
        ("ref.resource_checks", e.resource_checks.to_string()),
        ("analyze.diags", extra.diags.to_string()),
        ("guard.incidents", extra.incidents.to_string()),
    ]
}

/// Total duration per id of the spans named in `names`.
pub fn duration_by_id(spans: &[Span], names: &[&str]) -> BTreeMap<u64, u64> {
    let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| names.contains(&s.name)) {
        *totals.entry(span.id).or_default() += span.duration_ns();
    }
    totals
}

/// Median `engine.batch` time and median (batch − inline scheduling of
/// the same blocks) over the ids that have an engine batch, in µs.
pub fn engine_costs(spans: &[Span]) -> (f64, f64) {
    let inline = duration_by_id(spans, &["sched.depgraph", "sched.list"]);
    let batch = duration_by_id(spans, &["engine.batch"]);
    let batches: Vec<f64> = batch.values().map(|&ns| ns as f64 / 1e3).collect();
    let overheads: Vec<f64> = batch
        .iter()
        .map(|(id, &ns)| (ns as f64 - inline.get(id).copied().unwrap_or(0) as f64) / 1e3)
        .collect();
    (
        median(&batches).unwrap_or(0.0),
        median(&overheads).unwrap_or(0.0),
    )
}
