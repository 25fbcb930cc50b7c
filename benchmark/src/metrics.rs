//! Metric names, units and their JSON form.
//!
//! `END_TO_END` and `PER_LAYER` are the sets `BENCHMARK.json` declares —
//! every one is defined, and never zero, on every workload. `EXTRA` holds
//! the workload-specific end-to-end metrics (zero or undefined on some
//! workload), and `LAYERS` every per-layer number the traced pass prints.

use espread_exec::Json;

/// A named measurement; `None` when the run could not produce it (a
/// percentile its sample does not support, a layer the workload skips).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit, e.g. `ms` or `1/s`.
    pub unit: &'static str,
    /// The measured value.
    pub value: Option<f64>,
}

/// End-to-end metrics of the untraced pass, in output order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p95", "ms"),
    ("cpu_ms_per_session", "ms"),
];

/// Workload-specific end-to-end metrics: printed, written to results and
/// checked by `compare`, but not listed in `BENCHMARK.json` because each
/// is zero or undefined on some workload.
pub const EXTRA: [(&str, &str); 6] = [
    ("session_ms_p99", "ms"),
    ("connect_ms_p50", "ms"),
    ("connect_ms_p99", "ms"),
    ("clf_mean", "frames"),
    ("clf_reduction", "ratio"),
    ("critical_loss_share", "ratio"),
];

/// Per-layer metrics of the traced pass that `BENCHMARK.json` lists.
/// `process.cpu_user_s` and `process.cpu_sys_s` stay out: on the
/// single-threaded, syscall-free simulator they read the phase length and
/// zero, to the 10 ms tick of `/proc/self/stat`, on every run.
pub const PER_LAYER: [&str; 15] = [
    "core.order_lookup_ns",
    "core.permute_ns",
    "core.layered_build_ns",
    "core.order_cache_hit_ratio",
    "protocol.plan_window_ns",
    "qos.metrics_ns",
    "net.wire.encode_ns",
    "net.wire.decode_ns",
    "net.clientwin.accept_ns",
    "net.clientwin.close_ns",
    "udp.sendrecv_ns",
    "window.replay_ns",
    "window.measured_ns",
    "window.wait_share",
    "trace.overhead",
];

/// Every per-layer number the traced pass reports, with its unit.
pub const LAYERS: [(&str, &str); 45] = [
    ("core.order_lookup_ns", "ns"),
    ("core.permute_ns", "ns"),
    ("core.layered_build_ns", "ns"),
    ("core.order_cache_hit_ratio", "ratio"),
    ("protocol.plan_window_ns", "ns"),
    ("protocol.session_run_ms", "ms"),
    ("netsim.channel_ns", "ns"),
    ("netsim.loss_share", "ratio"),
    ("qos.metrics_ns", "ns"),
    ("fec.encode_ns", "ns"),
    ("fec.parity_overhead", "ratio"),
    ("fec.recover_ns", "ns"),
    ("fec.recovered_share", "ratio"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.wire.datagrams_per_window", "count"),
    ("net.wire.bytes_per_window", "B"),
    ("net.clientwin.accept_ns", "ns"),
    ("net.clientwin.close_ns", "ns"),
    ("udp.sendrecv_ns", "ns"),
    ("process.cpu_user_s", "s"),
    ("process.cpu_sys_s", "s"),
    ("window.replay_ns", "ns"),
    ("window.measured_ns", "ns"),
    ("window.wait_share", "ratio"),
    ("net.client.connect_ms", "ms"),
    ("net.client.stream_ms", "ms"),
    ("net.client.acks_per_session", "count"),
    ("net.client.nacks_per_session", "count"),
    ("net.client.hello_retries", "count"),
    ("net.client.fec_recovered_per_session", "count"),
    ("net.client.send_errors", "count"),
    ("net.server.datagrams_tx_per_session", "count"),
    ("net.server.retransmissions_per_session", "count"),
    ("net.server.retries", "count"),
    ("net.server.ack_timeouts", "count"),
    ("net.server.decode_errors", "count"),
    ("net.server.send_errors", "count"),
    ("net.server.sessions_reaped", "count"),
    ("net.server.rtt_us_p50", "us"),
    ("net.server.rtt_us_p99", "us"),
    ("net.proxy.dropped_data_share", "ratio"),
    ("net.proxy.send_errors", "count"),
    ("net.proxy.conserved", "bool"),
    ("trace.overhead", "ratio"),
];

/// Builds metrics in `table` order from `(name, value)` pairs; names the
/// pairs leave out read as `None`.
pub fn collect(
    table: &[(&'static str, &'static str)],
    values: &[(&str, Option<f64>)],
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|&(_, v)| v),
        })
        .collect()
}

/// `{name: {"value": v, "unit": u}, ...}`; an absent value is `null`.
pub fn to_json(metrics: &[Metric]) -> Json {
    let mut out = Json::object();
    for m in metrics {
        let mut entry = Json::object();
        entry.push("value", m.value.map_or(Json::Null, Json::Float));
        entry.push("unit", m.unit);
        out.push(m.name, entry);
    }
    out
}

/// Prints one aligned line per metric.
pub fn print(metrics: &[Metric]) {
    for m in metrics {
        let value = m.value.map_or_else(|| "n/a".to_string(), format_value);
        println!("  {:<40} {:>16} {}", m.name, value, m.unit);
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.001 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&EXTRA)
            .map(|&(n, _)| n)
            .chain(LAYERS.iter().map(|&(n, _)| n))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn every_listed_layer_metric_is_in_the_full_table() {
        for name in PER_LAYER {
            assert!(LAYERS.iter().any(|&(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn collect_fills_gaps_with_none() {
        let m = collect(&END_TO_END, &[("sessions_per_s", Some(3.5))]);
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m[1].value, Some(3.5));
        assert_eq!(m[0].value, None);
        assert_eq!(
            to_json(&m[1..2]).render(),
            r#"{"sessions_per_s":{"value":3.5,"unit":"1/s"}}"#
        );
    }
}
