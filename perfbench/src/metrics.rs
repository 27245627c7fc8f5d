//! The metric catalogue (names and units, mirrored in `BENCHMARK.json`)
//! and the result line the benchmark prints last.

use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("round_ms_p50", "ms"),
    ("round_ms_tail", "ms"),
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("comm_bytes_per_round", "B"),
    ("round_success_ratio", "ratio"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`), grouped by
/// the crate whose public calls they time.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("ml.loss_and_grad_ms", "ms"),
    ("ml.forward_ms", "ms"),
    ("ml.eval_ms", "ms"),
    ("ml.materialize_us", "us"),
    ("sparse.client_topk_ms", "ms"),
    ("sparse.select_ms", "ms"),
    ("sparse.select_serial_ms", "ms"),
    ("wire.encode_us_per_frame", "us"),
    ("wire.decode_us_per_frame", "us"),
    ("wire.uplink_bytes_per_round", "B"),
    ("wire.downlink_bytes_per_round", "B"),
    ("wire.lossy_round_share", "ratio"),
    ("fl.hydrate_ms", "ms"),
    ("fl.client_pass_ms", "ms"),
    ("fl.server_decode_ms", "ms"),
    ("fl.wire_fault_ms", "ms"),
    ("fl.selection_ms", "ms"),
    ("fl.probe_ms", "ms"),
    ("fl.broadcast_apply_ms", "ms"),
    ("fl.bookkeeping_ms", "ms"),
    ("fl.downlink_pricing_ms", "ms"),
    ("fl.evaluate_ms", "ms"),
    ("fl.batched_forward_ms", "ms"),
    ("fl.checkpoint_write_ms", "ms"),
    ("fl.span_coverage", "ratio"),
    ("fl.lost_upload_ratio", "ratio"),
    ("fl.retransmit_bytes_per_round", "B"),
    ("fl.resident_clients", "count"),
    ("fl.checkpoint_save_ms", "ms"),
    ("fl.checkpoint_bytes", "B"),
    ("exec.busy_frac", "ratio"),
    ("exec.tasks_per_round", "count"),
    ("exec.imbalance", "ratio"),
    ("exec.queue_depth_peak", "count"),
    ("exec.dispatch_us_p50", "us"),
    ("exec.empty_region_us", "us"),
    ("exec.parallel_speedup", "x"),
    ("core.engine_ms_per_round", "ms"),
    ("core.runner_tail_ms_per_round", "ms"),
    ("core.final_loss", "nats"),
    ("online.controller_us", "us"),
    ("online.k_p50", "count"),
    ("online.k_max", "count"),
    ("telemetry.overhead_frac", "ratio"),
    ("telemetry.traced_round_ms_p50", "ms"),
];

/// Metric values collected by one run, in catalogue order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Records `value` under `name`, taking the unit from the catalogue.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in either catalogue or is set twice.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(
            self.values.iter().all(|(n, _, _)| *n != name),
            "metric {name} set twice"
        );
        self.values.push((name, unit, value));
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }

    /// Names of `catalogue` entries this run did not record.
    pub fn missing(&self, catalogue: &[(&str, &str)]) -> Vec<String> {
        catalogue
            .iter()
            .filter(|(n, _)| self.get(n).is_none())
            .map(|(n, _)| n.to_string())
            .collect()
    }

    /// The final result line: `correct`, `attempted`, `failed` and every
    /// metric of `catalogue` with its unit. Non-finite values cannot be
    /// written as JSON numbers, so they make the line report `correct:
    /// false` and print as `0`.
    pub fn result_line(
        &self,
        catalogue: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let finite = catalogue
            .iter()
            .all(|(n, _)| self.get(n).is_some_and(f64::is_finite));
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            correct && finite
        );
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{check_metric_list, MAX_END_TO_END, MAX_PER_LAYER};

    #[test]
    fn catalogues_obey_the_grammar_and_limits() {
        check_metric_list(&END_TO_END, MAX_END_TO_END).unwrap();
        check_metric_list(&PER_LAYER, MAX_PER_LAYER).unwrap();
        let mut both: Vec<(&str, &str)> = END_TO_END.to_vec();
        both.extend_from_slice(&PER_LAYER);
        check_metric_list(&both, usize::MAX).unwrap();
    }

    /// `BENCHMARK.json` names exactly the metrics the program prints, with
    /// the same units.
    #[test]
    fn benchmark_json_matches_the_catalogues() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (section, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, catalogue.len(), "{section} lists {listed} metrics");
            for (name, unit) in catalogue {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }

    #[test]
    fn result_line_has_every_metric_and_flags_non_finite_values() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, i as f64 + 0.5);
        }
        let line = m.result_line(&END_TO_END, true, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 3.5, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}"));
        let mut bad = Metrics::default();
        bad.set("round_ms_p50", f64::NAN);
        assert!(bad
            .result_line(&END_TO_END, true, 1, 0)
            .starts_with("{\"correct\": false"));
        assert_eq!(bad.missing(&END_TO_END).len(), END_TO_END.len() - 1);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metrics_are_rejected() {
        Metrics::default().set("nope", 1.0);
    }
}
