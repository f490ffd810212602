//! The benchmark's own tests, at a scale that runs in seconds.

use broker::Simulation;
use perfbench::net::{self, Net};
use perfbench::report::{metric, percentile, result_line};
use perfbench::run::{run, Outcome, RunConfig};
use perfbench::session::{PlanMode, Session, Stop};
use perfbench::spec::{Inputs, Spec, Workload};
use perfbench::traced::TracedNet;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric object in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |object: &str, key: &str| -> String {
        let at = object.find(&format!("\"{key}\"")).expect("field present");
        let rest = &object[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        spec: Spec::tiny(workload),
        seed: 7,
        seconds: 0.05,
        trace,
        inject_mismatch: false,
        span_file: None,
    }
}

fn assert_emits(outcome: &Outcome, section: &str) {
    let declared = declared(section);
    assert!(!declared.is_empty());
    for (name, unit) in &declared {
        let found = outcome
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("{name} missing from the result"));
        assert_eq!(found.unit, unit, "unit of {name}");
        assert!(found.value.is_finite(), "{name} is {}", found.value);
    }
    assert_eq!(
        outcome.metrics.len(),
        declared.len(),
        "no undeclared metrics"
    );
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, false));
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.problems
        );
        assert_emits(&outcome, "end_to_end");
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.get("failed_ops_ratio"), Some(0.0));
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, true));
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.problems
        );
        assert_emits(&outcome, "per_layer");
        assert_eq!(outcome.get("reliable.retransmits"), Some(0.0));
        assert_eq!(outcome.get("reliable.dup_suppressed"), Some(0.0));
        let unaccounted = outcome.get("trace.unaccounted_pct").expect("emitted");
        assert!(unaccounted.abs() <= 10.0, "{unaccounted}% unaccounted");
    }
}

#[test]
fn an_injected_delivery_mismatch_is_counted() {
    for trace in [false, true] {
        let mut config = tiny(Workload::LineBatch, trace);
        config.inject_mismatch = true;
        let outcome = run(&config);
        assert!(!outcome.correct());
        assert_eq!(outcome.failed, 1, "trace={trace}");
        assert!(outcome.get("failed_ops_ratio").expect("emitted") > 0.0);
    }
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    for workload in Workload::ALL {
        let first = run(&tiny(workload, false));
        let second = run(&tiny(workload, false));
        for name in [
            "messages_per_event",
            "wire_bytes_per_event",
            "control_bytes_per_op",
            "routing_assocs",
        ] {
            assert_eq!(
                first.get(name),
                second.get(name),
                "{} {name}",
                workload.name()
            );
        }
    }
}

#[test]
fn traced_and_untraced_networks_agree() {
    for workload in Workload::ALL {
        let spec = Spec::tiny(workload);
        let inputs = Inputs::generate(&spec, 3);
        let plan = if spec.prune_half {
            PlanMode::ApplyHalf
        } else {
            PlanMode::Skip
        };
        let mut plain = Session::setup(|| Simulation::new(net::config()), &spec, &inputs, plan);
        let mut traced = Session::setup(|| TracedNet::new(net::config()), &spec, &inputs, plan);
        for session_ops in [
            plain.run(&spec, &inputs, Stop::Ops(40)).ops,
            traced.run(&spec, &inputs, Stop::Ops(40)).ops,
        ] {
            assert_eq!(session_ops, 40);
        }
        plain.tail(spec.tail_unsubscribes);
        traced.tail(spec.tail_unsubscribes);
        assert_eq!(plain.totals(), traced.totals(), "{}", workload.name());
        assert!(
            plain.totals().deliveries > 0,
            "{} delivers",
            workload.name()
        );
        assert_eq!(
            plain.net.memory_report(),
            traced.net.memory_report(),
            "{}",
            workload.name()
        );
        plain.net.enable_delivery_log();
        traced.net.enable_delivery_log();
        for batch in &inputs.batches {
            plain.net.publish_batch(batch);
            traced.net.publish_batch(batch);
        }
        for event in inputs.events.iter().take(8) {
            plain.net.publish(event.clone());
            traced.net.publish(event.clone());
        }
        let mut a = plain.net.take_delivery_log();
        let mut b = traced.net.take_delivery_log();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{}", workload.name());
    }
}

#[test]
fn percentiles_are_nearest_rank() {
    let mut samples: Vec<u64> = (1..=1000).rev().collect();
    assert_eq!(percentile(&mut samples, 0.50), Some(500));
    assert_eq!(percentile(&mut samples, 0.99), Some(990));
    assert_eq!(percentile(&mut [], 0.5), None);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let line = result_line(true, 3, 0, &[metric("setup_s", "s", 0.25)]);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
         {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
    );
}
