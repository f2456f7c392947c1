//! The run record is one rendering everywhere: `hpa sim --json` (through
//! the real binary) prints exactly the record a served cell payload
//! carries, with serve's own fields beside it.

use half_price::obs::json::{self, Json};
use half_price::sdk::Client;
use half_price::serve::proto::{JobRequest, JobStatus};
use half_price::serve::server::{Server, ServerConfig};
use half_price::sim::SampleUnits;
use half_price::workloads::Scale;
use half_price::Scheme;
use std::process::Command;
use std::time::Duration;

/// Runs the `hpa` binary and returns its stdout, asserting exit 0.
fn hpa(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hpa")).args(args).output().expect("spawn hpa");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "hpa {args:?} failed:\n{stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn served_payloads_carry_the_sim_json_record() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let client = Client::new(server.local_addr().expect("bound").to_string());
    let handle = std::thread::spawn(move || server.run());

    let units = "500:2000:7500";
    let full = JobRequest::workload("gcc", Scale::Tiny, Scheme::Combined);
    let sampled = JobRequest {
        seed: 42,
        sampled: Some(SampleUnits::parse(units).expect("valid units")),
        ..full.clone()
    };
    let cases: [(JobRequest, &[&str]); 2] =
        [(full, &[]), (sampled, &["--sampled", units, "--seed", "42"])];
    for (request, mode_flags) in cases {
        let submit = client.submit(&request).expect("submit");
        let result = client.wait(submit.job_id, Duration::from_secs(120)).expect("result");
        assert_eq!(result.status, JobStatus::Done);
        let payload = result.cells[0].payload().expect("payload parses");

        let mut args = vec!["sim", "gcc", "--scale", "tiny", "--scheme", "combined", "--json"];
        args.extend_from_slice(mode_flags);
        let record = json::parse(hpa(&args).trim()).expect("sim --json is one JSON document");
        let fields = record.as_obj().expect("the record is an object");
        assert!(fields.iter().any(|(k, _)| k == "model"), "the record names its model");
        for (key, value) in fields {
            assert_eq!(payload.get(key), Some(value), "{mode_flags:?}: payload `{key}`");
        }
        // Serve adds only its own fields.
        let extra: Vec<&str> = payload
            .as_obj()
            .expect("the payload is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| record.get(k).is_none())
            .collect();
        assert_eq!(extra, ["scale", "seed", "cache_key"], "{mode_flags:?}");
        assert_eq!(record.get("sampled").is_some(), !mode_flags.is_empty());
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

/// A fast-forward period longer than the whole program measures no
/// window, so there is no confidence interval to print.
#[test]
fn sampled_run_without_a_confidence_interval_prints_n_a() {
    let args = ["sim", "gcc", "--scale", "tiny", "--sampled", "100:1000:1000000"];
    let text = hpa(&args);
    let line = text.lines().find(|l| l.starts_with("mean IPC")).expect("a mean IPC line");
    assert!(line.contains("± n/a"), "{line}");
    let record = json::parse(hpa(&[&args[..], &["--json"]].concat()).trim()).expect("JSON");
    assert_eq!(record.get("sampled").and_then(|s| s.get("ci_half_width")), Some(&Json::Null));
}
