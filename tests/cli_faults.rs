//! Exit-code contract of the simulating `hpa` subcommands, through the
//! real binary: a program whose emulator faults is bad input. Every
//! subcommand reports it as `hpa run` does, with exit code 1 and a
//! one-line `error:` message, never a panic.

use std::path::PathBuf;
use std::process::Command;

/// Loads from address 0 (in range), then from `-1` (outside data
/// memory): the second load faults the emulator at fetch.
const FAULTING: &str = "li r1, #0\nldq r2, 0(r1)\nsub r1, #1, r1\nldq r3, 0(r1)\nhalt\n";

/// A scratch directory unique to this test process.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpa-cli-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn faulting_program_exits_1_with_one_error_line_and_no_panic() {
    let dir = scratch_dir();
    let prog = dir.join("fault.s");
    std::fs::write(&prog, FAULTING).expect("write program");
    let prog = prog.to_str().expect("utf-8 path");
    let trace_out = dir.join("trace.json");
    let trace_out = trace_out.to_str().expect("utf-8 path");

    let cases: [&[&str]; 5] = [
        &["run", prog],
        &["sim", prog],
        &["sim", prog, "--sampled", "10:10:10"],
        &["sim", prog, "--counters", "--json"],
        &["trace-viz", prog, "--out", trace_out],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hpa")).args(args).output().expect("spawn hpa");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked at"), "hpa {args:?} panicked:\n{stderr}");
        assert_eq!(out.status.code(), Some(1), "hpa {args:?}:\n{stderr}");
        assert_eq!(stderr.lines().count(), 1, "hpa {args:?}: one error line:\n{stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("outside data memory"),
            "hpa {args:?}: {stderr}"
        );
    }
    assert!(!std::path::Path::new(trace_out).exists(), "no trace written for a faulting run");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// A reader that stops early (`hpa asm mcf --scale long | head -1`) ends
/// the output quietly: no panic on the broken pipe, exit 0. The listing
/// is ~110 MB, far past any pipe buffer, so writes hit the closed pipe.
#[test]
fn closed_stdout_ends_output_quietly_with_exit_0() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpa"))
        .args(["asm", "mcf", "--scale", "long"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hpa");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    // The reader, and with it the pipe's read end, is dropped here.
    assert!(!first.is_empty(), "hpa asm printed a first line");
    let out = child.wait_with_output().expect("wait for hpa");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked at"), "hpa asm panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
