//! The `hpa` flag grammar through the real binary: each subcommand's
//! synopsis declares its arguments, and anything else is a usage error
//! (exit 2) raised before the command runs. Every spawn runs under a
//! deadline, so a command that starts working instead (a campaign, a
//! daemon binding its port) fails the test instead of hanging it.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `hpa args`, killing it past `limit`.
fn hpa(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpa"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hpa");
    let t0 = Instant::now();
    while child.try_wait().expect("poll hpa").is_none() {
        if t0.elapsed() > limit {
            let _ = child.kill();
            let out = child.wait_with_output().expect("reap hpa");
            panic!("hpa {args:?} still running after {limit:?}: {out:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect hpa's output")
}

/// The verbs of the registry, read from the listing `hpa` prints when
/// given no arguments: `usage: hpa <list|asm|...> ...`.
fn verbs() -> Vec<String> {
    let out = hpa(&[], Duration::from_secs(10));
    assert_eq!(out.status.code(), Some(2));
    let listing = String::from_utf8_lossy(&out.stderr).into_owned();
    let first = listing.lines().next().expect("a usage line");
    let verbs = first.split('<').nth(1).and_then(|v| v.split('>').next()).expect("<verbs>");
    verbs.split('|').map(String::from).collect()
}

/// `hpa args` exits 2 before doing anything, with one `error:` line that
/// names `offending`.
fn assert_usage_error(args: &[&str], offending: &str) {
    let out = hpa(args, Duration::from_secs(10));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "hpa {args:?}:\n{stderr}");
    assert!(out.stdout.is_empty(), "hpa {args:?} printed output: {out:?}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "hpa {args:?}: one error line:\n{stderr}");
    assert!(errors[0].contains(offending), "hpa {args:?} does not name `{offending}`:\n{stderr}");
    assert!(stderr.contains(&format!("usage: hpa {}", args[0])), "no synopsis:\n{stderr}");
}

#[test]
fn every_subcommand_rejects_an_unknown_flag_before_running() {
    let verbs = verbs();
    assert!(verbs.len() >= 14, "{verbs:?}");
    for verb in &verbs {
        assert_usage_error(&[verb, "--no-such-flag"], "--no-such-flag");
    }
}

#[test]
fn missing_values_repeats_and_extra_positionals_are_usage_errors() {
    assert_usage_error(&["sim", "gcc", "--scale", "tiny", "--scheme"], "--scheme");
    let twice = ["sim", "gcc", "--scale", "tiny", "--scheme", "combined", "--scheme", "base"];
    assert_usage_error(&twice, "--scheme");
    assert_usage_error(&["sim", "gcc", "perl", "--scale", "tiny"], "perl");
    assert_usage_error(&["extensions", "--out", "x"], "--out");
    assert_usage_error(&["serve", "--journal_dir", "x"], "--journal_dir");
}

#[test]
fn help_prints_the_synopsis_and_exits_0() {
    for verb in verbs() {
        for help in ["--help", "-h"] {
            let out = hpa(&[&verb, help], Duration::from_secs(10));
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "hpa {verb} {help}: {out:?}");
            assert!(stdout.starts_with(&format!("usage: hpa {verb}")), "{stdout}");
        }
    }
}

/// `hpa --help` and `hpa -h` print the command listing on stdout and exit
/// 0; a help request is not an unknown command.
#[test]
fn top_level_help_prints_the_listing_and_exits_0() {
    for help in ["--help", "-h"] {
        let out = hpa(&[help], Duration::from_secs(10));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "hpa {help}: {out:?}");
        assert!(stdout.starts_with("usage: hpa <"), "{stdout}");
        for verb in verbs() {
            assert!(stdout.contains(&format!("\n             hpa {verb}")), "lists {verb}");
        }
        assert!(out.stderr.is_empty(), "hpa {help}: {out:?}");
    }
}

/// One benchmark under one scheme is `hpa sim`, flags included; a sweep
/// prints a table, so the run-record and trace flags are usage errors there.
#[test]
fn bench_of_one_cell_prints_the_sim_record() {
    let flags = ["gcc", "--scale", "tiny", "--scheme", "combined", "--json"];
    let run = |verb| {
        let out = hpa(&[&[verb][..], &flags].concat(), Duration::from_secs(60));
        assert_eq!(out.status.code(), Some(0), "hpa {verb}: {out:?}");
        out.stdout
    };
    let record = run("sim");
    assert!(record.starts_with(b"{\"workload\":\"gcc\""), "{}", String::from_utf8_lossy(&record));
    assert_eq!(run("bench"), record);
    let sweep = hpa(&["bench", "all", "--scale", "tiny", "--json"], Duration::from_secs(10));
    assert_eq!(sweep.status.code(), Some(2), "{sweep:?}");
    assert!(sweep.stdout.is_empty(), "{sweep:?}");
}
