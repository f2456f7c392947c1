//! Reproducer corpus: writing and replaying minimized failing cases.
//!
//! A corpus file is ordinary `.s` assembly with a machine-readable header
//! in comments:
//!
//! ```text
//! ; hpa-verify reproducer
//! ; scheme: combined
//! ; width: 4
//! ; selective-recovery: false
//! ; small-pc-table: true
//! li      r1, 65536
//! ...
//! ```
//!
//! The `width`, `selective-recovery` and `small-pc-table` lines record
//! the fuzz [`Variant`]; a line that is absent takes the
//! [`Variant::default`] value. Replay runs the file through the full
//! differential check ([`run_differential`], all
//! [`FUZZ_SCHEMES`](crate::FUZZ_SCHEMES)) at the recorded variant, so a
//! reproducer keeps guarding against regressions in *every* scheme, not
//! just the one that originally failed.

use crate::fuzz::{run_differential, Variant};
use crate::Divergence;
use hpa_core::asm::{disassemble, parse_program, Program};
use hpa_core::{MachineWidth, Scheme};
use std::io;
use std::path::{Path, PathBuf};

/// A parsed corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusCase {
    /// Where it was loaded from.
    pub path: PathBuf,
    /// The program.
    pub program: Program,
    /// The scheme recorded as the original offender (informational; replay
    /// always runs the full differential set).
    pub scheme: Option<Scheme>,
    /// The configuration variant to replay at.
    pub variant: Variant,
}

/// Writes a reproducer file, returning its path. The name is
/// `<stem>.s`; an existing file with the same stem is overwritten (the
/// stem encodes seed and iteration index, so collisions mean identity).
///
/// # Errors
///
/// Any filesystem error creating the directory or writing the file.
pub fn write_reproducer(
    dir: &Path,
    stem: &str,
    program: &Program,
    scheme: Scheme,
    variant: Variant,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.s"));
    let width = match variant.width {
        MachineWidth::Four => 4,
        MachineWidth::Eight => 8,
    };
    let text = format!(
        "; hpa-verify reproducer\n; scheme: {}\n; width: {width}\n; selective-recovery: {}\n\
         ; small-pc-table: {}\n{}",
        scheme.key(),
        variant.selective_recovery,
        variant.small_pc_table,
        disassemble(program)
    );
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Parses one corpus file (program plus header).
///
/// # Errors
///
/// I/O errors, assembly errors, or a malformed header value.
pub fn load_case(path: &Path) -> Result<CorpusCase, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut scheme = None;
    let mut variant = Variant::default();
    let flag = |v: &str, key: &str| {
        v.trim()
            .parse::<bool>()
            .map_err(|_| format!("{}: bad {key} `{}`", path.display(), v.trim()))
    };
    for line in source.lines() {
        let Some(rest) = line.trim().strip_prefix(';') else { continue };
        let rest = rest.trim();
        if let Some(v) = rest.strip_prefix("scheme:") {
            let key = v.trim();
            scheme = Some(
                Scheme::from_key(key)
                    .ok_or_else(|| format!("{}: unknown scheme `{key}`", path.display()))?,
            );
        } else if let Some(v) = rest.strip_prefix("width:") {
            variant.width = match v.trim() {
                "4" => MachineWidth::Four,
                "8" => MachineWidth::Eight,
                other => return Err(format!("{}: bad width `{other}`", path.display())),
            };
        } else if let Some(v) = rest.strip_prefix("selective-recovery:") {
            variant.selective_recovery = flag(v, "selective-recovery")?;
        } else if let Some(v) = rest.strip_prefix("small-pc-table:") {
            variant.small_pc_table = flag(v, "small-pc-table")?;
        }
    }
    let program = parse_program(&source).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(CorpusCase { path: path.to_path_buf(), program, scheme, variant })
}

/// Result of replaying a corpus directory.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Files replayed.
    pub cases: usize,
    /// Cases that diverged (file, offending scheme, report).
    pub failures: Vec<(PathBuf, Scheme, Divergence)>,
}

/// Replays every `.s` file in `dir` (non-recursively) through the full
/// differential check. A missing directory counts as an empty corpus.
///
/// # Errors
///
/// Unreadable or unparsable corpus files (divergences are *reported*, not
/// errors — see [`ReplayReport::failures`]).
pub fn replay_dir(dir: &Path) -> Result<ReplayReport, String> {
    let mut report = ReplayReport::default();
    if !dir.exists() {
        return Ok(report);
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    paths.sort();
    for path in paths {
        let case = load_case(&path)?;
        report.cases += 1;
        if let Err((scheme, d)) = run_differential(&case.program, case.variant) {
            report.failures.push((case.path, scheme, d));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::GenProgram;
    use hpa_core::workloads::SplitMix64;

    #[test]
    fn reproducers_round_trip() {
        let dir = std::env::temp_dir().join("hpa-verify-corpus-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = SplitMix64::new(21);
        let gen = GenProgram::random(&mut rng);
        let program = gen.lower();
        // Every variant field survives the header, the default one and
        // one with each field changed.
        let variant =
            Variant { width: MachineWidth::Eight, selective_recovery: true, small_pc_table: true };
        for v in [Variant::default(), variant] {
            let path =
                write_reproducer(&dir, "case", &program, Scheme::Combined, v).expect("writes");
            assert_eq!(load_case(&path).expect("parses").variant, v);
        }
        let path = dir.join("case.s");
        let case = load_case(&path).expect("parses");
        assert_eq!(case.scheme, Some(Scheme::Combined));
        // The text round-trip preserves instructions and the data image
        // (segment granularity may differ; labels are debug metadata).
        assert_eq!(case.program.insts(), program.insts());
        let image = |p: &Program| {
            let mut bytes: Vec<(u64, u8)> = p
                .data_segments()
                .iter()
                .flat_map(|(addr, seg)| {
                    seg.iter().enumerate().map(move |(i, &b)| (addr + i as u64, b))
                })
                .collect();
            bytes.sort_unstable();
            bytes
        };
        assert_eq!(image(&case.program), image(&program));

        let report = replay_dir(&dir).expect("replays");
        assert_eq!(report.cases, 1);
        assert!(report.failures.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_without_variant_lines_replays_at_the_default_variant() {
        let dir = std::env::temp_dir().join("hpa-verify-corpus-header-test");
        std::fs::create_dir_all(&dir).expect("creates");
        let path = dir.join("old.s");
        std::fs::write(&path, "; hpa-verify reproducer\n; scheme: base\nhalt\n").expect("writes");
        assert_eq!(load_case(&path).expect("parses").variant, Variant::default());
        std::fs::write(&path, "; small-pc-table: maybe\nhalt\n").expect("writes");
        assert!(load_case(&path).expect_err("rejects").contains("bad small-pc-table `maybe`"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        let report = replay_dir(Path::new("/nonexistent/hpa-corpus")).expect("ok");
        assert_eq!(report.cases, 0);
    }
}
