//! Pipeline tracing: per-instruction stage timestamps and a text
//! pipeline diagram, in the spirit of SimpleScalar's `ptrace`.
//!
//! Enable with [`crate::Simulator::enable_trace`]; the simulator then
//! records one [`TraceRecord`] per committed instruction (up to the
//! configured capacity) which [`PipeTrace::render`] draws as a Gantt-style
//! chart — the quickest way to *see* a sequential-wakeup bubble or a
//! replayed load shadow.

use hpa_isa::Inst;
use std::fmt::Write as _;

/// Stage timestamps of one committed instruction.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Global sequence number.
    pub seq: u64,
    /// Fetch address.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Cycle the instruction entered the window.
    pub insert_cycle: u64,
    /// Effective cycle of the last operand wakeup before the final issue
    /// (clamped into `[insert_cycle, issue_cycle]`).
    pub wakeup_cycle: u64,
    /// Final (successful) issue cycle.
    pub issue_cycle: u64,
    /// Cycle execution completed.
    pub complete_cycle: u64,
    /// Commit cycle.
    pub commit_cycle: u64,
    /// Times the instruction was squashed and re-issued.
    pub replays: u32,
    /// Whether the last issue used a sequential register access.
    pub seq_rf: bool,
}

/// A bounded recording of committed instructions.
#[derive(Clone, Debug, Default)]
pub struct PipeTrace {
    records: Vec<TraceRecord>,
    capacity: usize,
}

impl PipeTrace {
    /// Creates a trace that keeps the first `capacity` committed
    /// instructions.
    #[must_use]
    pub fn new(capacity: usize) -> PipeTrace {
        PipeTrace { records: Vec::with_capacity(capacity.min(4096)), capacity }
    }

    /// Whether the trace is still recording.
    #[must_use]
    pub fn recording(&self) -> bool {
        self.records.len() < self.capacity
    }

    pub(crate) fn push(&mut self, record: TraceRecord) {
        if self.recording() {
            self.records.push(record);
        }
    }

    /// The recorded instructions, in commit order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Converts the recorded instructions into Chrome trace-event spans
    /// (see [`hpa_obs::chrome`]). `frontend_depth` back-dates the fetch
    /// stage from the insert cycle; render the result with
    /// [`hpa_obs::chrome::to_json`].
    #[must_use]
    pub fn chrome_spans(&self, frontend_depth: u32) -> Vec<hpa_obs::InstSpan> {
        self.records
            .iter()
            .map(|r| hpa_obs::InstSpan {
                seq: r.seq,
                pc: r.pc,
                name: r.inst.to_string(),
                fetch: r.insert_cycle.saturating_sub(u64::from(frontend_depth)),
                dispatch: r.insert_cycle,
                wakeup: r.wakeup_cycle.clamp(r.insert_cycle, r.issue_cycle),
                select: r.issue_cycle,
                complete: r.complete_cycle,
                commit: r.commit_cycle,
                replays: r.replays,
                seq_rf: r.seq_rf,
            })
            .collect()
    }

    /// Renders a text pipeline diagram. Stage letters: `i` in-window
    /// (waiting), `X` issue-to-complete (execution), `.` completed but not
    /// yet committed, `C` commit. Replayed instructions are flagged with
    /// `*N`, sequential register accesses with `s`.
    #[must_use]
    pub fn render(&self) -> String {
        let Some(first) = self.records.first() else {
            return String::from("(empty trace)\n");
        };
        let origin = first.insert_cycle;
        let mut out = String::new();
        let _ = writeln!(out, "cycles from {origin}; i=waiting X=executing .=done C=commit");
        for r in &self.records {
            let start = (r.insert_cycle - origin) as usize;
            let issue = (r.issue_cycle - origin) as usize;
            let complete = (r.complete_cycle - origin) as usize;
            let commit = (r.commit_cycle - origin) as usize;
            let mut lane = String::new();
            lane.push_str(&" ".repeat(start));
            lane.push_str(&"i".repeat(issue.saturating_sub(start)));
            lane.push_str(&"X".repeat((complete + 1).saturating_sub(issue.max(start))));
            lane.push_str(&".".repeat(commit.saturating_sub(complete + 1)));
            lane.push('C');
            let flags = format!(
                "{}{}",
                if r.seq_rf { "s" } else { "" },
                if r.replays > 0 { format!("*{}", r.replays) } else { String::new() }
            );
            let _ = writeln!(out, "{:>5} {:28} |{lane}| {flags}", r.seq, r.inst.to_string());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_isa::{AluOp, Reg};

    fn record(seq: u64, insert: u64, issue: u64, complete: u64, commit: u64) -> TraceRecord {
        TraceRecord {
            seq,
            pc: seq * 4,
            inst: Inst::op(AluOp::Add, Reg::R1, Reg::R2, Reg::R3),
            insert_cycle: insert,
            wakeup_cycle: insert,
            issue_cycle: issue,
            complete_cycle: complete,
            commit_cycle: commit,
            replays: 0,
            seq_rf: false,
        }
    }

    #[test]
    fn capacity_bounds_recording() {
        let mut t = PipeTrace::new(2);
        assert!(t.recording());
        t.push(record(0, 10, 11, 13, 14));
        t.push(record(1, 10, 12, 14, 15));
        assert!(!t.recording());
        t.push(record(2, 11, 13, 15, 16));
        assert_eq!(t.records().len(), 2);
    }

    #[test]
    fn render_shows_stages_and_flags() {
        let mut t = PipeTrace::new(4);
        t.push(record(0, 10, 11, 13, 14));
        let mut r = record(1, 10, 13, 15, 16);
        r.replays = 2;
        r.seq_rf = true;
        t.push(r);
        let s = t.render();
        assert!(s.contains("add r1, r2, r3"));
        assert!(s.contains('C'));
        assert!(s.contains("s*2"), "{s}");
        // First record: 1 waiting cycle, 3 executing cycles, commit.
        assert!(s.contains("|iXXXC|"), "{s}");
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(PipeTrace::new(4).render(), "(empty trace)\n");
    }

    #[test]
    fn chrome_spans_back_date_fetch_and_order_stages() {
        let mut t = PipeTrace::new(4);
        let mut r = record(7, 10, 13, 15, 16);
        r.wakeup_cycle = 12;
        t.push(r);
        let spans = t.chrome_spans(3);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.fetch, s.dispatch, s.wakeup), (7, 10, 12));
        assert!(s.fetch <= s.dispatch && s.dispatch <= s.wakeup);
        assert!(s.wakeup <= s.select && s.select <= s.complete && s.complete <= s.commit);
        // A stale wakeup stamp (e.g. replayed instruction) clamps into
        // the [insert, issue] range.
        let mut t = PipeTrace::new(4);
        let mut r = record(8, 10, 13, 15, 16);
        r.wakeup_cycle = 99;
        t.push(r);
        assert_eq!(t.chrome_spans(0)[0].wakeup, 13);
    }
}
