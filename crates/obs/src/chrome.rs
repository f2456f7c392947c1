//! Chrome trace-event export of per-instruction lifetime spans.
//!
//! [`to_json`] turns a list of [`InstSpan`]s into the Chrome trace-event
//! JSON format (`chrome://tracing` / Perfetto "X" complete events, one
//! per retired instruction, timestamps in cycles), and [`parse`] reads
//! that exact format back — the round-trip the export test relies on.
//! Both go through [`crate::json`].

use crate::json::{self, Json};

/// The lifetime of one retired instruction, as stage timestamps in
/// cycles. Stage order is monotone: `fetch ≤ dispatch ≤ wakeup ≤ select ≤
/// complete ≤ commit`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstSpan {
    /// Global sequence number.
    pub seq: u64,
    /// Fetch address.
    pub pc: u64,
    /// Display name (the disassembled instruction).
    pub name: String,
    /// Cycle fetch started (dispatch minus the front-end depth).
    pub fetch: u64,
    /// Cycle the instruction entered the window.
    pub dispatch: u64,
    /// Effective cycle of the last operand wakeup.
    pub wakeup: u64,
    /// Cycle the scheduler selected (issued) the instruction.
    pub select: u64,
    /// Cycle execution completed.
    pub complete: u64,
    /// Commit cycle.
    pub commit: u64,
    /// Squash/replay count.
    pub replays: u32,
    /// Whether the final issue used a sequential register access.
    pub seq_rf: bool,
}

/// Number of display lanes (Chrome `tid`s) the spans are spread over.
const LANES: u64 = 16;

/// The spans as a Chrome trace-event JSON document. Timestamps are in
/// cycles (the viewer displays them as microseconds; only relative scale
/// matters).
#[must_use]
pub fn to_json(spans: &[InstSpan]) -> Json {
    let events = spans.iter().map(|s| {
        let args = Json::obj(vec![
            ("seq", Json::from(s.seq)),
            ("pc", Json::from(s.pc)),
            ("fetch", Json::from(s.fetch)),
            ("dispatch", Json::from(s.dispatch)),
            ("wakeup", Json::from(s.wakeup)),
            ("select", Json::from(s.select)),
            ("exec", Json::from(s.complete)),
            ("commit", Json::from(s.commit)),
            ("replays", Json::from(u64::from(s.replays))),
            ("seq_rf", Json::from(s.seq_rf)),
        ]);
        Json::obj(vec![
            ("name", Json::from(s.name.as_str())),
            ("ph", Json::from("X")),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(s.seq % LANES)),
            ("ts", Json::from(s.fetch)),
            ("dur", Json::from(s.commit.saturating_sub(s.fetch).max(1))),
            ("args", args),
        ])
    });
    Json::obj(vec![
        ("traceEvents", Json::Arr(events.collect())),
        ("displayTimeUnit", Json::from("ns")),
    ])
}

// ------------------------------------------------------------- parsing --

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("trace JSON: missing field `{key}`"))
}

fn num(obj: &Json, key: &str) -> Result<u64, String> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("trace JSON: field `{key}` is not an unsigned integer"))
}

/// Parses a document produced by [`to_json`] back into spans (commit
/// order is the emitted order).
///
/// # Errors
///
/// A description of the first malformed construct.
pub fn parse(text: &str) -> Result<Vec<InstSpan>, String> {
    let doc = json::parse(text).map_err(|e| format!("trace {e}"))?;
    let Some(events) = field(&doc, "traceEvents")?.as_arr() else {
        return Err(String::from("trace JSON: `traceEvents` is not an array"));
    };
    let mut spans = Vec::with_capacity(events.len());
    for ev in events {
        let name = field(ev, "name")?
            .as_str()
            .ok_or_else(|| String::from("trace JSON: event `name` is not a string"))?;
        let args = field(ev, "args")?;
        if args.as_obj().is_none() {
            return Err(String::from("trace JSON: event `args` is not an object"));
        }
        let seq_rf = field(args, "seq_rf")?
            .as_bool()
            .ok_or_else(|| String::from("trace JSON: `seq_rf` is not a bool"))?;
        spans.push(InstSpan {
            seq: num(args, "seq")?,
            pc: num(args, "pc")?,
            name: name.to_string(),
            fetch: num(args, "fetch")?,
            dispatch: num(args, "dispatch")?,
            wakeup: num(args, "wakeup")?,
            select: num(args, "select")?,
            complete: num(args, "exec")?,
            commit: num(args, "commit")?,
            replays: u32::try_from(num(args, "replays")?)
                .map_err(|_| String::from("trace JSON: `replays` out of range"))?,
            seq_rf,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64) -> InstSpan {
        InstSpan {
            seq,
            pc: seq * 4,
            name: format!("add r{seq}, r2, r3"),
            fetch: 10 + seq,
            dispatch: 13 + seq,
            wakeup: 14 + seq,
            select: 15 + seq,
            complete: 17 + seq,
            commit: 19 + seq,
            replays: (seq % 2) as u32,
            seq_rf: seq.is_multiple_of(3),
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let spans: Vec<_> = (0..20).map(span).collect();
        let json = to_json(&spans).render();
        let back = parse(&json).expect("parses");
        assert_eq!(back, spans);
    }

    #[test]
    fn renders_escapes_and_reparses() {
        let mut s = span(1);
        s.name = String::from("weird \"name\" \\ tab\there");
        let back = parse(&to_json(std::slice::from_ref(&s)).render()).expect("parses");
        assert_eq!(back[0].name, s.name);
    }

    #[test]
    fn multi_byte_utf8_names_round_trip() {
        let mut s = span(2);
        s.name = String::from("μops — 半価 ✓");
        let back = parse(&to_json(std::slice::from_ref(&s)).render()).expect("parses");
        assert_eq!(back[0].name, s.name);
    }

    #[test]
    fn empty_trace_round_trips() {
        assert_eq!(parse(&to_json(&[]).render()).expect("parses"), Vec::<InstSpan>::new());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"traceEvents\": 3}").is_err());
        assert!(parse("{}").is_err());
    }
}
