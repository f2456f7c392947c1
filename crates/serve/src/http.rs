//! A deliberately tiny HTTP/1.1 subset over [`std::net::TcpStream`].
//!
//! The daemon speaks exactly what its clients need and nothing more: one
//! request per connection (`Connection: close` both ways), JSON bodies,
//! `Content-Length` framing, no chunked encoding, no keep-alive, no TLS.
//! Both sides of the protocol live here — the server reads requests and
//! writes responses, the SDK writes requests and reads responses — so a
//! framing change cannot desynchronize them.

use hpa_obs::json::Json;
use std::io::{self, BufRead, Write};

/// Bound on header-section and body sizes: big enough for any assembled
/// workload source, small enough that a malicious peer cannot balloon the
/// daemon's memory.
pub const MAX_BODY: usize = 8 << 20;

/// Bound on the number of headers per message. The protocol itself only
/// ever sends three; a peer streaming an endless header section is
/// cut off here instead of pinning a worker thread forever.
pub const MAX_HEADERS: usize = 64;

/// A parsed request: method, path and (possibly empty) body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// `GET` / `POST` (anything else is rejected at the route layer).
    pub method: String,
    /// The path, e.g. `/status/42`. Query strings are not supported.
    pub path: String,
    /// The request body.
    pub body: String,
}

/// A response: status code and JSON body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The response body (always JSON in this protocol).
    pub body: String,
}

impl Response {
    /// A response whose body is `body`, rendered here once.
    #[must_use]
    pub fn json(status: u16, body: Json) -> Response {
        Response { status, body: body.render() }
    }

    /// A `200 OK` JSON response.
    #[must_use]
    pub fn ok(body: Json) -> Response {
        Response::json(200, body)
    }

    /// An error response with a `{"error": ...}` body.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, Json::obj(vec![("error", Json::from(message))]))
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("http: {what}"))
}

/// Marker prefix distinguishing "you sent too much" from "you sent
/// garbage" inside the single `InvalidData` error kind, so the server
/// can answer `413` rather than a generic `400`.
const TOO_LARGE: &str = "too large: ";

fn too_large(what: &str) -> io::Error {
    bad(&format!("{TOO_LARGE}{what}"))
}

/// Maps a [`read_request`] error to the structured response the peer
/// should see: `413` for oversize framing (body or header section past
/// [`MAX_BODY`], header count past [`MAX_HEADERS`]), `400` for anything
/// else malformed. The error text rides along in the JSON body so a
/// client can log *why* it was rejected.
#[must_use]
pub fn rejection(err: &io::Error) -> Response {
    let text = err.to_string();
    let status = if text.contains(TOO_LARGE) { 413 } else { 400 };
    Response::error(status, &text)
}

/// Reads one CRLF- (or LF-) terminated line without the terminator.
fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("unexpected end of stream"));
    }
    if line.len() > MAX_BODY {
        return Err(too_large("header line"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads headers up to the blank line, returning the `Content-Length`.
fn read_headers(reader: &mut impl BufRead) -> io::Result<usize> {
    let mut content_length = 0usize;
    // One extra iteration: the blank terminator line also costs a read.
    for _ in 0..=MAX_HEADERS {
        let line = read_line(reader)?;
        if line.is_empty() {
            return Ok(content_length);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed header"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length =
                value.trim().parse::<usize>().map_err(|_| bad("bad content-length"))?;
            if content_length > MAX_BODY {
                return Err(too_large("body"));
            }
        }
    }
    Err(too_large("header count"))
}

fn read_body(reader: &mut impl BufRead, len: usize) -> io::Result<String> {
    let mut buf = vec![0u8; len];
    io::Read::read_exact(reader, &mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("body is not utf-8"))
}

/// Reads one request (server side).
///
/// # Errors
///
/// I/O errors, or `InvalidData` for malformed or oversized framing.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Request> {
    let line = read_line(reader)?;
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(bad("malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported http version"));
    }
    let len = read_headers(reader)?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body: read_body(reader, len)?,
    })
}

/// Writes one request (client side).
///
/// # Errors
///
/// I/O errors from the underlying stream.
pub fn write_request(writer: &mut impl Write, req: &Request) -> io::Result<()> {
    write!(
        writer,
        "{} {} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
        req.method,
        req.path,
        req.body.len(),
        req.body
    )?;
    writer.flush()
}

/// Reads one response (client side).
///
/// # Errors
///
/// I/O errors, or `InvalidData` for malformed or oversized framing.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let line = read_line(reader)?;
    let mut parts = line.split_ascii_whitespace();
    let (Some(version), Some(status)) = (parts.next(), parts.next()) else {
        return Err(bad("malformed status line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported http version"));
    }
    let status = status.parse::<u16>().map_err(|_| bad("bad status code"))?;
    let len = read_headers(reader)?;
    Ok(Response { status, body: read_body(reader, len)? })
}

/// Writes one response (server side).
///
/// # Errors
///
/// I/O errors from the underlying stream.
pub fn write_response(writer: &mut impl Write, resp: &Response) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
        resp.status,
        reason(resp.status),
        resp.body.len(),
        resp.body
    )?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_round_trips_through_a_buffer() {
        let req = Request {
            method: "POST".into(),
            path: "/submit".into(),
            body: "{\"workload\":\"gcc\"}".into(),
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let back = read_request(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn response_round_trips_through_a_buffer() {
        for resp in [
            Response::ok(Json::obj(vec![("job_id", Json::from(1u64))])),
            Response::error(404, "no such job"),
            Response { status: 200, body: String::new() },
        ] {
            let mut wire = Vec::new();
            write_response(&mut wire, &resp).unwrap();
            let back = read_response(&mut BufReader::new(&wire[..])).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn empty_body_request_has_zero_length() {
        let req = Request { method: "GET".into(), path: "/health".into(), body: String::new() };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("content-length: 0"));
        assert_eq!(read_request(&mut BufReader::new(&wire[..])).unwrap(), req);
    }

    #[test]
    fn malformed_framing_is_rejected() {
        let cases: &[&[u8]] = &[
            b"",
            b"GET\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            b"GET /x HTTP/1.1\r\ncontent-length: zzz\r\n\r\n",
            b"GET /x SPDY/99\r\n\r\n",
            b"GET /x HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n",
        ];
        for case in cases {
            assert!(read_request(&mut BufReader::new(*case)).is_err(), "{case:?}");
        }
        assert!(read_response(&mut BufReader::new(&b"HTTP/1.1 abc\r\n\r\n"[..])).is_err());
    }

    #[test]
    fn oversize_framing_maps_to_413_and_garbage_to_400() {
        // Oversize: declared body over the cap, and a runaway header section.
        let oversize = format!("POST /submit HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        let err = read_request(&mut BufReader::new(oversize.as_bytes())).unwrap_err();
        assert_eq!(rejection(&err).status, 413, "{err}");

        let mut runaway = String::from("GET /health HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS + 1 {
            runaway.push_str(&format!("x-pad-{i}: 1\r\n"));
        }
        runaway.push_str("\r\n");
        let err = read_request(&mut BufReader::new(runaway.as_bytes())).unwrap_err();
        assert_eq!(rejection(&err).status, 413, "{err}");

        // Garbage: malformed request line, broken header, premature EOF
        // mid-body, and an empty stream all map to 400, never a panic.
        let garbage: &[&[u8]] = &[
            b"\x7f\x00\x01 \x02\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST /submit HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort",
            b"GET /x HTTP/1.1\r\ncontent-length: -1\r\n\r\n",
            b"",
        ];
        for case in garbage {
            let err = read_request(&mut BufReader::new(*case)).unwrap_err();
            let resp = rejection(&err);
            assert_eq!(resp.status, 400, "{case:?} -> {err}");
            assert!(resp.body.starts_with("{\"error\":"), "structured body: {}", resp.body);
        }
    }

    #[test]
    fn exactly_max_headers_is_still_accepted() {
        let mut wire = String::from("GET /health HTTP/1.1\r\n");
        // MAX_HEADERS total, the last one carrying the length.
        for i in 0..MAX_HEADERS - 1 {
            wire.push_str(&format!("x-pad-{i}: 1\r\n"));
        }
        wire.push_str("content-length: 2\r\n\r\nok");
        let req = read_request(&mut BufReader::new(wire.as_bytes())).unwrap();
        assert_eq!(req.body, "ok");
    }

    #[test]
    fn lf_only_line_endings_are_tolerated() {
        let wire = b"POST /submit HTTP/1.1\ncontent-length: 2\n\nok";
        let req = read_request(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(req.body, "ok");
    }

    #[test]
    fn error_response_escapes_the_message() {
        let resp = Response::error(400, "bad \"quoted\" thing");
        assert_eq!(resp.body, "{\"error\":\"bad \\\"quoted\\\" thing\"}");
        let parsed = hpa_obs::json::parse(&resp.body).unwrap();
        assert_eq!(parsed.get("error").and_then(|v| v.as_str()), Some("bad \"quoted\" thing"));
    }
}
