//! The one daemon client `soak` and `top` share: a newline-JSON request
//! and a `GET /metrics` scrape, each over its own fresh connection with
//! both socket timeouts set, so a wedged daemon stalls one call, never
//! the caller forever.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Error, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

/// Sends one request line and reads exactly one newline-terminated
/// reply, returned without its line ending.
pub(crate) fn request(
    addr: impl ToSocketAddrs,
    line: &str,
    timeout: Duration,
) -> std::io::Result<String> {
    let mut stream = connect(addr, timeout)?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    if !reply.ends_with('\n') {
        return Err(Error::new(
            ErrorKind::UnexpectedEof,
            "reply was not newline-terminated",
        ));
    }
    Ok(reply.trim_end().to_owned())
}

/// Scrapes the daemon's Prometheus exposition (the daemon closes the
/// connection after one response) into `metric key -> value`.
pub(crate) fn scrape(
    addr: impl ToSocketAddrs,
    timeout: Duration,
) -> std::io::Result<HashMap<String, f64>> {
    let mut stream = connect(addr, timeout)?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: powerchop\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (_, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        Error::new(
            ErrorKind::InvalidData,
            "malformed HTTP response from /metrics",
        )
    })?;
    Ok(parse_exposition(body))
}

/// Parses a Prometheus text exposition into `full-key -> value`,
/// keeping label syntax inside the key (`lat_p50{op="run"}`). Comment
/// and malformed lines are skipped — callers degrade, never die, on
/// exposition drift.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(name.to_owned(), v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parsing_keeps_labeled_keys_and_skips_comments() {
        let text = "# HELP serve_requests_total Request lines received.\n\
                    # TYPE serve_requests_total counter\n\
                    serve_requests_total 42\n\
                    serve_request_duration_ms_p99{op=\"run\"} 7.5\n\
                    garbage-line-without-value\n";
        let m = parse_exposition(text);
        assert_eq!(m.get("serve_requests_total"), Some(&42.0));
        assert_eq!(
            m.get(r#"serve_request_duration_ms_p99{op="run"}"#),
            Some(&7.5)
        );
        assert_eq!(m.len(), 2, "comments and malformed lines are skipped");
    }
}
