//! Minimal HTTP/1.1 request parsing and response generation — the part of
//! lighttpd the http_load workload exercises (static GETs).

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::{AppError, Result};

/// A parsed HTTP request line + the headers we care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HttpRequest {
    /// Request method (GET and HEAD are served).
    pub(crate) method: String,
    /// Request path.
    pub(crate) path: String,
    /// Keep-alive requested?
    pub(crate) keep_alive: bool,
    /// `If-None-Match` validator, if the client sent one.
    pub(crate) if_none_match: Option<String>,
}

/// Parses the request head.
///
/// # Errors
///
/// Returns [`AppError::Protocol`] for malformed request lines or missing
/// terminators.
pub(crate) fn parse_request(raw: &[u8]) -> Result<HttpRequest> {
    let text =
        core::str::from_utf8(raw).map_err(|_| AppError::Protocol("request is not UTF-8".into()))?;
    let head_end = text
        .find("\r\n\r\n")
        .ok_or_else(|| AppError::Protocol("missing header terminator".into()))?;
    let head = &text[..head_end];
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| AppError::Protocol("empty request".into()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| AppError::Protocol("missing method".into()))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| AppError::Protocol("missing path".into()))?
        .to_owned();
    let version = parts
        .next()
        .ok_or_else(|| AppError::Protocol("missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(AppError::Protocol(format!("bad version {version}")));
    }
    let mut keep_alive = version == "HTTP/1.1";
    let mut if_none_match = None;
    for line in lines {
        let lower = line.to_ascii_lowercase();
        if lower.starts_with("connection:") {
            keep_alive = lower.contains("keep-alive");
        } else if let Some(rest) = lower.strip_prefix("if-none-match:") {
            if_none_match = Some(rest.trim().trim_matches('"').to_owned());
        }
    }
    Ok(HttpRequest {
        method,
        path,
        keep_alive,
        if_none_match,
    })
}

/// Guesses a Content-Type from the path extension, as lighttpd's
/// mimetype.assign does.
pub(crate) fn mime_type(path: &str) -> &'static str {
    match path.rsplit('.').next() {
        Some("html") | Some("htm") => "text/html",
        Some("css") => "text/css",
        Some("js") => "application/javascript",
        Some("json") => "application/json",
        Some("txt") => "text/plain",
        Some("png") => "image/png",
        Some("jpg") | Some("jpeg") => "image/jpeg",
        Some("gif") => "image/gif",
        Some("svg") => "image/svg+xml",
        Some("xml") => "application/xml",
        Some("pdf") => "application/pdf",
        _ => "application/octet-stream",
    }
}

/// Builds a 200 response head with content type and optional ETag.
pub(crate) fn response_ok_head_full(
    len: usize,
    keep_alive: bool,
    content_type: &str,
    etag: Option<&str>,
) -> Bytes {
    let mut b = BytesMut::with_capacity(220);
    b.put_slice(b"HTTP/1.1 200 OK\r\nServer: lighttpd-sim/1.4.41\r\n");
    b.put_slice(format!("Content-Type: {content_type}\r\n").as_bytes());
    b.put_slice(format!("Content-Length: {len}\r\n").as_bytes());
    if let Some(tag) = etag {
        b.put_slice(format!("ETag: \"{tag}\"\r\n").as_bytes());
    }
    b.put_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n".as_slice()
    } else {
        b"Connection: close\r\n\r\n".as_slice()
    });
    b.freeze()
}

/// Builds a 304 Not Modified head (validator hit; no body).
pub(crate) fn response_not_modified(etag: &str, keep_alive: bool) -> Bytes {
    Bytes::from(format!(
        "HTTP/1.1 304 Not Modified\r\nETag: \"{etag}\"\r\nConnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    ))
}

/// Builds an error response (404 / 405).
pub(crate) fn response_error(status: u16, reason: &str) -> Bytes {
    Bytes::from(format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    ))
}

/// Builds a GET request for the http_load-like client.
pub fn get_request(path: &str) -> Bytes {
    Bytes::from(format!(
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nUser-Agent: http_load 12mar2006\r\nConnection: keep-alive\r\n\r\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_generated_request() {
        let req = parse_request(&get_request("/page/7.bin")).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/page/7.bin");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_overrides_http11_default() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!parse_request(raw).unwrap().keep_alive);
    }

    #[test]
    fn http10_defaults_to_close() {
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        assert!(!parse_request(raw).unwrap().keep_alive);
    }

    #[test]
    fn missing_terminator_rejected() {
        assert!(parse_request(b"GET / HTTP/1.1\r\n").is_err());
    }

    #[test]
    fn non_http_rejected() {
        assert!(parse_request(b"SSH-2.0-OpenSSH\r\n\r\n").is_err());
        assert!(parse_request(&[0xFF, 0xFE, 0x00]).is_err());
    }

    #[test]
    fn ok_head_contains_length() {
        let head = response_ok_head_full(20480, true, "text/html", None);
        let text = core::str::from_utf8(&head).unwrap();
        assert!(text.contains("Content-Length: 20480"));
        assert!(text.contains("keep-alive"));
        assert!(text.ends_with("\r\n\r\n"));
    }
}
