//! The load generator's own HTTP/1.1 client: one keep-alive connection
//! over a `TcpStream`, nothing from the workspace.
//!
//! It is on the timed path, so it does only what a reply needs: the
//! status line, `content-length`, the body bytes, and byte scans for the
//! `cached` flag. Bodies are parsed as JSON elsewhere, off the clock.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A hung server must fail the run, not hang it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The full bytes of one request: request line, headers, body.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: ssbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Non-overlapping occurrences of `needle`.
pub fn count(haystack: &[u8], needle: &[u8]) -> usize {
    let mut n = 0;
    let mut at = 0;
    while let Some(i) = find(&haystack[at..], needle) {
        n += 1;
        at += i + needle.len();
    }
    n
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    /// Bytes read past the end of the previous reply (none, in a closed
    /// loop, but the framing must not depend on that).
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends `request` and reads one reply: the status, with the body
    /// left in `body` (cleared first).
    pub fn roundtrip(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.stream.write_all(request)?;
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = &self.buf[..head_end];
        let status = head
            .get(9..12)
            .and_then(|s| std::str::from_utf8(s).ok())
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let length = content_length(head).ok_or_else(|| bad("reply without content-length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        body.clear();
        body.extend_from_slice(&self.buf[head_end..head_end + length]);
        self.buf.drain(..head_end + length);
        Ok(status)
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-reply",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

fn content_length(head: &[u8]) -> Option<usize> {
    head.split(|&b| b == b'\n').skip(1).find_map(|line| {
        let colon = line.iter().position(|&b| b == b':')?;
        if !line[..colon].eq_ignore_ascii_case(b"content-length") {
            return None;
        }
        std::str::from_utf8(&line[colon + 1..])
            .ok()?
            .trim()
            .parse()
            .ok()
    })
}

/// One request on a fresh connection (set-up and scraping, off the
/// clock): the status and the body as text.
pub fn once(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut reply = Vec::new();
    let status = Conn::connect(addr)?.roundtrip(&request_bytes(method, path, body), &mut reply)?;
    String::from_utf8(reply)
        .map(|text| (status, text))
        .map_err(|_| bad("reply body is not utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn scans_count_without_overlap() {
        assert_eq!(
            count(b"\"cached\":true,\"cached\":true", b"\"cached\":true"),
            2
        );
        assert_eq!(count(b"aaaa", b"aa"), 2);
        assert_eq!(count(b"", b"x"), 0);
        assert_eq!(find(b"abc", b"c"), Some(2));
    }

    #[test]
    fn content_length_is_case_insensitive() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n";
        assert_eq!(content_length(head), Some(12));
        assert_eq!(content_length(b"HTTP/1.1 200 OK\r\n\r\n"), None);
    }

    /// Two replies arriving in one segment, the second split mid-body:
    /// the framing must hand back exactly one reply per call.
    #[test]
    fn frames_replies_that_arrive_in_odd_pieces() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut sink = [0u8; 1024];
            let _ = s.read(&mut sink).unwrap();
            s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nokHTTP/1.1 404 Not Found\r\ncontent-length: 4\r\n\r\nno")
                .unwrap();
            let _ = s.read(&mut sink).unwrap();
            s.write_all(b"pe").unwrap();
        });
        let mut conn = Conn::connect(&addr).unwrap();
        let mut body = Vec::new();
        let req = request_bytes("GET", "/x", "");
        assert_eq!(conn.roundtrip(&req, &mut body).unwrap(), 200);
        assert_eq!(body, b"ok");
        assert_eq!(conn.roundtrip(&req, &mut body).unwrap(), 404);
        assert_eq!(body, b"nope");
        server.join().unwrap();
    }
}
