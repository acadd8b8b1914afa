//! A minimal HTTP/1.1 keep-alive client, and the two load loops built on
//! it: a closed loop that times each request from its own send, and an
//! open loop that sends on a fixed schedule (pipelining on its one
//! connection) and times each request from when it was due.

use crate::stats::Outcome;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The full bytes of one `POST` request with a JSON body.
pub fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The full bytes of one `GET` request.
pub fn get_bytes(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 is ok unless it carries the in-band deadline marker.
    pub fn outcome(&self) -> Outcome {
        if self.status != 200 {
            Outcome::Failed
        } else if contains(&self.body, b"\"degraded\":true") {
            Outcome::Degraded
        } else {
            Outcome::Ok
        }
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// One keep-alive connection with its receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Pipelined small writes must not wait for the peer's ACK.
        stream.set_nodelay(true)?;
        Ok(Conn { stream, buf: Vec::with_capacity(8192) })
    }

    pub fn send(&mut self, raw: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(raw)
    }

    /// Block until one full response has arrived.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        self.stream.set_read_timeout(None)?;
        loop {
            if let Some(response) = self.take_response()? {
                return Ok(response);
            }
            self.fill()?;
        }
    }

    /// One request, one response.
    pub fn call(&mut self, raw: &[u8]) -> std::io::Result<Response> {
        self.send(raw)?;
        self.recv()
    }

    /// Wait until `until` for a full response; `None` if none arrived.
    fn recv_until(&mut self, until: Instant) -> std::io::Result<Option<Response>> {
        loop {
            if let Some(response) = self.take_response()? {
                return Ok(Some(response));
            }
            let now = Instant::now();
            if now >= until {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some((until - now).max(Duration::from_micros(1))))?;
            match self.fill() {
                Ok(()) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "server closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Split one complete response off the front of the buffer.
    fn take_response(&mut self) -> std::io::Result<Option<Response>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let bad = |what: &str| std::io::Error::new(ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let length = lines
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, value)| value.trim().parse::<usize>().ok())
            .ok_or_else(|| bad("response without Content-Length"))?;
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response { status, body }))
    }
}

/// One request of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Exchange {
    /// Index of the request in the caller's request list.
    pub index: usize,
    pub sent: Instant,
    pub done: Instant,
    pub outcome: Outcome,
}

/// Closed loop on one connection: send request `i`, wait for its answer,
/// send the next, until `stop`. Requests are taken from `requests`
/// starting at `first` and stepping by `step` (so several loops share one
/// list without repeating each other). An I/O error ends the loop; the
/// request that hit it counts as failed.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    first: usize,
    step: usize,
    stop: Instant,
) -> Vec<Exchange> {
    // Sized for a second of traffic, so growing it does not stall the loop.
    let mut out = Vec::with_capacity(1 << 15);
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(_) => {
            let now = Instant::now();
            out.push(Exchange { index: first, sent: now, done: now, outcome: Outcome::Failed });
            return out;
        }
    };
    let mut index = first;
    while Instant::now() < stop {
        let sent = Instant::now();
        let result = conn.call(&requests[index % requests.len()]);
        let done = Instant::now();
        let outcome = result.as_ref().map_or(Outcome::Failed, Response::outcome);
        out.push(Exchange { index: index % requests.len(), sent, done, outcome });
        if result.is_err() {
            break;
        }
        index += step;
    }
    out
}

/// One scheduled request of an open loop.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// When it was due, relative to the loop's start.
    pub due: Duration,
    /// When it was actually written (`None`: never sent).
    pub sent: Option<Instant>,
    /// When its response was complete (`None`: never answered).
    pub done: Option<Instant>,
    pub response: Option<Response>,
}

impl Scheduled {
    pub fn outcome(&self) -> Outcome {
        self.response.as_ref().map_or(Outcome::Failed, Response::outcome)
    }
}

/// Open loop on one connection: request `i` is written at `start +
/// due[i]` whether or not earlier ones were answered; answers are read in
/// between sends. Every scheduled request ends up answered or failed.
/// After the last send, outstanding answers are awaited until `drain`
/// has passed.
pub fn open_loop(
    addr: SocketAddr,
    schedule: &[(Duration, &[u8])],
    start: Instant,
    drain: Duration,
) -> Vec<Scheduled> {
    let mut out: Vec<Scheduled> = schedule
        .iter()
        .map(|&(due, _)| Scheduled { due, sent: None, done: None, response: None })
        .collect();
    let Ok(mut conn) = Conn::connect(addr) else { return out };
    let (mut next_send, mut next_recv) = (0usize, 0usize);
    let last_due = schedule.last().map_or(Duration::ZERO, |&(due, _)| due);
    let give_up = start + last_due + drain;
    while next_recv < schedule.len() {
        let now = Instant::now();
        if next_send < schedule.len() && now >= start + schedule[next_send].0 {
            if conn.send(schedule[next_send].1).is_err() {
                break;
            }
            out[next_send].sent = Some(Instant::now());
            next_send += 1;
            continue;
        }
        let wake = if next_send < schedule.len() { start + schedule[next_send].0 } else { give_up };
        if next_recv == next_send {
            if now >= give_up {
                break;
            }
            std::thread::sleep(wake.saturating_duration_since(now));
            continue;
        }
        match conn.recv_until(wake) {
            Ok(Some(response)) => {
                out[next_recv].done = Some(Instant::now());
                out[next_recv].response = Some(response);
                next_recv += 1;
            }
            Ok(None) if now >= give_up => break,
            Ok(None) => {}
            Err(_) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that answers every request on one connection with a fixed
    /// 200 after reading one request head, and closes after `answers`.
    fn echo_server(answers: usize, body: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut answered = 0;
            let mut chunk = [0u8; 1024];
            while answered < answers {
                let n = stream.read(&mut chunk).unwrap();
                if n == 0 {
                    return;
                }
                seen.extend_from_slice(&chunk[..n]);
                while let Some(pos) = seen.windows(4).position(|w| w == b"\r\n\r\n") {
                    seen.drain(..pos + 4);
                    let reply =
                        format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}", body.len());
                    stream.write_all(reply.as_bytes()).unwrap();
                    answered += 1;
                }
            }
        });
        addr
    }

    #[test]
    fn open_loop_counts_every_planned_request_once() {
        // The server answers only 3 of 5 requests, then hangs up: the
        // other two must come back as failed, not vanish.
        let addr = echo_server(3, "{\"degraded\":true}");
        let raw = get_bytes("/x");
        let schedule: Vec<(Duration, &[u8])> =
            (0..5).map(|i| (Duration::from_millis(i), raw.as_slice())).collect();
        let out = open_loop(addr, &schedule, Instant::now(), Duration::from_secs(2));
        assert_eq!(out.len(), 5);
        let outcomes: Vec<Outcome> = out.iter().map(Scheduled::outcome).collect();
        assert_eq!(outcomes.iter().filter(|o| **o == Outcome::Degraded).count(), 3);
        assert_eq!(outcomes.iter().filter(|o| **o == Outcome::Failed).count(), 2);
    }

    #[test]
    fn closed_loop_times_each_request_from_its_send() {
        let addr = echo_server(usize::MAX, "{}");
        let requests = vec![get_bytes("/a"), get_bytes("/b")];
        let stop = Instant::now() + Duration::from_millis(50);
        let out = closed_loop(addr, &requests, 1, 2, stop);
        assert!(out.len() > 1);
        assert!(out.iter().all(|e| e.outcome == Outcome::Ok && e.done >= e.sent));
        assert!(out.iter().all(|e| e.index == 1));
        assert!(out.windows(2).all(|w| w[1].sent >= w[0].done));
    }

    #[test]
    fn responses_split_across_reads_and_pipelined() {
        let addr = echo_server(2, "{\"a\":1}");
        let mut conn = Conn::connect(addr).unwrap();
        conn.send(&get_bytes("/1")).unwrap();
        conn.send(&get_bytes("/2")).unwrap();
        for _ in 0..2 {
            let response = conn.recv().unwrap();
            assert_eq!((response.status, response.text()), (200, "{\"a\":1}"));
        }
    }
}
