//! A deterministic fault-injecting TCP proxy for chaos testing, the
//! test support module of `serve_chaos`.
//!
//! [`ChaosProxy`] sits between an SDK client and the daemon and damages
//! traffic on purpose: connections are dropped outright, delayed,
//! truncated mid-response, or bit-corrupted. Every decision derives from
//! a [`SplitMix64`] stream seeded with `seed + connection index`, so a
//! given seed always produces the same fault sequence — the chaos suite
//! is as reproducible as the simulations it torments (the same
//! discipline `faultsim` applies to microarchitectural fault injection).
//!
//! Faults target the *response* direction (server → client) except for
//! [`Fault::Drop`], which kills the connection before the daemon ever
//! sees it. Corrupting the request direction would merely manufacture
//! server-side 400s — permanent, non-retryable errors — where the point
//! is to prove the client's retry/backoff loop and the daemon's
//! robustness against a hostile *network*, not a hostile client.

use half_price::workloads::SplitMix64;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The per-connection fault classes, derived from the seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Pass traffic through untouched.
    Clean,
    /// Close the client connection without contacting the upstream.
    Drop,
    /// Forward both directions, but only after a short delay (ms).
    Delay(u64),
    /// Forward the response, then cut it off after this many bytes.
    TruncateResponse(usize),
    /// Flip one bit in the first chunk of the response.
    CorruptResponse,
}

/// Derives the fault for connection number `index` under `seed`.
/// Exposed so tests can assert the schedule is deterministic.
#[must_use]
pub fn fault_for(seed: u64, index: u64) -> Fault {
    let mut rng = SplitMix64::new(seed.wrapping_add(index.wrapping_mul(0x9E37)));
    match rng.below(100) {
        0..=39 => Fault::Clean,
        40..=54 => Fault::Drop,
        55..=69 => Fault::Delay(1 + rng.below(40)),
        70..=84 => Fault::TruncateResponse(1 + rng.below(40) as usize),
        _ => Fault::CorruptResponse,
    }
}

/// A running proxy: accepts on an ephemeral local port and forwards to
/// the upstream address, injecting the seeded fault schedule.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts the proxy in front of `upstream` with the given seed.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn start(upstream: SocketAddr, seed: u64) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            let mut index = 0u64;
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = stream else { continue };
                let fault = fault_for(seed, index);
                index += 1;
                std::thread::spawn(move || proxy_connection(client, upstream, fault));
            }
        });
        Ok(ChaosProxy { addr, stop, accept_thread: Some(accept_thread) })
    }

    /// The proxy's listen address (point the SDK client here).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting. In-flight connections finish (or hit their
    /// stream timeouts) on their own threads.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one last connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serves one proxied connection under its assigned fault.
fn proxy_connection(client: TcpStream, upstream: SocketAddr, fault: Fault) {
    if fault == Fault::Drop {
        // Dropping the stream sends RST/FIN; the client sees an I/O
        // error (and retries).
        return;
    }
    if let Fault::Delay(ms) = fault {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let Ok(server) = TcpStream::connect(upstream) else { return };
    // A wedged peer must not leak proxy threads past the test.
    for s in [&client, &server] {
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = s.set_write_timeout(Some(Duration::from_secs(5)));
    }
    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else { return };
    // Request direction: always verbatim (see module docs).
    let up = std::thread::spawn(move || copy_stream(client_r, server, Damage::None));
    let damage = match fault {
        Fault::TruncateResponse(after) => Damage::Truncate(after),
        Fault::CorruptResponse => Damage::FlipBit,
        _ => Damage::None,
    };
    copy_stream(server_r, client, damage);
    let _ = up.join();
}

enum Damage {
    None,
    /// Stop forwarding after this many bytes and close.
    Truncate(usize),
    /// XOR bit 4 of the first byte of the first chunk.
    FlipBit,
}

/// Pumps bytes from `from` to `to`, applying `damage`, until EOF or an
/// error on either side (both of which end the pump quietly).
fn copy_stream(mut from: TcpStream, mut to: TcpStream, damage: Damage) {
    let mut budget = match damage {
        Damage::Truncate(n) => Some(n),
        _ => None,
    };
    let mut first = true;
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut chunk = &mut buf[..n];
        if let Some(left) = &mut budget {
            if *left == 0 {
                break;
            }
            let take = (*left).min(chunk.len());
            chunk = &mut chunk[..take];
            *left -= take;
        }
        if first && matches!(damage, Damage::FlipBit) {
            chunk[0] ^= 0x10;
        }
        first = false;
        if to.write_all(chunk).is_err() {
            break;
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_schedule_is_deterministic_and_seed_sensitive() {
        let a: Vec<Fault> = (0..32).map(|i| fault_for(7, i)).collect();
        let b: Vec<Fault> = (0..32).map(|i| fault_for(7, i)).collect();
        let c: Vec<Fault> = (0..32).map(|i| fault_for(8, i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        // Every class shows up somewhere in a modest window.
        let has = |f: fn(&Fault) -> bool| (0..256).any(|i| f(&fault_for(7, i)));
        assert!(has(|f| *f == Fault::Clean));
        assert!(has(|f| *f == Fault::Drop));
        assert!(has(|f| matches!(f, Fault::Delay(_))));
        assert!(has(|f| matches!(f, Fault::TruncateResponse(_))));
        assert!(has(|f| *f == Fault::CorruptResponse));
    }

    #[test]
    fn clean_connections_pass_bytes_through_verbatim() {
        // An echo upstream: read everything, write it back.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 64];
            let n = s.read(&mut buf).unwrap();
            s.write_all(&buf[..n]).unwrap();
        });
        // Find a seed whose connection 0 is Clean.
        let seed = (0..64).find(|&s| fault_for(s, 0) == Fault::Clean).unwrap();
        let mut proxy = ChaosProxy::start(upstream_addr, seed).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"ping-through-proxy").unwrap();
        let mut back = Vec::new();
        conn.read_to_end(&mut back).unwrap();
        assert_eq!(back, b"ping-through-proxy");
        echo.join().unwrap();
        proxy.stop();
    }

    #[test]
    fn dropped_connections_error_out_instead_of_wedging() {
        // Upstream that would answer — but the proxy drops first.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let seed = (0..64).find(|&s| fault_for(s, 0) == Fault::Drop).unwrap();
        let mut proxy = ChaosProxy::start(upstream_addr, seed).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = conn.write_all(b"hello");
        let mut back = Vec::new();
        // Either an error or an immediate EOF — never a hang.
        let n = conn.read_to_end(&mut back).unwrap_or(0);
        assert_eq!(n, 0, "a dropped connection must carry no data");
        proxy.stop();
    }
}
