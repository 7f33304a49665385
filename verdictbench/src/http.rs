//! A one-request-per-connection HTTP/1.1 client (the daemon answers
//! `Connection: close`) and the daemon process guard.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Send one request and read the whole response: `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(120)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())?;
    s.write_all(body)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without a head"))?;
    let code = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other("response without a status code"))?;
    Ok((code, raw.split_off(split + 4)))
}

/// A running `lightyear serve` daemon, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Drains the daemon's per-round output until it exits.
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start `lightyear serve` on an ephemeral localhost port.
    pub fn start(bin: &Path, workers: usize, work_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--listen", "127.0.0.1:0", "--workers", &workers.to_string()])
            .arg("--flight-json")
            .arg(work_dir.join("flight.json"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if let Some(a) = line.split("listening on http://").nth(1) {
                    let _ = tx.send(a.trim().to_string());
                }
            }
        });
        let mut d = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "the daemon did not report its address".to_string())?;
        d.addr = addr
            .parse()
            .map_err(|e| format!("bad daemon address {addr:?}: {e}"))?;
        Ok(d)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}
