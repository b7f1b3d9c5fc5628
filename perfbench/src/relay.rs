//! A counting loopback relay for the node plane.
//!
//! Party ranks dial the relay instead of the coordinator; for every
//! accepted connection the relay dials the coordinator and pumps
//! `fedhh-wire` frames both ways, one whole frame at a time.  It counts
//! the bytes and frames that really cross the sockets, keeps a copy of
//! every frame (so decode cost can be measured afterwards on the exact
//! bytes), and stamps, per rank, the wait from a `RoundDone` frame
//! leaving towards the coordinator to the next `Collection` frame
//! arriving back.

use fedhh::federated::RoundCollection;
use fedhh::wire::{from_bytes, read_frame_bytes, MAX_FRAME_LEN};
use std::collections::VecDeque;
use std::io::{Cursor, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Node-frame tag of a rank's per-round upload (`RoundDone`).
const TAG_ROUND_DONE: u8 = 2;
/// Node-frame tag of the coordinator's per-round broadcast (`Collection`).
const TAG_COLLECTION: u8 = 3;

/// Which way a frame travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Rank → coordinator.
    Up,
    /// Coordinator → rank.
    Down,
}

/// What the relay saw.
#[derive(Debug, Default)]
pub struct RelayStats {
    /// Bytes read from ranks and written to the coordinator.
    pub uplink_bytes: u64,
    /// Bytes read from the coordinator and written to ranks.
    pub downlink_bytes: u64,
    /// Whole frames relayed, both directions.
    pub frames: u64,
    /// Malformed frames, I/O errors and connections closed mid-frame.
    pub errors: u64,
    /// Per round and rank: `RoundDone` leaving → `Collection` arriving.
    pub rank_waits: Vec<Duration>,
    /// Every relayed frame, length prefix included.
    pub captured: Vec<Vec<u8>>,
}

impl RelayStats {
    /// Bytes relayed in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.uplink_bytes + self.downlink_bytes
    }

    /// Re-reads every captured frame through `fedhh_wire::read_frame_bytes`
    /// (length, CRC and schema checks) and decodes each `Collection` frame
    /// as a [`RoundCollection`].
    pub fn decode_all(&self) -> Decoded {
        let mut decoded = Decoded::default();
        let start = Instant::now();
        for bytes in &self.captured {
            match read_frame_bytes(&mut Cursor::new(bytes)) {
                Ok(payload) => {
                    // length prefix + schema byte + payload + CRC-32
                    decoded.frame_bytes += 4 + 1 + payload.len() as u64 + 4;
                    if payload.first() == Some(&TAG_COLLECTION) {
                        match from_bytes::<RoundCollection>(&payload[1..]) {
                            Ok(collection) => {
                                std::hint::black_box(&collection);
                                decoded.collections += 1;
                            }
                            Err(_) => decoded.failures += 1,
                        }
                    }
                }
                Err(_) => decoded.failures += 1,
            }
        }
        decoded.elapsed = start.elapsed();
        decoded
    }
}

/// The result of [`RelayStats::decode_all`].
#[derive(Debug, Default)]
pub struct Decoded {
    /// Wall time of the whole decode pass.
    pub elapsed: Duration,
    /// Σ frame sizes as `fedhh_wire` parsed them; equals
    /// [`RelayStats::total_bytes`] when the relay forwarded whole frames.
    pub frame_bytes: u64,
    /// `Collection` frames decoded.
    pub collections: u64,
    /// Frames that failed the length, CRC, schema or payload checks.
    pub failures: u64,
}

/// A bound relay that forwards to `target`.
#[derive(Debug)]
pub struct Relay {
    listener: TcpListener,
    target: SocketAddr,
    timeout: Duration,
}

impl Relay {
    /// Binds the relay on an OS-chosen loopback port.
    pub fn bind(target: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind("127.0.0.1:0")?,
            target,
            timeout,
        })
    }

    /// The address ranks should dial.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts `connections` ranks, relays until every connection has
    /// closed, and returns the counts.  Each accept waits at most the
    /// relay's timeout, and so does every read, so a stuck peer ends the
    /// relay with an error count instead of a hang.
    pub fn run(self, connections: usize) -> RelayStats {
        let shared = Arc::new(Mutex::new(RelayStats::default()));
        let mut pumps = Vec::new();
        for _ in 0..connections {
            let pair = accept_within(&self.listener, self.timeout).and_then(|rank| {
                let coordinator = TcpStream::connect(self.target)?;
                for stream in [&rank, &coordinator] {
                    stream.set_read_timeout(Some(self.timeout))?;
                    stream.set_nodelay(true)?;
                }
                Ok((rank, coordinator))
            });
            let (rank, coordinator) = match pair {
                Ok(pair) => pair,
                Err(_) => {
                    shared.lock().expect("relay stats lock").errors += 1;
                    continue;
                }
            };
            let pending = Arc::new(Mutex::new(VecDeque::new()));
            for (direction, from, to) in [
                (Direction::Up, &rank, &coordinator),
                (Direction::Down, &coordinator, &rank),
            ] {
                let (from, to) = match (from.try_clone(), to.try_clone()) {
                    (Ok(from), Ok(to)) => (from, to),
                    _ => {
                        shared.lock().expect("relay stats lock").errors += 1;
                        continue;
                    }
                };
                let shared = Arc::clone(&shared);
                let pending = Arc::clone(&pending);
                pumps.push(thread::spawn(move || {
                    pump(direction, from, to, &shared, &pending);
                }));
            }
        }
        for pump in pumps {
            if pump.join().is_err() {
                shared.lock().expect("relay stats lock").errors += 1;
            }
        }
        match Arc::try_unwrap(shared) {
            Ok(stats) => stats.into_inner().expect("relay stats lock"),
            Err(_) => unreachable!("every pump thread was joined"),
        }
    }
}

fn accept_within(listener: &TcpListener, timeout: Duration) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                thread::sleep(Duration::from_millis(1));
            }
            Err(err) => return Err(err),
        }
    }
}

/// Reads the next frame from `from`: `Ok(None)` on a clean close at a
/// frame boundary.
fn read_frame(from: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match from.read(&mut prefix[got..])? {
            0 if got == 0 => return Ok(None),
            0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if !(5..=MAX_FRAME_LEN).contains(&len) {
        return Err(std::io::ErrorKind::InvalidData.into());
    }
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&prefix);
    frame.resize(4 + len, 0);
    from.read_exact(&mut frame[4..])?;
    Ok(Some(frame))
}

fn pump(
    direction: Direction,
    mut from: TcpStream,
    mut to: TcpStream,
    shared: &Mutex<RelayStats>,
    pending: &Mutex<VecDeque<Instant>>,
) {
    loop {
        match read_frame(&mut from) {
            Ok(Some(frame)) => {
                // Book-keep before forwarding, so the stamp of a frame is
                // taken before its peer can react to it.
                let now = Instant::now();
                // frame = [len: 4][schema: 1][node-frame tag: 1]...
                let tag = frame.get(5).copied();
                let mut stats = shared.lock().expect("relay stats lock");
                match (direction, tag) {
                    (Direction::Up, Some(TAG_ROUND_DONE)) => {
                        pending.lock().expect("relay stamp lock").push_back(now);
                    }
                    (Direction::Down, Some(TAG_COLLECTION)) => {
                        if let Some(sent) = pending.lock().expect("relay stamp lock").pop_front() {
                            stats.rank_waits.push(now - sent);
                        }
                    }
                    _ => {}
                }
                let len = frame.len() as u64;
                match direction {
                    Direction::Up => stats.uplink_bytes += len,
                    Direction::Down => stats.downlink_bytes += len,
                }
                stats.frames += 1;
                drop(stats);
                let sent = to.write_all(&frame);
                let mut stats = shared.lock().expect("relay stats lock");
                stats.captured.push(frame);
                if sent.is_err() {
                    stats.errors += 1;
                    break;
                }
            }
            Ok(None) => break,
            Err(_) => {
                shared.lock().expect("relay stats lock").errors += 1;
                break;
            }
        }
    }
    // Pass the close on, so the peer behind `to` sees the same end of
    // stream it would have seen without the relay.
    let _ = to.shutdown(Shutdown::Write);
}
