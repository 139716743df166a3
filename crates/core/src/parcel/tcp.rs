//! The TCP parcelport: real sockets, framing, and write-combining.
//!
//! Modeled on HPX's TCP parcelport as deployed on commodity clusters
//! (the Raspberry Pi study that accompanies the paper's platform line):
//! each ordered pair of localities gets one TCP connection, owned by the
//! *sender*. A per-peer writer thread drains a bounded byte queue as a
//! **write-combiner**: it takes whatever is queued the moment the queue
//! is non-empty, and every frame queued while that `write` is in flight
//! leaves together in the next one. A lone halo parcel therefore goes
//! out at once, while a back-to-back stream batches itself with no timer
//! — on loopback and gigabit-class links the syscall/packet overhead of
//! many tiny active messages dominates, and batching them is what makes
//! AMT traffic viable. A drained batch is split into writes of at most
//! [`TcpConfig::coalesce_max_bytes`] (whole frames, at least one each).
//!
//! Wake-ups are edge-triggered: a sender signals the writer only when it
//! turns an empty queue non-empty, and the writer signals blocked
//! senders only when it drains a queue that had reached
//! [`TcpConfig::queue_capacity_bytes`]. Each `notify` is a futex syscall
//! whether or not anyone waits, so level-triggered wakes cost a syscall
//! per parcel on the hot path.
//!
//! Inbound, an accept thread performs a 4-byte hello handshake (the
//! connecting locality announces its id) and spawns a reader that
//! re-frames the byte stream via [`frame::decode`]. Each read (up to
//! 64 KiB) is decoded in place with a cursor, and the buffer is
//! compacted once, keeping only a frame split across reads. Everything
//! the read held goes to the [`PortSink`] as one [`PortEvent::Deliver`]
//! batch in wire order, so a read of many small frames costs O(bytes)
//! to decode and one sink call. A corrupt frame ends the connection
//! after the good frames ahead of it in the same read are delivered.
//! EOF or an I/O error on a peer's stream surfaces as
//! [`PortEvent::PeerLost`], and all queued/future sends to that peer
//! fail with [`Error::PeerLost`] — callers never hang on a dead node.

use super::frame;
use super::{Parcel, Parcelport, PortEvent, PortSink};
use crate::error::{Error, Result};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`TcpParcelport`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Largest physical write: a drained batch is split into writes of
    /// at most this many bytes (whole frames, at least one per write).
    pub coalesce_max_bytes: usize,
    /// Backpressure bound: [`Parcelport::send`] blocks while a peer's
    /// queue holds this many bytes.
    pub queue_capacity_bytes: usize,
    /// Connection attempts before giving up on a peer.
    pub connect_attempts: u32,
    /// Initial retry backoff (doubles per attempt, capped at 200 ms,
    /// jittered ±25% per sleep to avoid synchronized reconnect storms).
    pub connect_backoff: Duration,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            coalesce_max_bytes: 16 << 10,
            queue_capacity_bytes: 4 << 20,
            connect_attempts: 20,
            connect_backoff: Duration::from_millis(1),
        }
    }
}

impl TcpConfig {
    /// A configuration with write-combining disabled: every parcel gets
    /// its own write (the baseline the coalescing benchmark compares
    /// against).
    pub fn uncoalesced() -> TcpConfig {
        TcpConfig {
            coalesce_max_bytes: 1,
            ..TcpConfig::default()
        }
    }
}

#[derive(Default)]
struct Stats {
    parcels_sent: AtomicU64,
    parcels_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    writes: AtomicU64,
}

/// The sender-side queue for one peer.
struct PeerQueue {
    /// Encoded frames awaiting the writer thread.
    buf: Vec<u8>,
    /// Length of each queued frame, in order; the writer uses these to
    /// split a drained batch into write units.
    lens: Vec<usize>,
    /// Parcels those bytes represent.
    frames: usize,
    closed: bool,
}

impl PeerQueue {
    /// Append `parcel`'s frame. Returns true if the queue was empty, i.e.
    /// the writer may be asleep and needs a wake.
    fn push(&mut self, parcel: &Parcel) -> bool {
        let before = self.buf.len();
        frame::encode(parcel, &mut self.buf);
        self.lens.push(self.buf.len() - before);
        self.frames += 1;
        before == 0
    }
}

struct PeerShared {
    state: Mutex<PeerQueue>,
    /// Wakes the writer when a frame lands in an empty queue or the
    /// queue closes.
    ready: Condvar,
    /// Wakes blocked senders when the writer drains a full queue.
    space: Condvar,
}

struct Peer {
    id: u32,
    shared: Arc<PeerShared>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

struct Inner {
    local_id: u32,
    cfg: TcpConfig,
    sink: PortSink,
    peers: RwLock<HashMap<u32, Arc<Peer>>>,
    shutdown: AtomicBool,
    /// Set once any connection dies; parcels toward that peer can never
    /// arrive, so exact sent-vs-received accounting is off the table.
    peer_lost: AtomicBool,
    stats: Stats,
}

impl Inner {
    /// Mark the outgoing queue to `peer` closed so senders fail fast.
    fn close_peer_queue(&self, peer: u32) {
        if let Some(p) = self.peers.read().get(&peer) {
            let mut q = p.shared.state.lock();
            q.closed = true;
            p.shared.ready.notify_all();
            p.shared.space.notify_all();
        }
    }

    fn emit(&self, ev: PortEvent) {
        if !self.shutdown.load(Ordering::Acquire) {
            (self.sink)(ev);
        }
    }

    fn mark_peer_lost(&self) {
        self.peer_lost.store(true, Ordering::Release);
    }
}

/// Accepted inbound streams and their reader threads, shared with the
/// accept loop so shutdown can sever and join them.
type ReaderRegistry = Arc<Mutex<Vec<(TcpStream, std::thread::JoinHandle<()>)>>>;

/// A [`Parcelport`] over TCP; see the module docs for the design.
pub struct TcpParcelport {
    inner: Arc<Inner>,
    listener_addr: SocketAddr,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
    readers: ReaderRegistry,
}

impl TcpParcelport {
    /// Bind a listener for `local_id` on `addr` (use port 0 for an
    /// OS-assigned port, then [`TcpParcelport::local_addr`]) and start
    /// the accept loop. Inbound parcels and peer losses go to `sink`.
    pub fn bind(
        local_id: u32,
        addr: SocketAddr,
        sink: PortSink,
        cfg: TcpConfig,
    ) -> std::io::Result<Arc<TcpParcelport>> {
        let listener = TcpListener::bind(addr)?;
        let listener_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            local_id,
            cfg,
            sink,
            peers: RwLock::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            peer_lost: AtomicBool::new(false),
            stats: Stats::default(),
        });
        let readers: ReaderRegistry = Arc::new(Mutex::new(Vec::new()));
        let port = Arc::new(TcpParcelport {
            inner: inner.clone(),
            listener_addr,
            accept: Mutex::new(None),
            readers: readers.clone(),
        });
        let accept = std::thread::Builder::new()
            .name(format!("px-tcp-accept{local_id}"))
            .spawn(move || accept_loop(listener, inner, readers))
            .expect("failed to spawn parcelport accept thread");
        *port.accept.lock() = Some(accept);
        Ok(port)
    }

    /// The address peers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener_addr
    }

    /// This port's locality id.
    pub fn local_id(&self) -> u32 {
        self.inner.local_id
    }

    /// Establish the outgoing connection to `peer_id` at `addr`, with
    /// bounded retry/backoff (the peer's listener may not be up yet).
    /// Each sleep is jittered ±25% from a PRNG seeded by the
    /// (local, peer) pair, so peers that start retrying in lockstep —
    /// e.g. a whole rack reconnecting after a switch blip — desynchronize
    /// instead of thundering-herd on the same instant.
    pub fn connect_peer(&self, peer_id: u32, addr: SocketAddr) -> Result<()> {
        let cfg = &self.inner.cfg;
        let mut backoff = cfg.connect_backoff;
        let mut jitter = crate::resilience::SplitMix64::new(
            ((self.inner.local_id as u64) << 32) | peer_id as u64,
        );
        let mut last_err = String::new();
        let mut stream = None;
        for _ in 0..cfg.connect_attempts.max(1) {
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(Error::RuntimeShutDown);
            }
            match TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => {
                    last_err = e.to_string();
                    let scale = 0.75 + 0.5 * jitter.next_f64(); // ±25%
                    std::thread::sleep(backoff.mul_f64(scale));
                    backoff = (backoff * 2).min(Duration::from_millis(200));
                }
            }
        }
        let mut stream = stream.ok_or_else(|| {
            Error::Io(format!("connect to locality {peer_id} at {addr}: {last_err}"))
        })?;
        let _ = stream.set_nodelay(true);
        // Hello: announce who is on this end of the connection.
        stream
            .write_all(&self.inner.local_id.to_le_bytes())
            .map_err(|e| Error::Io(format!("hello to locality {peer_id}: {e}")))?;
        let shared = Arc::new(PeerShared {
            state: Mutex::new(PeerQueue {
                buf: Vec::new(),
                lens: Vec::new(),
                frames: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        });
        let inner = self.inner.clone();
        let shared2 = shared.clone();
        let writer = std::thread::Builder::new()
            .name(format!("px-tcp-w{}-{}", self.inner.local_id, peer_id))
            .spawn(move || writer_loop(stream, peer_id, shared2, inner))
            .expect("failed to spawn parcelport writer thread");
        let peer = Arc::new(Peer { id: peer_id, shared, writer: Mutex::new(Some(writer)) });
        self.inner.peers.write().insert(peer_id, peer);
        Ok(())
    }

    /// Parcels handed to [`Parcelport::send`] so far.
    pub fn parcels_sent(&self) -> u64 {
        self.inner.stats.parcels_sent.load(Ordering::Relaxed)
    }

    /// Parcels decoded off the wire so far.
    pub fn parcels_received(&self) -> u64 {
        self.inner.stats.parcels_received.load(Ordering::Relaxed)
    }

    /// Whether any peer connection has ever died. Once true, cluster-wide
    /// `parcels_sent == parcels_received` can no longer be expected: frames
    /// queued toward the dead peer will never be decoded.
    pub fn any_peer_lost(&self) -> bool {
        self.inner.peer_lost.load(Ordering::Acquire)
    }

    /// Bytes read off the wire so far.
    pub fn bytes_received(&self) -> u64 {
        self.inner.stats.bytes_received.load(Ordering::Relaxed)
    }

    /// Sever the connection state for `peer` as if it died: close the
    /// outgoing queue (senders get [`Error::PeerLost`]) and shut the
    /// inbound streams down. Used by tests and fault injection.
    pub fn drop_peer(&self, peer: u32) {
        self.inner.mark_peer_lost();
        self.inner.close_peer_queue(peer);
    }
}

impl Parcelport for TcpParcelport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn send(&self, parcel: Parcel) -> Result<()> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(Error::RuntimeShutDown);
        }
        let dest = parcel.dest_locality;
        let peer = self
            .inner
            .peers
            .read()
            .get(&dest)
            .cloned()
            .ok_or(Error::UnknownLocality(dest))?;
        let cfg = &self.inner.cfg;
        let mut q = peer.shared.state.lock();
        // Backpressure: block while the peer's queue is full, failing if
        // the connection dies while we wait. Draining a full queue and
        // closing it both wake `space`, so the wait needs no timeout.
        while !q.closed && q.buf.len() >= cfg.queue_capacity_bytes {
            peer.shared.space.wait(&mut q);
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(Error::RuntimeShutDown);
            }
        }
        if q.closed {
            return Err(Error::PeerLost(peer.id));
        }
        let was_empty = q.push(&parcel);
        drop(q);
        // The writer sleeps only on an empty queue, and checks it under
        // the lock first, so only the empty → non-empty edge needs a wake.
        if was_empty {
            peer.shared.ready.notify_one();
        }
        self.inner.stats.parcels_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn pending(&self) -> usize {
        self.inner
            .peers
            .read()
            .values()
            .map(|p| p.shared.state.lock().frames)
            .sum()
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.stats.bytes_sent.load(Ordering::Relaxed)
    }

    fn writes(&self) -> u64 {
        self.inner.stats.writes.load(Ordering::Relaxed)
    }

    fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Close every outgoing queue and join the writers (they flush
        // what's already queued, then drop their streams).
        let peers: Vec<Arc<Peer>> = self.inner.peers.read().values().cloned().collect();
        for peer in &peers {
            let mut q = peer.shared.state.lock();
            q.closed = true;
            drop(q);
            peer.shared.ready.notify_all();
            peer.shared.space.notify_all();
        }
        for peer in &peers {
            if let Some(t) = peer.writer.lock().take() {
                let _ = t.join();
            }
        }
        // Unblock the accept loop with a throwaway connection, then join.
        let _ = TcpStream::connect(self.listener_addr);
        if let Some(t) = self.accept.lock().take() {
            let _ = t.join();
        }
        // Force blocked readers out of `read` and join them.
        let readers = std::mem::take(&mut *self.readers.lock());
        for (stream, thread) in readers {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = thread.join();
        }
    }
}

impl Drop for TcpParcelport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    inner: Arc<Inner>,
    readers: ReaderRegistry,
) {
    for conn in listener.incoming() {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = conn else { continue };
        // Hello handshake: the 4-byte id of the connecting locality.
        let mut hello = [0u8; 4];
        if stream.read_exact(&mut hello).is_err() {
            continue;
        }
        let peer_id = u32::from_le_bytes(hello);
        let _ = stream.set_nodelay(true);
        let Ok(registered) = stream.try_clone() else { continue };
        let inner2 = inner.clone();
        let reader = std::thread::Builder::new()
            .name(format!("px-tcp-r{}-{}", inner.local_id, peer_id))
            .spawn(move || reader_loop(stream, peer_id, inner2))
            .expect("failed to spawn parcelport reader thread");
        readers.lock().push((registered, reader));
    }
}

/// Decode every whole frame at the front of `data` into `batch`,
/// advancing a cursor instead of shifting the buffer per frame. Returns
/// the bytes consumed and, if decoding stopped at a corrupt frame, why.
fn decode_frames(data: &[u8], batch: &mut Vec<Parcel>) -> (usize, Option<String>) {
    let mut at = 0usize;
    loop {
        match frame::decode(&data[at..]) {
            Ok((parcel, used)) => {
                at += used;
                batch.push(parcel);
            }
            Err(frame::DecodeError::Incomplete { .. }) => return (at, None),
            Err(frame::DecodeError::Malformed(m)) => return (at, Some(m)),
        }
    }
}

fn reader_loop(mut stream: TcpStream, peer_id: u32, inner: Arc<Inner>) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 << 10];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        inner.stats.bytes_received.fetch_add(n as u64, Ordering::Relaxed);
        buf.extend_from_slice(&chunk[..n]);
        let mut batch = Vec::new();
        let (used, malformed) = decode_frames(&buf, &mut batch);
        // Compact once per read: only a frame split across reads stays.
        buf.drain(..used);
        if !batch.is_empty() {
            // Emit before counting: once `parcels_received` matches the
            // sender's `parcels_sent`, every parcel is guaranteed to have
            // reached the sink (the cluster's idle check relies on this
            // ordering).
            let k = batch.len() as u64;
            inner.emit(PortEvent::Deliver(batch));
            inner.stats.parcels_received.fetch_add(k, Ordering::Relaxed);
        }
        if let Some(m) = malformed {
            // The good frames ahead of the corrupt one were delivered
            // above; nothing after it can be trusted.
            eprintln!("parallex: dropping corrupt connection from locality {peer_id}: {m}");
            let _ = stream.shutdown(Shutdown::Both);
            inner.close_peer_queue(peer_id);
            inner.mark_peer_lost();
            inner.emit(PortEvent::PeerLost(peer_id));
            return;
        }
    }
    // EOF or I/O error: the peer is gone. Fail our sends toward it and
    // tell the owner so pending responses resolve instead of hanging.
    inner.close_peer_queue(peer_id);
    inner.mark_peer_lost();
    inner.emit(PortEvent::PeerLost(peer_id));
}

fn writer_loop(mut stream: TcpStream, peer_id: u32, shared: Arc<PeerShared>, inner: Arc<Inner>) {
    // Swapped with the queue's buffers on every drain, so the steady
    // state allocates nothing.
    let mut batch: Vec<u8> = Vec::new();
    let mut lens: Vec<usize> = Vec::new();
    loop {
        let was_full = {
            let mut q = shared.state.lock();
            while q.buf.is_empty() {
                if q.closed {
                    return;
                }
                shared.ready.wait(&mut q);
            }
            batch.clear();
            lens.clear();
            std::mem::swap(&mut q.buf, &mut batch);
            std::mem::swap(&mut q.lens, &mut lens);
            q.frames = 0;
            batch.len() >= inner.cfg.queue_capacity_bytes
        };
        // Only a full queue can have senders blocked on it.
        if was_full {
            shared.space.notify_all();
        }
        // Pack whole frames greedily into writes of at most
        // `coalesce_max_bytes` (an oversized frame still goes out alone).
        let mut start = 0usize;
        let mut end = 0usize;
        for (k, len) in lens.iter().enumerate() {
            end += len;
            let last = k + 1 == lens.len();
            if last || end - start + lens[k + 1] > inner.cfg.coalesce_max_bytes {
                if stream.write_all(&batch[start..end]).is_err() {
                    inner.close_peer_queue(peer_id);
                    inner.mark_peer_lost();
                    inner.emit(PortEvent::PeerLost(peer_id));
                    return;
                }
                inner.stats.writes.fetch_add(1, Ordering::Relaxed);
                inner.stats.bytes_sent.fetch_add((end - start) as u64, Ordering::Relaxed);
                start = end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agas::Gid;
    use bytes::Bytes;
    use std::sync::mpsc;
    use std::time::Instant;

    fn parcel(dest: u32, payload: &[u8]) -> Parcel {
        Parcel {
            source: 0,
            dest_locality: dest,
            dest: Gid { origin: dest, lid: 1 },
            action: 7,
            payload: Bytes::from(payload.to_vec()),
            response_token: None,
        }
    }

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    /// Two ports wired A→B; returns (A, B, receiver of B's events).
    fn pair(cfg: TcpConfig) -> (Arc<TcpParcelport>, Arc<TcpParcelport>, mpsc::Receiver<PortEvent>) {
        let (tx, rx) = mpsc::channel();
        let sink_b: PortSink = Arc::new(move |ev| {
            let _ = tx.send(ev);
        });
        let sink_a: PortSink = Arc::new(|_| {});
        let a = TcpParcelport::bind(0, loopback(), sink_a, cfg.clone()).unwrap();
        let b = TcpParcelport::bind(1, loopback(), sink_b, cfg).unwrap();
        a.connect_peer(1, b.local_addr()).unwrap();
        (a, b, rx)
    }

    fn recv_parcels(rx: &mpsc::Receiver<PortEvent>, n: usize) -> Vec<Parcel> {
        let mut got = Vec::new();
        while got.len() < n {
            match rx.recv_timeout(Duration::from_secs(5)).expect("parcel arrives") {
                PortEvent::Deliver(batch) => got.extend(batch),
                PortEvent::PeerLost(l) => panic!("unexpected peer loss of {l}"),
            }
        }
        got
    }

    #[test]
    fn parcels_cross_a_real_socket_in_order() {
        let (a, b, rx) = pair(TcpConfig::default());
        for i in 0..20u8 {
            a.send(parcel(1, &[i; 32])).unwrap();
        }
        let got = recv_parcels(&rx, 20);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p.payload[0], i as u8, "in-order delivery");
            assert_eq!(p.action, 7);
        }
        assert_eq!(a.parcels_sent(), 20);
        // The reader counts a batch only after the sink returns (the idle
        // ledger's ordering), so the count may trail the last parcel.
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.parcels_received() < 20 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(b.parcels_received(), 20);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn coalescing_flushes_on_size_threshold() {
        let frame_len = frame::HEADER_LEN + 8;
        let cfg = TcpConfig { coalesce_max_bytes: 4 * frame_len, ..TcpConfig::default() };
        let (a, b, rx) = pair(cfg);
        // Queue 16 frames in one critical section, so the writer drains
        // them as a single batch that only the size bound can split.
        let peer = a.inner.peers.read()[&1].clone();
        {
            let mut q = peer.shared.state.lock();
            for i in 0..16u8 {
                q.push(&parcel(1, &[i; 8]));
            }
        }
        peer.shared.ready.notify_one();
        let got = recv_parcels(&rx, 16);
        assert!(got.iter().enumerate().all(|(i, p)| p.payload[0] == i as u8), "in order");
        a.shutdown();
        assert_eq!(a.writes(), 4, "16 frames in writes of at most 4 frames each");
        assert_eq!(a.bytes_sent(), 16 * frame_len as u64);
        b.shutdown();
    }

    #[test]
    fn one_read_of_many_frames_arrives_as_an_ordered_batch() {
        // B's sink checks the idle-ledger ordering on every event: the
        // received count may only include parcels the sink already saw.
        let n = 64usize;
        let b_port: Arc<std::sync::OnceLock<std::sync::Weak<TcpParcelport>>> = Arc::default();
        let (tx, rx) = mpsc::channel();
        let ledger_ok = Arc::new(AtomicBool::new(true));
        let (cell, ok) = (b_port.clone(), ledger_ok.clone());
        let seen = AtomicU64::new(0);
        let sink_b: PortSink = Arc::new(move |ev| {
            if let PortEvent::Deliver(batch) = &ev {
                if let Some(b) = cell.get().and_then(std::sync::Weak::upgrade) {
                    if b.parcels_received() != seen.load(Ordering::SeqCst) {
                        ok.store(false, Ordering::SeqCst);
                    }
                }
                seen.fetch_add(batch.len() as u64, Ordering::SeqCst);
            }
            let _ = tx.send(ev);
        });
        let a = TcpParcelport::bind(0, loopback(), Arc::new(|_| {}), TcpConfig::default()).unwrap();
        let b = TcpParcelport::bind(1, loopback(), sink_b, TcpConfig::default()).unwrap();
        b_port.set(Arc::downgrade(&b)).unwrap();
        a.connect_peer(1, b.local_addr()).unwrap();
        // Queue every frame in one critical section: the writer drains
        // them into one write, which the reader takes in few reads.
        let peer = a.inner.peers.read()[&1].clone();
        {
            let mut q = peer.shared.state.lock();
            for i in 0..n {
                q.push(&parcel(1, &[i as u8; 8]));
            }
        }
        peer.shared.ready.notify_one();
        let mut got = Vec::new();
        let mut events = 0usize;
        while got.len() < n {
            match rx.recv_timeout(Duration::from_secs(5)).expect("parcels arrive") {
                PortEvent::Deliver(batch) => {
                    events += 1;
                    got.extend(batch);
                }
                PortEvent::PeerLost(l) => panic!("unexpected peer loss of {l}"),
            }
        }
        assert!(got.iter().enumerate().all(|(i, p)| p.payload[0] == i as u8), "in order");
        assert!(events < n, "{n} frames from one write arrived in {events} separate events");
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.parcels_received() < n as u64 {
            assert!(Instant::now() < deadline, "parcels_received never reached {n}");
            std::thread::yield_now();
        }
        assert_eq!(b.parcels_received(), n as u64);
        assert!(ledger_ok.load(Ordering::SeqCst), "parcels counted before the sink saw them");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn good_frames_ahead_of_a_corrupt_one_are_delivered_before_peer_lost() {
        let (tx, rx) = mpsc::channel();
        let sink_b: PortSink = Arc::new(move |ev| {
            let _ = tx.send(ev);
        });
        let b = TcpParcelport::bind(1, loopback(), sink_b, TcpConfig::default()).unwrap();
        // A raw peer: hello as locality 5, then three good frames and a
        // frame with a bad magic, all in one write.
        let mut raw = TcpStream::connect(b.local_addr()).unwrap();
        let mut bytes = 5u32.to_le_bytes().to_vec();
        for i in 0..3u8 {
            frame::encode(&parcel(1, &[i; 4]), &mut bytes);
        }
        let mut bad = Vec::new();
        frame::encode(&parcel(1, &[9; 4]), &mut bad);
        bad[0] = b'X';
        bytes.extend_from_slice(&bad);
        raw.write_all(&bytes).unwrap();
        let mut got = Vec::new();
        loop {
            match rx.recv_timeout(Duration::from_secs(5)).expect("events arrive") {
                PortEvent::Deliver(batch) => got.extend(batch),
                PortEvent::PeerLost(peer) => {
                    assert_eq!(peer, 5);
                    break;
                }
            }
        }
        let tags: Vec<u8> = got.iter().map(|p| p.payload[0]).collect();
        assert_eq!(tags, vec![0, 1, 2], "the good frames come first, in order");
        assert_eq!(b.parcels_received(), 3);
        assert!(b.any_peer_lost());
        b.shutdown();
    }

    #[test]
    fn isolated_round_trips_take_one_write_each() {
        // Nothing is queued behind a lone parcel, so write-combining must
        // send it at once: k round trips, k writes, no timer to wait out.
        let (a, b, rx) = pair(TcpConfig::default());
        let k = 50u64;
        for i in 0..k {
            a.send(parcel(1, &i.to_le_bytes())).unwrap();
            assert_eq!(recv_parcels(&rx, 1)[0].payload[..], i.to_le_bytes());
        }
        // Joining the writer makes its last `writes` increment visible.
        a.shutdown();
        assert_eq!(a.writes(), k);
        b.shutdown();
    }

    #[test]
    fn back_to_back_stream_combines_writes() {
        let (a, b, rx) = pair(TcpConfig::default());
        let n = 4000u32;
        for i in 0..n {
            a.send(parcel(1, &i.to_le_bytes())).unwrap();
        }
        let got = recv_parcels(&rx, n as usize);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p.payload[..], (i as u32).to_le_bytes(), "in-order delivery");
        }
        a.shutdown();
        let writes = a.writes();
        assert!(
            writes < n as u64,
            "frames queued during a write must share the next one: {writes} writes for {n} parcels"
        );
        b.shutdown();
    }

    #[test]
    fn sender_blocked_on_full_queue_is_released_by_the_drain() {
        // B's reader stalls in its sink while `gate` is held, so A's
        // socket buffers fill, A's writer blocks mid-write, and A's queue
        // reaches capacity with the sender parked on it. Every earlier
        // drain of a full queue must also have woken the sender, or it
        // is stranded before the queue can fill.
        let gate = Arc::new(Mutex::new(()));
        let (tx, rx) = mpsc::channel();
        let gate2 = gate.clone();
        let sink_b: PortSink = Arc::new(move |ev| {
            drop(gate2.lock());
            let _ = tx.send(ev);
        });
        let cap = 64 << 10;
        let cfg = TcpConfig { queue_capacity_bytes: cap, ..TcpConfig::default() };
        let a = TcpParcelport::bind(0, loopback(), Arc::new(|_| {}), cfg.clone()).unwrap();
        let b = TcpParcelport::bind(1, loopback(), sink_b, cfg).unwrap();
        a.connect_peer(1, b.local_addr()).unwrap();
        // Taken after `b`, so a failing assert releases it before `b`'s
        // drop joins the stalled reader.
        let held = gate.lock();

        // Far more bytes than loopback socket buffers hold.
        let n = 2048usize;
        let (done_tx, done_rx) = mpsc::channel();
        let a2 = a.clone();
        let sender = std::thread::spawn(move || {
            let payload = vec![0x5a; 16 << 10];
            for _ in 0..n {
                a2.send(parcel(1, &payload)).unwrap();
            }
            let _ = done_tx.send(());
        });
        let peer = a.inner.peers.read()[&1].clone();
        let deadline = Instant::now() + Duration::from_secs(10);
        while peer.shared.state.lock().buf.len() < cap {
            assert!(
                Instant::now() < deadline,
                "the queue never filled: the sender was stranded by a missed wake"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(done_rx.try_recv().is_err(), "the sender must be blocked on the full queue");

        drop(held);
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("draining a full queue must release its blocked sender");
        sender.join().unwrap();
        assert_eq!(recv_parcels(&rx, n).len(), n);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn sends_to_unknown_peer_are_typed_errors() {
        let (a, b, _rx) = pair(TcpConfig::default());
        assert!(matches!(a.send(parcel(9, b"x")), Err(Error::UnknownLocality(9))));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn peer_death_surfaces_as_peer_lost() {
        let (a, b, _rx) = pair(TcpConfig::default());
        // B also connects back to A so A has an inbound stream from B
        // whose EOF announces B's death.
        b.connect_peer(0, a.local_addr()).unwrap();
        a.send(parcel(1, b"before")).unwrap();
        b.shutdown();
        // Eventually the writer or a fresh send observes the dead peer.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match a.send(parcel(1, b"after")) {
                Err(Error::PeerLost(1)) => break,
                Ok(_) | Err(_) => {
                    assert!(Instant::now() < deadline, "send never failed with PeerLost");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        a.shutdown();
    }
}
