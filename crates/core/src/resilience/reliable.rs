//! Reliable delivery over an unreliable parcelport: per-peer sequence
//! numbers, positive acks with retransmission, receive-side dedup, and
//! an end-to-end payload checksum.
//!
//! The guarantee is **at-least-once transport + exactly-once handoff**:
//! a data parcel is retransmitted until acked, duplicates are dropped by
//! the receiver's sequence window, and a corrupted payload (checksum
//! mismatch) is treated as a drop so the retransmit path heals it. The
//! owner sink therefore sees every accepted parcel exactly once —
//! effectively-once action execution (DESIGN.md §10).
//!
//! Wire mapping: a data parcel is wrapped into a carrier parcel whose
//! action is [`RELIABLE_DATA`] and whose payload prepends
//! `[seq u64][orig action u32][flags u8][token u64][fnv1a32 u32]` to the
//! original payload. Acks are [`RELIABLE_ACK`] parcels carrying a list
//! of acknowledged sequence numbers. Acks are delayed: receiving a
//! carrier only records its seq, and the maintenance thread sends each
//! peer's batch on its next [`ReliableConfig::ack_flush`] tick, so a
//! stream of data parcels costs one ack parcel per tick, not one each.
//! Actions listed in [`ReliableConfig::bypass_actions`] (heartbeats)
//! skip the layer entirely: liveness probes must not be healed into lies.
//!
//! Retransmission follows TCP's rule of restarting the timer whenever an
//! ack acknowledges new data (RFC 6298 §5.3). Seqs travel in order, so
//! while acks keep advancing a peer's ack frontier, carriers past the
//! frontier are still queued or in flight behind it — under backpressure
//! that can take far longer than the timeout — and their clock restarts
//! with each advance. A carrier *below* the frontier that is still
//! unacked was lost or corrupted; it times out on its own send time.
//! The same rule bounds the maintenance tick: unacked carriers are kept
//! per peer in seq order, and while a peer's frontier advanced within
//! the timeout only the seqs up to it can be due, so only those are
//! scanned; a peer whose acks stalled for a full timeout has every
//! carrier scanned.
//!
//! Inbound, the layer takes the transport's batches whole: checksums
//! and unwrapping run without the state lock, then acks, dedup and
//! pending-ack bookkeeping for the batch run under one lock, and the
//! fresh parcels go to the owner as one batch, in wire order.

use crate::error::{Error, Result};
use crate::parcel::frame::{fnv1a32, fnv1a32_with};
use crate::parcel::{ActionId, Parcel, Parcelport, PortEvent, PortSink};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Carrier action for sequenced data parcels (reserved; never hits the
/// action registry — the layer unwraps before the delivery sink).
pub const RELIABLE_DATA: ActionId = 0xFFFF_FF00;

/// Carrier action for ack parcels.
pub const RELIABLE_ACK: ActionId = 0xFFFF_FF01;

/// Bytes prepended to a wrapped payload: seq + action + flags + token +
/// checksum.
const WRAP_HEADER: usize = 8 + 4 + 1 + 8 + 4;

const WRAP_FLAG_TOKEN: u8 = 0b0000_0001;

/// Tuning knobs for [`ReliableParcelport`].
#[derive(Clone, Debug)]
pub struct ReliableConfig {
    /// Retransmit an unacked parcel after this long without ack progress
    /// from its peer (see the module docs).
    pub retransmit_timeout: Duration,
    /// Give up and declare the peer lost after this many retransmits of
    /// one parcel.
    pub max_retransmits: u32,
    /// Delayed-ack window: acks accumulate for up to this long before a
    /// batch ack parcel is sent (the maintenance thread's tick).
    pub ack_flush: Duration,
    /// Actions sent around the layer, unsequenced and unacked
    /// (heartbeats — healing liveness probes would defeat them).
    pub bypass_actions: Vec<ActionId>,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            retransmit_timeout: Duration::from_millis(50),
            max_retransmits: 40,
            ack_flush: Duration::from_millis(1),
            bypass_actions: vec![super::heartbeat::HEARTBEAT_ACTION],
        }
    }
}

struct Unacked {
    parcel: Parcel, // the wrapped carrier, ready to resend
    sent_at: Instant,
    attempts: u32,
}

/// Receive-side dedup window for one source peer: everything below
/// `floor` was seen; `above` holds out-of-order seqs past it. Memory is
/// bounded by the sender's unacked window, not by traffic volume.
#[derive(Default)]
struct RecvWindow {
    floor: u64,
    above: BTreeSet<u64>,
}

impl RecvWindow {
    /// Record `seq`; returns false if it was already seen (duplicate).
    fn record(&mut self, seq: u64) -> bool {
        if seq < self.floor || self.above.contains(&seq) {
            return false;
        }
        self.above.insert(seq);
        while self.above.remove(&self.floor) {
            self.floor += 1;
        }
        true
    }
}

/// The highest seq a peer has acked, and when that last advanced.
struct AckFrontier {
    seq: u64,
    at: Instant,
}

/// When the retransmit clock of carrier `seq`, sent at `sent_at`,
/// started: a carrier past the frontier is queued behind data the peer
/// is still acking, so each advance restarts its clock.
fn rto_start(frontier: Option<&AckFrontier>, seq: u64, sent_at: Instant) -> Instant {
    match frontier {
        Some(f) if seq > f.seq => sent_at.max(f.at),
        _ => sent_at,
    }
}

#[derive(Default)]
struct RelState {
    next_seq: HashMap<u32, u64>,
    /// Carriers awaiting an ack, per peer, ordered by seq so a tick can
    /// scan just the part of the window that can be due.
    unacked: HashMap<u32, BTreeMap<u64, Unacked>>,
    frontier: HashMap<u32, AckFrontier>,
    recv: HashMap<u32, RecvWindow>,
    pending_acks: HashMap<u32, Vec<u64>>,
    dead_peers: HashSet<u32>,
}

impl RelState {
    /// Declare `peer` dead and drop what was kept for it. Returns false
    /// if it already was.
    fn forget(&mut self, peer: u32) -> bool {
        self.unacked.remove(&peer);
        self.pending_acks.remove(&peer);
        self.frontier.remove(&peer);
        self.dead_peers.insert(peer)
    }

    /// Apply an ack from `peer` listing `seqs` (checksum already
    /// verified). Only an ack of new data advances the frontier and
    /// restarts the peer's clock.
    fn ack(&mut self, peer: u32, seqs: &[u8]) {
        let Some(carriers) = self.unacked.get_mut(&peer) else { return };
        let mut newest = None;
        for chunk in seqs.chunks_exact(8) {
            let seq = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            if carriers.remove(&seq).is_some() {
                newest = newest.max(Some(seq));
            }
        }
        if let Some(seq) = newest {
            let at = Instant::now();
            let f = self.frontier.entry(peer).or_insert(AckFrontier { seq, at });
            f.seq = f.seq.max(seq);
            f.at = at;
        }
    }
}

/// One inbound parcel, classified and checksummed before the state lock
/// is taken.
enum Inbound {
    /// An ack parcel whose checksum holds.
    Ack(Parcel),
    /// An unwrapped data parcel and the seq its carrier bore.
    Data { peer: u32, seq: u64, parcel: Parcel },
    /// Traffic that bypasses the layer, forwarded untouched.
    Pass(Parcel),
}

/// The reliability decorator. Wraps any [`Parcelport`]; hand its
/// [`ReliableParcelport::inbound_sink`] to the inner port and attach the
/// inner port back with [`ReliableParcelport::attach_inner`].
pub struct ReliableParcelport {
    local: u32,
    cfg: ReliableConfig,
    inner: RwLock<Option<Arc<dyn Parcelport>>>,
    owner: PortSink,
    state: Mutex<RelState>,
    wake: Condvar,
    shutdown: AtomicBool,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Unique data parcels accepted from the owner (excludes
    /// retransmits, acks and bypass traffic).
    data_sent: AtomicU64,
    /// Unique data parcels forwarded to the owner (post-dedup). The
    /// cluster-wide invariant Σ`data_sent` == Σ`data_delivered` at idle
    /// is what keeps `wait_idle` exact under retransmission.
    data_delivered: AtomicU64,
    retransmits: AtomicU64,
    dup_drops: AtomicU64,
    corrupt_drops: AtomicU64,
    acks_sent: AtomicU64,
}

impl ReliableParcelport {
    /// Create the layer for locality `local`, delivering accepted
    /// parcels to `owner`.
    pub fn new(local: u32, cfg: ReliableConfig, owner: PortSink) -> Arc<ReliableParcelport> {
        let port = Arc::new(ReliableParcelport {
            local,
            cfg,
            inner: RwLock::new(None),
            owner,
            state: Mutex::new(RelState::default()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            thread: Mutex::new(None),
            data_sent: AtomicU64::new(0),
            data_delivered: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            dup_drops: AtomicU64::new(0),
            corrupt_drops: AtomicU64::new(0),
            acks_sent: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&port);
        let handle = std::thread::Builder::new()
            .name(format!("parallex-retx-{local}"))
            .spawn(move || {
                while let Some(port) = weak.upgrade() {
                    if port.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    port.tick();
                    let period = port.cfg.ack_flush.min(port.cfg.retransmit_timeout / 4).max(Duration::from_micros(200));
                    let mut st = port.state.lock();
                    if !port.shutdown.load(Ordering::Acquire) {
                        port.wake.wait_for(&mut st, period);
                    }
                }
            })
            .expect("failed to spawn retransmit thread");
        *port.thread.lock() = Some(handle);
        port
    }

    /// Attach the wrapped transport (two-phase construction: the inner
    /// port needs this layer's sink, this layer needs the inner port).
    pub fn attach_inner(&self, inner: Arc<dyn Parcelport>) {
        *self.inner.write() = Some(inner);
    }

    fn inner(&self) -> Result<Arc<dyn Parcelport>> {
        self.inner.read().clone().ok_or_else(|| {
            Error::InvalidArgument("reliable parcelport has no inner transport attached".into())
        })
    }

    /// The sink to hand to the inner transport.
    pub fn inbound_sink(self: &Arc<Self>) -> PortSink {
        let me = self.clone();
        Arc::new(move |ev| me.on_inbound(ev))
    }

    /// Unique data parcels accepted from the owner.
    pub fn data_sent(&self) -> u64 {
        self.data_sent.load(Ordering::Relaxed)
    }

    /// Unique data parcels delivered to the owner (post-dedup).
    pub fn data_delivered(&self) -> u64 {
        self.data_delivered.load(Ordering::Relaxed)
    }

    /// Retransmissions performed.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }

    /// Duplicate data parcels dropped by the receive window.
    pub fn dup_drops(&self) -> u64 {
        self.dup_drops.load(Ordering::Relaxed)
    }

    /// Data parcels rejected by the end-to-end checksum (healed by
    /// retransmission).
    pub fn corrupt_drops(&self) -> u64 {
        self.corrupt_drops.load(Ordering::Relaxed)
    }

    /// Ack parcels sent.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent.load(Ordering::Relaxed)
    }

    /// Data parcels sent but not yet acknowledged.
    pub fn unacked(&self) -> usize {
        self.state.lock().unacked.values().map(BTreeMap::len).sum()
    }

    /// True once any peer has been declared lost (retransmits exhausted
    /// or the inner transport reported the loss). After that the logical
    /// sent/delivered ledger can never balance, so idle checks should
    /// stop consulting it.
    pub fn any_peer_lost(&self) -> bool {
        !self.state.lock().dead_peers.is_empty()
    }

    fn wrap(&self, parcel: &Parcel, seq: u64) -> Parcel {
        let mut payload = Vec::with_capacity(WRAP_HEADER + parcel.payload.len());
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(&parcel.action.to_le_bytes());
        payload.push(if parcel.response_token.is_some() { WRAP_FLAG_TOKEN } else { 0 });
        payload.extend_from_slice(&parcel.response_token.unwrap_or(0).to_le_bytes());
        // The checksum covers the carrier header too (seq/action/flags/
        // token): a bit flipped in the *sequence number* would otherwise
        // pass a payload-only check and ack the wrong parcel — a silent,
        // permanent loss.
        let cksum = fnv1a32_with(fnv1a32(&payload[..WRAP_HEADER - 4]), &parcel.payload);
        payload.extend_from_slice(&cksum.to_le_bytes());
        payload.extend_from_slice(&parcel.payload);
        Parcel {
            source: parcel.source,
            dest_locality: parcel.dest_locality,
            dest: parcel.dest,
            action: RELIABLE_DATA,
            payload: Bytes::from(payload),
            response_token: None,
        }
    }

    /// `(seq, rebuilt parcel)` if the carrier unwraps and passes the
    /// checksum; `Err(true)` means checksum failure, `Err(false)` means
    /// a structurally bad carrier.
    fn unwrap_carrier(carrier: &Parcel) -> std::result::Result<(u64, Parcel), bool> {
        let buf = &carrier.payload[..];
        if buf.len() < WRAP_HEADER {
            return Err(false);
        }
        let seq = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
        let action = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        let flags = buf[12];
        let token = u64::from_le_bytes(buf[13..21].try_into().expect("8 bytes"));
        let cksum = u32::from_le_bytes(buf[21..25].try_into().expect("4 bytes"));
        let payload = &buf[WRAP_HEADER..];
        if fnv1a32_with(fnv1a32(&buf[..WRAP_HEADER - 4]), payload) != cksum {
            return Err(true);
        }
        Ok((
            seq,
            Parcel {
                source: carrier.source,
                dest_locality: carrier.dest_locality,
                dest: carrier.dest,
                action,
                // Zero-copy view into the carrier: the payload is the
                // hot path's dominant allocation otherwise.
                payload: carrier.payload.slice(WRAP_HEADER..),
                response_token: (flags & WRAP_FLAG_TOKEN != 0).then_some(token),
            },
        ))
    }

    /// Handle one inbound event. A batch is checked without the lock,
    /// then acked, deduped and recorded under one `state` lock; its fresh
    /// parcels go to the owner as one batch, in wire order.
    fn on_inbound(&self, ev: PortEvent) {
        let batch = match ev {
            PortEvent::Deliver(batch) => batch,
            PortEvent::PeerLost(peer) => {
                self.drop_peer_state(peer);
                (self.owner)(PortEvent::PeerLost(peer));
                return;
            }
        };
        let mut items = Vec::with_capacity(batch.len());
        for p in batch {
            match p.action {
                RELIABLE_ACK => {
                    // Acks carry a trailing checksum over the seq list: a
                    // bit-flipped ack acknowledging the *wrong* sequence
                    // would silently lose a parcel forever. A rejected
                    // ack just means another retransmit round.
                    let buf = &p.payload[..];
                    let ok = buf.len() >= 4 && (buf.len() - 4) % 8 == 0 && {
                        let (seqs, tail) = buf.split_at(buf.len() - 4);
                        fnv1a32(seqs) == u32::from_le_bytes(tail.try_into().expect("4 bytes"))
                    };
                    if ok {
                        items.push(Inbound::Ack(p));
                    } else {
                        self.corrupt_drops.fetch_add(1, Ordering::Relaxed);
                    }
                }
                RELIABLE_DATA => match Self::unwrap_carrier(&p) {
                    Ok((seq, parcel)) => items.push(Inbound::Data { peer: p.source, seq, parcel }),
                    Err(true) => {
                        // Checksum mismatch: treat as a drop; no ack, so
                        // the sender retransmits the intact original.
                        self.corrupt_drops.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(false) => {
                        eprintln!(
                            "parallex: reliable layer dropped malformed carrier from locality {}",
                            p.source
                        );
                    }
                },
                _ => items.push(Inbound::Pass(p)),
            }
        }
        let mut out = Vec::with_capacity(items.len());
        let (mut fresh, mut dups) = (0u64, 0u64);
        {
            let mut st = self.state.lock();
            for item in items {
                match item {
                    Inbound::Ack(p) => st.ack(p.source, &p.payload[..p.payload.len() - 4]),
                    Inbound::Data { peer, seq, parcel } => {
                        // Always ack, even duplicates: the dup means the
                        // sender missed (or has yet to see) an earlier
                        // ack. The next tick sends the batch.
                        st.pending_acks.entry(peer).or_default().push(seq);
                        if st.recv.entry(peer).or_default().record(seq) {
                            out.push(parcel);
                            fresh += 1;
                        } else {
                            dups += 1;
                        }
                    }
                    Inbound::Pass(p) => out.push(p),
                }
            }
        }
        if dups > 0 {
            self.dup_drops.fetch_add(dups, Ordering::Relaxed);
        }
        if !out.is_empty() {
            // Forward before counting so an idle check can't observe
            // "delivered" with the parcels still outside the delivery
            // path.
            (self.owner)(PortEvent::Deliver(out));
        }
        if fresh > 0 {
            self.data_delivered.fetch_add(fresh, Ordering::Release);
        }
    }

    fn drop_peer_state(&self, peer: u32) {
        self.state.lock().forget(peer);
    }

    /// One maintenance pass: flush batched acks, retransmit parcels whose
    /// peer has made no ack progress for a timeout, declare peers dead
    /// after `max_retransmits`.
    fn tick(&self) {
        let Ok(inner) = self.inner() else { return };
        let now = Instant::now();
        let mut acks: Vec<(u32, Vec<u64>)> = Vec::new();
        let mut resend: Vec<Parcel> = Vec::new();
        let mut lost: Vec<u32> = Vec::new();
        {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            for (peer, seqs) in st.pending_acks.drain() {
                if !seqs.is_empty() {
                    acks.push((peer, seqs));
                }
            }
            let rto = self.cfg.retransmit_timeout;
            let max = self.cfg.max_retransmits;
            let mut give_up: Vec<u32> = Vec::new();
            for (peer, carriers) in st.unacked.iter_mut() {
                let frontier = st.frontier.get(peer);
                // While the frontier advanced less than `rto` ago, every
                // carrier past it restarted its clock then (`rto_start`
                // ≥ `f.at`), so only seqs up to the frontier can be due.
                let window = match frontier {
                    Some(f) if now.duration_since(f.at) < rto => carriers.range_mut(..=f.seq),
                    _ => carriers.range_mut(..),
                };
                for (seq, entry) in window {
                    let start = rto_start(frontier, *seq, entry.sent_at);
                    if now.duration_since(start) >= rto {
                        if entry.attempts >= max {
                            give_up.push(*peer);
                        } else {
                            entry.attempts += 1;
                            entry.sent_at = now;
                            resend.push(entry.parcel.clone());
                        }
                    }
                }
            }
            for peer in give_up {
                if st.forget(peer) {
                    lost.push(peer);
                }
            }
        }
        for (peer, seqs) in acks {
            let mut payload = Vec::with_capacity(seqs.len() * 8 + 4);
            for s in &seqs {
                payload.extend_from_slice(&s.to_le_bytes());
            }
            payload.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
            let ack = Parcel {
                source: self.local,
                dest_locality: peer,
                dest: crate::agas::Gid { origin: peer, lid: 0 },
                action: RELIABLE_ACK,
                payload: Bytes::from(payload),
                response_token: None,
            };
            if inner.send(ack).is_ok() {
                self.acks_sent.fetch_add(1, Ordering::Relaxed);
            }
        }
        for parcel in resend {
            self.retransmits.fetch_add(1, Ordering::Relaxed);
            let _ = inner.send(parcel);
        }
        for peer in lost {
            eprintln!(
                "parallex: locality {} unreachable after {} retransmits; declaring lost",
                peer, self.cfg.max_retransmits
            );
            (self.owner)(PortEvent::PeerLost(peer));
        }
    }
}

impl Parcelport for ReliableParcelport {
    fn name(&self) -> &'static str {
        "reliable"
    }

    fn send(&self, parcel: Parcel) -> Result<()> {
        let inner = self.inner()?;
        if self.cfg.bypass_actions.contains(&parcel.action) {
            return inner.send(parcel);
        }
        let peer = parcel.dest_locality;
        let wrapped = {
            let mut st = self.state.lock();
            if st.dead_peers.contains(&peer) {
                return Err(Error::PeerLost(peer));
            }
            let seq_ref = st.next_seq.entry(peer).or_insert(0);
            let seq = *seq_ref;
            *seq_ref += 1;
            let wrapped = self.wrap(&parcel, seq);
            st.unacked.entry(peer).or_default().insert(
                seq,
                Unacked { parcel: wrapped.clone(), sent_at: Instant::now(), attempts: 0 },
            );
            wrapped
        };
        self.data_sent.fetch_add(1, Ordering::Release);
        match inner.send(wrapped) {
            Ok(()) => Ok(()),
            Err(e) => {
                // The first transmission never left; the retransmit
                // thread would only hammer a dead queue.
                self.drop_peer_state(peer);
                self.data_sent.fetch_sub(1, Ordering::Release);
                Err(e)
            }
        }
    }

    fn pending(&self) -> usize {
        self.inner.read().as_ref().map_or(0, |p| p.pending())
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.read().as_ref().map_or(0, |p| p.bytes_sent())
    }

    fn writes(&self) -> u64 {
        self.inner.read().as_ref().map_or(0, |p| p.writes())
    }

    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.notify_all();
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
        if let Some(inner) = self.inner.read().clone() {
            inner.shutdown();
        }
    }
}

impl Drop for ReliableParcelport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.notify_all();
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agas::Gid;

    fn parcel(src: u32, dst: u32, action: ActionId, payload: &[u8], token: Option<u64>) -> Parcel {
        Parcel {
            source: src,
            dest_locality: dst,
            dest: Gid { origin: dst, lid: 9 },
            action,
            payload: Bytes::from(payload.to_vec()),
            response_token: token,
        }
    }

    /// Loopback inner port: every send lands in the same layer's
    /// inbound sink (peer == self), good enough for wrap/dedup tests.
    struct Loopback {
        sink: Mutex<Option<PortSink>>,
    }

    impl Parcelport for Loopback {
        fn name(&self) -> &'static str {
            "loopback"
        }
        fn send(&self, parcel: Parcel) -> Result<()> {
            let sink = self.sink.lock().clone().unwrap();
            sink(PortEvent::Deliver(vec![parcel]));
            Ok(())
        }
        fn pending(&self) -> usize {
            0
        }
        fn bytes_sent(&self) -> u64 {
            0
        }
        fn writes(&self) -> u64 {
            0
        }
        fn shutdown(&self) {}
    }

    fn rig(cfg: ReliableConfig) -> (Arc<ReliableParcelport>, Arc<Mutex<Vec<Parcel>>>) {
        let seen: Arc<Mutex<Vec<Parcel>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let owner: PortSink = Arc::new(move |ev| {
            if let PortEvent::Deliver(batch) = ev {
                seen2.lock().extend(batch);
            }
        });
        let rel = ReliableParcelport::new(0, cfg, owner);
        let loopback = Arc::new(Loopback { sink: Mutex::new(Some(rel.inbound_sink())) });
        rel.attach_inner(loopback);
        (rel, seen)
    }

    #[test]
    fn wrap_unwrap_roundtrips_token_and_payload() {
        let (rel, _) = rig(ReliableConfig::default());
        for token in [None, Some(0u64), Some(77)] {
            let p = parcel(0, 0, 0x42, b"data bytes", token);
            let w = rel.wrap(&p, 5);
            assert_eq!(w.action, RELIABLE_DATA);
            let (seq, back) = ReliableParcelport::unwrap_carrier(&w).unwrap();
            assert_eq!(seq, 5);
            assert_eq!(back.action, p.action);
            assert_eq!(back.payload, p.payload);
            assert_eq!(back.response_token, p.response_token);
        }
        rel.shutdown();
    }

    #[test]
    fn corrupted_wrapped_payload_is_rejected() {
        let (rel, _) = rig(ReliableConfig::default());
        let p = parcel(0, 0, 0x42, b"data bytes", None);
        let w = rel.wrap(&p, 1);
        let mut bytes = w.payload.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        let mut corrupted = w;
        corrupted.payload = Bytes::from(bytes);
        assert!(matches!(ReliableParcelport::unwrap_carrier(&corrupted), Err(true)));
        rel.shutdown();
    }

    #[test]
    fn duplicates_are_dropped_and_delivery_is_exactly_once() {
        let (rel, seen) = rig(ReliableConfig::default());
        let p = parcel(0, 0, 0x42, b"one", None);
        let w = rel.wrap(&p, 0);
        let sink = rel.inbound_sink();
        sink(PortEvent::Deliver(vec![w.clone()]));
        sink(PortEvent::Deliver(vec![w.clone()]));
        sink(PortEvent::Deliver(vec![w]));
        assert_eq!(seen.lock().len(), 1, "exactly-once handoff");
        assert_eq!(rel.dup_drops(), 2);
        assert_eq!(rel.data_delivered(), 1);
        rel.shutdown();
    }

    #[test]
    fn batch_forwards_only_fresh_carriers_in_order() {
        let (rel, seen) = rig(ReliableConfig::default());
        let carrier = |seq: u64, tag: u8| rel.wrap(&parcel(0, 0, 0x42, &[tag], None), seq);
        let sink = rel.inbound_sink();
        sink(PortEvent::Deliver(vec![carrier(0, 0)]));
        let mut corrupt = carrier(3, 0xc);
        let mut bytes = corrupt.payload.to_vec();
        *bytes.last_mut().unwrap() ^= 0x10;
        corrupt.payload = Bytes::from(bytes);
        // One event in: fresh 1, dup 0, corrupt 3, fresh 2, dup 1, fresh 4.
        sink(PortEvent::Deliver(vec![
            carrier(1, 1),
            carrier(0, 0),
            corrupt,
            carrier(2, 2),
            carrier(1, 1),
            carrier(4, 4),
        ]));
        let tags: Vec<u8> = seen.lock().iter().map(|p| p.payload[0]).collect();
        assert_eq!(tags, vec![0, 1, 2, 4], "fresh parcels only, in wire order");
        assert_eq!(rel.data_delivered(), 4);
        assert_eq!(rel.dup_drops(), 2);
        assert_eq!(rel.corrupt_drops(), 1);
        rel.shutdown();
    }

    #[test]
    fn recv_window_floor_advances_and_stays_bounded() {
        let mut w = RecvWindow::default();
        for seq in [1u64, 0, 2, 4, 3] {
            assert!(w.record(seq));
        }
        assert_eq!(w.floor, 5);
        assert!(w.above.is_empty(), "contiguous prefix collapses into the floor");
        assert!(!w.record(2), "below-floor is a duplicate");
    }

    #[test]
    fn loopback_send_acks_and_clears_unacked() {
        let (rel, seen) = rig(ReliableConfig {
            ack_flush: Duration::from_micros(200),
            ..ReliableConfig::default()
        });
        for i in 0..10u8 {
            rel.send(parcel(0, 0, 0x42, &[i], None)).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while (rel.unacked() > 0 || seen.lock().len() < 10) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(seen.lock().len(), 10);
        assert_eq!(rel.unacked(), 0, "acks cleared the retransmit buffer");
        assert_eq!(rel.data_sent(), 10);
        assert_eq!(rel.data_delivered(), 10);
        assert!(rel.acks_sent() >= 1);
        rel.shutdown();
    }

    #[test]
    fn ack_progress_restarts_the_clock_only_past_the_frontier() {
        let t0 = Instant::now();
        let later = t0 + Duration::from_millis(40);
        let f = AckFrontier { seq: 10, at: later };
        assert_eq!(rto_start(None, 3, t0), t0, "no acks yet: own send time");
        assert_eq!(rto_start(Some(&f), 11, t0), later, "still queued behind acked data");
        assert_eq!(rto_start(Some(&f), 7, t0), t0, "a hole below the frontier was lost");
        let resent = t0 + Duration::from_millis(90);
        assert_eq!(rto_start(Some(&f), 12, resent), resent, "a resend restarts it too");
    }

    /// Inner port that records every send and delivers nothing.
    #[derive(Default)]
    struct Recorder {
        sent: Mutex<Vec<Parcel>>,
    }

    impl Parcelport for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn send(&self, parcel: Parcel) -> Result<()> {
            self.sent.lock().push(parcel);
            Ok(())
        }
        fn pending(&self) -> usize {
            0
        }
        fn bytes_sent(&self) -> u64 {
            0
        }
        fn writes(&self) -> u64 {
            0
        }
        fn shutdown(&self) {}
    }

    fn ack_from(peer: u32, seqs: &[u64]) -> PortEvent {
        let mut payload: Vec<u8> = seqs.iter().flat_map(|s| s.to_le_bytes()).collect();
        payload.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
        PortEvent::Deliver(vec![parcel(peer, 0, RELIABLE_ACK, &payload, None)])
    }

    #[test]
    fn hole_below_the_ack_frontier_is_retransmitted() {
        let rel = ReliableParcelport::new(
            0,
            ReliableConfig { retransmit_timeout: Duration::from_millis(20), ..ReliableConfig::default() },
            Arc::new(|_| {}),
        );
        let wire = Arc::new(Recorder::default());
        rel.attach_inner(wire.clone());
        for i in 0..3u8 {
            rel.send(parcel(0, 1, 0x42, &[i], None)).unwrap();
        }
        rel.inbound_sink()(ack_from(1, &[0, 2]));
        assert_eq!(rel.unacked(), 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while rel.retransmits() == 0 {
            assert!(Instant::now() < deadline, "the hole was never retransmitted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let resent = wire.sent.lock()[3].clone();
        let (seq, _) = ReliableParcelport::unwrap_carrier(&resent).unwrap();
        assert_eq!(seq, 1, "only the unacked carrier is resent");
        rel.shutdown();
    }

    #[test]
    fn carrier_past_a_stalled_frontier_is_retransmitted() {
        // Seq 0 is acked, then the peer goes quiet: once its frontier has
        // not moved for `retransmit_timeout`, the carriers past it are due
        // too and the tick must scan them.
        let rel = ReliableParcelport::new(
            0,
            ReliableConfig { retransmit_timeout: Duration::from_millis(20), ..ReliableConfig::default() },
            Arc::new(|_| {}),
        );
        let wire = Arc::new(Recorder::default());
        rel.attach_inner(wire.clone());
        for i in 0..3u8 {
            rel.send(parcel(0, 1, 0x42, &[i], None)).unwrap();
        }
        rel.inbound_sink()(ack_from(1, &[0]));
        assert_eq!(rel.unacked(), 2);
        let deadline = Instant::now() + Duration::from_secs(5);
        while rel.retransmits() < 2 {
            assert!(Instant::now() < deadline, "carriers past the frontier were never resent");
            std::thread::sleep(Duration::from_millis(1));
        }
        let resent: BTreeSet<u64> = wire.sent.lock()[3..5]
            .iter()
            .map(|c| ReliableParcelport::unwrap_carrier(c).unwrap().0)
            .collect();
        assert_eq!(resent, BTreeSet::from([1, 2]));
        rel.shutdown();
    }

    #[test]
    fn bypass_actions_skip_sequencing() {
        let (rel, seen) = rig(ReliableConfig {
            bypass_actions: vec![0x99],
            ..ReliableConfig::default()
        });
        rel.send(parcel(0, 0, 0x99, b"hb", None)).unwrap();
        assert_eq!(rel.data_sent(), 0);
        assert_eq!(seen.lock().len(), 1, "bypass traffic is forwarded untouched");
        assert_eq!(seen.lock()[0].action, 0x99);
        rel.shutdown();
    }
}
