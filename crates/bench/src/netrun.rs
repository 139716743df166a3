//! Multi-process distributed heat1d over real TCP parcelports
//! (`repro heat1d-net`), with an optional chaos mode
//! (`repro heat1d-net --chaos [spec]`).
//!
//! The parent binds a rendezvous listener, spawns one worker *process*
//! per rank (re-invoking the `repro` binary with the hidden
//! `heat1d-net-worker` argv), and plays address book: each worker binds
//! its own [`TcpParcelport`], reports `HELLO <rank> <addr>`, and receives
//! the full `PEERS` list back. Workers then connect to their stencil
//! neighbours and run the block-partitioned 1D heat equation, every halo
//! crossing a real loopback socket as a framed parcel. The parent
//! reassembles the field, checks it against the in-process [`Cluster`]
//! solver on the same parameters, and appends a loopback coalescing
//! benchmark (same parcel stream with coalescing on vs off) for
//! `BENCH_net.json`.
//!
//! In chaos mode each worker stacks the resilience chain on the raw
//! transport — TCP at the bottom, a seeded [`FaultyParcelport`] in the
//! middle, [`ReliableParcelport`] on top — and wraps each step's compute
//! in [`replay_sync`] with [`FaultPlan::panic_steps`]-scheduled task
//! panics. Despite injected drops, duplicates, delays, bit-corruption
//! and panics, the reassembled field must be **bitwise identical** to
//! the fault-free in-process solve; `BENCH_resilience.json` additionally
//! records the fault-free overhead of the reliable layer on the
//! coalescing benchmark.

use parallex::agas::Gid;
use parallex::locality::Cluster;
use parallex::parcel::tcp::{TcpConfig, TcpParcelport};
use parallex::parcel::{serialize, Parcel, Parcelport, PortEvent, PortSink};
use parallex::resilience::{
    replay_sync, ChaosSpec, FaultPlan, FaultyParcelport, ReliableConfig, ReliableParcelport,
};
use parallex_stencil::heat1d::{install, Heat1dParams, Heat1dSolver, Side, HALO_PUSH};
use parallex_stencil::verify::max_abs_diff;
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Experiment parameters shared by the parent and the in-process
/// reference run.
const RANKS: u32 = 3;
const POINTS: usize = 96;
const STEPS: u64 = 40;
const R: f64 = 0.25;

/// Initial temperature field; both the workers and the reference solver
/// must call this exact function.
fn net_init(i: usize) -> f64 {
    if (20..30).contains(&i) {
        1.0
    } else {
        0.0
    }
}

/// What `heat1d_net` hands back to the `repro` sink.
pub struct NetRunReport {
    /// Human-readable experiment summary.
    pub summary: String,
    /// Machine-readable `BENCH_net.json` body.
    pub bench_json: String,
    /// Machine-readable `BENCH_resilience.json` body (chaos mode only).
    pub resilience_json: Option<String>,
}

// ---------------------------------------------------------------------------
// worker side
// ---------------------------------------------------------------------------

/// Per-rank wire and fault statistics a worker reports in its `RESULT`
/// header (all zero on the raw transport).
#[derive(Clone, Copy, Default)]
struct WorkerStats {
    parcels: u64,
    writes: u64,
    bytes: u64,
    retransmits: u64,
    dup_drops: u64,
    corrupt_drops: u64,
    inj_drops: u64,
    inj_dups: u64,
    inj_delays: u64,
    inj_corrupts: u64,
    task_panics: u64,
}

impl WorkerStats {
    fn add(&mut self, o: &WorkerStats) {
        self.parcels += o.parcels;
        self.writes += o.writes;
        self.bytes += o.bytes;
        self.retransmits += o.retransmits;
        self.dup_drops += o.dup_drops;
        self.corrupt_drops += o.corrupt_drops;
        self.inj_drops += o.inj_drops;
        self.inj_dups += o.inj_dups;
        self.inj_delays += o.inj_delays;
        self.inj_corrupts += o.inj_corrupts;
        self.task_panics += o.task_panics;
    }
}

/// Entry point of a worker process (hidden `heat1d-net-worker` argv of
/// the `repro` binary). `args` is
/// `[rank, ranks, points, steps, r, addr, chaos]` where `chaos` is a
/// [`ChaosSpec`] string or `-` for the raw transport (and may be omitted
/// entirely for backwards compatibility).
///
/// # Panics
/// Panics on malformed arguments or any rendezvous/transport failure —
/// the parent surfaces the non-zero exit status.
pub fn run_worker(args: &[String]) {
    assert!(
        args.len() == 6 || args.len() == 7,
        "worker args: rank ranks points steps r rendezvous_addr [chaos]"
    );
    let rank: u32 = args[0].parse().expect("rank");
    let ranks: u32 = args[1].parse().expect("ranks");
    let points: usize = args[2].parse().expect("points");
    let steps: u64 = args[3].parse().expect("steps");
    let r: f64 = args[4].parse().expect("r");
    let rendezvous: SocketAddr = args[5].parse().expect("rendezvous addr");
    let chaos: Option<ChaosSpec> = match args.get(6).map(String::as_str) {
        None | Some("-") => None,
        Some(s) => Some(ChaosSpec::parse(s).expect("chaos spec")),
    };

    let mut ctrl = TcpStream::connect(rendezvous).expect("connect to rendezvous");
    let (tx, rx) = mpsc::channel::<PortEvent>();
    let sink: PortSink = Arc::new(move |ev| {
        let _ = tx.send(ev);
    });

    // Transport: raw TCP, or — in chaos mode — the resilience chain
    // TCP → FaultyParcelport → ReliableParcelport (the same stack
    // `Cluster::attach_tcp_resilient` wires in-process).
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    type WorkerPorts = (
        Arc<dyn Parcelport>,
        Arc<TcpParcelport>,
        Option<Arc<ReliableParcelport>>,
        Option<Arc<FaultyParcelport>>,
    );
    let (send_port, tcp, rel, faulty): WorkerPorts = match &chaos {
        None => {
            let tcp = TcpParcelport::bind(rank, loopback, sink, TcpConfig::default())
                .expect("bind worker parcelport");
            (tcp.clone(), tcp, None, None)
        }
        Some(spec) => {
            let rel = ReliableParcelport::new(rank, ReliableConfig::default(), sink);
            let tcp =
                TcpParcelport::bind(rank, loopback, rel.inbound_sink(), TcpConfig::default())
                    .expect("bind worker parcelport");
            let plan = Arc::new(FaultPlan::for_stream(spec.clone(), rank as u64));
            let faulty = FaultyParcelport::new(tcp.clone(), plan, Some(rel.inbound_sink()));
            rel.attach_inner(faulty.clone());
            (rel.clone(), tcp, Some(rel), Some(faulty))
        }
    };
    // Injected task panics: deterministic step indices from the seed.
    let panic_steps: BTreeSet<u64> = chaos
        .as_ref()
        .map(|spec| FaultPlan::for_stream(spec.clone(), rank as u64).panic_steps(steps))
        .unwrap_or_default();

    writeln!(ctrl, "HELLO {rank} {}", tcp.local_addr()).expect("send hello");
    let mut lines = BufReader::new(ctrl.try_clone().expect("clone rendezvous stream"));
    let mut line = String::new();
    lines.read_line(&mut line).expect("read peer list");
    let mut toks = line.split_whitespace();
    assert_eq!(toks.next(), Some("PEERS"), "unexpected rendezvous reply: {line:?}");
    let addrs: Vec<SocketAddr> =
        toks.map(|t| t.parse().expect("peer addr")).collect();
    assert_eq!(addrs.len(), ranks as usize, "peer list covers every rank");

    // Stencil neighbours are the only peers this rank ever talks to.
    if rank > 0 {
        tcp.connect_peer(rank - 1, addrs[rank as usize - 1]).expect("connect left");
    }
    if rank + 1 < ranks {
        tcp.connect_peer(rank + 1, addrs[rank as usize + 1]).expect("connect right");
    }

    let range = parallex::topology::block_ranges(points, ranks as usize)[rank as usize].clone();
    let t0 = Instant::now();
    let (field, task_panics) =
        step_partition(&*send_port, &rx, rank, ranks, range, steps, r, &panic_steps);
    let elapsed_us = t0.elapsed().as_micros() as u64;

    // Under chaos, the final halos shipped to the neighbours may still be
    // unacknowledged (or dropped, awaiting retransmit). Drain before
    // reporting: a neighbour that has not yet received them is still
    // stepping and therefore still alive to ack them.
    if let Some(rel) = &rel {
        let deadline = Instant::now() + Duration::from_secs(30);
        while rel.unacked() > 0 || send_port.pending() > 0 {
            assert!(Instant::now() < deadline, "rank {rank}: unacked halos failed to drain");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let stats = WorkerStats {
        parcels: tcp.parcels_sent(),
        writes: tcp.writes(),
        bytes: tcp.bytes_sent(),
        retransmits: rel.as_ref().map_or(0, |p| p.retransmits()),
        dup_drops: rel.as_ref().map_or(0, |p| p.dup_drops()),
        corrupt_drops: rel.as_ref().map_or(0, |p| p.corrupt_drops()),
        inj_drops: faulty.as_ref().map_or(0, |p| p.injected_drops()),
        inj_dups: faulty.as_ref().map_or(0, |p| p.injected_dups()),
        inj_delays: faulty.as_ref().map_or(0, |p| p.injected_delays()),
        inj_corrupts: faulty.as_ref().map_or(0, |p| p.injected_corrupts()),
        task_panics,
    };
    // RESULT header, then the block as raw little-endian f64s.
    writeln!(
        ctrl,
        "RESULT {rank} {} {elapsed_us} {} {} {} {} {} {} {} {} {} {} {}",
        field.len(),
        stats.parcels,
        stats.writes,
        stats.bytes,
        stats.retransmits,
        stats.dup_drops,
        stats.corrupt_drops,
        stats.inj_drops,
        stats.inj_dups,
        stats.inj_delays,
        stats.inj_corrupts,
        stats.task_panics,
    )
    .expect("send result header");
    let mut raw = Vec::with_capacity(field.len() * 8);
    for v in &field {
        raw.extend_from_slice(&v.to_le_bytes());
    }
    ctrl.write_all(&raw).expect("send result payload");
    ctrl.flush().expect("flush result");

    // Hold the transport open until every rank has reported: a peer may
    // still need our acks (or retransmits) for its own drain.
    line.clear();
    lines.read_line(&mut line).expect("read shutdown barrier");
    assert_eq!(line.trim(), "BYE", "unexpected shutdown barrier: {line:?}");
    send_port.shutdown();
}

/// The worker's serial time-stepping loop: identical arithmetic, in
/// identical order, to the serial path of the in-process solver — so the
/// assembled field must match it bitwise. Halos go out through `port`
/// and come back through `rx`. Steps listed in `panic_steps` panic on
/// their first compute attempt and are healed by [`replay_sync`];
/// returns `(field, panics_injected)`.
#[allow(clippy::too_many_arguments)]
fn step_partition(
    port: &dyn Parcelport,
    rx: &mpsc::Receiver<PortEvent>,
    rank: u32,
    ranks: u32,
    range: std::ops::Range<usize>,
    steps: u64,
    r: f64,
    panic_steps: &BTreeSet<u64>,
) -> (Vec<f64>, u64) {
    let n = range.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let send_halo = |dest: u32, side: Side, step: u64, value: f64| {
        let payload = serialize::to_bytes(&(side, step, value)).expect("serialize halo");
        port.send(Parcel {
            source: rank,
            dest_locality: dest,
            dest: Gid { origin: dest, lid: 0 },
            action: HALO_PUSH,
            payload: bytes::Bytes::from(payload),
            response_token: None,
        })
        .unwrap_or_else(|e| panic!("rank {rank}: halo to {dest} failed: {e}"));
    };

    // u[1..=n] are this block's cells; u[0] / u[n+1] are halo slots.
    let mut u: Vec<f64> = std::iter::once(0.0)
        .chain(range.map(net_init))
        .chain(std::iter::once(0.0))
        .collect();
    let mut next = vec![0.0f64; n + 2];
    let mut inbox: HashMap<(Side, u64), f64> = HashMap::new();
    let mut panics_injected = 0u64;

    for t in 0..steps {
        // (1) Ship boundary cells; they travel while we do the interior.
        if rank > 0 {
            send_halo(rank - 1, Side::Right, t, u[1]);
        }
        if rank + 1 < ranks {
            send_halo(rank + 1, Side::Left, t, u[n]);
        }
        // (2) Interior cells need no halo. The compute is pure in `u`,
        // so an injected panic mid-write leaves `next` repairable and a
        // replay recomputes the identical values.
        let mut attempt = 0u32;
        replay_sync(3, || {
            attempt += 1;
            if attempt == 1 && panic_steps.contains(&t) {
                panics_injected += 1;
                panic!("injected chaos panic at step {t}");
            }
            for x in 2..n {
                next[x] = u[x] + r * (u[x - 1] - 2.0 * u[x] + u[x + 1]);
            }
        })
        .unwrap_or_else(|e| panic!("rank {rank}: step {t} compute failed replay: {e}"));
        // (3) Resolve halos (fixed 0.0 boundary outside the domain ends)
        // and finish the edge cells.
        u[0] = if rank > 0 { recv_halo(rx, &mut inbox, rank, Side::Left, t) } else { 0.0 };
        u[n + 1] =
            if rank + 1 < ranks { recv_halo(rx, &mut inbox, rank, Side::Right, t) } else { 0.0 };
        next[1] = u[1] + r * (u[0] - 2.0 * u[1] + u[2]);
        if n > 1 {
            next[n] = u[n] + r * (u[n - 1] - 2.0 * u[n] + u[n + 1]);
        }
        std::mem::swap(&mut u, &mut next);
    }
    (u[1..=n].to_vec(), panics_injected)
}

/// Block until the halo for `(side, step)` is in hand, buffering any
/// halos that arrive early (a fast neighbour can run a step ahead).
fn recv_halo(
    rx: &mpsc::Receiver<PortEvent>,
    inbox: &mut HashMap<(Side, u64), f64>,
    rank: u32,
    side: Side,
    step: u64,
) -> f64 {
    loop {
        if let Some(v) = inbox.remove(&(side, step)) {
            return v;
        }
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(PortEvent::Deliver(batch)) => {
                for p in batch {
                    assert_eq!(p.action, HALO_PUSH, "only halos cross the wire here");
                    let (got_side, got_step, v): (Side, u64, f64) =
                        serialize::from_bytes(&p.payload).expect("decode halo payload");
                    inbox.insert((got_side, got_step), v);
                }
            }
            Ok(PortEvent::PeerLost(peer)) => {
                panic!("rank {rank}: lost peer {peer} while waiting for {side:?} step {step}")
            }
            Err(e) => panic!("rank {rank}: no halo for {side:?} step {step}: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// parent side
// ---------------------------------------------------------------------------

/// One completed distributed run: the reassembled field, cluster-wide
/// wire/fault totals, and the slowest rank's step-loop time.
struct DistRun {
    field: Vec<f64>,
    totals: WorkerStats,
    makespan_us: u64,
}

/// Spawn one worker process per rank with the given chaos argv (`-` =
/// raw transport), play rendezvous, and gather the results.
fn run_distributed(chaos_arg: &str) -> DistRun {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind rendezvous listener");
    let rendezvous = listener.local_addr().expect("rendezvous addr");
    let exe = std::env::current_exe().expect("own binary path");

    let mut children: Vec<std::process::Child> = (0..RANKS)
        .map(|rank| {
            std::process::Command::new(&exe)
                .arg("heat1d-net-worker")
                .arg(rank.to_string())
                .arg(RANKS.to_string())
                .arg(POINTS.to_string())
                .arg(STEPS.to_string())
                .arg(R.to_string())
                .arg(rendezvous.to_string())
                .arg(chaos_arg)
                .spawn()
                .expect("spawn worker process")
        })
        .collect();

    // Collect HELLOs (workers connect in arbitrary order).
    let mut conns: Vec<Option<(BufReader<TcpStream>, TcpStream)>> =
        (0..RANKS).map(|_| None).collect();
    let mut addrs: Vec<String> = vec![String::new(); RANKS as usize];
    for _ in 0..RANKS {
        let (stream, _) = listener.accept().expect("worker connects to rendezvous");
        let mut rd = BufReader::new(stream.try_clone().expect("clone worker stream"));
        let mut line = String::new();
        rd.read_line(&mut line).expect("read hello");
        let mut toks = line.split_whitespace();
        assert_eq!(toks.next(), Some("HELLO"), "unexpected worker greeting: {line:?}");
        let rank: usize = toks.next().expect("hello rank").parse().expect("hello rank");
        addrs[rank] = toks.next().expect("hello addr").to_string();
        assert!(conns[rank].is_none(), "rank {rank} said hello twice");
        conns[rank] = Some((rd, stream));
    }

    // Broadcast the address book; workers connect to neighbours and run.
    let peers_line = format!("PEERS {}\n", addrs.join(" "));
    for conn in conns.iter_mut().flatten() {
        conn.1.write_all(peers_line.as_bytes()).expect("send peer list");
    }

    // Gather per-rank results.
    let mut field = Vec::with_capacity(POINTS);
    let mut totals = WorkerStats::default();
    let mut makespan_us = 0u64;
    for (rank, conn) in conns.iter_mut().enumerate() {
        let (rd, _) = conn.as_mut().expect("every rank connected");
        let mut line = String::new();
        rd.read_line(&mut line).expect("read result header");
        let mut toks = line.split_whitespace();
        assert_eq!(toks.next(), Some("RESULT"), "unexpected worker result: {line:?}");
        let got_rank: usize = toks.next().expect("rank").parse().expect("rank");
        assert_eq!(got_rank, rank);
        let len: usize = toks.next().expect("len").parse().expect("len");
        let mut stat = || -> u64 { toks.next().expect("stat").parse().expect("stat") };
        makespan_us = makespan_us.max(stat());
        totals.add(&WorkerStats {
            parcels: stat(),
            writes: stat(),
            bytes: stat(),
            retransmits: stat(),
            dup_drops: stat(),
            corrupt_drops: stat(),
            inj_drops: stat(),
            inj_dups: stat(),
            inj_delays: stat(),
            inj_corrupts: stat(),
            task_panics: stat(),
        });
        let mut raw = vec![0u8; len * 8];
        rd.read_exact(&mut raw).expect("read result payload");
        for chunk in raw.chunks_exact(8) {
            field.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
    }
    // Shutdown barrier: only once every rank has drained and reported is
    // it safe for any of them to tear down its transport.
    for conn in conns.iter_mut().flatten() {
        conn.1.write_all(b"BYE\n").expect("send shutdown barrier");
    }
    for (rank, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("wait for worker");
        assert!(status.success(), "worker rank {rank} exited with {status}");
    }
    assert_eq!(field.len(), POINTS, "reassembled field covers the domain");
    DistRun { field, totals, makespan_us }
}

/// Run the multi-process experiment: spawn the workers, reassemble the
/// field, validate against the in-process cluster, then benchmark
/// coalescing on a loopback port pair. `chaos` is a [`ChaosSpec`] string
/// (`Some("")` selects [`ChaosSpec::pinned`]); in chaos mode the field
/// must be **bitwise identical** to the fault-free reference and the
/// report additionally carries `BENCH_resilience.json` with the
/// fault-free overhead of the reliable layer (solve makespan with the
/// resilient stack, zero fault probabilities, vs the raw transport).
///
/// # Panics
/// Panics if a worker fails, the rendezvous protocol is violated, or the
/// distributed field diverges from the in-process solver.
pub fn heat1d_net(chaos: Option<&str>) -> NetRunReport {
    let chaos_spec: Option<ChaosSpec> = chaos.map(|s| {
        if s.trim().is_empty() {
            ChaosSpec::pinned()
        } else {
            ChaosSpec::parse(s).expect("chaos spec")
        }
    });
    let chaos_arg = chaos_spec.as_ref().map_or_else(|| "-".to_string(), ChaosSpec::render);
    let DistRun { field, totals, makespan_us } = run_distributed(&chaos_arg);

    // In-process reference: the same solve on a shared-memory Cluster.
    let cluster = Cluster::new(RANKS as usize, 2);
    install(&cluster);
    let solver = Heat1dSolver::new(&cluster, Heat1dParams::new(POINTS, STEPS as usize, R));
    let want = solver.run(net_init);
    cluster.shutdown();
    let diff = max_abs_diff(&field, &want);
    assert!(
        diff < 1e-12,
        "multi-process field diverged from in-process cluster: max abs diff {diff:e}"
    );
    let bitwise = field.len() == want.len()
        && field.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
    if chaos_spec.is_some() {
        assert!(bitwise, "chaos run must be bitwise identical to the fault-free reference");
    }

    let coalesced = coalescing_run(TcpConfig::default());
    let uncoalesced = coalescing_run(TcpConfig::uncoalesced());

    let mut summary = format!(
        "== heat1d-net: {RANKS} OS processes over TCP loopback ==\n\
         domain {POINTS} points, {STEPS} steps, r = {R}\n\
         max abs diff vs in-process Cluster: {diff:e}\n\
         wire: {} parcels in {} writes ({} bytes)\n",
        totals.parcels, totals.writes, totals.bytes,
    );
    let mut resilience_json = None;
    if let Some(spec) = &chaos_spec {
        // Fault-free overhead of the reliable layer: the same
        // distributed solve through the resilient stack with every fault
        // probability zeroed, vs the raw transport. Best-of-3 makespans
        // damp process-scheduling noise; the cost left over is pure
        // sequence/ack/checksum machinery.
        let quiet = ChaosSpec { seed: spec.seed, ..ChaosSpec::default() };
        let quiet_arg = quiet.render();
        let raw_us =
            (0..3).map(|_| run_distributed("-").makespan_us).min().expect("3 raw runs");
        let quiet_us = (0..3)
            .map(|_| run_distributed(&quiet_arg).makespan_us)
            .min()
            .expect("3 quiet runs");
        let overhead_pct = 100.0 * (quiet_us as f64 - raw_us as f64) / (raw_us as f64).max(1.0);
        // Supplementary: the worst case for the layer — tiny parcels at
        // maximum rate through the coalescing stream.
        let reliable_stream = reliable_coalescing_run(TcpConfig::default());
        summary.push_str(&format!(
            "\n== chaos: {} ==\n\
             injected: {} drops, {} dups, {} delays, {} corrupts, {} task panics\n\
             recovered: {} retransmits, {} duplicate drops, {} corrupt drops\n\
             field bitwise identical to fault-free reference: {bitwise}\n\
             chaos solve makespan: {makespan_us} us\n\
             reliable layer fault-free overhead: {overhead_pct:.1}% \
             (solve makespan {quiet_us} us resilient vs {raw_us} us raw, best of 3)\n",
            spec.render(),
            totals.inj_drops,
            totals.inj_dups,
            totals.inj_delays,
            totals.inj_corrupts,
            totals.task_panics,
            totals.retransmits,
            totals.dup_drops,
            totals.corrupt_drops,
        ));
        resilience_json = Some(format!(
            "{{\n  \"experiment\": \"heat1d-net-chaos\",\n  \
             \"chaos\": \"{}\",\n  \"ranks\": {RANKS},\n  \"points\": {POINTS},\n  \
             \"steps\": {STEPS},\n  \"bitwise_identical\": {bitwise},\n  \
             \"faults_injected\": {{ \"drops\": {}, \"dups\": {}, \"delays\": {}, \
             \"corrupts\": {}, \"task_panics\": {} }},\n  \
             \"recovery\": {{ \"retransmits\": {}, \"dup_drops\": {}, \"corrupt_drops\": {} }},\n  \
             \"solve_makespan_us\": {{ \"chaos\": {makespan_us}, \"resilient_fault_free\": {quiet_us}, \
             \"raw\": {raw_us} }},\n  \
             \"fault_free_overhead_pct\": {overhead_pct:.2},\n  \
             \"reliable_coalescing_stream\": {{\n    \"raw\": {},\n    \"reliable\": {}\n  }}\n}}\n",
            spec.render(),
            totals.inj_drops,
            totals.inj_dups,
            totals.inj_delays,
            totals.inj_corrupts,
            totals.task_panics,
            totals.retransmits,
            totals.dup_drops,
            totals.corrupt_drops,
            coalesced.json(),
            reliable_stream.json(),
        ));
    }
    summary.push_str(&format!(
        "\n== parcel coalescing on a loopback port pair ==\n\
         {} parcels of {} payload bytes each\n\
         coalesced:   {:>6} writes ({:.3} writes/parcel), {:>9.0} parcels/s\n\
         uncoalesced: {:>6} writes ({:.3} writes/parcel), {:>9.0} parcels/s\n",
        COALESCE_PARCELS,
        COALESCE_PAYLOAD,
        coalesced.writes,
        coalesced.writes_per_parcel(),
        coalesced.parcels_per_sec(),
        uncoalesced.writes,
        uncoalesced.writes_per_parcel(),
        uncoalesced.parcels_per_sec(),
    ));
    let bench_json = format!(
        "{{\n  \"experiment\": \"heat1d-net\",\n  \"ranks\": {RANKS},\n  \"points\": {POINTS},\n  \
         \"steps\": {STEPS},\n  \"max_abs_diff\": {diff:e},\n  \
         \"wire\": {{ \"parcels\": {}, \"writes\": {}, \"bytes\": {} }},\n  \
         \"coalescing\": {{\n    \"parcels\": {COALESCE_PARCELS},\n    \"payload_bytes\": {COALESCE_PAYLOAD},\n    \
         \"coalesced\": {},\n    \"uncoalesced\": {}\n  }}\n}}\n",
        totals.parcels,
        totals.writes,
        totals.bytes,
        coalesced.json(),
        uncoalesced.json(),
    );
    NetRunReport { summary, bench_json, resilience_json }
}

// ---------------------------------------------------------------------------
// coalescing benchmark
// ---------------------------------------------------------------------------

const COALESCE_PARCELS: u64 = 4000;
const COALESCE_PAYLOAD: usize = 32;

struct CoalesceStats {
    writes: u64,
    bytes: u64,
    elapsed: Duration,
}

impl CoalesceStats {
    fn writes_per_parcel(&self) -> f64 {
        self.writes as f64 / COALESCE_PARCELS as f64
    }

    fn parcels_per_sec(&self) -> f64 {
        COALESCE_PARCELS as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            "{{ \"writes\": {}, \"bytes\": {}, \"elapsed_us\": {}, \
             \"writes_per_parcel\": {:.4}, \"parcels_per_sec\": {:.0} }}",
            self.writes,
            self.bytes,
            self.elapsed.as_micros(),
            self.writes_per_parcel(),
            self.parcels_per_sec(),
        )
    }
}

fn bench_parcel(payload: &bytes::Bytes) -> Parcel {
    Parcel {
        source: 0,
        dest_locality: 1,
        dest: Gid { origin: 1, lid: 0 },
        action: 7,
        payload: payload.clone(),
        response_token: None,
    }
}

fn await_count(received: &AtomicU64, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while received.load(Ordering::Relaxed) < want {
        assert!(Instant::now() < deadline, "bench parcels did not all arrive");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Push a stream of small parcels through a loopback port pair under
/// `cfg` and count the physical writes it took.
fn coalescing_run(cfg: TcpConfig) -> CoalesceStats {
    let received = Arc::new(AtomicU64::new(0));
    let received2 = received.clone();
    let sink_b: PortSink = Arc::new(move |ev| {
        if let PortEvent::Deliver(batch) = ev {
            received2.fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
    });
    let sink_a: PortSink = Arc::new(|_| {});
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let a = TcpParcelport::bind(0, loopback, sink_a, cfg.clone()).expect("bind sender port");
    let b = TcpParcelport::bind(1, loopback, sink_b, cfg).expect("bind receiver port");
    a.connect_peer(1, b.local_addr()).expect("connect loopback pair");

    let payload = bytes::Bytes::from(vec![0x5a_u8; COALESCE_PAYLOAD]);
    let t0 = Instant::now();
    for _ in 0..COALESCE_PARCELS {
        a.send(bench_parcel(&payload)).expect("bench send");
    }
    await_count(&received, COALESCE_PARCELS);
    let elapsed = t0.elapsed();
    let stats = CoalesceStats { writes: a.writes(), bytes: a.bytes_sent(), elapsed };
    a.shutdown();
    b.shutdown();
    stats
}

/// The same stream through the reliable layer (no chaos): what sequence
/// numbers, acks and the retransmit timer cost when nothing goes wrong.
fn reliable_coalescing_run(cfg: TcpConfig) -> CoalesceStats {
    let received = Arc::new(AtomicU64::new(0));
    let received2 = received.clone();
    let sink_b: PortSink = Arc::new(move |ev| {
        if let PortEvent::Deliver(batch) = ev {
            received2.fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
    });
    let sink_a: PortSink = Arc::new(|_| {});
    let rel_a = ReliableParcelport::new(0, ReliableConfig::default(), sink_a);
    let rel_b = ReliableParcelport::new(1, ReliableConfig::default(), sink_b);
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let a = TcpParcelport::bind(0, loopback, rel_a.inbound_sink(), cfg.clone())
        .expect("bind sender port");
    let b =
        TcpParcelport::bind(1, loopback, rel_b.inbound_sink(), cfg).expect("bind receiver port");
    a.connect_peer(1, b.local_addr()).expect("connect data path");
    b.connect_peer(0, a.local_addr()).expect("connect ack path");
    rel_a.attach_inner(a.clone());
    rel_b.attach_inner(b.clone());

    let payload = bytes::Bytes::from(vec![0x5a_u8; COALESCE_PAYLOAD]);
    let t0 = Instant::now();
    for _ in 0..COALESCE_PARCELS {
        rel_a.send(bench_parcel(&payload)).expect("bench send");
    }
    await_count(&received, COALESCE_PARCELS);
    let elapsed = t0.elapsed();
    let stats = CoalesceStats { writes: a.writes(), bytes: a.bytes_sent(), elapsed };
    rel_a.shutdown();
    rel_b.shutdown();
    stats
}
