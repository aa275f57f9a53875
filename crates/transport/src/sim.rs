//! The in-process simulated network stack.
//!
//! [`SimNetwork`] is a process-local "cluster interconnect": listeners bind
//! ports, connectors dial them, and each connection is a pair of channels
//! (the wire) carrying frames a block's burst at a time. What makes it a
//! *simulation of the paper's kernel stacks* — rather than a mere message
//! queue — is that the per-layer work of the two stack configurations is
//! **actually performed** on real memory, through the copy meter:
//!
//! * [`StackMode::Copying`] — the conventional path of Figure 1. Sending a
//!   block really copies it user→kernel ([`CopyLayer::SocketSend`]), really
//!   fragments it into MTU frames with a header-insertion copy
//!   ([`CopyLayer::KernelFrag`]); receiving really reassembles fragments
//!   into a kernel buffer ([`CopyLayer::KernelDefrag`]) and really copies
//!   kernel→user ([`CopyLayer::SocketRecv`]). Four full traversals of the
//!   payload, exactly the per-byte overhead the paper attacks — and no
//!   fifth: every one of those buffers is a pooled page run, so the stack
//!   touches the heap for nothing but a multi-frame burst's frame list.
//!
//! * [`StackMode::ZeroCopy`] — the speculative-defragmentation path \[10\].
//!   Payload pages cross the wire *by reference* (page-granular fragments
//!   of the sender's buffer). The receiver **speculates** that fragments
//!   landed in place; with probability `zc_success_prob` the speculation
//!   holds and the block is rejoined without touching a byte
//!   ([`zc_buffers::ZcBytes::join_contiguous`]). A miss falls back to the
//!   conventional copy ([`CopyLayer::DepositFallback`]) — the probabilistic
//!   fallback of the real driver.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zc_buffers::{CopyLayer, PooledBuf, ZcBytes, PAGE_SIZE};

use zc_trace::{EventKind, TraceLayer};

use crate::frame::{Frame, FramePayload, Lane, MTU_PAYLOAD};
use crate::stats::{ConnStats, StatsCell, TransportField};
use crate::{Acceptor, Connection, TResult, TransportCtx, TransportError};

/// Which kernel stack the simulated network runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackMode {
    /// Conventional stack: four metered copies per payload traversal.
    Copying,
    /// Zero-copy stack with speculative defragmentation.
    ZeroCopy,
}

/// Configuration of a simulated network.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Stack mode for every connection on this network.
    pub mode: StackMode,
    /// Payload bytes per frame in copying mode (standard Ethernet: 1460).
    pub mtu_payload: usize,
    /// Probability that a zero-copy receive speculation succeeds.
    pub zc_success_prob: f64,
    /// RNG seed for speculation outcomes (deterministic experiments).
    pub seed: u64,
}

impl SimConfig {
    /// Conventional copying stack at standard MTU.
    pub fn copying() -> SimConfig {
        SimConfig {
            mode: StackMode::Copying,
            mtu_payload: MTU_PAYLOAD,
            zc_success_prob: 1.0,
            // zc-audit: allow(wire-const) — deterministic RNG seed; "ZC" digits are branding, not a protocol id
            seed: 0x5A43_0001,
        }
    }

    /// Zero-copy stack with perfectly successful speculation (the
    /// homogeneous-cluster common case the paper optimizes for).
    pub fn zero_copy() -> SimConfig {
        SimConfig {
            mode: StackMode::ZeroCopy,
            mtu_payload: MTU_PAYLOAD,
            zc_success_prob: 1.0,
            // zc-audit: allow(wire-const) — deterministic RNG seed; "ZC" digits are branding, not a protocol id
            seed: 0x5A43_0002,
        }
    }

    /// Zero-copy stack with the given speculation success probability
    /// (ablation A3).
    pub fn zero_copy_with_speculation(p: f64) -> SimConfig {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        SimConfig {
            zc_success_prob: p,
            ..SimConfig::zero_copy()
        }
    }
}

/// Which endpoints of the network a [`FaultPlan`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultSide {
    /// Every endpoint, connecting or accepting.
    #[default]
    Both,
    /// Only endpoints created by [`SimNetwork::connect`] (client halves).
    Client,
    /// Only endpoints handed out by accept (server halves).
    Server,
}

/// A deterministic, seeded fault-injection plan.
///
/// Installed network-wide with [`SimNetwork::inject_faults`]; live
/// connections pick the new plan up at their next send or receive. Frame
/// indices (`cut_after_frames`, `corrupt_frame`, …) count *per connection*
/// from the moment that connection first sees the plan, so "cut after 0
/// frames" means "the very next frame this endpoint sends".
///
/// The deterministic single-frame faults (cut / corrupt / truncate /
/// delay) share a network-wide budget of [`FaultPlan::max_trips`] firings
/// per injected plan — so a plan that kills one connection does not also
/// kill the replacement connection a recovering client dials. The
/// probabilistic faults (`drop_prob`, `spec_miss_prob`) and
/// `refuse_connects` stay live until the plan is replaced.
///
/// A frame drop is modeled as the wire dying (the sender's channel closes
/// and the peer observes [`TransportError::Closed`] after draining): a
/// silently missing fragment would leave the peer blocked forever inside a
/// block, which is exactly what a real TCP connection turns into a reset
/// once retransmission gives up.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Which endpoints the plan applies to.
    pub side: FaultSide,
    /// Sever the wire once an endpoint has sent this many further frames.
    pub cut_after_frames: Option<u64>,
    /// Flip bits in the payload of the Nth frame sent.
    pub corrupt_frame: Option<u64>,
    /// Truncate the payload of the Nth frame sent (announced block length
    /// is left intact, so the receiver sees a short fragment stream).
    pub truncate_frame: Option<u64>,
    /// Hold the Nth frame and deliver it after its successor (reordering).
    pub delay_frame: Option<u64>,
    /// Probability that any sent frame kills the connection instead.
    pub drop_prob: f64,
    /// Probability that a zero-copy receive speculation is forced to miss.
    pub spec_miss_prob: f64,
    /// Refuse new [`SimNetwork::connect`] attempts.
    pub refuse_connects: bool,
    /// Budget for the deterministic single-frame faults above.
    pub max_trips: u32,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            side: FaultSide::Both,
            cut_after_frames: None,
            corrupt_frame: None,
            truncate_frame: None,
            delay_frame: None,
            drop_prob: 0.0,
            spec_miss_prob: 0.0,
            refuse_connects: false,
            max_trips: 1,
        }
    }
}

impl FaultPlan {
    /// Plan that severs the wire after `n` further frames.
    pub fn cut_after(n: u64) -> FaultPlan {
        FaultPlan {
            cut_after_frames: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Plan that forces every zero-copy receive speculation to miss with
    /// probability `p`.
    pub fn spec_miss(p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        FaultPlan {
            spec_miss_prob: p,
            ..FaultPlan::default()
        }
    }

    /// Plan that kills connections with per-frame probability `p`.
    pub fn drop(p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        FaultPlan {
            drop_prob: p,
            ..FaultPlan::default()
        }
    }

    /// Plan that refuses all new connection attempts.
    pub fn refuse() -> FaultPlan {
        FaultPlan {
            refuse_connects: true,
            ..FaultPlan::default()
        }
    }

    /// Restrict the plan to one side of the network.
    pub fn on(mut self, side: FaultSide) -> FaultPlan {
        self.side = side;
        self
    }

    fn applies_to(&self, is_client: bool) -> bool {
        match self.side {
            FaultSide::Both => true,
            FaultSide::Client => is_client,
            FaultSide::Server => !is_client,
        }
    }
}

/// Live fault state shared by every connection of one [`SimNetwork`].
#[derive(Default)]
struct FaultState {
    plan: Mutex<FaultPlan>,
    generation: AtomicU64,
    trips: AtomicU64,
}

type PendingConn = Box<SimConn>;

struct NetInner {
    listeners: Mutex<HashMap<u16, Sender<PendingConn>>>,
    next_port: AtomicU64,
    next_conn_id: AtomicU64,
    config: SimConfig,
    faults: Arc<FaultState>,
}

/// A process-local simulated network. Clone handles freely; all clones
/// address the same port space.
#[derive(Clone)]
pub struct SimNetwork {
    inner: Arc<NetInner>,
}

impl SimNetwork {
    /// Create a network running the given stack configuration.
    pub fn new(config: SimConfig) -> SimNetwork {
        SimNetwork {
            inner: Arc::new(NetInner {
                listeners: Mutex::new(HashMap::new()),
                next_port: AtomicU64::new(40_000),
                next_conn_id: AtomicU64::new(1),
                config,
                faults: Arc::new(FaultState::default()),
            }),
        }
    }

    /// The network's stack configuration.
    pub fn config(&self) -> SimConfig {
        self.inner.config
    }

    /// Install `plan` as the network's live fault plan. Takes effect for
    /// in-flight connections at their next send or receive; the
    /// deterministic single-frame faults get a fresh trip budget.
    pub fn inject_faults(&self, plan: FaultPlan) {
        let f = &self.inner.faults;
        *f.plan.lock() = plan;
        f.trips.store(0, Ordering::Release);
        f.generation.fetch_add(1, Ordering::Release);
    }

    /// Remove every injected fault (equivalent to injecting the default
    /// all-quiet plan).
    pub fn clear_faults(&self) {
        self.inject_faults(FaultPlan::default());
    }

    /// How many deterministic single-frame faults the current plan has
    /// fired so far.
    pub fn faults_tripped(&self) -> u64 {
        self.inner
            .faults
            .trips
            .load(Ordering::Acquire)
            .min(self.inner.faults.plan.lock().max_trips as u64)
    }

    /// Bind a listener. `port == 0` allocates an ephemeral port.
    pub fn listen(&self, port: u16, ctx: TransportCtx) -> TResult<SimListener> {
        let port = if port == 0 {
            self.inner.next_port.fetch_add(1, Ordering::Relaxed) as u16
        } else {
            port
        };
        let (tx, rx) = unbounded();
        {
            let mut map = self.inner.listeners.lock();
            if map.contains_key(&port) {
                // zc-audit: allow(control-plane) — endpoint name for the error
                return Err(TransportError::AddrInUse(format!("sim:{port}")));
            }
            map.insert(port, tx);
        }
        Ok(SimListener {
            // zc-audit: allow(cheap-clone) — SimNet is an Arc handle over shared state
            network: self.clone(),
            port,
            rx,
            ctx,
        })
    }

    /// Dial a listener on this network.
    pub fn connect(&self, port: u16, ctx: TransportCtx) -> TResult<Box<dyn Connection>> {
        {
            let plan = *self.inner.faults.plan.lock();
            if plan.refuse_connects && plan.applies_to(true) {
                // zc-audit: allow(control-plane) — endpoint name for the error
                return Err(TransportError::ConnectionRefused(format!(
                    "sim:{port} (injected fault: refusing connects)"
                )));
            }
        }
        let listener_tx = {
            let map = self.inner.listeners.lock();
            map.get(&port).cloned()
        }
        // zc-audit: allow(control-plane) — endpoint name for the error
        .ok_or_else(|| TransportError::ConnectionRefused(format!("sim:{port}")))?;

        let conn_id = self.inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let cfg = self.inner.config;
        // Two unidirectional burst channels form the full-duplex wire.
        let (c2s_tx, c2s_rx) = unbounded::<Burst>();
        let (s2c_tx, s2c_rx) = unbounded::<Burst>();

        let client = SimConn::new(
            // zc-audit: allow(control-plane) — peer name, built once per connection
            format!("sim:{port}#c{conn_id}"),
            cfg,
            ctx,
            c2s_tx,
            s2c_rx,
            conn_id * 2,
            true,
            Arc::clone(&self.inner.faults),
        );
        // Server side gets its context from the listener at accept time; a
        // placeholder ctx here would double-count, so the listener injects
        // its own ctx into the pending half.
        let server_half = PendingHalf {
            // zc-audit: allow(control-plane) — peer name, built once per connection
            peer: format!("sim:{port}#s{conn_id}"),
            cfg,
            tx: s2c_tx,
            rx: c2s_rx,
            seed_salt: conn_id * 2 + 1,
            faults: Arc::clone(&self.inner.faults),
        };
        listener_tx
            .send(Box::new(SimConn::from_half(
                server_half,
                TransportCtx::new(),
            )))
            // zc-audit: allow(control-plane) — endpoint name for the error
            .map_err(|_| TransportError::ConnectionRefused(format!("sim:{port}")))?;
        // NOTE: from_half above installs a throwaway ctx; the listener
        // replaces it in accept(). See SimListener::accept.
        Ok(Box::new(client))
    }

    fn unlisten(&self, port: u16) {
        self.inner.listeners.lock().remove(&port);
    }
}

impl std::fmt::Debug for SimNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimNetwork(mode: {:?}, listeners: {})",
            self.inner.config.mode,
            self.inner.listeners.lock().len()
        )
    }
}

struct PendingHalf {
    peer: String,
    cfg: SimConfig,
    tx: Sender<Burst>,
    rx: Receiver<Burst>,
    seed_salt: u64,
    faults: Arc<FaultState>,
}

/// A bound simulated listener.
pub struct SimListener {
    network: SimNetwork,
    port: u16,
    rx: Receiver<PendingConn>,
    ctx: TransportCtx,
}

impl Acceptor for SimListener {
    fn accept(&self) -> TResult<Box<dyn Connection>> {
        let mut conn = self.rx.recv().map_err(|_| TransportError::Closed)?;
        // Install the listener's context (meter + pool + telemetry) into
        // the accepted half so server-side copies land on the server's
        // meter.
        // zc-audit: allow(cheap-clone) — TransportCtx is a trio of Arc handles (meter + pool + telemetry)
        conn.ctx = self.ctx.clone();
        // The pending half was built with a throwaway ctx, so its stats
        // cell mirrors nothing; rebind it to the real telemetry. Nothing
        // has been counted yet (the handshake happens after accept).
        conn.rebind_telemetry();
        Ok(conn)
    }

    fn endpoint(&self) -> (String, u16) {
        ("sim".to_string(), self.port)
    }
}

impl Drop for SimListener {
    fn drop(&mut self) {
        self.network.unlisten(self.port);
    }
}

/// Hard cap on the announced length of one simulated block: a corrupt
/// total must error out, never size an allocation.
pub const MAX_SIM_BLOCK_BYTES: u64 = 1 << 30;

/// Re-validate a block's wire-announced length at the allocation site.
/// `recv_block_frames` checks the first fragment's total too, but every
/// allocation clamps locally so no refactor of the call path can let an
/// unchecked announcement size a buffer (wire-taint invariant).
fn checked_block_len(frames: &Burst) -> TResult<usize> {
    let total = frames.first().map_or(0, |f| f.total_len);
    if total > MAX_SIM_BLOCK_BYTES {
        // zc-audit: allow(control-plane) — protocol error diagnostic
        return Err(TransportError::Protocol(format!(
            "block announces {total} bytes, above the {MAX_SIM_BLOCK_BYTES} byte cap"
        )));
    }
    Ok(total as usize)
}

/// Bounds-check one fragment's deposit window (`offset .. offset + len`)
/// within a block of `total` bytes, erroring instead of panicking on a
/// hostile offset: overflow and overrun both become protocol errors.
fn checked_span(offset: u64, len: usize, total: usize) -> TResult<std::ops::Range<usize>> {
    usize::try_from(offset)
        .ok()
        .and_then(|off| off.checked_add(len).map(|end| off..end))
        .filter(|span| span.end <= total)
        .ok_or_else(|| {
            // zc-audit: allow(control-plane) — protocol error diagnostic
            TransportError::Protocol(format!(
                "fragment window {offset}+{len} outside its block of {total} bytes"
            ))
        })
}

/// What one `send_control`/`send_data` call puts on the wire: the frames
/// of its block, handed to the peer in one channel operation with at most
/// one wake-up — the driver taking a block's fragments per interrupt, not
/// per frame. A burst is a *delivery* unit only: faults, frame indices,
/// stamps and counters stay per frame, and a fault can split a block over
/// bursts (a cut delivers the prefix; a delayed frame rides the next one).
///
/// The first frame rides inline and only the others in a list, so the
/// one-frame burst of a small control message — every request and reply
/// header — crosses the wire without a heap allocation. The receiver keeps
/// a sound burst as its block's frame list, as it is.
#[derive(Default)]
struct Burst {
    first: Option<Frame>,
    rest: Vec<Frame>,
}

impl Burst {
    fn with_capacity(frames: usize) -> Burst {
        Burst {
            first: None,
            rest: Vec::with_capacity(frames.saturating_sub(1)),
        }
    }

    fn push(&mut self, frame: Frame) {
        match self.first {
            None => self.first = Some(frame),
            Some(_) => self.rest.push(frame),
        }
    }

    fn first(&self) -> Option<&Frame> {
        self.first.as_ref()
    }

    fn len(&self) -> usize {
        self.first.iter().len() + self.rest.len()
    }

    fn iter(&self) -> impl Iterator<Item = &Frame> + Clone {
        self.first.iter().chain(&self.rest)
    }

    fn into_frames(self) -> impl Iterator<Item = Frame> {
        self.first.into_iter().chain(self.rest)
    }

    fn wire_bytes(&self) -> u64 {
        self.iter().map(|f| f.wire_bytes() as u64).sum()
    }
}

/// One endpoint of a simulated connection.
pub struct SimConn {
    peer: String,
    cfg: SimConfig,
    ctx: TransportCtx,
    /// `None` once the outgoing wire was severed by a fault.
    tx: Option<Sender<Burst>>,
    rx: Receiver<Burst>,
    /// Frames that left the wire but that no block has claimed yet: the
    /// other lane's while waiting on one lane, or bursts a fault split.
    pending_control: VecDeque<Frame>,
    pending_data: VecDeque<Frame>,
    next_block_id: u64,
    rng: StdRng,
    stats: Arc<StatsCell>,
    recv_timeout: Option<std::time::Duration>,
    trace_conn: u64,
    is_client: bool,
    faults: Arc<FaultState>,
    active_plan: FaultPlan,
    fault_gen: u64,
    /// Frames sent since this endpoint picked up the current plan.
    frames_since_fault: u64,
    wire_cut: bool,
    /// A frame held back by `FaultPlan::delay_frame`, delivered after its
    /// successor.
    delayed: Option<Frame>,
    /// Separate RNG stream for fault draws so injecting faults never
    /// perturbs the speculation outcomes of `rng`.
    fault_rng: StdRng,
}

impl SimConn {
    #[allow(clippy::too_many_arguments)]
    fn new(
        peer: String,
        cfg: SimConfig,
        ctx: TransportCtx,
        tx: Sender<Burst>,
        rx: Receiver<Burst>,
        seed_salt: u64,
        is_client: bool,
        faults: Arc<FaultState>,
    ) -> SimConn {
        let stats = StatsCell::with_telemetry(ctx.conn_mirror());
        let fault_gen = faults.generation.load(Ordering::Acquire);
        let active_plan = *faults.plan.lock();
        SimConn {
            peer,
            cfg,
            ctx,
            tx: Some(tx),
            rx,
            pending_control: VecDeque::new(),
            pending_data: VecDeque::new(),
            next_block_id: 0,
            rng: StdRng::seed_from_u64(cfg.seed ^ seed_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            stats,
            recv_timeout: None,
            trace_conn: zc_trace::next_conn_id(),
            is_client,
            faults,
            active_plan,
            fault_gen,
            frames_since_fault: 0,
            wire_cut: false,
            delayed: None,
            fault_rng: StdRng::seed_from_u64(
                cfg.seed ^ seed_salt.rotate_left(17) ^ 0xFA17_FA17_FA17_FA17,
            ),
        }
    }

    fn from_half(h: PendingHalf, ctx: TransportCtx) -> SimConn {
        SimConn::new(h.peer, h.cfg, ctx, h.tx, h.rx, h.seed_salt, false, h.faults)
    }

    /// Pick up a newly injected plan; frame counting restarts with it.
    fn refresh_fault_plan(&mut self) {
        let gen = self.faults.generation.load(Ordering::Acquire);
        if gen != self.fault_gen {
            self.fault_gen = gen;
            self.active_plan = *self.faults.plan.lock();
            self.frames_since_fault = 0;
        }
    }

    /// Consume one shot of the plan's deterministic-fault budget.
    fn take_trip(&self) -> bool {
        let max = self.active_plan.max_trips as u64;
        self.faults.trips.fetch_add(1, Ordering::AcqRel) < max
    }

    /// Sever this endpoint's outgoing wire: the peer drains what was
    /// already delivered, then observes [`TransportError::Closed`].
    fn cut(&mut self) {
        self.wire_cut = true;
        self.tx = None;
        self.delayed = None;
    }

    /// Rebuild the stats cell against the (possibly replaced) context's
    /// telemetry. Only valid while all counters are still zero.
    fn rebind_telemetry(&mut self) {
        self.stats = StatsCell::with_telemetry(self.ctx.conn_mirror());
    }

    /// Send one block: its fragments, each `(offset, payload)`, every one
    /// run through the live fault plan, all handed over as one burst.
    fn send_block(
        &mut self,
        lane: Lane,
        total_len: usize,
        fragments: impl Iterator<Item = (usize, FramePayload)>,
    ) -> TResult<()> {
        if self.wire_cut {
            return Err(TransportError::Closed);
        }
        self.refresh_fault_plan();
        let block_id = self.next_block_id;
        self.next_block_id += 1;
        // Trace-clock stamp for the whole block; `0` (untraced) when
        // telemetry is disabled so the hot path never reads the clock.
        let sent_ns = if self.ctx.telemetry.is_enabled() {
            zc_trace::now_ns()
        } else {
            0
        };
        // Pre-sized (every caller's iterator knows its length): growing the
        // burst frame by frame costs more allocations than the per-frame
        // hand-off it replaces.
        let mut burst =
            Burst::with_capacity(fragments.size_hint().0 + usize::from(self.delayed.is_some()));
        for (offset, payload) in fragments {
            let frame = Frame {
                lane,
                block_id,
                offset: offset as u64,
                total_len: total_len as u64,
                sent_ns,
                payload,
            };
            self.stage_frame(frame, &mut burst)?;
        }
        self.put_on_wire(burst)
    }

    /// Run one frame through the live fault plan and stage it in `burst`.
    fn stage_frame(&mut self, mut frame: Frame, burst: &mut Burst) -> TResult<()> {
        let plan = self.active_plan;
        if plan.applies_to(self.is_client) {
            let n = self.frames_since_fault;
            self.frames_since_fault += 1;
            if (plan.cut_after_frames.is_some_and(|k| n >= k) && self.take_trip())
                || (plan.drop_prob > 0.0 && self.fault_rng.gen::<f64>() < plan.drop_prob)
            {
                // The frames before the cut made it onto the wire.
                let _ = self.put_on_wire(std::mem::take(burst));
                self.cut();
                return Err(TransportError::Closed);
            }
            if plan.corrupt_frame == Some(n) && self.take_trip() {
                Self::corrupt_payload(&mut frame);
            }
            if plan.truncate_frame == Some(n) && self.take_trip() {
                Self::truncate_payload(&mut frame);
            }
            if plan.delay_frame == Some(n) && self.take_trip() {
                self.delayed = Some(frame);
                return Ok(());
            }
        }
        burst.push(frame);
        if let Some(held) = self.delayed.take() {
            burst.push(held);
        }
        Ok(())
    }

    /// Hand a burst to the peer: one channel operation, one wake-up.
    fn put_on_wire(&mut self, burst: Burst) -> TResult<()> {
        if burst.first.is_none() {
            // Its only frame is being held back by `delay_frame`.
            return Ok(());
        }
        self.stats
            .add(TransportField::FramesSent, burst.len() as u64);
        self.stats
            .add(TransportField::WireBytesSent, burst.wire_bytes());
        match &self.tx {
            Some(tx) => tx.send(burst).map_err(|_| TransportError::Closed),
            None => Err(TransportError::Closed),
        }
    }

    /// Flip bits in the frame payload. The payload may reference the
    /// sender's live pages, so corruption first detaches the frame into a
    /// private buffer — the injector must never scribble on application
    /// memory.
    fn corrupt_payload(frame: &mut Frame) {
        // zc-audit: allow(copy) — fault injector detaches the frame before flipping bits; wire damage on the KernelFrag-sized fragment, not a data-path copy
        let mut bytes = frame.payload.as_slice().to_vec();
        if let Some(b) = bytes.first_mut() {
            *b ^= 0xFF;
        }
        for b in bytes.iter_mut().skip(1).step_by(97) {
            *b ^= 0xA5;
        }
        frame.payload = FramePayload::Copied(bytes);
    }

    /// Shorten the frame payload without touching the announced block
    /// length: downstream sees a fragment stream that can never complete.
    fn truncate_payload(frame: &mut Frame) {
        let len = frame.payload.len();
        if len == 0 {
            return;
        }
        let keep = len / 2;
        frame.payload = match &frame.payload {
            FramePayload::Referenced(z) => FramePayload::Referenced(z.slice(0..keep)),
            // zc-audit: allow(copy) — injected wire truncation rebuilds the shortened KernelFrag-sized fragment, fault path only
            FramePayload::Copied(v) => FramePayload::Copied(v[..keep].to_vec()),
        };
    }

    /// `write()`: gather `parts` across the user/kernel boundary into one
    /// buffer of the socket page pool.
    fn socket_send(&self, parts: &[&[u8]], total: usize) -> PooledBuf {
        let mut kernel_buf = self.ctx.pool.acquire(total.max(1));
        kernel_buf.set_len(total);
        let mut at = 0;
        for part in parts.iter().filter(|p| !p.is_empty()) {
            self.ctx.meter.copy(
                CopyLayer::SocketSend,
                &mut kernel_buf.as_mut_slice()[at..at + part.len()],
                part,
            );
            at += part.len();
        }
        kernel_buf
    }

    /// The conventional send path: user→kernel copy, then fragmentation
    /// with per-frame copies.
    fn send_bytes_copying(&mut self, lane: Lane, parts: &[&[u8]]) -> TResult<()> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let kernel_buf = self.socket_send(parts, total);
        if total == 0 {
            let empty = std::iter::once((0, FramePayload::Copied(Vec::new())));
            return self.send_block(lane, 0, empty);
        }
        // Driver fragmentation: header insertion forces a copy of every
        // fragment. One pass lays them out in a second pooled slab, and
        // each frame references its window of it.
        let mtu = self.cfg.mtu_payload;
        let mut slab = self.ctx.pool.acquire(total);
        slab.set_len(total);
        for (frag, src) in slab
            .as_mut_slice()
            .chunks_mut(mtu)
            .zip(kernel_buf.as_slice().chunks(mtu))
        {
            self.ctx.meter.copy(CopyLayer::KernelFrag, frag, src);
        }
        drop(kernel_buf);
        let slab = slab.freeze();
        let windows = (0..total).step_by(mtu).map(|at| {
            (
                at,
                FramePayload::Referenced(slab.slice(at..total.min(at + mtu))),
            )
        });
        self.send_block(lane, total, windows)
    }

    /// The zero-copy send path for data blocks: page-granular referenced
    /// fragments, no byte touched.
    fn send_block_zero_copy(&mut self, block: &ZcBytes) -> TResult<()> {
        if block.is_empty() {
            let empty = std::iter::once((0, FramePayload::Copied(Vec::new())));
            return self.send_block(Lane::Data, 0, empty);
        }
        let pages = block
            .chunks(PAGE_SIZE)
            .enumerate()
            .map(|(i, page)| (i * PAGE_SIZE, FramePayload::Referenced(page)));
        self.send_block(Lane::Data, block.len(), pages)
    }

    /// Take the next burst off the wire, blocking up to the receive
    /// timeout. Wire bytes are accounted as they leave the wire, whichever
    /// lane they belong to.
    fn recv_burst(&mut self) -> TResult<Burst> {
        let burst = match self.recv_timeout {
            None => self.rx.recv().map_err(|_| TransportError::Closed)?,
            Some(d) => self.rx.recv_timeout(d).map_err(|e| match e {
                crossbeam::channel::RecvTimeoutError::Timeout => TransportError::Timeout,
                crossbeam::channel::RecvTimeoutError::Disconnected => TransportError::Closed,
            })?,
        };
        self.stats
            .add(TransportField::WireBytesRecv, burst.wire_bytes());
        Ok(burst)
    }

    fn pending(&mut self, lane: Lane) -> &mut VecDeque<Frame> {
        match lane {
            Lane::Control => &mut self.pending_control,
            Lane::Data => &mut self.pending_data,
        }
    }

    /// Pull the next frame belonging to `lane`, parking frames of the
    /// other lane (control and data may interleave on the wire).
    fn next_frame(&mut self, lane: Lane) -> TResult<Frame> {
        loop {
            if let Some(f) = self.pending(lane).pop_front() {
                return Ok(f);
            }
            for f in self.recv_burst()?.into_frames() {
                self.pending(f.lane).push_back(f);
            }
        }
    }

    /// Collect all fragments of the next block on `lane`.
    fn recv_block_frames(&mut self, lane: Lane) -> TResult<Burst> {
        // The common case: nothing parked for the lane and the next burst
        // is exactly one sound block of it. It becomes the block's frame
        // list as it is.
        while self.pending(lane).is_empty() {
            let burst = self.recv_burst()?;
            if is_whole_block(&burst, lane) {
                return Ok(burst);
            }
            for f in burst.into_frames() {
                self.pending(f.lane).push_back(f);
            }
        }
        // Otherwise (the other lane's block came first, a fault split or
        // damaged a burst) assemble, and judge, frame by frame.
        let first = self.next_frame(lane)?;
        let block_id = first.block_id;
        let total = first.total_len;
        if total > MAX_SIM_BLOCK_BYTES {
            // zc-audit: allow(control-plane) — protocol error diagnostic
            return Err(TransportError::Protocol(format!(
                "block {block_id} announces {total} bytes, above the {MAX_SIM_BLOCK_BYTES} byte cap"
            )));
        }
        let mut got = first.payload.len() as u64;
        let mut frames = Burst::default();
        frames.push(first);
        while got < total {
            let f = self.next_frame(lane)?;
            if f.block_id != block_id {
                // zc-audit: allow(control-plane) — protocol error diagnostic
                return Err(TransportError::Protocol(format!(
                    "interleaved fragments: expected block {block_id}, got {}",
                    f.block_id
                )));
            }
            if f.payload.is_empty() {
                // Progress guarantee: a peer streaming empty continuation
                // fragments must not pin the receiver in this loop (and
                // grow `frames`) forever.
                // zc-audit: allow(control-plane) — protocol error diagnostic
                return Err(TransportError::Protocol(format!(
                    "zero-length continuation fragment in block {block_id}"
                )));
            }
            got = got.saturating_add(f.payload.len() as u64);
            frames.push(f);
        }
        if got != total {
            // zc-audit: allow(control-plane) — protocol error diagnostic
            return Err(TransportError::Protocol(format!(
                "fragment overrun: block {block_id} announced {total}, got {got}"
            )));
        }
        Ok(frames)
    }

    /// Copy a block's fragments, each to its offset, into one pooled
    /// buffer, metered at `layer`.
    fn copy_out(&self, frames: &Burst, layer: CopyLayer) -> TResult<PooledBuf> {
        let total = checked_block_len(frames)?;
        let mut buf = self.ctx.pool.acquire(total.max(1));
        buf.set_len(total);
        for f in frames.iter() {
            let payload = f.payload.as_slice();
            let span = checked_span(f.offset, payload.len(), total)?;
            self.ctx
                .meter
                .copy(layer, &mut buf.as_mut_slice()[span], payload);
        }
        Ok(buf)
    }

    /// The conventional receive path: defragment into a kernel buffer, then
    /// copy kernel→user.
    fn reassemble_copying(&mut self, frames: &Burst) -> TResult<ZcBytes> {
        let total = checked_block_len(frames)?;
        // Defragmentation: fragments are copied off the receive ring into a
        // contiguous kernel buffer.
        let kernel_buf = self.copy_out(frames, CopyLayer::KernelDefrag)?;
        // read(): kernel→user copy into an aligned application buffer.
        let mut user_buf = self.ctx.pool.acquire(total.max(1));
        user_buf.set_len(total);
        self.ctx.meter.copy(
            CopyLayer::SocketRecv,
            user_buf.as_mut_slice(),
            kernel_buf.as_slice(),
        );
        Ok(user_buf.freeze())
    }

    /// The zero-copy receive path: speculate that fragments landed in place.
    fn reassemble_zero_copy(&mut self, frames: &Burst) -> TResult<ZcBytes> {
        let total = checked_block_len(frames)?;
        if total == 0 {
            return Ok(ZcBytes::empty());
        }
        self.refresh_fault_plan();
        let plan = self.active_plan;
        // The speculation draw always happens (keeps `rng`'s stream, and
        // therefore every fault-free experiment, unchanged); an injected
        // miss only overrides a draw that would have succeeded.
        let mut speculation_ok = self.rng.gen::<f64>() < self.cfg.zc_success_prob;
        if speculation_ok
            && plan.spec_miss_prob > 0.0
            && plan.applies_to(self.is_client)
            && self.fault_rng.gen::<f64>() < plan.spec_miss_prob
        {
            speculation_ok = false;
        }
        if speculation_ok {
            let pages = || {
                frames.iter().filter_map(|f| match &f.payload {
                    FramePayload::Referenced(z) => Some(z),
                    FramePayload::Copied(_) => None,
                })
            };
            // A fragment the wire damaged was detached from the sender's
            // pages and cannot land in place. Nor can a block that does not
            // start on a page boundary: the speculative-defragmentation
            // hardware places payload at page granularity (paper [10];
            // ablation A2 exercises exactly this constraint).
            let referenced = pages().count() == frames.len();
            let aligned = pages().next().is_some_and(|p| p.is_page_aligned());
            if referenced && aligned {
                if let Some(joined) = ZcBytes::join_contiguous(pages()) {
                    self.stats.add(TransportField::SpecHits, 1);
                    self.ctx.telemetry.record(
                        TraceLayer::Transport,
                        EventKind::SpecHit,
                        self.trace_conn,
                        0,
                        total as u64,
                    );
                    return Ok(joined);
                }
            }
        }
        // Speculation miss: the driver falls back to copying the fragments
        // into a fresh page-aligned buffer.
        self.stats.add(TransportField::SpecMisses, 1);
        self.ctx.telemetry.record(
            TraceLayer::Transport,
            EventKind::SpecMiss,
            self.trace_conn,
            0,
            total as u64,
        );
        Ok(self.copy_out(frames, CopyLayer::DepositFallback)?.freeze())
    }
}

/// Whether `burst` is exactly one sound block of `lane`: every frame of
/// that lane and of one block, no empty continuation, and payloads that
/// reach the announced (and capped) total with the last frame, not before.
/// Anything else goes through the frame-by-frame path, which names what is
/// wrong with it.
fn is_whole_block(burst: &Burst, lane: Lane) -> bool {
    let Some(first) = burst.first() else {
        return false;
    };
    let total = first.total_len;
    let mut got = 0u64;
    for (i, f) in burst.iter().enumerate() {
        let continues = i == 0 || (got < total && !f.payload.is_empty());
        if f.lane != lane || f.block_id != first.block_id || !continues {
            return false;
        }
        got = got.saturating_add(f.payload.len() as u64);
    }
    got == total && total <= MAX_SIM_BLOCK_BYTES
}

impl Connection for SimConn {
    fn send_control_vectored(&mut self, parts: &[&[u8]]) -> TResult<()> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        self.stats.add(TransportField::ControlSent, 1);
        self.stats.add(TransportField::BytesSent, total as u64);
        match self.cfg.mode {
            StackMode::Copying => self.send_bytes_copying(Lane::Control, parts),
            StackMode::ZeroCopy => {
                // The zero-copy stack still moves control messages through
                // the socket (one metered copy into a pooled page), but
                // skips the fragmentation machinery: one frame.
                let framed = self.socket_send(parts, total).freeze();
                let frame = std::iter::once((0, FramePayload::Referenced(framed)));
                self.send_block(Lane::Control, total, frame)
            }
        }
    }

    fn recv_control(&mut self) -> TResult<ZcBytes> {
        let frames = self.recv_block_frames(Lane::Control)?;
        self.stats.add(TransportField::ControlRecv, 1);
        let msg = match self.cfg.mode {
            StackMode::Copying => self.reassemble_copying(&frames)?,
            StackMode::ZeroCopy => self.copy_out(&frames, CopyLayer::SocketRecv)?.freeze(),
        };
        self.stats.add(TransportField::BytesRecv, msg.len() as u64);
        Ok(msg)
    }

    fn send_data(&mut self, block: &ZcBytes) -> TResult<()> {
        self.stats.add(TransportField::DataBlocksSent, 1);
        self.stats
            .add(TransportField::BytesSent, block.len() as u64);
        match self.cfg.mode {
            StackMode::Copying => self.send_bytes_copying(Lane::Data, &[block.as_slice()]),
            StackMode::ZeroCopy => self.send_block_zero_copy(block),
        }
    }

    fn recv_data(&mut self, expected_len: usize) -> TResult<ZcBytes> {
        let frames = self.recv_block_frames(Lane::Data)?;
        let total = checked_block_len(&frames)?;
        if total != expected_len {
            // zc-audit: allow(control-plane) — protocol error diagnostic
            return Err(TransportError::Protocol(format!(
                "data block length {total} does not match announced {expected_len}"
            )));
        }
        if self.ctx.telemetry.is_enabled() {
            self.ctx
                .telemetry
                .metrics()
                .frames_per_block
                .record(frames.len() as u64);
            // Data-path flight time, derived from the first fragment's
            // put-on-wire stamp (both ends share the process trace clock).
            let sent_ns = frames.first().map_or(0, |f| f.sent_ns);
            if sent_ns != 0 {
                let now = zc_trace::now_ns();
                if now >= sent_ns {
                    self.ctx
                        .telemetry
                        .metrics()
                        .data_wire_ns
                        .record(now - sent_ns);
                }
            }
        }
        let block = match self.cfg.mode {
            StackMode::Copying => self.reassemble_copying(&frames)?,
            StackMode::ZeroCopy => self.reassemble_zero_copy(&frames)?,
        };
        self.stats.add(TransportField::DataBlocksRecv, 1);
        self.stats
            .add(TransportField::BytesRecv, block.len() as u64);
        Ok(block)
    }

    fn is_zero_copy(&self) -> bool {
        self.cfg.mode == StackMode::ZeroCopy
    }

    fn stats(&self) -> ConnStats {
        self.stats.snapshot()
    }

    fn peer(&self) -> String {
        // zc-audit: allow(control-plane) — short peer-name string for diagnostics
        self.peer.clone()
    }

    fn set_recv_timeout(&mut self, timeout: Option<std::time::Duration>) -> TResult<()> {
        self.recv_timeout = timeout;
        Ok(())
    }

    fn trace_conn_id(&self) -> u64 {
        self.trace_conn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(cfg: SimConfig) -> (Box<dyn Connection>, Box<dyn Connection>, TransportCtx) {
        let net = SimNetwork::new(cfg);
        let ctx = TransportCtx::new();
        let listener = net.listen(0, ctx.clone()).unwrap();
        let port = listener.endpoint().1;
        let client = net.connect(port, ctx.clone()).unwrap();
        let server = listener.accept().unwrap();
        (client, server, ctx)
    }

    #[test]
    fn control_roundtrip_copying() {
        let (mut c, mut s, _ctx) = pair(SimConfig::copying());
        c.send_control(b"hello").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"hello"[..]);
        s.send_control(b"world").unwrap();
        assert_eq!(c.recv_control().unwrap(), &b"world"[..]);
    }

    #[test]
    fn control_roundtrip_zero_copy() {
        let (mut c, mut s, _ctx) = pair(SimConfig::zero_copy());
        c.send_control(b"ping").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"ping"[..]);
    }

    #[test]
    fn empty_control_message() {
        let (mut c, mut s, _ctx) = pair(SimConfig::copying());
        c.send_control(b"").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b""[..]);
    }

    #[test]
    fn data_roundtrip_copying_has_four_copies() {
        let (mut c, mut s, ctx) = pair(SimConfig::copying());
        let n = 1 << 20;
        let block = ZcBytes::zeroed(n);
        let before = ctx.meter.snapshot();
        c.send_data(&block).unwrap();
        let got = s.recv_data(n).unwrap();
        assert_eq!(got.len(), n);
        let d = ctx.meter.snapshot().since(&before);
        assert_eq!(d.bytes(CopyLayer::SocketSend), n as u64);
        assert_eq!(d.bytes(CopyLayer::KernelFrag), n as u64);
        assert_eq!(d.bytes(CopyLayer::KernelDefrag), n as u64);
        assert_eq!(d.bytes(CopyLayer::SocketRecv), n as u64);
        assert!(!got.ptr_eq(&block), "copying stack must not share storage");
    }

    #[test]
    fn data_roundtrip_zero_copy_touches_nothing() {
        let (mut c, mut s, ctx) = pair(SimConfig::zero_copy());
        let n = (1 << 20) + 123; // non-page-multiple tail
        let mut buf = zc_buffers::AlignedBuf::with_capacity(n);
        let pattern: Vec<u8> = (0..n).map(|i| (i * 7 % 251) as u8).collect();
        buf.extend_from_slice(&pattern);
        let block = ZcBytes::from_aligned(buf);
        let before = ctx.meter.snapshot();
        c.send_data(&block).unwrap();
        let got = s.recv_data(n).unwrap();
        let d = ctx.meter.snapshot().since(&before);
        assert_eq!(d.overhead_bytes(), 0, "no payload byte copied");
        assert!(got.ptr_eq(&block), "receiver sees the sender's pages");
        assert_eq!(got.as_slice(), &pattern[..]);
        assert_eq!(s.stats().spec_hits, 1);
        assert_eq!(s.stats().spec_misses, 0);
    }

    #[test]
    fn zero_copy_speculation_miss_falls_back() {
        let (mut c, mut s, ctx) = pair(SimConfig::zero_copy_with_speculation(0.0));
        let n = 8192;
        let block = ZcBytes::zeroed(n);
        c.send_data(&block).unwrap();
        let got = s.recv_data(n).unwrap();
        assert!(!got.ptr_eq(&block), "miss forces a private copy");
        assert_eq!(got.len(), n);
        assert_eq!(s.stats().spec_misses, 1);
        assert_eq!(
            ctx.meter.bytes(CopyLayer::DepositFallback),
            n as u64,
            "fallback copy metered"
        );
    }

    #[test]
    fn speculation_rate_statistics() {
        let (mut c, mut s, _ctx) = pair(SimConfig::zero_copy_with_speculation(0.5));
        let rounds = 200;
        for _ in 0..rounds {
            c.send_data(&ZcBytes::zeroed(PAGE_SIZE)).unwrap();
            s.recv_data(PAGE_SIZE).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.spec_hits + st.spec_misses, rounds);
        // 0.5 ± generous tolerance for 200 deterministic-seed draws
        assert!(
            st.spec_hits > 50 && st.spec_hits < 150,
            "hits={}",
            st.spec_hits
        );
    }

    #[test]
    fn misaligned_block_forces_fallback_copy() {
        // Ablation A2: a block that does not start on a page boundary can
        // never be deposited in place — the driver must copy.
        let (mut c, mut s, ctx) = pair(SimConfig::zero_copy());
        let whole = ZcBytes::zeroed(PAGE_SIZE * 2);
        let misaligned = whole.slice(1..PAGE_SIZE + 1);
        assert!(!misaligned.is_page_aligned());
        c.send_data(&misaligned).unwrap();
        let got = s.recv_data(PAGE_SIZE).unwrap();
        assert!(!got.ptr_eq(&whole), "misaligned deposit cannot share pages");
        assert_eq!(s.stats().spec_misses, 1);
        assert_eq!(
            ctx.meter.bytes(CopyLayer::DepositFallback),
            PAGE_SIZE as u64
        );
    }

    #[test]
    fn empty_data_block() {
        let (mut c, mut s, _ctx) = pair(SimConfig::zero_copy());
        c.send_data(&ZcBytes::empty()).unwrap();
        assert_eq!(s.recv_data(0).unwrap().len(), 0);
        let (mut c2, mut s2, _ctx2) = pair(SimConfig::copying());
        c2.send_data(&ZcBytes::empty()).unwrap();
        assert_eq!(s2.recv_data(0).unwrap().len(), 0);
    }

    #[test]
    fn length_mismatch_is_protocol_error() {
        let (mut c, mut s, _ctx) = pair(SimConfig::copying());
        c.send_data(&ZcBytes::zeroed(100)).unwrap();
        assert!(matches!(s.recv_data(200), Err(TransportError::Protocol(_))));
    }

    #[test]
    fn interleaved_control_and_data() {
        let (mut c, mut s, _ctx) = pair(SimConfig::zero_copy());
        // Send data first, then control; receive control first.
        c.send_data(&ZcBytes::zeroed(PAGE_SIZE * 2)).unwrap();
        c.send_control(b"after-data").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"after-data"[..]);
        assert_eq!(s.recv_data(PAGE_SIZE * 2).unwrap().len(), PAGE_SIZE * 2);
    }

    #[test]
    fn peer_close_is_detected() {
        let (c, mut s, _ctx) = pair(SimConfig::copying());
        drop(c);
        assert_eq!(s.recv_control().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn connect_refused_without_listener() {
        let net = SimNetwork::new(SimConfig::copying());
        assert!(matches!(
            net.connect(9, TransportCtx::new()),
            Err(TransportError::ConnectionRefused(_))
        ));
    }

    #[test]
    fn port_reuse_rejected_then_released() {
        let net = SimNetwork::new(SimConfig::copying());
        let l = net.listen(5000, TransportCtx::new()).unwrap();
        assert!(matches!(
            net.listen(5000, TransportCtx::new()),
            Err(TransportError::AddrInUse(_))
        ));
        drop(l);
        assert!(net.listen(5000, TransportCtx::new()).is_ok());
    }

    #[test]
    fn multiple_connections_are_independent() {
        let net = SimNetwork::new(SimConfig::zero_copy());
        let ctx = TransportCtx::new();
        let l = net.listen(0, ctx.clone()).unwrap();
        let port = l.endpoint().1;
        let mut c1 = net.connect(port, ctx.clone()).unwrap();
        let mut c2 = net.connect(port, ctx.clone()).unwrap();
        let mut s1 = l.accept().unwrap();
        let mut s2 = l.accept().unwrap();
        c1.send_control(b"one").unwrap();
        c2.send_control(b"two").unwrap();
        assert_eq!(s1.recv_control().unwrap(), &b"one"[..]);
        assert_eq!(s2.recv_control().unwrap(), &b"two"[..]);
    }

    fn faulty_pair(
        cfg: SimConfig,
    ) -> (
        SimNetwork,
        Box<dyn Connection>,
        Box<dyn Connection>,
        TransportCtx,
    ) {
        let net = SimNetwork::new(cfg);
        let ctx = TransportCtx::new();
        let listener = net.listen(0, ctx.clone()).unwrap();
        let port = listener.endpoint().1;
        let client = net.connect(port, ctx.clone()).unwrap();
        let server = listener.accept().unwrap();
        (net, client, server, ctx)
    }

    #[test]
    fn fault_cut_kills_sender_then_peer_and_spares_replacements() {
        let net = SimNetwork::new(SimConfig::copying());
        let ctx = TransportCtx::new();
        let l = net.listen(0, ctx.clone()).unwrap();
        let port = l.endpoint().1;
        let mut c = net.connect(port, ctx.clone()).unwrap();
        let mut s = l.accept().unwrap();
        c.send_control(b"ok").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"ok"[..]);

        net.inject_faults(FaultPlan::cut_after(0).on(FaultSide::Client));
        assert_eq!(c.send_control(b"dead").unwrap_err(), TransportError::Closed);
        assert_eq!(
            c.send_control(b"still dead").unwrap_err(),
            TransportError::Closed,
            "a cut wire stays cut"
        );
        assert_eq!(s.recv_control().unwrap_err(), TransportError::Closed);
        assert_eq!(net.faults_tripped(), 1);

        // The trip budget is spent: a replacement connection sails through.
        let mut c2 = net.connect(port, ctx.clone()).unwrap();
        let mut s2 = l.accept().unwrap();
        c2.send_control(b"again").unwrap();
        assert_eq!(s2.recv_control().unwrap(), &b"again"[..]);
    }

    #[test]
    fn fault_drop_prob_one_kills_immediately() {
        let (net, mut c, _s, _ctx) = faulty_pair(SimConfig::copying());
        net.inject_faults(FaultPlan::drop(1.0));
        assert_eq!(c.send_control(b"x").unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn fault_corrupt_frame_delivers_damaged_bytes() {
        let (net, mut c, mut s, _ctx) = faulty_pair(SimConfig::copying());
        net.inject_faults(FaultPlan {
            corrupt_frame: Some(0),
            ..FaultPlan::default()
        });
        let original = b"hello fault injector".to_vec();
        c.send_control(&original).unwrap();
        let got = s.recv_control().unwrap();
        assert_eq!(got.len(), original.len());
        assert_ne!(got.as_slice(), original, "payload must arrive damaged");
    }

    #[test]
    fn fault_corrupt_never_touches_sender_pages() {
        let (net, mut c, mut s, _ctx) = faulty_pair(SimConfig::zero_copy());
        net.inject_faults(FaultPlan {
            corrupt_frame: Some(0),
            ..FaultPlan::default()
        });
        let block = ZcBytes::zeroed(PAGE_SIZE);
        c.send_data(&block).unwrap();
        let got = s.recv_data(PAGE_SIZE).unwrap();
        assert!(
            block.as_slice().iter().all(|&b| b == 0),
            "sender buffer intact"
        );
        assert_ne!(got.as_slice(), block.as_slice(), "receiver sees damage");
        assert_eq!(s.stats().spec_misses, 1, "detached frame cannot join");
    }

    #[test]
    fn fault_truncate_surfaces_as_protocol_error() {
        let (net, mut c, mut s, _ctx) = faulty_pair(SimConfig::copying());
        net.inject_faults(FaultPlan {
            truncate_frame: Some(0),
            ..FaultPlan::default()
        });
        c.send_control(b"0123456789").unwrap();
        // The truncated block can never complete; the next block's frames
        // expose the mismatch deterministically.
        c.send_control(b"next").unwrap();
        assert!(matches!(s.recv_control(), Err(TransportError::Protocol(_))));
    }

    #[test]
    fn fault_delay_reorders_but_bytes_survive() {
        let (net, mut c, mut s, _ctx) = faulty_pair(SimConfig::zero_copy());
        net.inject_faults(FaultPlan {
            delay_frame: Some(0),
            ..FaultPlan::default()
        });
        let n = PAGE_SIZE * 2;
        let mut buf = zc_buffers::AlignedBuf::with_capacity(n);
        let pattern: Vec<u8> = (0..n).map(|i| (i * 13 % 251) as u8).collect();
        buf.extend_from_slice(&pattern);
        let block = ZcBytes::from_aligned(buf);
        c.send_data(&block).unwrap();
        let got = s.recv_data(n).unwrap();
        assert_eq!(got.as_slice(), &pattern[..], "reassembly is offset-based");
        assert_eq!(
            s.stats().spec_misses,
            1,
            "reordered fragments cannot join in place"
        );
    }

    #[test]
    fn fault_spec_miss_forces_fallback_with_intact_payload() {
        let (net, mut c, mut s, ctx) = faulty_pair(SimConfig::zero_copy());
        net.inject_faults(FaultPlan::spec_miss(1.0));
        let block = ZcBytes::zeroed(PAGE_SIZE);
        c.send_data(&block).unwrap();
        let got = s.recv_data(PAGE_SIZE).unwrap();
        assert!(!got.ptr_eq(&block), "forced miss copies");
        assert_eq!(got.as_slice(), block.as_slice());
        assert_eq!(s.stats().spec_misses, 1);
        assert_eq!(
            ctx.meter.bytes(CopyLayer::DepositFallback),
            PAGE_SIZE as u64
        );

        // Clearing the plan restores in-place deposits.
        net.clear_faults();
        c.send_data(&block).unwrap();
        let again = s.recv_data(PAGE_SIZE).unwrap();
        assert!(again.ptr_eq(&block));
    }

    #[test]
    fn fault_refuse_connects_then_clear() {
        let net = SimNetwork::new(SimConfig::copying());
        let ctx = TransportCtx::new();
        let l = net.listen(0, ctx.clone()).unwrap();
        let port = l.endpoint().1;
        net.inject_faults(FaultPlan::refuse());
        assert!(matches!(
            net.connect(port, ctx.clone()),
            Err(TransportError::ConnectionRefused(_))
        ));
        net.clear_faults();
        assert!(net.connect(port, ctx.clone()).is_ok());
    }

    #[test]
    fn fault_side_filter_leaves_other_side_alone() {
        let (net, mut c, mut s, _ctx) = faulty_pair(SimConfig::copying());
        net.inject_faults(FaultPlan::cut_after(0).on(FaultSide::Server));
        // Client sending is unaffected…
        c.send_control(b"client fine").unwrap();
        assert_eq!(s.recv_control().unwrap(), &b"client fine"[..]);
        // …but the server's first send dies.
        assert_eq!(s.send_control(b"x").unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn oversized_block_announcement_rejected() {
        let faults = Arc::new(FaultState::default());
        let (wire_tx, wire_rx) = unbounded();
        let (tx_unused, _rx_unused) = unbounded();
        let mut conn = SimConn::new(
            "sim:test#cap".to_string(),
            SimConfig::copying(),
            TransportCtx::new(),
            tx_unused,
            wire_rx,
            7,
            false,
            faults,
        );
        let mut burst = Burst::default();
        burst.push(Frame {
            lane: Lane::Control,
            block_id: 0,
            offset: 0,
            total_len: MAX_SIM_BLOCK_BYTES + 1,
            sent_ns: 0,
            payload: FramePayload::Copied(vec![0u8; 16]),
        });
        assert!(wire_tx.send(burst).is_ok());
        match conn.recv_control() {
            Err(TransportError::Protocol(msg)) => {
                assert!(msg.contains("cap"), "{msg}");
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    /// A block of `frames` frames in `cfg`'s data-lane unit, filled with a
    /// position-dependent pattern.
    fn patterned_block(cfg: SimConfig, frames: usize) -> (ZcBytes, Vec<u8>, usize) {
        let unit = match cfg.mode {
            StackMode::Copying => cfg.mtu_payload,
            StackMode::ZeroCopy => PAGE_SIZE,
        };
        let pattern: Vec<u8> = (0..unit * frames).map(|i| (i * 13 % 251) as u8).collect();
        let mut buf = zc_buffers::AlignedBuf::with_capacity(pattern.len());
        buf.extend_from_slice(&pattern);
        (ZcBytes::from_aligned(buf), pattern, unit)
    }

    /// A burst is a delivery unit, never a fault unit: a fault addressed to
    /// the third of a block's five frames does to the receiver exactly
    /// what it did when frames crossed the wire one by one.
    #[test]
    fn faults_in_the_middle_of_a_burst_stay_per_frame() {
        for cfg in [SimConfig::copying(), SimConfig::zero_copy()] {
            let zero_copy = cfg.mode == StackMode::ZeroCopy;
            let (block, pattern, unit) = patterned_block(cfg, 5);
            let n = pattern.len();

            // Cut: the two frames before it are delivered, then the wire
            // is gone for both ends.
            let (net, mut c, mut s, _ctx) = faulty_pair(cfg);
            net.inject_faults(FaultPlan::cut_after(2).on(FaultSide::Client));
            assert_eq!(c.send_data(&block).unwrap_err(), TransportError::Closed);
            assert_eq!(c.stats().frames_sent, 2, "{cfg:?}");
            assert_eq!(s.recv_data(n).unwrap_err(), TransportError::Closed);
            assert_eq!(s.stats().wire_bytes_recv, c.stats().wire_bytes_sent);
            assert_eq!(
                s.stats().wire_bytes_recv,
                2 * (unit + crate::frame::FRAME_HEADER_BYTES) as u64
            );
            assert_eq!(net.faults_tripped(), 1);

            // Corrupt: damage inside the third frame only, the sender's
            // pages untouched, and no in-place deposit of a detached frame.
            let (net, mut c, mut s, _ctx) = faulty_pair(cfg);
            net.inject_faults(FaultPlan {
                corrupt_frame: Some(2),
                ..FaultPlan::default()
            });
            c.send_data(&block).unwrap();
            let got = s.recv_data(n).unwrap();
            assert_eq!(block.as_slice(), &pattern[..], "sender pages intact");
            let third = 2 * unit..3 * unit;
            assert_ne!(got[third.clone()], pattern[third.clone()], "{cfg:?}");
            assert_eq!(got[..third.start], pattern[..third.start]);
            assert_eq!(got[third.end..], pattern[third.end..]);
            assert_eq!(s.stats().spec_misses, u64::from(zero_copy));
            assert_eq!(net.faults_tripped(), 1);

            // Delay: the third frame arrives after the fourth; reassembly
            // is by offset, so the bytes survive, but not in place.
            let (net, mut c, mut s, _ctx) = faulty_pair(cfg);
            net.inject_faults(FaultPlan {
                delay_frame: Some(2),
                ..FaultPlan::default()
            });
            c.send_data(&block).unwrap();
            assert_eq!(c.stats().frames_sent, 5);
            let got = s.recv_data(n).unwrap();
            assert_eq!(got.as_slice(), &pattern[..], "{cfg:?}");
            assert_eq!(s.stats().spec_misses, u64::from(zero_copy));
            assert_eq!(s.stats().spec_hits, 0);
            assert_eq!(net.faults_tripped(), 1);

            // Truncate: the block can never complete; the next block's
            // first frame exposes it.
            let (net, mut c, mut s, _ctx) = faulty_pair(cfg);
            net.inject_faults(FaultPlan {
                truncate_frame: Some(2),
                ..FaultPlan::default()
            });
            c.send_data(&block).unwrap();
            c.send_data(&block).unwrap();
            assert!(
                matches!(s.recv_data(n), Err(TransportError::Protocol(_))),
                "{cfg:?}"
            );
            assert_eq!(s.stats().wire_bytes_recv, c.stats().wire_bytes_sent);
            assert_eq!(net.faults_tripped(), 1);
        }
    }

    /// A frame delayed past the end of its block rides the next send's
    /// burst: that burst mixes two blocks (and here two lanes), and both
    /// still come out whole.
    #[test]
    fn delayed_last_frame_rides_the_next_burst() {
        let cfg = SimConfig::copying();
        let (net, mut c, mut s, _ctx) = faulty_pair(cfg);
        let (block, pattern, _) = patterned_block(cfg, 3);
        net.inject_faults(FaultPlan {
            delay_frame: Some(2),
            ..FaultPlan::default()
        });
        c.send_data(&block).unwrap();
        assert_eq!(c.stats().frames_sent, 2, "the last frame is held back");
        c.send_control(b"after").unwrap();
        assert_eq!(c.stats().frames_sent, 4);
        assert_eq!(s.recv_data(pattern.len()).unwrap().as_slice(), &pattern[..]);
        assert_eq!(s.recv_control().unwrap(), &b"after"[..]);
    }

    #[test]
    fn recv_timeout_fires_while_the_other_lane_has_a_burst_queued() {
        for cfg in [SimConfig::copying(), SimConfig::zero_copy()] {
            let (mut c, mut s, _ctx) = pair(cfg);
            let (block, pattern, _) = patterned_block(cfg, 4);
            c.send_data(&block).unwrap();
            s.set_recv_timeout(Some(std::time::Duration::from_millis(20)))
                .unwrap();
            // The queued data burst must neither satisfy nor wedge a
            // control receive: it is parked, and the wait times out.
            assert_eq!(s.recv_control().unwrap_err(), TransportError::Timeout);
            assert_eq!(s.recv_data(pattern.len()).unwrap().as_slice(), &pattern[..]);
            assert_eq!(
                s.recv_data(pattern.len()).unwrap_err(),
                TransportError::Timeout
            );
            // And the lane it waited for still works afterwards.
            c.send_control(b"late").unwrap();
            assert_eq!(s.recv_control().unwrap(), &b"late"[..]);
        }
    }

    #[test]
    fn control_message_is_gathered_from_its_parts_by_the_send_copy() {
        for cfg in [SimConfig::copying(), SimConfig::zero_copy()] {
            let (mut c, mut s, ctx) = pair(cfg);
            let body = vec![7u8; 3 * MTU_PAYLOAD];
            let before = ctx.meter.snapshot();
            c.send_control_vectored(&[b"head", &[], &body, b"tail"])
                .unwrap();
            let got = s.recv_control().unwrap();
            let n = 8 + body.len();
            assert_eq!(got.len(), n);
            assert_eq!(got[..4], *b"head");
            assert_eq!(got[4..n - 4], body[..]);
            assert_eq!(got[n - 4..], *b"tail");
            let d = ctx.meter.snapshot().since(&before);
            assert_eq!(d.bytes(CopyLayer::SocketSend), n as u64, "{cfg:?}");
            assert_eq!(d.bytes(CopyLayer::SocketRecv), n as u64, "{cfg:?}");
        }
    }

    #[test]
    fn frame_and_wire_accounting() {
        let (mut c, _s, _ctx) = pair(SimConfig::copying());
        let n = MTU_PAYLOAD * 3 + 10;
        c.send_data(&ZcBytes::zeroed(n)).unwrap();
        let st = c.stats();
        assert_eq!(st.frames_sent, 4, "3 full frames + 1 tail");
        assert_eq!(
            st.wire_bytes_sent,
            (n + 4 * crate::frame::FRAME_HEADER_BYTES) as u64
        );
    }
}
